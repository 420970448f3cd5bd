"""Tests of the benchmark's own checks: each one holds on a correct input and
fails on a deliberately wrong one.  Run with

    python3 -m pytest bench/test_checks.py

They are not part of the package's test suite (pyproject sets testpaths).
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from mpmath_reference import east_e_tau0  # noqa: E402

from kcmlab import bootstrap, harness, kcm  # noqa: E402
from kcmlab.families import builtin_family  # noqa: E402

EAST = builtin_family("east1d")
DUARTE = builtin_family("duarte")


def test_east_reference_matches_mpmath():
    ref = checks.east_chain_reference(6, 0.3)
    assert ref["e_mu_tau0"] == pytest.approx(float(east_e_tau0(6, "0.3", 30)), rel=1e-12)


def test_east_reference_on_the_failing_case():
    ref = checks.east_chain_reference(8, 0.03)["e_mu_tau0"]
    assert checks.check_relative(ref, float(east_e_tau0(8, "0.03", 40)), 1e-9, "") == []


def test_east_reference_gap_matches_program():
    ref = checks.east_chain_reference(7, 0.25)
    report = harness.exact_report(EAST, 7, 0.25)
    assert report["gap"] == pytest.approx(ref["gap"], rel=1e-9)


def _row(**kw):
    row = {"q": 0.3, "trial": 0, "tau0": 1.5, "censored": 0, "events": 10, "legal_updates": 4}
    row.update(kw)
    return row


def test_kcm_rows():
    assert checks.check_kcm_rows([_row(), _row(tau0=0.0, events=0, legal_updates=0),
                                  _row(tau0=50.0, censored=1)], 50.0) == []
    assert checks.check_kcm_rows([_row(legal_updates=11)], 50.0)
    assert checks.check_kcm_rows([_row(legal_updates=-1)], 50.0)
    assert checks.check_kcm_rows([_row(events=0, legal_updates=0)], 50.0)
    assert checks.check_kcm_rows([_row(tau0=0.0)], 50.0)
    assert checks.check_kcm_rows([_row(censored=1)], 50.0)
    assert checks.check_kcm_rows([_row(tau0=50.0)], 50.0)


def test_stationary_start():
    assert checks.check_stationary_start(30, 100, 0.3) == []
    assert checks.check_stationary_start(60, 100, 0.3)


def test_median():
    times = [3.0, 1.0, math.inf, 2.0]
    assert checks.check_median(2.5, times, "") == []
    assert checks.check_median(2.0, times, "") == []
    assert checks.check_median(3.5, times, "")
    assert checks.check_median(math.inf, [1.0, math.inf, math.inf], "") == []


def test_mc_mean_shifted_by_ten_standard_errors_fails():
    x = np.random.default_rng(0).exponential(12.0, size=1000)
    se = np.std(x, ddof=1) / math.sqrt(len(x))
    assert checks.check_mc_mean(x, x.mean()) == []
    assert checks.check_mc_mean(x + 10 * se, x.mean())


def test_check_cell_agrees_with_reference():
    length, q = 6, 0.4
    region = kcm.east_chain_region(length)
    params = kcm.SimParams(family=EAST, q=q, region=region,
                           boundary=kcm.frozen_boundary_for(EAST, region), t_max=1e6, seed=5)
    results, _ = kcm.batch_tau0(params, 400)
    exact_value = checks.east_chain_reference(length, q)["e_mu_tau0"]
    assert checks.check_mc_mean([r.tau0 for r in results], exact_value) == []


def test_duarte_grid_reference_matches_program():
    rng = np.random.default_rng(3)
    for q in (0.15, 0.2, 0.3):
        empty = rng.random((41, 41)) < q
        for origin in ((20, 20), (5, 30), (40, 0)):
            want = bootstrap.bootstrap_time_on_grid(DUARTE, empty, origin, max_steps=30)
            assert checks.duarte_grid_time(empty, origin, 30) == want


def test_duarte_grid_reference_sees_orientation():
    empty = np.zeros((5, 5), dtype=bool)
    empty[1, 2] = empty[2, 3] = True  # west and north of (2, 2)
    assert checks.duarte_grid_time(empty, (2, 2), 5) == 1
    empty = np.zeros((5, 5), dtype=bool)
    empty[3, 2] = empty[2, 3] = True  # east and north: not a Duarte rule
    assert checks.duarte_grid_time(empty, (2, 2), 5) is None


def test_bootstrap_pair_with_smaller_q_infected_sooner_fails():
    assert checks.check_monotone_in_q([(0.2, 5), (0.15, 9), (0.1, None)], "") == []
    assert checks.check_monotone_in_q([(0.2, 9), (0.15, 5)], "")
    assert checks.check_monotone_in_q([(0.2, None), (0.1, 40)], "")


def test_gap_with_hitting_time_above_relaxation_time_fails():
    assert checks.check_hitting_vs_relaxation(0.3, 0.01, 300.0, "") == []
    assert checks.check_hitting_vs_relaxation(0.3, 0.01, 400.0, "")
    assert checks.check_hitting_vs_relaxation(0.3, -0.01, 1.0, "")


def test_monotone_in_length():
    good = [(10, 0.008, 43.9), (11, 0.007, 44.8), (12, 0.0066, 45.5)]
    assert checks.check_monotone_in_length(good, 0.3) == []
    assert checks.check_monotone_in_length(good + [(13, 0.0067, 46.0)], 0.3)
    assert checks.check_monotone_in_length(good + [(13, 0.006, 45.0)], 0.3)


def test_relative():
    assert checks.check_relative(1.0 + 1e-10, 1.0, 1e-9, "") == []
    assert checks.check_relative(1.0 + 1e-8, 1.0, 1e-9, "")


def test_empty_fraction():
    assert checks.check_empty_fraction(2000, 10, 1000, 5, 0.2) == []
    assert checks.check_empty_fraction(2500, 10, 1000, 5, 0.2)


def test_arrow_profile():
    phi = ("U", "D", "U", "U")
    assert checks.check_arrow_profile(phi, {1: (1, 0), 3: (2, 1), 4: (4, 0)}) == []
    assert checks.check_arrow_profile(phi, {1: (1, 0), 3: (2, 1), 4: (3, 1)})  # overlap
    assert checks.check_arrow_profile(phi, {1: (1, 0), 3: (4, -1), 4: (4, 0)})  # xi > k
    assert checks.check_arrow_profile(phi, {1: (1, 0), 3: (2, 1)})  # U without droplet
    assert checks.check_arrow_profile(phi, {1: (1, 0), 2: (2, 0), 3: (3, 0), 4: (4, 0)})
    assert checks.check_arrow_profile(phi, {1: (0, 1), 3: (3, 0), 4: (4, 0)})  # xi < 1


def test_b2_witness():
    N = 4
    cols = checks.duarte_columns(N)
    phi = ("D", "D", "D", "U")
    good = [(-3, 0), (-3, 1), (-2, 1), (-1, 1), (-1, 0)]
    assert checks.check_b2_witness(1, 3, good, phi, cols, 3) == []
    back = [(-3, 0), (-2, 0), (-3, 0), (-2, 0), (-1, 0)]
    assert checks.check_b2_witness(1, 3, back, phi, cols, 3)  # a -e1 step
    assert checks.check_b2_witness(1, 4, good + [(0, 0)], phi, cols, 3)  # over an up arrow
    assert checks.check_b2_witness(1, 3, good[:-2], phi, cols, 3)  # stops short of column 3
    tall = [(-1, 0), (-1, 1), (-1, 2), (-1, 3), (-1, 4), (-1, 5), (-1, 6), (-1, 7), (-1, 8)]
    assert checks.check_b2_witness(2, 3, [(-2, 8)] + tall[::-1], phi, cols, 2)  # leaves V
    assert checks.check_b2_witness(1, 2, good[:3], phi, cols, 3)  # window too short


def test_dynamics_tables_check_catches_a_wrong_table():
    from workloads import _build_dynamics, _check_tables

    region = kcm.east_chain_region(6)
    dyn = _build_dynamics(EAST, region, kcm.frozen_boundary_for(EAST, region))
    sites = [(x, 0) for x in range(-5, 1)]
    assert _check_tables(dyn, sites, EAST.rules, {(-6, 0)}, "") == []
    dyn.neighbors[2] = 0
    assert _check_tables(dyn, sites, EAST.rules, {(-6, 0)}, "")


def test_tracer_self_time_and_restore():
    import types

    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    with spans.Tracer() as tr:
        tr.patch(mod, "inner", "inner")
        tr.patch(mod, "outer", "outer")
        assert mod.outer(1) == 4
    assert tr.calls["outer"] == tr.calls["inner"] == 1
    assert tr.nested_calls[("outer", "inner")] == 1
    assert tr.self_time["outer"] == pytest.approx(tr.total["outer"] - tr.total["inner"])
    assert mod.inner.__name__ == "<lambda>"


def test_benchmark_json_names_match():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    import run
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "run_s", "peak_rss_mb"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".run-*"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-spectra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
