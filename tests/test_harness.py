import json
import math
import warnings

import numpy as np
import pytest

from kcmlab import __version__, native
from kcmlab.harness import (
    PREDICTORS,
    ExperimentConfig,
    csv_header_comment,
    exact_region_report,
    exact_report,
    fit_scaling,
    medians_from_manifest,
    region_for,
    run_sweep,
)
from kcmlab.families import builtin_family, load_family
from kcmlab.geometry import Region

WEST = load_family('{"name":"west","rules":[[[1,0]]]}')


class TestConfig:
    def test_qs_sorted_descending(self):
        cfg = ExperimentConfig(kind="kcm", family="east1d", qs=[0.2, 0.5, 0.3], box=4)
        assert cfg.qs == [0.5, 0.3, 0.2]

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            ExperimentConfig(kind="nope", family="east1d", qs=[0.3], box=4)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="kcm", family="east1d", qs=[], box=4)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="kcm", family="east1d", qs=[1.5], box=4)
        for box in (0, -3):
            with pytest.raises(ValueError, match="box must be >= 1"):
                ExperimentConfig(kind="kcm", family="duarte", qs=[0.3], box=box)
        for t_max in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="t_max must be finite and positive"):
                ExperimentConfig(kind="kcm", family="duarte", qs=[0.3], box=4, t_max=t_max)

    def test_header_comment(self):
        assert csv_header_comment(7) == f"# kcm-lab v{__version__} seed=7"

    def test_region_for(self):
        chain = region_for(builtin_family("east1d"), 5)
        assert chain.sites == frozenset((x, 0) for x in range(-4, 1))
        square = region_for(builtin_family("duarte"), 3)
        assert (0, 0) in square.sites
        assert len(square.sites) == 9
        # an axis that no rule offset reads is one site wide
        south = load_family('{"name":"south","rules":[[[0,-1]]]}')
        assert region_for(south, 4).sites == frozenset((0, y) for y in range(-3, 1))
        assert region_for(WEST, 4).sites == frozenset((x, 0) for x in range(-3, 1))


class TestSweep:
    def test_kcm_sweep_files_and_manifest(self, tmp_path):
        cfg = ExperimentConfig(
            kind="kcm", family="east1d", qs=[0.4, 0.3], box=4,
            trials=20, t_max=1e3, seed=1, out_dir=str(tmp_path),
        )
        manifest = run_sweep(cfg)
        assert manifest["status"] == "ok"
        assert [c["q"] for c in manifest["cells"]] == [0.4, 0.3]
        for cell in manifest["cells"]:
            path = tmp_path / cell["file"]
            assert path.exists()
            lines = path.read_text().splitlines()
            assert lines[0] == csv_header_comment(1)
            assert lines[1] == "trial,seed,q,tau0,censored,events,legal_updates"
            assert len(lines) == 2 + 20
            events = sum(int(row.split(",")[5]) for row in lines[2:])
            assert cell["summary"]["events"] == events > 0
            assert cell["summary"]["events_per_s"] > 0
        assert manifest["backend"] == native.backend()
        assert manifest["backend"] in ("c", "python")
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == manifest
        assert not list(tmp_path.glob("*.tmp"))

    def test_sweep_deterministic_bytes(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            cfg = ExperimentConfig(
                kind="kcm", family="east1d", qs=[0.35], box=4,
                trials=15, t_max=1e3, seed=9, out_dir=str(tmp_path / sub),
            )
            run_sweep(cfg)
            outs.append((tmp_path / sub / "kcm_q0.3500.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_bootstrap_sweep(self, tmp_path):
        cfg = ExperimentConfig(
            kind="bootstrap", family="duarte", qs=[0.3], box=8,
            trials=10, seed=2, out_dir=str(tmp_path),
        )
        manifest = run_sweep(cfg)
        assert manifest["status"] == "ok"
        lines = (tmp_path / "bootstrap_q0.3000.csv").read_text().splitlines()
        assert lines[1] == "trial,seed,q,steps,censored"
        assert len(lines) == 2 + 10

    def test_exact_sweep(self, tmp_path):
        cfg = ExperimentConfig(
            kind="exact", family="east1d", qs=[0.3], box=3,
            out_dir=str(tmp_path),
        )
        manifest = run_sweep(cfg)
        report = json.loads((tmp_path / "exact_q0.3000.json").read_text())
        assert set(report) == {"gap", "t_rel", "e_mu_tau0", "ratio_check", "residuals"}
        assert report["ratio_check"] is True
        assert manifest["cells"][0]["summary"]["gap"] == report["gap"]

    def test_partial_failure_keeps_manifest(self, tmp_path):
        # box 15 blows the exact-solver state cap for one cell only
        cfg = ExperimentConfig(
            kind="exact", family="east1d", qs=[0.3, 0.2], box=15,
            out_dir=str(tmp_path),
        )
        manifest = run_sweep(cfg)
        assert manifest["status"] == "partial-failure"
        assert all(c["status"] == "error" for c in manifest["cells"])
        assert all(c["error_type"] == "StateSpaceError" for c in manifest["cells"])
        assert all("exceeds cap" in c["error"] for c in manifest["cells"])
        assert (tmp_path / "manifest.json").exists()


class TestFits:
    def test_recovers_synthetic_slope(self):
        for name, fn in PREDICTORS.items():
            qs = [0.5, 0.45, 0.4, 0.35, 0.3, 0.25, 0.2]
            slope, intercept = 0.8, 0.3
            pts = [(q, math.exp(slope * fn(q) + intercept)) for q in qs]
            report = fit_scaling(pts)
            assert report.winner == name, name
            fit = report.fits[name]
            assert abs(fit["slope"] - slope) < 0.01 * slope
            assert fit["r_squared"] > 0.999

    def test_excludes_bad_points(self):
        pts = [(0.5, 2.0), (0.4, 3.0), (0.3, 5.0), (0.2, 0.0), (0.1, math.inf)]
        report = fit_scaling(pts)
        assert report.excluded == 2
        assert report.n_points == 3

    def test_indeterminate_on_noise(self, rng):
        qs = np.linspace(0.1, 0.5, 12)
        pts = [(float(q), float(np.exp(rng.normal(0, 3)))) for q in qs]
        report = fit_scaling(pts)
        assert report.winner == "indeterminate"
        payload = json.loads(report.to_json())
        assert payload["winner"] == "indeterminate"

    def test_too_few_points(self):
        with pytest.raises(ValueError, match=">= 3"):
            fit_scaling([(0.3, 1.0), (0.2, 2.0)])

    @pytest.mark.parametrize("q", [0.0, -0.2, 1.0, 1.5, math.nan])
    def test_q_outside_unit_interval_is_named(self, q):
        pts = [(0.5, 2.0), (0.4, 3.0), (q, 5.0), (0.2, 8.0)]
        with pytest.raises(ValueError, match=rf"q must lie in \(0,1\), got {q}"):
            fit_scaling(pts)

    def test_one_distinct_q_is_rejected_before_fitting(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="need >= 2 distinct q, have only q=0.3"):
                fit_scaling([(0.3, 1.0), (0.3, 2.0), (0.3, 4.0), (0.2, math.inf)])

    def test_medians_from_manifest_filters(self):
        manifest = {
            "cells": [
                {"q": 0.4, "status": "ok", "summary": {"median": 2.0, "censor_fraction": 0.0}},
                {"q": 0.3, "status": "ok", "summary": {"median": 5.0, "censor_fraction": 0.5}},
                {"q": 0.2, "status": "error"},
            ]
        }
        assert medians_from_manifest(manifest) == [(0.4, 2.0)]


class TestExactReport:
    def test_trivial_lower_bound_holds_across_q(self):
        fam = builtin_family("east1d")
        for q in (0.2, 0.4, 0.6):
            report = exact_report(fam, 4, q)
            assert report["ratio_check"] is True
            assert q * report["e_mu_tau0"] <= report["t_rel"] * (1 + 1e-12)

    @pytest.mark.parametrize("q", [0.3, 0.07])
    def test_west_row_hits_at_the_origins_own_rate(self, q):
        # the origin, the row's east end, reads the empty exterior, so it is
        # always legal: from an occupied start tau0 is exponential of rate q
        report = exact_region_report(WEST, Region.corner(4, 1), q)
        want = (1 - q) / q
        assert abs(report["e_mu_tau0"] - want) <= 1e-12 * want

    def test_solvers_are_called_through_the_harness(self, monkeypatch):
        # the benchmark's traced run wraps the solvers under these names
        from kcmlab import harness

        called = []
        for name in ("build_generator", "spectral_gap", "mean_hitting"):
            fn = getattr(harness, name)
            monkeypatch.setattr(
                harness, name,
                lambda *a, _fn=fn, _name=name, **kw: called.append(_name) or _fn(*a, **kw),
            )
        exact_report(builtin_family("east1d"), 3, 0.3)
        assert called == ["build_generator", "spectral_gap", "mean_hitting"]
