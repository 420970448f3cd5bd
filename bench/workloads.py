"""The four workloads.

Each workload builds its inputs in ``__init__`` (the set-up that setup_s
times), runs one round of fixed work in ``run_round``, checks each round's
outputs in ``check_round`` and makes its costlier reference checks once, in
``check_final``.  ``run_round`` makes every call into the program through
``op(fn, *args, **kwargs)``, which times it.  ``trace`` installs the spans
of a traced round.  The sizes and the reasons for them are in README.md.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import checks
import spans
from kcmlab import bootstrap, droplets, harness, kcm
from kcmlab.families import builtin_family
from kcmlab.geometry import BoundaryExterior, Region


def _seeds(seed: int, workload: int, n: int):
    """``n`` 32-bit seeds for the program, derived from the run's seed."""
    return [int(x) for x in np.random.SeedSequence([seed, workload]).generate_state(n)]


def _build_dynamics(family, region, boundary):
    """The per-site constraint tables that the KCM engine compiles."""
    params = kcm.SimParams(family=family, q=0.5, region=region, boundary=boundary)
    return kcm.make_dynamics(params)


def _check_tables(dyn, sites, rules, exterior_empty, label):
    """The engine's tables against our own reduction of the rules: a rule
    that touches a healthy site outside the region can never fire and is
    dropped; empty sites outside the region are left out of its list."""
    if list(dyn.sites) != sorted(sites):
        return [f"{label}: Dynamics sites differ from the region"]
    index = {s: i for i, s in enumerate(sorted(sites))}
    problems = []
    for i, (a, b) in enumerate(sorted(sites)):
        want = []
        for rule in rules:
            nbrs = []
            for dx, dy in rule:
                t = (a + dx, b + dy)
                if t in index:
                    nbrs.append(index[t])
                elif t not in exterior_empty:
                    break
            else:
                want.append(sorted(nbrs))
        got = [
            sorted(int(j) for j in dyn.neighbors[dyn.rule_ptr[r]:dyn.rule_ptr[r + 1]])
            for r in range(dyn.site_ptr[i], dyn.site_ptr[i + 1])
        ]
        if sorted(got) != sorted(want):
            problems.append(f"{label}: site {(a, b)} has rules {got}, expected {want}")
    return problems


class EastKcmSweep:
    """A scaled-down East sweep (acceptance 09a) plus one check cell."""

    QS = (0.5, 0.4, 0.3, 0.25, 0.2)
    LENGTH = 256
    TRIALS = 120
    T_MAX = 50.0
    CELL_LENGTH = 8
    CELL_Q = 0.4
    CELL_TRIALS = 1000
    CELL_T_MAX = 1e6

    def __init__(self, seed: int, tmp: str):
        *sweep_seeds, cell_seed = _seeds(seed, 1, len(self.QS) + 1)
        self.family = builtin_family("east1d")
        # One sweep per q, each with its own seed: the cells are independent,
        # so the work of a round varies less from seed to seed than in one
        # sweep whose cells share their random streams, and each cell is
        # timed on its own.
        self.sweeps = [
            harness.ExperimentConfig(
                kind="kcm", family="east1d", qs=[q], box=self.LENGTH,
                trials=self.TRIALS, t_max=self.T_MAX, seed=s,
                out_dir=os.path.join(tmp, f"sweep-{q}"),
            )
            for q, s in zip(self.QS, sweep_seeds)
        ]
        self.cell = harness.ExperimentConfig(
            kind="kcm", family="east1d", qs=[self.CELL_Q], box=self.CELL_LENGTH,
            trials=self.CELL_TRIALS, t_max=self.CELL_T_MAX, seed=cell_seed,
            out_dir=os.path.join(tmp, "cell"),
        )
        self.dynamics = {}
        for length in (self.LENGTH, self.CELL_LENGTH):
            region = harness.region_for(self.family, length)
            boundary = kcm.frozen_boundary_for(self.family, region)
            self.dynamics[length] = _build_dynamics(self.family, region, boundary)

    def run_round(self, op):
        manifests = [op(harness.run_sweep, c) for c in self.sweeps + [self.cell]]
        cells = [c for m in manifests for c in m["cells"]]
        return len(cells), sum(c["status"] != "ok" for c in cells), None

    def trace(self, tr):
        def sweep_done(tr, args, manifest):
            out = args[0].out_dir
            tr.counts["harness.bytes"] += sum(
                os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)
            )

        def hitting_done(tr, args, result):
            results, _ = result
            tr.counts["kcm.rings"] += sum(r.events for r in results)
            tr.counts["kcm.legal"] += sum(r.legal_updates for r in results)

        tr.patch(harness, "run_sweep", "harness.run_sweep", sweep_done)
        tr.patch(harness, "batch_tau0", "kcm.hitting", hitting_done)
        tr.patch(kcm, "make_dynamics", "kcm.dynamics_build")

    def _read(self, config):
        with open(os.path.join(config.out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        problems = []
        tables = []
        for cell in manifest["cells"]:
            if cell["status"] != "ok":
                problems.append(f"cell q={cell['q']} failed: {cell.get('error')}")
                continue
            with open(os.path.join(config.out_dir, cell["file"])) as fh:
                lines = [ln for ln in fh if not ln.startswith("#")]
            rows = [
                {"trial": int(r["trial"]), "q": float(r["q"]), "tau0": float(r["tau0"]),
                 "censored": int(r["censored"]), "events": int(r["events"]),
                 "legal_updates": int(r["legal_updates"])}
                for r in csv.DictReader(lines)
            ]
            if len(rows) != config.trials:
                problems.append(f"cell q={cell['q']}: {len(rows)} rows for {config.trials} trials")
            tables.append((cell, rows))
        return problems, tables

    def check_round(self, _):
        problems = []
        for config in self.sweeps + [self.cell]:
            found, tables = self._read(config)
            problems += found
            for cell, rows in tables:
                q = cell["q"]
                problems += checks.check_kcm_rows(rows, config.t_max)
                problems += checks.check_stationary_start(
                    sum(r["tau0"] == 0 for r in rows), len(rows), q)
                times = [math.inf if r["censored"] else r["tau0"] for r in rows]
                problems += checks.check_median(
                    cell["summary"]["median"], times, f"L={config.box} q={q}")
        return problems

    def check_final(self, _):
        problems = []
        for length, dyn in self.dynamics.items():
            sites = [(x, 0) for x in range(-length + 1, 1)]
            problems += _check_tables(dyn, sites, self.family.rules, {(-length, 0)},
                                      f"east chain {length}")
        found, tables = self._read(self.cell)
        problems += found
        exact = checks.east_chain_reference(self.CELL_LENGTH, self.CELL_Q)["e_mu_tau0"]
        for _, rows in tables:
            problems += checks.check_mc_mean([r["tau0"] for r in rows], exact)
        return problems


class DuarteBootstrap:
    """Grid bootstrap on coupled Duarte fields, as in median_bootstrap_time."""

    QS = (0.2, 0.175, 0.15, 0.125, 0.1)
    SIDE = 513
    FIELDS = 72
    MAX_STEPS = 64
    ORACLE_TRIALS = 3

    def __init__(self, seed: int, tmp: str):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        self.family = builtin_family("duarte")
        q_max = max(self.QS)
        self.fields = []
        for _ in range(self.FIELDS):
            u = rng.random((self.SIDE, self.SIDE))
            self.fields.append((self._origin(u, q_max), [u < q for q in self.QS]))
        self.oracle_rng = np.random.default_rng(np.random.SeedSequence([seed, 2, 1]))

    def _origin(self, u, q_max):
        """The site nearest the centre that is healthy at every q, so that
        no trial is trivially infected at step 0."""
        c = self.SIDE // 2
        for r in range(c + 1):
            ring = [(i, j) for i in range(c - r, c + r + 1) for j in range(c - r, c + r + 1)
                    if max(abs(i - c), abs(j - c)) == r]
            for site in ring:
                if u[site] >= q_max:
                    return site
        raise ValueError("no healthy site")

    def run_round(self, op):
        times = [
            [op(bootstrap.bootstrap_time_on_grid, self.family, empty, origin,
                max_steps=self.MAX_STEPS)
             for empty in masks]
            for origin, masks in self.fields
        ]
        return self.FIELDS * len(self.QS), 0, times

    def trace(self, tr):
        def step_done(tr, args, result):
            tr.counts["bootstrap.cells"] += result.size

        tr.patch(bootstrap, "grid_step", "bootstrap.grid_step", step_done)

    def check_round(self, times):
        problems = []
        for f, row in enumerate(times):
            problems += checks.check_monotone_in_q(list(zip(self.QS, row)), f"field {f}")
        return problems

    def check_final(self, times):
        """The reference iteration on two trials that infected the origin
        within the cap and one that did not, drawn from the seed."""
        trials = [(f, k) for f in range(self.FIELDS) for k in range(len(self.QS))]
        infected = [t for t in trials if times[t[0]][t[1]] is not None]
        censored = [t for t in trials if times[t[0]][t[1]] is None]
        picks = []
        for pool, n in ((infected, self.ORACLE_TRIALS - 1), (censored, 1)):
            for i in self.oracle_rng.choice(len(pool), min(n, len(pool)), replace=False):
                picks.append(pool[i])
        problems = []
        for f, k in picks:
            origin, masks = self.fields[f]
            want = checks.duarte_grid_time(masks[k], origin, self.MAX_STEPS)
            if times[f][k] != want:
                problems.append(f"field {f} q={self.QS[k]}: {times[f][k]} steps, reference {want}")
        return problems


class ExactSpectra:
    """Exact gap and E_mu(tau0) on both sides of the dense/sparse switch."""

    Q_HIGH = 0.3
    EAST_HIGH = (10, 11, 12, 13)
    EAST_LOW = (10, 11)
    DUARTE_BOX = (3, 4)
    FAILING = (8, 0.03)
    # E_mu(tau0) for the failing case, from a 40-digit solve
    # (python3 bench/mpmath_reference.py).
    FAILING_E_TAU0 = 343287.7229935348
    ORACLE_MAX_LENGTH = 10

    def __init__(self, seed: int, tmp: str):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        self.q_low = 0.12 + 0.06 * float(rng.random())
        self.east = builtin_family("east1d")
        self.duarte = builtin_family("duarte")
        w, h = self.DUARTE_BOX
        self.duarte_region = Region.rectangle(-w + 1, 0, -h + 1, 0)
        self.duarte_boundary = kcm.frozen_boundary_for(self.duarte, self.duarte_region)

    def _duarte_report(self, q):
        gen = harness.build_generator(self.duarte, self.duarte_region, q,
                                      exterior=self.duarte_boundary)
        sg = harness.spectral_gap(gen)
        mh = harness.mean_hitting(gen)
        return {"gap": sg["gap"], "e_mu_tau0": mh["e_mu_tau0"]}

    def run_round(self, op):
        """Maps each case to its report, or to None when the program
        rejected its own answer with ArithmeticError."""
        cases = [(self.Q_HIGH, n) for n in self.EAST_HIGH] + [(self.q_low, n) for n in self.EAST_LOW]
        calls = [(("east", n, q), harness.exact_report, (self.east, n, q)) for q, n in cases]
        calls += [(("duarte", self.DUARTE_BOX, q), self._duarte_report, (q,))
                  for q in (self.Q_HIGH, self.q_low)]
        length, q = self.FAILING
        calls.append((("east", length, q), harness.exact_report, (self.east, length, q)))
        out = {}
        for key, fn, args in calls:
            try:
                out[key] = op(fn, *args)
            except ArithmeticError:
                out[key] = None
        return len(out), sum(r is None for r in out.values()), out

    def trace(self, tr):
        def built(tr, args, gen):
            tr.counts["exact.states"] += gen.L.shape[0]
            tr.counts["exact.nnz"] += gen.L.nnz

        def gap_done(tr, args, result):
            dense = result["component_size"] ** 2 * 8
            tr.counts["exact.dense_bytes"] = max(tr.counts["exact.dense_bytes"], dense)

        tr.patch(harness, "build_generator", "exact.build", built)
        tr.patch(harness, "spectral_gap", "exact.gap", gap_done)
        tr.patch(harness, "mean_hitting", "exact.hitting")

    def check_round(self, out):
        problems = [f"{key} raised ArithmeticError" for key, r in out.items()
                    if r is None and key != ("east",) + self.FAILING]
        out = {key: r for key, r in out.items() if r is not None}
        for (kind, size, q), r in out.items():
            label = f"{kind} {size} q={q}"
            problems += checks.check_hitting_vs_relaxation(q, r["gap"], r["e_mu_tau0"], label)
        for q in (self.Q_HIGH, self.q_low):
            by_length = [(size, r["gap"], r["e_mu_tau0"]) for (kind, size, qq), r in out.items()
                         if kind == "east" and qq == q]
            problems += checks.check_monotone_in_length(by_length, q)
        failing = out.get(("east",) + self.FAILING)
        if failing is not None:
            problems += checks.check_relative(failing["e_mu_tau0"], self.FAILING_E_TAU0, 1e-9,
                                              "east 8 q=0.03 E_mu(tau0)")
        return problems

    def check_final(self, out):
        problems = []
        for (kind, size, q), r in out.items():
            if r is None or kind != "east" or size > self.ORACLE_MAX_LENGTH:
                continue
            ref = checks.east_chain_reference(size, q)
            label = f"east {size} q={q}"
            problems += checks.check_relative(r["gap"], ref["gap"], 1e-9, label + " gap")
            problems += checks.check_relative(r["e_mu_tau0"], ref["e_mu_tau0"], 1e-9,
                                              label + " E_mu(tau0)")
        return problems


class DropletMonitor:
    """monitor_trajectory on a Duarte column geometry, several seeds."""

    N = 10
    ELL = 12
    N1 = 2
    N2 = 5
    Q = 0.2
    T_MAX = 10.0
    INTERVAL = 0.5
    TRAJECTORIES = 16

    def __init__(self, seed: int, tmp: str):
        self.seeds = _seeds(seed, 4, self.TRAJECTORIES)
        self.scales = droplets.DuarteScales.toy(ell=self.ELL, N=self.N, n1=self.N1,
                                                n2=self.N2, q=self.Q)
        self.geometry = droplets.ColumnGeometry(self.N)
        self.family = builtin_family("duarte")
        self.dynamics = _build_dynamics(self.family, self.geometry.region,
                                        BoundaryExterior(self.geometry.initial_tau()))
        self.reports = None

    def _monitor(self, seed):
        return droplets.monitor_trajectory(self.scales, self.T_MAX, self.INTERVAL,
                                           seed=seed, geometry=self.geometry)

    def run_round(self, op):
        return self.TRAJECTORIES, 0, [op(self._monitor, s) for s in self.seeds]

    def trace(self, tr):
        def closure_done(tr, args, result):
            tr.counts["bootstrap.closure_sites"] += len(args[1].sites)

        tr.patch(droplets, "observe_trajectory", "kcm.observe",
                 wrap_arg=(2, "kcm.observer", None))
        tr.patch(droplets, "make_dynamics", "kcm.dynamics_build")
        tr.patch(droplets, "run_droplet_algorithm", "droplets.pass")
        tr.patch(droplets, "event_B2", "droplets.b2")
        tr.patch(droplets, "closure_region", "bootstrap.closure", closure_done)

    def capture_round(self):
        """One untimed round that also records every observed state's empty
        count, every arrow profile and every B2 witness, and checks them."""
        columns = checks.duarte_columns(self.N)
        n_sites = sum(len(c) for c in columns.values())
        problems = []
        empties = []  # per trajectory, the empty count of each observed state
        self.reports = []
        for seed in self.seeds:
            times, profiles, witnesses, counts = [], [], [], []
            empties.append(counts)

            def observed(tr, args, result):
                counts.append(int(np.count_nonzero(args[1] == 0)))
                times.append(args[0])

            def passed(tr, args, profile):
                profiles.append(profile)
                drops = {k: (d.xi, d.range) for k, d in profile.droplets.items()}
                problems.extend(checks.check_arrow_profile(profile.phi, drops))

            def crossed(tr, args, result):
                if result is not None:
                    i, j, path = result
                    witnesses.append(len(times))
                    problems.extend(checks.check_b2_witness(
                        i, j, path, args[1].phi, columns, self.N2))

            with spans.Tracer() as tr:
                tr.patch(droplets, "observe_trajectory", "kcm.observe",
                         wrap_arg=(2, "kcm.observer", observed))
                tr.patch(droplets, "run_droplet_algorithm", "droplets.pass", passed)
                tr.patch(droplets, "event_B2", "droplets.b2", crossed)
                report = self._monitor(seed)
            self.reports.append(report)
            problems += self._check_report(report, times, profiles, witnesses)
        # Over all states, and at the last sample, where a dynamics that
        # does not keep the product measure has drifted furthest from it.
        problems += checks.check_empty_fraction(
            sum(map(sum, empties)), sum(map(len, empties)), n_sites, self.TRAJECTORIES, self.Q)
        problems += checks.check_empty_fraction(
            sum(c[-1] for c in empties), len(empties), n_sites, self.TRAJECTORIES, self.Q)
        return self.TRAJECTORIES, 0, problems

    def _check_report(self, report, times, profiles, witnesses):
        """The report agrees with the profiles and witnesses it saw."""
        ups = [p.n_up for p in profiles]
        ranges = [d.range for p in profiles for d in p.droplets.values()]
        b1 = next((t for t, n in zip(times, ups) if n >= self.N1), None)
        b2 = times[witnesses[0]] if witnesses else None
        want = (max(ups, default=0), max(ranges, default=0), b1, b2, len(times))
        got = (report.max_n_up, report.max_range, report.first_b1, report.first_b2, report.samples)
        if got != want or len(profiles) != len(times):
            return [f"trajectory report {got} disagrees with its observations {want}"]
        return []

    def check_round(self, reports):
        if reports != self.reports:
            return ["a timed round's reports differ from the checked round's"]
        return []

    def check_final(self, _):
        columns = checks.duarte_columns(self.N)
        sites = [s for c in columns.values() for s in c]
        caps = set()
        for i in range(1, self.N + 1):
            h = self.N * self.N - (i - 1) * self.N
            caps |= {(i - self.N, h), (i - self.N, -h)}
        return _check_tables(self.dynamics, sites, self.family.rules, caps, "droplet region")


WORKLOADS = {
    "east-kcm-sweep": EastKcmSweep,
    "duarte-bootstrap": DuarteBootstrap,
    "exact-spectra": ExactSpectra,
    "duarte-droplet-monitor": DropletMonitor,
}
