"""Experiment orchestration: q-sweeps, scaling fits, density estimates.

A sweep writes one CSV per q value plus a manifest JSON recording seeds,
package version, the KCM event-loop backend, wall-clock times, each KCM
cell's event count and event rate and, for a failed cell, the error and
its exception type; the manifest is written last and atomically, so its
presence certifies a complete sweep.  Fits regress the log of a measured
time against a fixed family of predictors in q and report every fit,
flagging a winner by R².
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import __version__
from .bootstrap import median_bootstrap_time
from .exact import build_generator, mean_hitting, spectral_gap
from .families import UpdateFamily, load_family
from .geometry import Region
from .kcm import BatchSummary, SimParams, batch_tau0, frozen_boundary_for
from .native import backend

PREDICTORS = {
    "log_sq": lambda q: math.log(q) ** 2,
    "inv_q": lambda q: 1.0 / q,
    "log_sq_over_q": lambda q: math.log(q) ** 2 / q,
    "log_4_over_q_sq": lambda q: math.log(q) ** 4 / q ** 2,
}


@dataclass
class ExperimentConfig:
    kind: str  # kcm | bootstrap | exact
    family: str
    qs: List[float]
    box: int
    trials: int = 100
    t_max: float = 1e5
    seed: int = 0
    persistence: bool = False
    out_dir: str = "."

    def __post_init__(self):
        if self.kind not in ("kcm", "bootstrap", "exact"):
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.box < 1:
            raise ValueError("box must be >= 1")
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(f"t_max must be finite and positive, got {self.t_max}")
        if not self.qs:
            raise ValueError("q list must be nonempty")
        for q in self.qs:
            if not 0.0 < q < 1.0:
                raise ValueError(f"q={q} outside (0,1)")
        self.qs = sorted(self.qs, reverse=True)


def csv_header_comment(seed: int) -> str:
    return f"# kcm-lab v{__version__} seed={seed}"


def region_for(family: UpdateFamily, box: int) -> Region:
    """Sweep window ``Region.corner(box, box)``, origin at the top-right
    corner, with each axis that no rule offset reads made one site wide:
    a chain of ``box`` sites for east1d, a square for east2d and duarte."""
    offsets = family.offsets()
    width = box if any(dx for dx, _ in offsets) else 1
    height = box if any(dy for _, dy in offsets) else 1
    return Region.corner(width, height)


def kcm_trials_csv(
    family: UpdateFamily,
    region: Region,
    q: float,
    t_max: float,
    seed: int,
    trials: int,
    persistence: bool = False,
) -> Tuple[str, BatchSummary]:
    """Hitting-time trials on a region with the empty exterior
    (``frozen_boundary_for``), as the text of the KCM trial CSV, plus their
    summary."""
    boundary = frozen_boundary_for(family, region)
    params = SimParams(
        family=family, q=q, region=region, boundary=boundary, t_max=t_max, seed=seed,
    )
    results, summary = batch_tau0(params, trials, persistence=persistence)
    lines = [csv_header_comment(seed), "trial,seed,q,tau0,censored,events,legal_updates"]
    for trial, r in enumerate(results):
        lines.append(
            f"{trial},{seed},{q:.17g},{r.tau0:.17g},{int(r.censored)},"
            f"{r.events},{r.legal_updates}"
        )
    return "\n".join(lines) + "\n", summary


def _write_kcm_csv(path: str, config: ExperimentConfig, q: float) -> Dict[str, object]:
    fam = load_family(config.family)
    text, summary = kcm_trials_csv(
        fam, region_for(fam, config.box), q, config.t_max, config.seed,
        config.trials, config.persistence,
    )
    with open(path, "w") as fh:
        fh.write(text)
    return {
        "median": summary.median,
        "mean": summary.mean,
        "censor_fraction": summary.censor_fraction,
        "standard_error": summary.standard_error,
        "events": summary.events,
        "events_per_s": summary.events / summary.seconds,
    }


def _write_bootstrap_csv(path: str, config: ExperimentConfig, q: float) -> Dict[str, object]:
    fam = load_family(config.family)
    out = median_bootstrap_time(fam, q, config.box, config.trials, config.seed)
    with open(path, "w") as fh:
        fh.write(csv_header_comment(config.seed) + "\n")
        fh.write("trial,seed,q,steps,censored\n")
        for trial, t in enumerate(out["times"]):
            censored = int(math.isinf(t))
            val = "inf" if censored else f"{t:.17g}"
            fh.write(f"{trial},{config.seed},{q:.17g},{val},{censored}\n")
    return {
        "median": out["median"],
        "q1": out["q1"],
        "q3": out["q3"],
        "censored": out["censored"],
        "censor_fraction": out["censored"] / out["trials"],
    }


def exact_region_report(family: UpdateFamily, region: Region, q: float) -> Dict[str, object]:
    """Gap, relaxation time and E_mu(tau0) on a region with the empty
    exterior (``frozen_boundary_for``), plus the solvers' residuals."""
    boundary = frozen_boundary_for(family, region)
    gen = build_generator(family, region, q, exterior=boundary)
    sg = spectral_gap(gen)
    mh = mean_hitting(gen)
    return {
        "gap": sg["gap"],
        "t_rel": sg["t_rel"],
        "e_mu_tau0": mh["e_mu_tau0"],
        "ratio_check": bool(q * mh["e_mu_tau0"] <= sg["t_rel"] * (1 + 1e-12)),
        "residuals": {"eigen": sg["residual"], "hitting": mh["residual"]},
    }


def exact_report(family: UpdateFamily, box: int, q: float) -> Dict[str, object]:
    """``exact_region_report`` on the sweep window ``region_for(family, box)``."""
    return exact_region_report(family, region_for(family, box), q)


def _write_exact_json(path: str, config: ExperimentConfig, q: float) -> Dict[str, object]:
    fam = load_family(config.family)
    report = exact_report(fam, config.box, q)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


_RUNNERS = {
    "kcm": (_write_kcm_csv, "csv"),
    "bootstrap": (_write_bootstrap_csv, "csv"),
    "exact": (_write_exact_json, "json"),
}


def run_sweep(config: ExperimentConfig) -> Dict[str, object]:
    """One output file per q plus an atomically written manifest."""
    os.makedirs(config.out_dir, exist_ok=True)
    runner, ext = _RUNNERS[config.kind]
    cells = []
    ok = True
    for q in config.qs:
        fname = f"{config.kind}_q{q:.4f}.{ext}"
        path = os.path.join(config.out_dir, fname)
        t0 = time.monotonic()
        try:
            summary = runner(path, config, q)
            cells.append({
                "q": q, "file": fname, "status": "ok",
                "wall_seconds": time.monotonic() - t0, "summary": summary,
            })
        except Exception as exc:  # partial failure stays in the manifest
            ok = False
            cells.append({
                "q": q, "file": fname, "status": "error",
                "wall_seconds": time.monotonic() - t0, "error": str(exc),
                "error_type": type(exc).__name__,
            })
    manifest = {
        "version": __version__,
        "backend": backend(),
        "kind": config.kind,
        "family": config.family,
        "seed": config.seed,
        "box": config.box,
        "trials": config.trials,
        "t_max": config.t_max,
        "persistence": config.persistence,
        "status": "ok" if ok else "partial-failure",
        "cells": cells,
    }
    fd, tmp = tempfile.mkstemp(dir=config.out_dir, suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, os.path.join(config.out_dir, "manifest.json"))
    return manifest


@dataclass
class FitReport:
    fits: Dict[str, Dict[str, float]]
    winner: str
    n_points: int
    excluded: int

    def to_json(self) -> str:
        return json.dumps(
            {"fits": self.fits, "winner": self.winner,
             "n_points": self.n_points, "excluded": self.excluded},
            indent=2,
        )


def fit_scaling(points: Sequence[Tuple[float, float]]) -> FitReport:
    """Least squares of log(time) against each predictor of q.

    Every q must lie in (0, 1).  Nonpositive or nonfinite times are
    excluded (and counted); at least three usable points, at two or more
    distinct q, are required.  The winner is the predictor with the highest
    R², or "indeterminate" when even the best R² is below 0.5.
    """
    for q, _ in points:
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must lie in (0,1), got {q}")
    usable = [(q, t) for q, t in points if math.isfinite(t) and t > 0]
    excluded = len(points) - len(usable)
    if len(usable) < 3:
        raise ValueError(f"need >= 3 usable points, have {len(usable)}")
    if len({q for q, _ in usable}) < 2:
        raise ValueError(f"need >= 2 distinct q, have only q={usable[0][0]}")
    y = np.array([math.log(t) for _, t in usable])
    fits: Dict[str, Dict[str, float]] = {}
    for name, fn in PREDICTORS.items():
        x = np.array([fn(q) for q, _ in usable])
        slope, intercept = np.polyfit(x, y, 1)
        pred = slope * x + intercept
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - np.mean(y)) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
        fits[name] = {"slope": float(slope), "intercept": float(intercept),
                      "r_squared": max(0.0, min(1.0, r2))}
    winner = max(fits, key=lambda k: fits[k]["r_squared"])
    if fits[winner]["r_squared"] < 0.5:
        winner = "indeterminate"
    return FitReport(fits=fits, winner=winner, n_points=len(usable), excluded=excluded)


def medians_from_manifest(manifest: Dict[str, object],
                          max_censored: float = 0.2) -> List[Tuple[float, float]]:
    """(q, median) pairs from a sweep manifest; censored-heavy cells are
    dropped since their medians are biased."""
    points = []
    for cell in manifest["cells"]:
        if cell["status"] != "ok":
            continue
        s = cell["summary"]
        if s.get("censor_fraction", 0.0) > max_censored:
            continue
        points.append((cell["q"], s["median"]))
    return points
