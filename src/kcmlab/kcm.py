"""Continuous-time constrained Glauber dynamics and hitting-time sampling.

Every site carries a rate-1 clock.  At a ring the site resamples to
occupied with probability p = 1 - q, empty with probability q, but only
when its constraint holds; constrained rings are no-ops.  This rejection
scheme realizes the generator exactly because each site's total ring rate
is 1 regardless of the constraint.  Rings are produced by a single
aggregate exponential clock plus a uniform site choice, which has the same
law as per-site clocks by superposition of Poisson processes.

The randoms are drawn by numpy in batches; the event loop that consumes a
batch is a small C function, ``_C_SOURCE``, called through ``ctypes`` on the
flat tables ``Dynamics.site_ptr``, ``rule_ptr`` and ``neighbors``.  It is
built on first import with the system ``gcc -O2 -shared -fPIC`` into
``$XDG_CACHE_HOME/kcmlab`` (else ``~/.cache/kcmlab``), under a name keyed
by the source's sha256; the library is written to a temporary file and
moved into place, so concurrent processes are safe, and later imports only
load it.  If the compiler is missing, the build fails or the cache is not
writable, one line on stderr says why and the pure-Python
``_event_loop_lists`` runs instead.  ``_event_loop`` is whichever of the
two runs.  The list loop reads the per-site rule tuples of
``families.compile_rules`` and is also the compiled loop's test oracle:
both consume the same pre-drawn randoms and give identical trajectories,
so outputs do not depend on which one ran.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .families import UpdateFamily, compile_rules
from .geometry import (
    ALL_HEALTHY,
    BoundaryCondition,
    BoundaryExterior,
    Region,
    Site,
    derive_rng,
)


@dataclass(frozen=True)
class SimParams:
    family: UpdateFamily
    q: float
    region: Region
    boundary: object = ALL_HEALTHY
    t_max: float = 1e4
    seed: int = 0
    trial: int = 0

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0,1), got {self.q}")
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        if (0, 0) not in self.region.sites:
            raise ValueError("origin must lie in the region")


@dataclass(frozen=True)
class HittingResult:
    tau0: float
    censored: bool
    events: int
    legal_updates: int


class Dynamics:
    """Per-site constraint tables for one (family, region, exterior).

    ``site_rules[i]`` holds one tuple of neighbour indices per live rule of
    site i (see ``families.compile_rules``); ``site_ptr``, ``rule_ptr`` and
    ``neighbors`` hold the same tables as flat arrays, and ``table_ptrs``
    their addresses, for the compiled event loop.
    """

    def __init__(self, family: UpdateFamily, region: Region, exterior=ALL_HEALTHY):
        self.family = family
        self.region = region
        self.exterior = exterior
        self.sites: List[Site] = sorted(region.sites)
        self.index = {s: i for i, s in enumerate(self.sites)}
        self.n = len(self.sites)
        self.site_rules = compile_rules(family, self.sites, exterior)
        rules = [rule for site in self.site_rules for rule in site]
        self.site_ptr = np.cumsum([0] + [len(site) for site in self.site_rules], dtype=np.int64)
        self.rule_ptr = np.cumsum([0] + [len(rule) for rule in rules], dtype=np.int64)
        self.neighbors = np.fromiter(
            (j for rule in rules for j in rule), dtype=np.int64, count=int(self.rule_ptr[-1])
        )
        self.table_ptrs = tuple(a.ctypes.data for a in (self.site_ptr, self.rule_ptr, self.neighbors))

    def sample_state(self, q: float, rng: np.random.Generator) -> np.ndarray:
        """Stationary product start: occupied with probability 1 - q."""
        return (rng.random(self.n) >= q).astype(np.int8)


MODE_TAU0 = 0
MODE_PERSISTENCE = 1
MODE_RUN = 2

_STATUS_EXHAUSTED = 0
_STATUS_HIT = 1
_STATUS_TMAX = 2


def _event_loop_lists(state, site_rules, origin, q, t, t_max, mode, dts, picks, coins):
    """Process one batch of pre-drawn randoms; returns
    (status, t, events, legal).

    Ring k happens at ``t + dts[0] + ... + dts[k]`` at site ``picks[k]``;
    it is processed if that time is at most ``t_max``.  A legal ring sets
    the site empty if ``coins[k] < q``.  Ring times are one cumulative sum
    (numpy accumulates sequentially, so they equal ``t += dt`` bit for bit)
    and the rings past ``t_max`` are cut before the loop starts."""
    times = np.cumsum(np.concatenate(([t], dts)))[1:]
    stop = int(np.searchsorted(times, t_max, side="right"))
    st = state.tolist()
    picks_l = picks[:stop].tolist()
    new_l = (coins[:stop] >= q).astype(np.int8).tolist()
    stop_at_update = mode == MODE_PERSISTENCE
    stop_at_empty = mode == MODE_TAU0
    legal = 0
    hit = -1
    for k, i in enumerate(picks_l):
        for rule in site_rules[i]:
            for j in rule:
                if st[j]:
                    break
            else:
                break
        else:
            continue
        legal += 1
        v = new_l[k]
        st[i] = v
        if i == origin and (stop_at_update or (stop_at_empty and v == 0)):
            hit = k
            break
    state[:] = st
    if hit >= 0:
        return _STATUS_HIT, float(times[hit]), hit + 1, legal
    if stop < dts.shape[0]:
        return _STATUS_TMAX, t_max, stop, legal
    return _STATUS_EXHAUSTED, float(times[-1]), stop, legal


_C_SOURCE = r"""
#include <stdint.h>

/* _event_loop_lists on the flat tables of Dynamics: clock holds t on
   entry and the stop time on return, counts receives (events, legal), and
   the status is returned.  Mode 0 is MODE_TAU0 and 1 MODE_PERSISTENCE;
   status 0 is _STATUS_EXHAUSTED, 1 _STATUS_HIT and 2 _STATUS_TMAX. */
int kcm_event_loop(int8_t *state, const int64_t *site_ptr, const int64_t *rule_ptr,
                   const int64_t *neighbors, int64_t origin, double q, double t_max,
                   int mode, int64_t n, const double *dts, const int64_t *picks,
                   const double *coins, double *clock, int64_t *counts)
{
    double t = *clock;
    int64_t k, r, j, legal = 0;
    int status = 0;
    for (k = 0; k < n; k++) {
        int64_t i = picks[k];
        int ok = 0;
        if (t + dts[k] > t_max) {
            t = t_max;
            status = 2;
            break;
        }
        t += dts[k];
        for (r = site_ptr[i]; r < site_ptr[i + 1] && !ok; r++) {
            ok = 1;
            for (j = rule_ptr[r]; j < rule_ptr[r + 1] && ok; j++)
                ok = !state[neighbors[j]];
        }
        if (!ok)
            continue;
        legal++;
        state[i] = coins[k] >= q;
        if (i == origin && (mode == 1 || (mode == 0 && !state[i]))) {
            status = 1;
            k++;
            break;
        }
    }
    *clock = t;
    counts[0] = k;
    counts[1] = legal;
    return status;
}
"""


def _build(compiler: Sequence[str], cache_dir: str, lib: str) -> None:
    """Compile ``_C_SOURCE`` into a temporary file in ``cache_dir``, then
    move it to ``lib``; raises ``OSError`` naming the step that failed."""
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".so.tmp")
    except OSError as exc:
        raise OSError(f"cache directory {cache_dir} is not writable: {exc}") from exc
    os.close(fd)
    try:
        cmd = [*compiler, "-O2", "-shared", "-fPIC", "-x", "c", "-", "-o", tmp]
        try:
            built = subprocess.run(cmd, input=_C_SOURCE, capture_output=True, text=True)
        except OSError as exc:
            raise OSError(f"cannot run compiler {compiler[0]!r}: {exc}") from exc
        if built.returncode != 0:
            detail = (built.stderr.strip().splitlines() or ["no output"])[0]
            raise OSError(f"{compiler[0]} exited with status {built.returncode}: {detail}")
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _load_event_loop(compiler: Sequence[str] = ("gcc",), cache_dir: Optional[str] = None):
    """The compiled event loop from ``cache_dir`` (default
    ``$XDG_CACHE_HOME/kcmlab``, else ``~/.cache/kcmlab``), built there first
    unless a library for this source exists; on any failure, one line on
    stderr and ``_event_loop_lists``."""
    if cache_dir is None:
        base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
        cache_dir = os.path.join(base, "kcmlab")
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    lib = os.path.join(cache_dir, f"kcm_loop-{digest}.so")
    try:
        if not os.path.exists(lib):
            _build(compiler, cache_dir, lib)
        loop = ctypes.CDLL(lib).kcm_event_loop
    except OSError as exc:
        print(f"kcmlab: compiled event loop unavailable, using the Python loop: {exc}",
              file=sys.stderr)
        return _event_loop_lists
    ptr = ctypes.c_void_p
    loop.argtypes = [ptr, ptr, ptr, ptr, ctypes.c_int64, ctypes.c_double, ctypes.c_double,
                     ctypes.c_int, ctypes.c_int64, ptr, ptr, ptr,
                     ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int64)]
    loop.restype = ctypes.c_int
    return loop


def backend() -> str:
    """``"c"`` when the compiled event loop runs, ``"python"`` otherwise."""
    return "python" if _event_loop is _event_loop_lists else "c"


def _ptr(a: np.ndarray):
    """Address of a nonempty, writable, C-contiguous array for the compiled
    loop; cheaper per call than ``a.ctypes.data``, and it keeps ``a`` alive."""
    return ctypes.byref(ctypes.c_char.from_buffer(a))


def _batch(loop, dyn: Dynamics, state, origin, q, t, t_max, mode, dts, picks, coins):
    """One batch through ``loop``, the compiled loop or
    ``_event_loop_lists``; returns (status, t, events, legal)."""
    if loop is _event_loop_lists:
        return loop(state, dyn.site_rules, origin, q, t, t_max, mode, dts, picks, coins)
    clock = ctypes.c_double(t)
    counts = (ctypes.c_int64 * 2)()
    status = loop(_ptr(state), *dyn.table_ptrs, origin, q, t_max, mode, dts.shape[0],
                  _ptr(dts), _ptr(picks), _ptr(coins), clock, counts)
    return status, clock.value, counts[0], counts[1]


_BATCH = 1 << 14


def _run(
    dyn: Dynamics,
    state: np.ndarray,
    q: float,
    t_max: float,
    mode: int,
    rng: np.random.Generator,
    origin_idx: int = 0,
    t0: float = 0.0,
) -> Tuple[int, float, int, int]:
    """Drive the event loop until a stop condition; randoms are drawn in
    batches from the caller's stream so trajectories are reproducible."""
    n = dyn.n
    t = t0
    events = 0
    legal = 0
    # expected events to t_max is n * (t_max - t0); start small and grow
    batch = max(64, min(_BATCH, 2 * n))
    while True:
        dts = rng.exponential(1.0 / n, size=batch)
        picks = rng.integers(0, n, size=batch)
        coins = rng.random(batch)
        status, t, ev, lg = _batch(
            _event_loop, dyn, state, origin_idx, q, t, t_max, mode, dts, picks, coins
        )
        events += ev
        legal += lg
        if status != _STATUS_EXHAUSTED:
            return status, t, events, legal
        batch = min(_BATCH, batch * 4)


def make_dynamics(params: SimParams) -> Dynamics:
    return Dynamics(params.family, params.region, params.boundary)


def _hitting(params: SimParams, dyn: Optional[Dynamics], mode: int) -> HittingResult:
    """One trial from a stationary start, stopped by ``mode`` or at t_max."""
    if dyn is None:
        dyn = make_dynamics(params)
    rng = derive_rng(params.seed, params.trial)
    state = dyn.sample_state(params.q, rng)
    origin_idx = dyn.index[(0, 0)]
    if mode == MODE_TAU0 and state[origin_idx] == 0:
        return HittingResult(0.0, False, 0, 0)
    status, t, events, legal = _run(dyn, state, params.q, params.t_max, mode, rng, origin_idx)
    if status == _STATUS_HIT:
        return HittingResult(t, False, events, legal)
    return HittingResult(params.t_max, True, events, legal)


def simulate_tau0(params: SimParams, dyn: Optional[Dynamics] = None) -> HittingResult:
    """Time of first emptiness at the origin from a stationary start."""
    return _hitting(params, dyn, MODE_TAU0)


def simulate_persistence(
    params: SimParams, dyn: Optional[Dynamics] = None
) -> HittingResult:
    """Time of the first legal update at the origin from a stationary start."""
    return _hitting(params, dyn, MODE_PERSISTENCE)


def sample_state_at(
    params: SimParams,
    t_obs: float,
    dyn: Optional[Dynamics] = None,
    initial_state: Optional[np.ndarray] = None,
) -> np.ndarray:
    """State vector at a fixed time, no stopping rule.  ``initial_state``,
    if given, holds one 0 or 1 per site of the dynamics; it is copied."""
    if dyn is None:
        dyn = make_dynamics(params)
    rng = derive_rng(params.seed, params.trial)
    if initial_state is None:
        state = dyn.sample_state(params.q, rng)
    else:
        state = np.asarray(initial_state)
        if state.shape != (dyn.n,) or not ((state == 0) | (state == 1)).all():
            raise ValueError(
                f"initial_state must hold {dyn.n} entries, each 0 or 1; "
                f"got shape {state.shape}"
            )
        state = state.astype(np.int8)
    _run(dyn, state, params.q, t_obs, MODE_RUN, rng)
    return state


def observe_trajectory(
    params: SimParams,
    time_grid: List[float],
    observer,
    dyn: Optional[Dynamics] = None,
) -> None:
    """Call ``observer(t, state)`` at each grid time of one trajectory.

    The grid must be increasing; the observer sees the live state array and
    must not mutate it.
    """
    if dyn is None:
        dyn = make_dynamics(params)
    rng = derive_rng(params.seed, params.trial)
    state = dyn.sample_state(params.q, rng)
    t = 0.0
    for t_obs in time_grid:
        if t_obs < t:
            raise ValueError("time grid must be nondecreasing")
        _, t, _, _ = _run(dyn, state, params.q, t_obs, MODE_RUN, rng, 0, t0=t)
        observer(t_obs, state)


@dataclass
class BatchSummary:
    mean: float
    median: float
    censor_fraction: float
    standard_error: float


def batch_tau0(
    params: SimParams,
    trials: int,
    persistence: bool = False,
) -> Tuple[List[HittingResult], BatchSummary]:
    """Independent trials with per-trial streams derived from (seed, trial);
    output order is trial order."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dyn = make_dynamics(params)
    mode = MODE_PERSISTENCE if persistence else MODE_TAU0
    results = [_hitting(replace(params, trial=trial), dyn, mode) for trial in range(trials)]
    return results, summarize(results)


def summarize(results: List[HittingResult]) -> BatchSummary:
    vals = [r.tau0 for r in results if not r.censored]
    n_cens = sum(1 for r in results if r.censored)
    times = sorted(
        (math.inf if r.censored else r.tau0) for r in results
    )
    median = times[(len(times) - 1) // 2] if len(times) % 2 else (
        math.inf
        if math.isinf(times[len(times) // 2])
        else 0.5 * (times[len(times) // 2 - 1] + times[len(times) // 2])
    )
    if vals:
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    else:
        mean = math.nan
        se = math.nan
    return BatchSummary(
        mean=mean,
        median=float(median),
        censor_fraction=n_cens / len(results),
        standard_error=se,
    )


def east_chain_region(length: int) -> Region:
    """Horizontal chain with the tracked origin (0,0) at the right end and
    the frozen wall just beyond the left end."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return Region.corner(length, 1)


def frozen_boundary_for(family: UpdateFamily, region: Region) -> BoundaryExterior:
    """Ergodicity-restoring frozen boundary: an empty frame on the outer
    boundary (its parallel and perpendicular views), healthy beyond it.

    Without a frozen empty the all-occupied state is an absorbing trap on a
    finite box.  ``compile_rules`` reads the exterior only at sites that a
    rule touches.  The East rules touch the west neighbour of a site and,
    in two dimensions, its south neighbour; outside the region these lie in
    the one-sided East walls (empty to the west and, for east2d, to the
    south; occupied elsewhere), and the occupied walls are never read.  So
    the frame compiles to the same East tables as those walls, whatever the
    region.  The Duarte rules read only the frame too.  A rule that reads an
    east or diagonal neighbour may reach beyond the frame, where all is
    healthy, so the frame does not cover every family: on a one-row box, a
    family whose only rule is the east neighbour never flips the east end.
    """
    return BoundaryExterior(BoundaryCondition.uniform(region, 0))


_event_loop = _load_event_loop()
