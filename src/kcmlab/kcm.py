"""Continuous-time constrained Glauber dynamics and hitting-time sampling.

Every site carries a rate-1 clock.  At a ring the site resamples to
occupied with probability p = 1 - q, empty with probability q, but only
when its constraint holds (the site is *legal*); a ring of an illegal site
is a no-op.  So the dynamics is the same in law if the illegal rings are
dropped: the m legal sites ring at total rate m, and each ring picks one
of them uniformly.  This is the continuous-time n-fold way of Bortz, Kalos
and Lebowitz (J. Comput. Phys. 17 (1975) 10).  The engine keeps the legal
set in one compact array, ``slots[0..m)``, with ``pos[i]`` the index of
site i in ``slots`` or -1.  It builds ``slots`` by an ascending scan at the
start of each run.  A site's legality changes only when a site that its
rules read flips, so after a flip of site j it re-checks the dependents of
j (``Dynamics.site_deps``, in table order): a site that became legal is
appended to ``slots``, and one that became illegal is swap-removed with
the last slot.  Every ring is a legal update, so a trial's ``events`` and
``legal_updates`` are equal.  With no legal site (m = 0) the state is
frozen, and the run stops at once at ``t_max`` without a draw.

Each trial draws its randoms from its own PCG64 stream, one per use, in
this order per ring: the waiting time, ``random_standard_exponential``
times 1/m; if the ring falls past ``t_max``, nothing more, and the clock
stops at ``t_max``; else the slot, ``random_bounded_uint64`` on [0, m-1];
and the coin, ``next_double``.  The event loop that draws them is a small
C function, ``kcm_event_loop`` of the compiled library (``native``),
called through ``ctypes`` once per trial (once per segment in
``observe_trajectory``) on the flat tables of ``Dynamics``
(``table_ptrs``) and on the generator's ``bitgen_t``; it draws through
numpy's own distribution code, linked into the library.  If the library
did not load, the pure-Python ``_event_loop_lists`` runs instead.
``_event_loop`` is whichever of the two runs.  The list loop reads the
per-site tuples ``site_rules`` and ``site_deps`` and makes the same draws
through ``Generator`` scalar calls (``standard_exponential``,
``integers(0, m)``, ``random``), which give the same numbers and leave the
generator in the same state; so outputs do not depend on which loop ran,
and the list loop is the compiled loop's test oracle.
"""

from __future__ import annotations

import ctypes
import math
import statistics
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import native
from .families import UpdateFamily, compile_dependents, compile_rules
from .geometry import (
    ALL_HEALTHY,
    ALL_INFECTED,
    Region,
    Site,
    derive_rng,
    sample_occupation,
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
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(f"t_max must be finite and positive, got {self.t_max}")
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
    site i (see ``families.compile_rules``), and ``site_deps[j]`` the sites
    whose rules read site j, ascending.  ``site_ptr``, ``rule_ptr`` and ``neighbors``, and
    ``dep_ptr`` and ``dependents``, hold the same tables as flat arrays for
    the compiled event loop; ``slots`` and ``pos`` are its workspace for the
    legal set, and ``table_ptrs`` the addresses of all seven.
    """

    def __init__(self, family: UpdateFamily, region: Region, exterior=ALL_HEALTHY):
        self.region = region
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
        self.site_deps = tuple(compile_dependents(self.site_rules))
        self.dep_ptr = np.cumsum([0] + [len(d) for d in self.site_deps], dtype=np.int64)
        self.dependents = np.fromiter(
            (i for d in self.site_deps for i in d), dtype=np.int64, count=int(self.dep_ptr[-1])
        )
        self.slots = np.empty(self.n, dtype=np.int64)
        self.pos = np.empty(self.n, dtype=np.int64)
        self.table_ptrs = tuple(a.ctypes.data for a in (
            self.site_ptr, self.rule_ptr, self.neighbors, self.dep_ptr, self.dependents,
            self.slots, self.pos,
        ))


MODE_TAU0 = 0
MODE_PERSISTENCE = 1
MODE_RUN = 2


def _event_loop_lists(state, site_rules, site_deps, origin, q, t, t_max, mode, rng):
    """Run from clock ``t`` until ``mode`` stops the run at the origin, no
    site is legal or the next ring falls past ``t_max``, drawing from
    ``rng`` in the order of the module docstring; returns (hit, t, events).
    A ring sets the site empty if its coin is below ``q``."""
    exponential, integers, uniform = rng.standard_exponential, rng.integers, rng.random
    st = state.tolist()

    def legal_at(i):
        for rule in site_rules[i]:
            for j in rule:
                if st[j]:
                    break
            else:
                return True
        return False

    slots = [i for i in range(len(st)) if legal_at(i)]
    pos = [-1] * len(st)
    for k, i in enumerate(slots):
        pos[i] = k
    stop_at_update = mode == MODE_PERSISTENCE
    stop_at_empty = mode == MODE_TAU0
    events = 0
    hit = False
    while slots:
        dt = exponential() * (1.0 / len(slots))
        if t + dt > t_max:
            break
        t += dt
        events += 1
        i = slots[int(integers(0, len(slots)))]
        v = int(uniform() >= q)
        if v != st[i]:
            st[i] = v
            for d in site_deps[i]:
                k = pos[d]
                if legal_at(d):
                    if k < 0:
                        pos[d] = len(slots)
                        slots.append(d)
                elif k >= 0:
                    last = slots.pop()
                    if last != d:
                        slots[k] = last
                        pos[last] = k
                    pos[d] = -1
        if i == origin and (stop_at_update or (stop_at_empty and v == 0)):
            hit = True
            break
    state[:] = st
    return hit, (t if hit else t_max), events


def _ptr(a: np.ndarray):
    """Address of a nonempty, writable, C-contiguous array for the compiled
    loop; cheaper per call than ``a.ctypes.data``, and it keeps ``a`` alive."""
    return ctypes.byref(ctypes.c_char.from_buffer(a))


# The bitgen_t of a bit generator, from its capsule: cheaper per generator
# than ``bit_generator.ctypes``, which builds three function casts.  A
# prototype of its own leaves ``ctypes.pythonapi``'s attribute untouched.
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def _run(
    dyn: Dynamics,
    state: np.ndarray,
    q: float,
    t_max: float,
    mode: int,
    rng: np.random.Generator,
    origin_idx: int = 0,
    t0: float = 0.0,
) -> Tuple[bool, float, int]:
    """Drive the event loop from clock ``t0`` until a stop condition, in one
    call that draws each random from ``rng`` as it is used; returns (hit, t,
    events)."""
    if _event_loop is _event_loop_lists:
        return _event_loop_lists(state, dyn.site_rules, dyn.site_deps, origin_idx, q, t0,
                                 t_max, mode, rng)
    clock = ctypes.c_double(t0)
    events = ctypes.c_int64()
    hit = _event_loop(_ptr(state), *dyn.table_ptrs, dyn.n, origin_idx, q, t_max, mode,
                      _capsule_pointer(rng.bit_generator.capsule, b"BitGenerator"),
                      clock, events)
    return bool(hit), clock.value, events.value


def make_dynamics(params: SimParams) -> Dynamics:
    return Dynamics(params.family, params.region, params.boundary)


def _hitting(
    params: SimParams, dyn: Optional[Dynamics], mode: int, trial: int
) -> HittingResult:
    """Trial ``trial`` from a stationary start, stopped by ``mode`` or at
    t_max; its stream is ``derive_rng(params.seed, trial)``."""
    if dyn is None:
        dyn = make_dynamics(params)
    rng = derive_rng(params.seed, trial)
    state = sample_occupation(dyn.region, params.q, rng)
    origin_idx = dyn.index[(0, 0)]
    if mode == MODE_TAU0 and state[origin_idx] == 0:
        return HittingResult(0.0, False, 0, 0)
    hit, t, events = _run(dyn, state, params.q, params.t_max, mode, rng, origin_idx)
    return HittingResult(t, not hit, events, events)


def observe_trajectory(
    params: SimParams,
    time_grid: List[float],
    observer,
    dyn: Optional[Dynamics] = None,
) -> None:
    """Call ``observer(t, state)`` at each grid time of one trajectory.

    The grid must be finite and nondecreasing from 0, and is checked whole
    before the first segment runs; the observer sees the live state array
    and must not mutate it.
    """
    if not all(map(math.isfinite, time_grid)):
        raise ValueError("time grid must be finite")
    if any(b < a for a, b in zip([0.0, *time_grid], time_grid)):
        raise ValueError("time grid must be nondecreasing from 0")
    if dyn is None:
        dyn = make_dynamics(params)
    rng = derive_rng(params.seed, params.trial)
    state = sample_occupation(dyn.region, params.q, rng)
    t = 0.0
    for t_obs in time_grid:
        _, t, _ = _run(dyn, state, params.q, t_obs, MODE_RUN, rng, 0, t0=t)
        observer(t_obs, state)


@dataclass
class BatchSummary:
    mean: float
    median: float
    censor_fraction: float
    standard_error: float
    events: int
    seconds: float = 0.0  # wall time of the trials, when batch_tau0 ran them


def batch_tau0(
    params: SimParams,
    trials: int,
    persistence: bool = False,
) -> Tuple[List[HittingResult], BatchSummary]:
    """Independent trials with per-trial streams derived from (seed, trial);
    output order is trial order.  The summary counts the trials' events and
    their wall time."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dyn = make_dynamics(params)
    mode = MODE_PERSISTENCE if persistence else MODE_TAU0
    start = time.perf_counter()
    results = [_hitting(params, dyn, mode, trial) for trial in range(trials)]
    return results, summarize(results, time.perf_counter() - start)


def summarize(results: List[HittingResult], seconds: float = 0.0) -> BatchSummary:
    vals = [r.tau0 for r in results if not r.censored]
    n_cens = sum(1 for r in results if r.censored)
    median = statistics.median(math.inf if r.censored else r.tau0 for r in results)
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
        events=sum(r.events for r in results),
        seconds=seconds,
    )


def east_chain_region(length: int) -> Region:
    """Horizontal chain of ``length`` sites with the tracked origin (0,0)
    at the right end."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return Region.corner(length, 1)


def frozen_boundary_for(family: UpdateFamily, region: Region):
    """The boundary condition of every KCM and exact window: the whole
    exterior empty (``ALL_INFECTED``), under which each constraint holds
    whenever it can under any boundary.  It does not depend on ``family``.

    ``compile_rules`` reads the exterior only at sites that a rule touches.
    The east1d, east2d and duarte rules touch the west, south and north
    neighbours of a site, which lie outside a region only on its parallel
    and perpendicular boundary, so their tables are those of an empty frame
    on that boundary with healthy sites beyond it.
    """
    return ALL_INFECTED


_event_loop = _event_loop_lists if native.LIB is None else native.LIB.kcm_event_loop
