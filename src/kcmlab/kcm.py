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
C function, ``_C_SOURCE``, called through ``ctypes`` once per trial (once
per segment in ``observe_trajectory``) on the flat tables of ``Dynamics``
(``table_ptrs``) and on the generator's ``bitgen_t``.  It draws through
numpy's own distribution code, linked in statically from numpy's
``random/lib/libnpyrandom.a``.  It is built on first import with the
system ``gcc -O2 -shared -fPIC ... -lnpyrandom -lm`` into
``$XDG_CACHE_HOME/kcmlab`` (else ``~/.cache/kcmlab``), under a name keyed
by the sha256 of the source and numpy's version; the library is written to
a temporary file and moved into place, so concurrent processes are safe,
and later imports only load it.  If the compiler or numpy's library is
missing, the build fails or the cache is not writable, one line on stderr
says why and the pure-Python ``_event_loop_lists`` runs instead.
``_event_loop`` is whichever of the two runs.  The list loop reads the
per-site tuples ``site_rules`` and ``site_deps`` and makes the same draws
through ``Generator`` scalar calls (``standard_exponential``,
``integers(0, m)``, ``random``), which give the same numbers and leave the
generator in the same state; so outputs do not depend on which loop ran,
and the list loop is the compiled loop's test oracle.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

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


_C_SOURCE = r"""
#include <stdbool.h>
#include <stdint.h>

/* numpy/random/bitgen.h, and two functions of numpy's distributions.h,
   which cannot be included because it includes Python.h. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;
double random_standard_exponential(bitgen_t *bitgen_state);
uint64_t random_bounded_uint64(bitgen_t *bitgen_state, uint64_t off, uint64_t rng,
                               uint64_t mask, bool use_masked);

/* Whether some rule of site i reads only empty sites. */
static int legal_at(const int8_t *state, const int64_t *site_ptr, const int64_t *rule_ptr,
                    const int64_t *neighbors, int64_t i)
{
    int64_t r, j;
    for (r = site_ptr[i]; r < site_ptr[i + 1]; r++) {
        for (j = rule_ptr[r]; j < rule_ptr[r + 1] && !state[neighbors[j]]; j++)
            ;
        if (j == rule_ptr[r + 1])
            return 1;
    }
    return 0;
}

/* _event_loop_lists on the flat tables of Dynamics, drawing from g, with
   the legal set in slots[0..m) and pos: clock holds t on entry and the
   stop time on return, events receives the ring count, and 1 is returned
   if the origin stopped the run.  Mode 0 is MODE_TAU0 and 1
   MODE_PERSISTENCE. */
int kcm_event_loop(int8_t *state, const int64_t *site_ptr, const int64_t *rule_ptr,
                   const int64_t *neighbors, const int64_t *dep_ptr,
                   const int64_t *dependents, int64_t *slots, int64_t *pos, int64_t n,
                   int64_t origin, double q, double t_max, int mode, bitgen_t *g,
                   double *clock, int64_t *events)
{
    double t = *clock;
    int64_t m = 0, rings = 0, i, k;
    int hit = 0;
    for (i = 0; i < n; i++) {
        pos[i] = -1;
        if (legal_at(state, site_ptr, rule_ptr, neighbors, i)) {
            pos[i] = m;
            slots[m++] = i;
        }
    }
    while (m > 0) {
        double dt = random_standard_exponential(g) * (1.0 / m);
        int8_t v;
        if (t + dt > t_max)
            break;
        t += dt;
        rings++;
        i = slots[random_bounded_uint64(g, 0, m - 1, 0, 0)];
        v = g->next_double(g->state) >= q;
        if (v != state[i]) {
            state[i] = v;
            for (k = dep_ptr[i]; k < dep_ptr[i + 1]; k++) {
                int64_t d = dependents[k], at = pos[d];
                if (legal_at(state, site_ptr, rule_ptr, neighbors, d)) {
                    if (at < 0) {
                        pos[d] = m;
                        slots[m++] = d;
                    }
                } else if (at >= 0) {
                    int64_t last = slots[--m];
                    slots[at] = last;
                    pos[last] = at;
                    pos[d] = -1;
                }
            }
        }
        if (i == origin && (mode == 1 || (mode == 0 && !v))) {
            hit = 1;
            break;
        }
    }
    *clock = hit ? t : t_max;
    *events = rings;
    return hit;
}
"""


def _library_name(numpy_version: str) -> str:
    """File name of the compiled loop: numpy's random code is linked into
    it, so the key covers numpy's version as well as the source."""
    digest = hashlib.sha256((_C_SOURCE + numpy_version).encode()).hexdigest()[:16]
    return f"kcm_loop-{digest}.so"


def _build(compiler: Sequence[str], cache_dir: str, lib: str, npyrandom_dir: str) -> None:
    """Compile ``_C_SOURCE`` against ``npyrandom_dir/libnpyrandom.a`` into a
    temporary file in ``cache_dir``, then move it to ``lib``; raises
    ``OSError`` naming the step that failed."""
    archive = os.path.join(npyrandom_dir, "libnpyrandom.a")
    if not os.path.isfile(archive):
        raise OSError(f"numpy's random library {archive} is missing")
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".so.tmp")
    except OSError as exc:
        raise OSError(f"cache directory {cache_dir} is not writable: {exc}") from exc
    os.close(fd)
    try:
        # no fused multiply-add, so that t + dt * (1/n) rounds as in Python
        cmd = [*compiler, "-O2", "-ffp-contract=off", "-shared", "-fPIC", "-x", "c", "-",
               "-o", tmp, f"-L{npyrandom_dir}", "-lnpyrandom", "-lm"]
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


def _load_event_loop(
    compiler: Sequence[str] = ("gcc",),
    cache_dir: Optional[str] = None,
    npyrandom_dir: Optional[str] = None,
):
    """The compiled event loop from ``cache_dir`` (default
    ``$XDG_CACHE_HOME/kcmlab``, else ``~/.cache/kcmlab``), built there first
    against ``npyrandom_dir`` (default numpy's ``random/lib``) unless a
    library for this source and numpy version exists; on any failure, one
    line on stderr and ``_event_loop_lists``."""
    if cache_dir is None:
        base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
        cache_dir = os.path.join(base, "kcmlab")
    if npyrandom_dir is None:
        npyrandom_dir = os.path.join(os.path.dirname(np.__file__), "random", "lib")
    lib = os.path.join(cache_dir, _library_name(np.__version__))
    try:
        if not os.path.exists(lib):
            _build(compiler, cache_dir, lib, npyrandom_dir)
        loop = ctypes.CDLL(lib).kcm_event_loop
    except OSError as exc:
        print(f"kcmlab: compiled event loop unavailable, using the Python loop: {exc}",
              file=sys.stderr)
        return _event_loop_lists
    ptr = ctypes.c_void_p
    loop.argtypes = [ptr] * 8 + [ctypes.c_int64, ctypes.c_int64, ctypes.c_double,
                                 ctypes.c_double, ctypes.c_int, ptr,
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


_event_loop = _load_event_loop()
