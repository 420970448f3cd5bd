"""The monotone bootstrap process: closures, path search, bootstrap times.

One engine computes a closure: a generation-layered work queue that only
re-examines neighbours of newly infected sites, whose generations are the
rounds of the synchronous iteration (the tests' oracle).  It honours
finite-volume semantics: infection lives on the region plus the zero sites
of a fixed boundary condition, and everything beyond stays healthy.  It
serves both a finite region (``closure_region``) and the sup-norm box
around a finite seed in Z^2 (``closure_free``).  Bootstrap times run on a
separate boolean grid engine, ``grid_step``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Container, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .families import UpdateFamily
from .geometry import BoundaryCondition, Region, Site, derive_rng


@dataclass(frozen=True)
class ClosureResult:
    closed: FrozenSet[Site]
    rounds: int
    touched_cap: bool


def _closure(
    family: UpdateFamily,
    inside: Container[Site],
    seed: FrozenSet[Site],
    zeros: FrozenSet[Site] = frozenset(),
) -> Tuple[set, int]:
    """Generation-layered closure of ``seed`` on the sites ``c in inside``,
    with the fixed infected sites ``zeros`` outside them; returns the
    infected sites of ``inside`` and the number of generations, which
    matches the synchronous iteration's round count."""
    offsets = family.offsets()
    rules = family.rules

    active = set(seed) | zeros
    frontier = set(active)
    rounds = 0
    while frontier:
        candidates = set()
        for (sx, sy) in frontier:
            for (dx, dy) in offsets:
                c = (sx - dx, sy - dy)
                if c in inside and c not in active:
                    candidates.add(c)
        newly = set()
        for x in candidates:
            a, b = x
            for rule in rules:
                if all((a + dx, b + dy) in active for dx, dy in rule):
                    newly.add(x)
                    break
        if not newly:
            break
        rounds += 1
        active |= newly
        frontier = newly
    return active - zeros, rounds


class _SupNormBox:
    """Membership in the box of sup-norm radius ``cap`` about the origin,
    without listing its sites."""

    __slots__ = ("cap",)

    def __init__(self, cap: int):
        self.cap = cap

    def __contains__(self, site: Site) -> bool:
        return abs(site[0]) <= self.cap and abs(site[1]) <= self.cap


def closure_region(
    family: UpdateFamily,
    region: Region,
    tau: Optional[BoundaryCondition],
    seed: Iterable[Site],
) -> ClosureResult:
    """Finite-volume closure [Y]^tau via a work queue, processed in
    generations so the round count matches the synchronous iteration."""
    if tau is not None and tau.region != region:
        raise ValueError("boundary condition does not match region")
    seed = frozenset(seed)
    if not seed <= region.sites:
        raise ValueError("seed must be contained in the region")
    zeros = tau.zeros if tau is not None else frozenset()
    infected, rounds = _closure(family, region.sites, seed, zeros)
    return ClosureResult(frozenset(infected), rounds, False)


def closure_free(
    family: UpdateFamily, seed: Iterable[Site], cap: int
) -> ClosureResult:
    """Closure on Z^2 of a finite seed, computed inside the box of sup-norm
    radius ``cap``; ``touched_cap`` flags that growth reached the cap and the
    result is only a lower bound on the true closure."""
    seed = frozenset(seed)
    if seed:
        radius = max(max(abs(x), abs(y)) for x, y in seed)
        if cap < radius:
            raise ValueError(f"cap {cap} smaller than seed radius {radius}")
    box = _SupNormBox(cap)
    infected, rounds = _closure(family, box, seed)
    offsets = family.offsets()
    touched = any(
        (sx - dx, sy - dy) not in box for (sx, sy) in infected for (dx, dy) in offsets
    )
    return ClosureResult(frozenset(infected), rounds, touched)


_DUARTE_STEPS: Tuple[Site, ...] = ((1, 0), (0, 1), (0, -1))


def duarte_path_exists(
    closed: Iterable[Site], from_x: int, to_x: int
) -> Optional[List[Site]]:
    """Shortest path inside ``closed`` from column x=from_x to column x=to_x
    using steps {+e1, +e2, -e2}; deterministic neighbour order."""
    if from_x > to_x:
        raise ValueError("from column must not exceed to column")
    closed = frozenset(closed)
    starts = sorted(s for s in closed if s[0] == from_x)
    if not starts:
        return None
    parent = {s: None for s in starts}
    queue = deque(starts)
    while queue:
        s = queue.popleft()
        if s[0] == to_x:
            path = []
            cur = s
            while cur is not None:
                path.append(cur)
                cur = parent[cur]
            path.reverse()
            return path
        a, b = s
        for dx, dy in _DUARTE_STEPS:
            n = (a + dx, b + dy)
            if n in closed and n not in parent:
                parent[n] = s
                queue.append(n)
    return None


# ---------------------------------------------------------------------------
# Vectorized grid engine for large Bernoulli boxes.  After t synchronous
# steps the origin's state depends only on the cells at origin + (a sum of at
# most t rule offsets).  These lie in the box origin + t*[min(0, min d),
# max(0, max d)] on each axis, so the grid bootstrap steps only that box,
# clipped to the grid, with healthy cells outside it.  On an axis where no
# offset points one way, that side of the box stays at the origin.


def grid_step(family: UpdateFamily, infected: np.ndarray) -> np.ndarray:
    """Synchronous bootstrap step on a boolean grid, healthy exterior.  The
    grid is copied into a healthy frame as wide as the family's largest
    offset, and each offset is one view of the framed grid."""
    offsets = family.offsets()
    r = max(max(abs(dx), abs(dy)) for dx, dy in offsets)
    n, m = infected.shape
    padded = np.zeros((n + 2 * r, m + 2 * r), dtype=infected.dtype)
    padded[r : r + n, r : r + m] = infected
    shifted = {(dx, dy): padded[r + dx : r + dx + n, r + dy : r + dy + m] for dx, dy in offsets}
    acc = None
    for rule in family.rules:
        hit = shifted[rule[0]]
        for s in rule[1:]:
            hit = hit & shifted[s]
        acc = hit if acc is None else (acc | hit)
    return infected | acc


# The first step cap of an uncapped grid bootstrap; see bootstrap_time_on_grid.
_FIRST_CAP = 16


def _dependence_window(
    family: UpdateFamily, shape: Tuple[int, int], origin: Tuple[int, int], steps: int
) -> Tuple[slice, slice]:
    """The cells of the grid that the origin's state after ``steps`` steps
    can depend on, as one slice per axis."""
    offsets = family.offsets()
    window = []
    for axis in (0, 1):
        lo = min(0, min(d[axis] for d in offsets))
        hi = max(0, max(d[axis] for d in offsets))
        c = origin[axis]
        window.append(slice(max(0, c + steps * lo), min(shape[axis], c + steps * hi + 1)))
    return tuple(window)


def _first_infection(
    family: UpdateFamily,
    empty: np.ndarray,
    origin: Tuple[int, int],
    window: Tuple[slice, slice],
    max_steps: Optional[int],
) -> Optional[int]:
    """Synchronous steps on ``empty[window]`` until the origin is infected;
    None at a fixed point of the window or after ``max_steps`` steps."""
    infected = empty[window]
    local = (origin[0] - window[0].start, origin[1] - window[1].start)
    steps = 0
    count = int(infected.sum())
    while max_steps is None or steps < max_steps:
        infected = grid_step(family, infected)
        steps += 1
        if infected[local]:
            return steps
        new_count = int(infected.sum())
        if new_count == count:
            return None
        count = new_count
    return None


def bootstrap_time_on_grid(
    family: UpdateFamily,
    empty: np.ndarray,
    origin: Tuple[int, int],
    max_steps: Optional[int] = None,
) -> Optional[int]:
    """Number of synchronous steps until the origin cell is infected, with a
    healthy exterior; None if it is not infected.

    Only the origin's dependence window is stepped: the grid cropped to the
    box that the origin's state can read within the step cap, with healthy
    cells outside it.  The origin's state at every step up to the cap is the
    same as on the full grid.  With ``max_steps`` set, None means the origin
    is still healthy after ``max_steps`` steps (it may have reached a fixed
    point sooner).  With ``max_steps=None`` the window is that of cap 16, and
    the cap doubles while the origin stays healthy, until the window covers
    the origin's whole dependence region in the grid; only there does a
    fixed point mean that the origin is never infected, and None means that.
    """
    empty = np.asarray(empty)
    if empty.ndim != 2:
        raise ValueError(f"grid must be 2-D, got shape {empty.shape}")
    if len(origin) != 2 or not all(0 <= c < n for c, n in zip(origin, empty.shape)):
        raise ValueError(f"origin {tuple(origin)} outside the {empty.shape[0]}x{empty.shape[1]} grid")
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    if empty[origin[0], origin[1]]:
        return 0
    if max_steps is not None:
        window = _dependence_window(family, empty.shape, origin, max_steps)
        return _first_infection(family, empty, origin, window, max_steps)
    cap = _FIRST_CAP
    while True:
        window = _dependence_window(family, empty.shape, origin, cap)
        if window == _dependence_window(family, empty.shape, origin, cap + 1):
            return _first_infection(family, empty, origin, window, None)
        t = _first_infection(family, empty, origin, window, cap)
        if t is not None:
            return t
        cap *= 2


def _quantile(sorted_vals: Sequence[float], frac: float) -> float:
    idx = min(len(sorted_vals) - 1, int(math.floor(frac * (len(sorted_vals) - 1) + 0.5)))
    return sorted_vals[idx]


def median_bootstrap_time(
    family: UpdateFamily,
    q: float,
    box: int,
    trials: int,
    seed: int,
) -> dict:
    """Median first-infection time of the origin over Bernoulli(q) trials on
    the box of half-width ``box``; trials that reach a fixed point without
    infecting the origin are censored and sort last."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0,1], got {q}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if box < 1:
        raise ValueError("box must be >= 1")
    n = 2 * box + 1
    origin = (box, box)
    times: List[float] = []
    for trial in range(trials):
        rng = derive_rng(seed, 0, trial)
        empty = rng.random((n, n)) < q
        t = bootstrap_time_on_grid(family, empty, origin)
        times.append(math.inf if t is None else float(t))
    times_sorted = sorted(times)
    censored = sum(1 for t in times if math.isinf(t))
    return {
        "median": _quantile(times_sorted, 0.5),
        "q1": _quantile(times_sorted, 0.25),
        "q3": _quantile(times_sorted, 0.75),
        "censored": censored,
        "trials": trials,
        "times": times,
    }
