"""The monotone bootstrap process: closures and bootstrap times.

Closures and bootstrap times all step through ``_close``, which iterates
synchronous steps on a boolean grid with a healthy exterior.  It runs the
kernel ``bootstrap_close`` of the compiled library (``native``): a cell
infected at one step reads a cell infected at the step before, so each step
checks only the cells that read the last step's new cells, and each cell
joins that frontier once, when it is infected.  A closure costs its
infected cells times the family's offsets, with no cost per step beyond
that.  If the library did not load, the numpy stepping runs instead:
``_steps`` iterates ``grid_step``, one step on the box about the last
step's new cells at a cost of a few numpy passes over that box.  Both give
the same grids and step counts; the numpy stepping is the kernel's test
oracle, and the synchronous iteration on site sets in the tests is the
oracle of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import native
from .families import UpdateFamily
from .geometry import BoundaryCondition, Region, Site, derive_rng

# Grids hold at most 2^27 cells (a Bernoulli field that size is 1 GiB of
# float64).  Free-closure margins and uncapped step caps start at 16 and
# double.  A box of at most 2^14 cells is stepped whole: locating its new
# cells would cost more than the cells it saves.
_MAX_CELLS = 1 << 27
_FIRST = 16
_WHOLE = 1 << 14

_kernel = None if native.LIB is None else native.LIB.bootstrap_close


@dataclass(frozen=True)
class ClosureResult:
    closed: FrozenSet[Site]
    rounds: int
    touched_cap: bool


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


def _steps(
    family: UpdateFamily, infected: np.ndarray, inside: Optional[np.ndarray] = None
) -> Iterator[np.ndarray]:
    """The grid after each synchronous step that infects a cell, until a
    fixed point; with ``inside`` set, only its cells become infected.

    A cell infected at one step reads a cell infected at the step before,
    so after the whole grid each step takes the box of the last step's new
    cells (of a box up to ``_WHOLE`` cells, the whole box) widened by twice
    the family's reach: cells there that can change read nothing beyond it."""
    infected = infected.copy()
    reach = 2 * max(max(abs(dx), abs(dy)) for dx, dy in family.offsets())
    n, m = infected.shape
    x0, x1, y0, y1 = 0, n, 0, m
    while True:
        cur = infected[x0:x1, y0:y1]
        nxt = grid_step(family, cur)
        if inside is not None:
            nxt = cur | (nxt & inside[x0:x1, y0:y1])
        new = nxt ^ cur
        if cur.size > _WHOLE:
            rows = new.any(axis=1).nonzero()[0]
            if rows.size == 0:
                return
            cols = new[rows[0] : rows[-1] + 1].any(axis=0).nonzero()[0]
            x0, x1 = x0 + int(rows[0]), x0 + int(rows[-1]) + 1
            y0, y1 = y0 + int(cols[0]), y0 + int(cols[-1]) + 1
        elif not new.any():
            return
        cur[...] = nxt
        x0, x1 = max(0, x0 - reach), min(n, x1 + reach)
        y0, y1 = max(0, y0 - reach), min(m, y1 + reach)
        yield infected


@lru_cache(maxsize=64)
def _tables(family: UpdateFamily, m: int) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's tables for a grid of ``m`` columns in its frame: the
    family's reach (the frame's width), the rule boundaries, each rule's
    offsets as flat index steps, and the distinct steps negated."""
    offsets = family.offsets()
    reach = max(max(abs(dx), abs(dy)) for dx, dy in offsets)
    width = m + 2 * reach
    rule_ptr = np.cumsum([0] + [len(rule) for rule in family.rules], dtype=np.int64)
    steps = np.array([dx * width + dy for rule in family.rules for dx, dy in rule], dtype=np.int64)
    readers = np.array([-(dx * width + dy) for dx, dy in offsets], dtype=np.int64)
    return reach, rule_ptr, steps, readers


def _close(
    family: UpdateFamily,
    infected: np.ndarray,
    inside: Optional[np.ndarray] = None,
    origin: Optional[Tuple[int, int]] = None,
    max_steps: Optional[int] = None,
) -> Tuple[np.ndarray, int]:
    """The grid after synchronous steps from ``infected`` until a fixed
    point, ``max_steps`` steps or a step that infects ``origin``, and the
    number of steps, each of which infected a cell; with ``inside`` set,
    only its cells become infected.

    The compiled kernel steps a copy of the grid framed by healthy cells as
    wide as the family's reach, the frame and the cells outside ``inside``
    marked to stay healthy; without the library, ``_steps`` runs."""
    if _kernel is None:
        rounds = 0
        for rounds, infected in enumerate(islice(_steps(family, infected, inside), max_steps), 1):
            if origin is not None and infected[origin]:
                break
        return infected, rounds
    n, m = infected.shape
    reach, rule_ptr, steps, readers = _tables(family, m)
    grid = np.full((n + 2 * reach, m + 2 * reach), 2, dtype=np.uint8)
    core = grid[reach : reach + n, reach : reach + m]
    core[...] = infected
    if inside is not None:
        core[~(inside | infected)] = 2
    target = -1 if origin is None else (origin[0] + reach) * grid.shape[1] + origin[1] + reach
    front = np.empty(grid.size, dtype=np.int64)
    rounds = _kernel(grid.ctypes.data, grid.size, rule_ptr.ctypes.data, steps.ctypes.data,
                     len(family.rules), readers.ctypes.data, readers.size, target,
                     -1 if max_steps is None else max_steps, front.ctypes.data)
    return core == 1, rounds


def _spans(family: UpdateFamily) -> List[Tuple[int, int]]:
    """Per axis, the least and greatest offset, widened to include 0."""
    offsets = family.offsets()
    return [(min(0, *(d[a] for d in offsets)), max(0, *(d[a] for d in offsets))) for a in (0, 1)]


def _sites_grid(sites: Iterable[Site], lo: np.ndarray, hi: np.ndarray, what: str) -> np.ndarray:
    """The grid on the box [lo, hi] with ``sites`` infected: cell (i, j) is
    the site lo + (i, j).  A box above ``_MAX_CELLS`` cells is refused."""
    n, m = int(hi[0] - lo[0]) + 1, int(hi[1] - lo[1]) + 1
    if n * m > _MAX_CELLS:
        raise ValueError(f"{what} of {n} x {m} holds {n * m} cells, above the limit of {_MAX_CELLS}")
    grid = np.zeros((n, m), dtype=bool)
    xy = np.array(list(sites), dtype=np.int64).reshape(-1, 2) - lo
    grid[xy[:, 0], xy[:, 1]] = True
    return grid


def _grid_sites(grid: np.ndarray, lo: np.ndarray) -> FrozenSet[Site]:
    xs, ys = np.nonzero(grid)
    return frozenset(zip((xs + int(lo[0])).tolist(), (ys + int(lo[1])).tolist()))


def closure_region(
    family: UpdateFamily,
    region: Region,
    tau: Optional[BoundaryCondition],
    seed: Iterable[Site],
) -> ClosureResult:
    """Finite-volume closure [Y]^tau, on the bounding box of the region and
    the zeros of tau: the zeros stay infected, and only region cells become
    infected."""
    if tau is not None and tau.region != region:
        raise ValueError("boundary condition does not match region")
    seed = frozenset(seed)
    if not seed <= region.sites:
        raise ValueError("seed must be contained in the region")
    zeros = tau.zeros if tau is not None else frozenset()
    xy = np.array(list(region.sites | zeros), dtype=np.int64)
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    inside = _sites_grid(region.sites, lo, hi, "bounding box")
    infected, rounds = _close(family, _sites_grid(seed | zeros, lo, hi, "bounding box"), inside)
    return ClosureResult(_grid_sites(infected & inside, lo), rounds, False)


def closure_free(
    family: UpdateFamily, seed: Iterable[Site], cap: int
) -> ClosureResult:
    """Closure on Z^2 of a finite seed, computed inside the box of sup-norm
    radius ``cap``; ``touched_cap`` flags that growth reached the cap and the
    result is only a lower bound on the true closure.

    It closes in a window within the cap box, first the seed's bounding box
    widened by 16.  While a cell of the cap box beyond a side of the window
    reads an infected cell, the window is doubled towards that side and the
    closure starts again from the seed; once none does, none is infected."""
    seed = frozenset(seed)
    radius = max((max(abs(x), abs(y)) for x, y in seed), default=0)
    if cap < radius:
        raise ValueError(f"cap {cap} smaller than seed radius {radius}")
    if not seed:
        return ClosureResult(frozenset(), 0, False)
    xy = np.array(list(seed), dtype=np.int64)
    lo, hi = np.maximum(xy.min(axis=0) - _FIRST, -cap), np.minimum(xy.max(axis=0) + _FIRST, cap)
    while True:
        infected, rounds = _close(family, _sites_grid(seed, lo, hi, "window"))
        grown = touched = False
        for a, (d_lo, d_hi) in enumerate(_spans(family)):
            # cells below the window read up to d_hi into it, above down to d_lo
            line, n = np.flatnonzero(infected.any(axis=1 - a)), infected.shape[a]
            if line[0] < d_hi:
                touched, grown = touched or lo[a] == -cap, grown or lo[a] > -cap
                lo[a] = max(-cap, lo[a] - n)
            if line[-1] >= n + d_lo:
                touched, grown = touched or hi[a] == cap, grown or hi[a] < cap
                hi[a] = min(cap, hi[a] + n)
        if not grown:
            return ClosureResult(_grid_sites(infected, lo), rounds, bool(touched))


# ---------------------------------------------------------------------------
# Bootstrap times on large Bernoulli boxes.  After t synchronous steps the
# origin's state depends only on the cells at origin + (a sum of at most t
# rule offsets), in the box origin + t*[lo, hi] on each axis (``_spans``).
# The grid bootstrap steps only that box, clipped to the grid.


def _dependence_window(
    family: UpdateFamily, shape: Tuple[int, int], origin: Tuple[int, int], steps: int
) -> Tuple[slice, slice]:
    """The cells of the grid that the origin's state after ``steps`` steps
    can depend on, as one slice per axis."""
    return tuple(
        slice(max(0, c + steps * lo), min(n, c + steps * hi + 1))
        for (lo, hi), c, n in zip(_spans(family), origin, shape)
    )


def bootstrap_time_on_grid(
    family: UpdateFamily,
    empty: np.ndarray,
    origin: Tuple[int, int],
    max_steps: Optional[int] = None,
) -> Optional[int]:
    """Number of synchronous steps until the origin cell is infected, with a
    healthy exterior; None if it is not infected.

    With ``max_steps`` set, None means the origin is healthy after
    ``max_steps`` steps.  With ``max_steps=None`` the cap starts at 16 and
    doubles while the origin stays healthy, until the dependence window
    covers all the grid the origin can depend on; only there does a fixed
    point mean None."""
    empty = np.asarray(empty)
    if empty.ndim != 2:
        raise ValueError(f"grid must be 2-D, got shape {empty.shape}")
    if empty.dtype != bool:
        raise ValueError(f"grid must be boolean, got dtype {empty.dtype}")
    if len(origin) != 2 or not all(0 <= c < n for c, n in zip(origin, empty.shape)):
        raise ValueError(f"origin {tuple(origin)} outside the {empty.shape[0]}x{empty.shape[1]} grid")
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    if empty[origin[0], origin[1]]:
        return 0
    cap = _FIRST if max_steps is None else max_steps
    while True:
        window = _dependence_window(family, empty.shape, origin, cap)
        whole = max_steps is None and window == _dependence_window(family, empty.shape, origin, cap + 1)
        local = (origin[0] - window[0].start, origin[1] - window[1].start)
        infected, steps = _close(family, empty[window], origin=local,
                                 max_steps=None if whole else cap)
        if infected[local]:
            return steps
        if max_steps is not None or whole:
            return None
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
    if n * n > _MAX_CELLS:
        raise ValueError(f"box {box} holds {n * n} cells, above the limit of {_MAX_CELLS}")
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
