"""Droplet analysis for the Duarte model on a triangular stack of columns.

The working region V is a union of N columns of strictly decreasing height
whose last column is centred on the origin.  A deterministic pass over the
columns converts a configuration into an arrow profile: column k earns an
up arrow when its capped column contains an infectable vertical interval
of length at least ell, in which case the algorithm heals a whole range of
columns (the droplet) and moves on; its cut xi_k is tested by a closure on
V_{xi,k} with a healthy west wall.  The events B1 (at least n1 up arrows)
and B2 (a crossing over down-arrow columns) are read off the profile, and
``monitor_trajectory`` evaluates them along a KCM trajectory.

A configuration enters as a 0/1 state vector over sorted(V), the order of
``Dynamics.sites``; ``column_masks`` turns it into the column masks that
the pass and the crossing event B2 read: one Python int per column, one
bit per site, caps included (a set bit is an empty site).  The pass heals
a column by setting its int to 0.  Both close a window by a single
west-to-east sweep with a 1-D bit fixed point per column (the Duarte
rules never look east).  B2 closes one window per start column and
searches its masks for a path breadth first, node by node as (column,
bit).  ``bootstrap.closure_region`` is the general engine and, with the
site-set path search in the tests, the oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

# Not called here; kept bound because the traced benchmark patches it here.
from .bootstrap import closure_region  # noqa: F401
from .families import builtin_family
from .geometry import (
    BoundaryCondition,
    BoundaryExterior,
    Region,
    Site,
)
from .kcm import SimParams, make_dynamics, observe_trajectory

UP = "U"
DOWN = "D"
MAX_SITES = 1 << 22


@dataclass(frozen=True)
class DuarteScales:
    q: float
    ell: int
    N: int
    n1: int
    n2: int

    def __post_init__(self):
        for name in ("ell", "N", "n1", "n2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")

    @classmethod
    def toy(cls, ell: int, N: int, n1: int = 1, n2: int = 1,
            q: float = 0.5) -> "DuarteScales":
        return cls(q=q, ell=ell, N=N, n1=n1, n2=n2)


class ColumnGeometry:
    """Columns C_i = {(i, j) : |j| < N^2 - (i-1)N} - N e1, i = 1..N.

    Heights strictly decrease in i; the origin is the midpoint of the last
    column.  C̄_i adds the two vertical cap sites of column i.  V holds
    N^3 + N^2 - N sites, at most MAX_SITES (N <= 160); each takes ~0.35 kB.
    """

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("N must be >= 1")
        n_sites = N ** 3 + N ** 2 - N
        if n_sites > MAX_SITES:
            raise ValueError(f"N = {N} columns hold {n_sites} sites, above the limit of {MAX_SITES}")
        self.N = N
        self.columns: Dict[int, FrozenSet[Site]] = {}
        for i in range(1, N + 1):
            h = self.height(i)
            self.columns[i] = frozenset((i - N, j) for j in range(-h + 1, h))
        self.region = Region.column_union(self.columns.values())
        self._tau: Optional[BoundaryCondition] = None
        self._dynamics = None  # the Duarte KCM tables, built by monitor_trajectory

    def height(self, i: int) -> int:
        return self.N * self.N - (i - 1) * self.N

    def column_x(self, i: int) -> int:
        return i - self.N

    def initial_tau(self) -> BoundaryCondition:
        """The split boundary of V: healthy on the parallel view (the west
        wall), empty on the perpendicular view (the caps); built once."""
        if self._tau is None:
            self._tau = BoundaryCondition.split(self.region, par_value=1, perp_value=0)
        return self._tau


@dataclass(frozen=True)
class DropletRecord:
    k: int
    xi: int
    range: int


@dataclass(frozen=True)
class ArrowProfile:
    phi: Tuple[str, ...]
    droplets: Dict[int, DropletRecord]

    @property
    def n_up(self) -> int:
        return sum(1 for a in self.phi if a == UP)

    def phi_string(self) -> str:
        return "".join(self.phi)


_DUARTE = builtin_family("duarte")


def column_masks(geometry: ColumnGeometry, state: Sequence[int]) -> List[int]:
    """Column c's empties as one int at index c - 1, from a 0/1 state vector
    over ``sorted(geometry.region.sites)``: bit y + h_c stands for the site
    (x_c, y), so bits 0 and 2h_c are its caps, set because the caps start
    empty.  That order runs through the columns west to east, each one
    y-ascending, so column c is one slice of 2h_c - 1 entries."""
    empty = np.asarray(state) == 0
    masks = []
    start = 0
    for c in range(1, geometry.N + 1):
        h = geometry.height(c)
        bits = np.packbits(empty[start : start + 2 * h - 1], bitorder="little")
        masks.append(int.from_bytes(bits.tobytes(), "little") << 1 | 1 | 1 << 2 * h)
        start += 2 * h - 1
    return masks


def _window_closure(
    geometry: ColumnGeometry, i: int, j: int, masks: Sequence[int]
) -> List[int]:
    """Closed masks of columns i..j under the Duarte closure on V_{i,j} with
    a healthy west wall.  Cap bits never change.

    A Duarte site needs two of its N, S and W neighbours infected, and no
    rule looks east.  So nothing east of column c can change column c, and
    the closure restricted to column c is the least fixed point of the 1-D
    map ``inf |= ((up & dn) | (w & (up | dn))) & interior`` given the final
    closed column w to its west.  Sweeping west to east and iterating that
    map in each column to its fixed point therefore gives the closure.
    Column c - 1 is N sites taller on each side, so its mask shifted right
    by N is in column c's bit frame.

    This equals the closure on V_{1,j} after the capped columns 1..i-1 are
    healed: no infection starts in healed columns, so column i sees a
    healthy west in either window.
    """
    N = geometry.N
    h = geometry.height(i)
    w = 0
    closed = []
    for inf in masks[i - 1 : j]:
        interior = (1 << 2 * h) - 2
        while True:
            up, dn = inf << 1, inf >> 1
            grown = inf | (((up & dn) | (w & (up | dn))) & interior)
            if grown == inf:
                break
            inf = grown
        closed.append(inf)
        w = inf >> N
        h -= N
    return closed


def _column_has_long_interval(
    geometry: ColumnGeometry, xi: int, k: int, masks: Sequence[int], ell: int
) -> bool:
    """Whether the closure on V_{xi,k} contains a vertical run of length
    >= ell inside the capped column k (caps count while their bits are set)."""
    m = _window_closure(geometry, xi, k, masks)[-1]
    run = 1  # bit b of m is set iff bits b..b+run-1 of the column are
    while run < ell and m:
        s = min(run, ell - run)
        m &= m >> s
        run += s
    return m != 0


def run_droplet_algorithm(
    masks: Sequence[int],
    geometry: ColumnGeometry,
    ell: int,
) -> ArrowProfile:
    """One deterministic left-to-right pass producing the arrow profile.

    The state is a copy of the column masks, caps included; an up arrow at
    column k heals capped columns xi_k..k by setting their masks to 0.
    xi_k is the largest cut xi for which the closure of the current state
    on V_{xi,k}, with a healthy west wall, keeps the long-interval property
    in column k.  The cut test is non-increasing in xi, so a binary search
    finds xi_k exactly: for xi < xi', V_{xi',k} lies in V_{xi,k}, whose
    sites west of column xi' may be infected where V_{xi',k} has a healthy
    wall, and a closure only grows when more sites may be infected.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if len(masks) != geometry.N:
        raise ValueError(f"{len(masks)} column masks for a region of {geometry.N} columns")
    masks = list(masks)
    phi: List[str] = []
    droplets: Dict[int, DropletRecord] = {}

    for k in range(1, geometry.N + 1):
        def holds(xi: int) -> bool:
            return _column_has_long_interval(geometry, xi, k, masks, ell)

        if holds(1):
            lo, hi = 1, k  # holds(lo) is true; find the largest true
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if holds(mid):
                    lo = mid
                else:
                    hi = mid - 1
            xi_k = lo
            masks[xi_k - 1 : k] = [0] * (k - xi_k + 1)
            droplets[k] = DropletRecord(k=k, xi=xi_k, range=k - xi_k)
            phi.append(UP)
        else:
            phi.append(DOWN)

    return ArrowProfile(phi=tuple(phi), droplets=droplets)


def event_B1(profile: ArrowProfile, n: int) -> bool:
    """At least n up arrows."""
    return profile.n_up >= n


def _crossing(
    geometry: ColumnGeometry, i: int, closed: Sequence[int]
) -> Optional[List[Site]]:
    """Shortest path with steps +e1, +e2, -e2 through the set bits of the
    closed masks of columns i, i + 1, ..., from the first column to the
    last, caps excluded; None if there is none.

    Breadth first over (column offset, bit) nodes: the starts in ascending
    y, the neighbours in the order +e1 (bit b to bit b - N of the next
    column, which is N sites shorter on each side), +e2, -e2, and the
    first node dequeued in the last column ends the search.
    """
    N = geometry.N
    heights = [geometry.height(c) for c in range(i, i + len(closed))]
    cols = [m & ((1 << 2 * h) - 2) for m, h in zip(closed, heights)]
    last = len(cols) - 1
    starts = [(0, b) for b in range(1, 2 * heights[0]) if cols[0] >> b & 1]
    parent = dict.fromkeys(starts)
    queue = deque(starts)
    while queue:
        node = queue.popleft()
        c, b = node
        if c == last:
            path = []
            while node is not None:
                path.append((geometry.column_x(i + node[0]), node[1] - heights[node[0]]))
                node = parent[node]
            return path[::-1]
        for nxt in ((c + 1, b - N), (c, b + 1), (c, b - 1)):
            if nxt[1] > 0 and cols[nxt[0]] >> nxt[1] & 1 and nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    return None


def event_B2(
    masks: Sequence[int],
    profile: ArrowProfile,
    geometry: ColumnGeometry,
    n: int,
) -> Optional[Tuple[int, int, List[Site]]]:
    """First (i, j, path) witness of a crossing over down-arrow columns: a
    path with steps +e1, +-e2 from column i to column j, j - i >= n - 1,
    with all arrows down on [i, j], through the closure of the masks'
    empties inside V_{i,j} under a healthy west wall and empty caps.

    Only the shortest window, j0 = max(i + 1, i + n - 1), is searched for
    each i.  The Duarte rules never read east, so for j > j0 the closure
    on V_{i,j} restricted to columns i..j0 is the closure on V_{i,j0}.  A
    path from column i to column j > j0 moves east one column at a time,
    so it passes column j0, and its part up to there lies in the V_{i,j0}
    closure.  So if no path reaches column j0, none reaches a later
    column, and if one does, (i, j0) is the first witness for this i.
    """
    for i in range(1, geometry.N + 1):
        j = max(i + 1, i + n - 1)
        if j > geometry.N or UP in profile.phi[i - 1 : j]:
            continue
        path = _crossing(geometry, i, _window_closure(geometry, i, j, masks))
        if path is not None:
            return (i, j, path)
    return None


@dataclass
class TrajectoryReport:
    first_b1: Optional[float]
    first_b2: Optional[float]
    max_n_up: int
    max_range: int
    samples: int


def monitor_trajectory(
    scales: DuarteScales,
    t_max: float,
    sample_interval: float,
    seed: int,
    trial: int = 0,
    geometry: Optional[ColumnGeometry] = None,
) -> TrajectoryReport:
    """Run the constrained dynamics on V (healthy left wall, empty caps) and
    evaluate the arrow machinery on a uniform time grid.  Entry times are
    resolved only up to the grid spacing.  A given ``geometry`` must have
    the scales' N."""
    if sample_interval <= 0:
        raise ValueError("sample interval must be positive")
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    if geometry is not None and geometry.N != scales.N:
        raise ValueError(f"geometry has N = {geometry.N} columns, the scales N = {scales.N}")
    grid = list(np.arange(0.0, t_max + 1e-12, sample_interval)) if t_max > 0 else []
    report = TrajectoryReport(
        first_b1=None,
        first_b2=None,
        max_n_up=0,
        max_range=0,
        samples=len(grid),
    )
    if not grid:
        return report
    geometry = geometry or ColumnGeometry(scales.N)
    params = SimParams(
        family=_DUARTE,
        q=scales.q,
        region=geometry.region,
        boundary=BoundaryExterior(geometry.initial_tau()),
        t_max=t_max,
        seed=seed,
        trial=trial,
    )
    if geometry._dynamics is None:
        geometry._dynamics = make_dynamics(params)
    dyn = geometry._dynamics

    def observer(t: float, state: np.ndarray) -> None:
        masks = column_masks(geometry, state)  # dyn.sites is sorted(V)
        profile = run_droplet_algorithm(masks, geometry, scales.ell)
        report.max_n_up = max(report.max_n_up, profile.n_up)
        ranges = [r.range for r in profile.droplets.values()]
        if ranges:
            report.max_range = max(report.max_range, max(ranges))
        if report.first_b1 is None and event_B1(profile, scales.n1):
            report.first_b1 = t
        if report.first_b2 is None and event_B2(masks, profile, geometry, scales.n2):
            report.first_b2 = t

    observe_trajectory(params, grid, observer, dyn=dyn)
    return report
