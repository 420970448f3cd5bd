"""Lattice geometry: finite regions, boundary decompositions, exterior policies.

Sites are plain ``(x, y)`` integer tuples; ``y`` is the height.  A finite
window of Z^2 is a :class:`Region`.  An exterior policy fixes the value of
every site outside a window (0 = empty/infected, 1 = occupied/healthy):
all healthy, all infected, or a :class:`BoundaryCondition` with healthy
sites beyond it.  A configuration of a region is a 0/1 state vector over
``sorted(region.sites)``, as ``sample_occupation`` draws it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Tuple

import numpy as np

Site = Tuple[int, int]


class Region:
    """A finite nonempty set of lattice sites."""

    __slots__ = ("sites",)

    def __init__(self, sites: Iterable[Site]):
        self.sites: FrozenSet[Site] = frozenset((int(x), int(y)) for x, y in sites)
        if not self.sites:
            raise ValueError("region must be nonempty")

    @classmethod
    def rectangle(cls, x0: int, x1: int, y0: int, y1: int) -> "Region":
        """Inclusive axis-aligned rectangle [x0..x1] x [y0..y1]."""
        if x1 < x0 or y1 < y0:
            raise ValueError("empty rectangle")
        return cls((x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1))

    @classmethod
    def corner(cls, width: int, height: int) -> "Region":
        """The width x height window whose top-right corner is the origin."""
        return cls.rectangle(-width + 1, 0, -height + 1, 0)

    @classmethod
    def box(cls, half_width: int) -> "Region":
        """Square box [-half_width..half_width]^2 centred at the origin."""
        return cls.rectangle(-half_width, half_width, -half_width, half_width)

    @classmethod
    def column_union(cls, columns: Iterable[Iterable[Site]]) -> "Region":
        sites = set()
        for col in columns:
            sites.update(col)
        return cls(sites)

    def __contains__(self, site: Site) -> bool:
        return site in self.sites

    def __len__(self) -> int:
        return len(self.sites)

    def __iter__(self):
        return iter(self.sites)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Region) and self.sites == other.sites)

    def __hash__(self) -> int:
        return hash(self.sites)

    def __repr__(self) -> str:
        xs = [s[0] for s in self.sites]
        ys = [s[1] for s in self.sites]
        return (
            f"Region({len(self.sites)} sites, "
            f"x in [{min(xs)},{max(xs)}], y in [{min(ys)},{max(ys)}])"
        )


def boundaries(region: Region) -> Tuple[FrozenSet[Site], FrozenSet[Site]]:
    """Split the outer boundary of a region into its two views.

    The parallel part collects exterior sites whose right neighbour lies in
    the region; the perpendicular part collects exterior sites vertically
    adjacent to the region.  A site may belong to both views.
    """
    sites = region.sites
    par = set()
    perp = set()
    for (x, y) in sites:
        w = (x - 1, y)
        if w not in sites:
            par.add(w)
        for n in ((x, y + 1), (x, y - 1)):
            if n not in sites:
                perp.add(n)
    return frozenset(par), frozenset(perp)


def outer_boundary(region: Region) -> FrozenSet[Site]:
    par, perp = boundaries(region)
    return par | perp


class BoundaryCondition:
    """A fixed 0/1 assignment on the outer boundary of a region.

    The assignment's support must equal the boundary exactly.
    """

    __slots__ = ("region", "assignment", "zeros")

    def __init__(self, region: Region, assignment: Mapping[Site, int]):
        bnd = outer_boundary(region)
        if set(assignment) != set(bnd):
            missing = bnd - set(assignment)
            extra = set(assignment) - bnd
            raise ValueError(
                f"boundary assignment support mismatch: "
                f"{len(missing)} missing, {len(extra)} extra sites"
            )
        self.region = region
        self.assignment: Dict[Site, int] = {s: int(v) for s, v in assignment.items()}
        for v in self.assignment.values():
            if v not in (0, 1):
                raise ValueError("boundary values must be 0 or 1")
        self.zeros: FrozenSet[Site] = frozenset(
            s for s, v in self.assignment.items() if v == 0
        )

    @classmethod
    def split(cls, region: Region, par_value: int, perp_value: int) -> "BoundaryCondition":
        """Assign par_value on the parallel view, perp_value on the
        perpendicular view; sites in both views take the perpendicular value."""
        par, perp = boundaries(region)
        assignment = {s: par_value for s in par}
        assignment.update({s: perp_value for s in perp})
        return cls(region, assignment)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BoundaryCondition)
            and self.region == other.region
            and self.assignment == other.assignment
        )

    def __hash__(self):
        return hash((self.region, tuple(sorted(self.assignment.items()))))


class _AllHealthy:
    """Exterior policy: every site outside the region is occupied."""

    def value_at(self, site: Site) -> int:
        return 1

    def __repr__(self):
        return "AllHealthy"


class _AllInfected:
    """Exterior policy: every site outside the region is empty."""

    def value_at(self, site: Site) -> int:
        return 0

    def __repr__(self):
        return "AllInfected"


ALL_HEALTHY = _AllHealthy()
ALL_INFECTED = _AllInfected()


@dataclass(frozen=True)
class BoundaryExterior:
    """Exterior policy: fixed values on the region boundary, healthy beyond."""

    bc: BoundaryCondition

    def value_at(self, site: Site) -> int:
        return self.bc.assignment.get(site, 1)

    def __repr__(self):
        return f"Boundary({len(self.bc.zeros)} zeros)"


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent RNG stream keyed by (seed, stream ids); no global state."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, stream)]))


def sample_occupation(region: Region, q: float, rng: np.random.Generator) -> np.ndarray:
    """Product measure as a 0/1 vector over ``sorted(region.sites)``: each
    site independently empty (0) with probability q."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0,1], got {q}")
    return (rng.random(len(region)) >= q).astype(np.int8)
