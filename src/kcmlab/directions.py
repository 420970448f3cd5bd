"""Stable directions of an update family, in exact integer arithmetic.

A unit direction u is stable when every rule has a site x with <x,u> >= 0,
so no single rule can eat into the half-plane below u.  The destabilized
set is a finite union of open arcs whose endpoints are perpendiculars of
rule sites; stability is therefore constant between consecutive candidate
directions.  So the circle is sampled once, counterclockwise: each
candidate, then one direction of the open gap after it.  The stable set is
closed, so every maximal run of stable samples begins and ends at a
candidate, and those two candidates bound one stable arc.  No floating
point enters any comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import gcd
from operator import itemgetter
from typing import List, Sequence, Tuple

from .families import UpdateFamily

Vec = Tuple[int, int]

SUPERCRITICAL_ROOTED = "SupercriticalRooted"
SUPERCRITICAL_UNROOTED = "SupercriticalUnrooted"
NOT_SUPERCRITICAL = "NotSupercritical"


def _primitive(v: Vec) -> Vec:
    x, y = v
    if x == 0 and y == 0:
        raise ValueError("zero vector has no direction")
    g = gcd(abs(x), abs(y))
    return (x // g, y // g)


def _cross(a: Vec, b: Vec) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _ccw_cat(anchor: Vec, w: Vec) -> int:
    """Coarse position of w relative to anchor, counterclockwise.

    0: same direction; 1: strictly within (0, pi); 2: opposite (= pi);
    3: strictly within (pi, 2 pi).
    """
    c = _cross(anchor, w)
    if c > 0:
        return 1
    if c < 0:
        return 3
    return 0 if anchor[0] * w[0] + anchor[1] * w[1] > 0 else 2


def _angle_from_e1(v: Vec) -> Tuple[int, Fraction]:
    """Sort key: the counterclockwise angle from +e1.  Within each open
    half-plane, y > 0 and y < 0, the angle grows with -x/y."""
    return _ccw_cat((1, 0), v), Fraction(-v[0], v[1]) if v[1] else Fraction(0)


def _is_stable(family: UpdateFamily, u: Vec) -> bool:
    """Direct predicate: every rule has some site on the closed upper side."""
    return all(any(x[0] * u[0] + x[1] * u[1] >= 0 for x in rule) for rule in family.rules)


@dataclass(frozen=True)
class Arc:
    """Closed circular arc from start to end, counterclockwise; a point arc
    has start == end."""

    start: Vec
    end: Vec

    @property
    def is_point(self) -> bool:
        return self.start == self.end


@dataclass(frozen=True)
class StableDirectionReport:
    arcs: Tuple[Arc, ...]
    full_circle: bool
    classification: str


def stable_directions(family: UpdateFamily) -> StableDirectionReport:
    """Compute the closed stable set as a union of disjoint closed arcs."""
    candidates = sorted(
        {_primitive((-s * y, s * x)) for rule in family.rules for x, y in rule for s in (1, -1)},
        key=_angle_from_e1,
    )
    # Candidates come in opposite pairs, so a gap spans at most pi; a gap of
    # exactly pi is sampled by its start turned a quarter counterclockwise.
    circle: List[Vec] = []
    for a, b in zip(candidates, candidates[1:] + candidates[:1]):
        gap = (a[0] + b[0], a[1] + b[1]) if _cross(a, b) > 0 else (-a[1], a[0])
        circle += [a, gap]
    flags = [_is_stable(family, u) for u in circle]
    if all(flags):
        return StableDirectionReport(arcs=(), full_circle=True, classification=NOT_SUPERCRITICAL)

    # Begin after an unstable sample, so that no stable run wraps around.
    k = flags.index(False) + 1
    ring = list(zip(circle[k:] + circle[:k], flags[k:] + flags[:k]))
    arcs = []
    for stable, run in groupby(ring, key=itemgetter(1)):
        if stable:
            samples = [u for u, _ in run]
            arcs.append(Arc(samples[0], samples[-1]))
    arcs.sort(key=lambda arc: _angle_from_e1(arc.start))
    stable_samples = [u for u, stable in ring if stable]
    return StableDirectionReport(
        arcs=tuple(arcs), full_circle=False, classification=_classify(arcs, stable_samples)
    )


def _classify(arcs: List[Arc], stable_samples: Sequence[Vec]) -> str:
    """Supercritical: some open semicircle holds no stable direction, that
    is some gap from an arc's end to the next arc's start spans at least pi.
    A lone point arc's gap, from the point to itself, is the whole circle,
    and so is the complement of an empty stable set.

    Rooted: two stable directions are not opposite.  The samples decide it:
    an arc that is not a point holds at least three of them, and no three
    directions are pairwise opposite."""
    gaps = zip(arcs, arcs[1:] + arcs[:1])
    if arcs and not any(a.end == b.start or _ccw_cat(a.end, b.start) >= 2 for a, b in gaps):
        return NOT_SUPERCRITICAL
    if any(_ccw_cat(u, v) in (1, 3) for u in stable_samples for v in stable_samples):
        return SUPERCRITICAL_ROOTED
    return SUPERCRITICAL_UNROOTED
