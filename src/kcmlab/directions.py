"""Stable directions of an update family, in exact integer arithmetic.

A unit direction u is stable when every rule has a site x with <x,u> >= 0,
so no single rule can eat into the half-plane below u.  The destabilized
set is a finite union of open arcs whose endpoints are perpendiculars of
rule sites; stability is therefore constant between consecutive candidate
directions, and the whole computation reduces to sign tests on integer
vectors.  No floating point enters any comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from math import gcd
from typing import List, Tuple

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


def _dot(a: Vec, b: Vec) -> int:
    return a[0] * b[0] + a[1] * b[1]


def _neg(v: Vec) -> Vec:
    return (-v[0], -v[1])


def _rot90(v: Vec) -> Vec:
    return (-v[1], v[0])


def _half(v: Vec) -> int:
    """0 for directions in [0, pi) counterclockwise from +e1, 1 otherwise."""
    x, y = v
    return 0 if (y > 0 or (y == 0 and x > 0)) else 1


def _angular_cmp(a: Vec, b: Vec) -> int:
    """Total order on primitive directions, counterclockwise from +e1."""
    if _half(a) != _half(b):
        return _half(a) - _half(b)
    c = _cross(a, b)
    return (c < 0) - (c > 0)


_angular_key = cmp_to_key(_angular_cmp)


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
    return 0 if _dot(anchor, w) > 0 else 2


def _is_stable(family: UpdateFamily, u: Vec) -> bool:
    """Direct predicate: every rule has some site on the closed upper side."""
    return all(any(_dot(x, u) >= 0 for x in rule) for rule in family.rules)


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


def _candidate_directions(family: UpdateFamily) -> List[Vec]:
    cands = set()
    for rule in family.rules:
        for x in rule:
            p = _primitive(_rot90(x))
            cands.add(p)
            cands.add(_neg(p))
    return sorted(cands, key=_angular_key)


def _gap_representative(a: Vec, b: Vec) -> Vec:
    """An interior direction of the open ccw gap (a, b)."""
    if b == _neg(a):
        return _rot90(a)
    assert _cross(a, b) > 0, "adjacent candidates must subtend less than pi"
    return _primitive((a[0] + b[0], a[1] + b[1]))


def stable_directions(family: UpdateFamily) -> StableDirectionReport:
    """Compute the closed stable set as a union of disjoint closed arcs."""
    points = _candidate_directions(family)
    m = len(points)
    # Alternating circular sequence: point_0, gap_0, point_1, gap_1, ...
    elements: List[Tuple[str, Vec]] = []
    for i, p in enumerate(points):
        elements.append(("point", p))
        elements.append(("gap", _gap_representative(p, points[(i + 1) % m])))
    flags = [_is_stable(family, v) for _, v in elements]

    if all(flags):
        return StableDirectionReport(arcs=(), full_circle=True, classification=NOT_SUPERCRITICAL)
    if not any(flags):
        return StableDirectionReport(arcs=(), full_circle=False, classification=SUPERCRITICAL_UNROOTED)

    # Maximal circular runs of stable elements.  A stable gap forces stable
    # endpoints, so every run starts and ends at a point element.
    n = len(elements)
    start_idx = next(i for i in range(n) if not flags[i])
    arcs: List[Arc] = []
    i = start_idx
    steps = 0
    while steps < n:
        i = (i + 1) % n
        steps += 1
        if not flags[i]:
            continue
        run = [i]
        while steps < n and flags[(i + 1) % n]:
            i = (i + 1) % n
            steps += 1
            run.append(i)
        first = next(j for j in run if elements[j][0] == "point")
        last = next(j for j in reversed(run) if elements[j][0] == "point")
        arcs.append(Arc(elements[first][1], elements[last][1]))

    arcs.sort(key=lambda a: _angular_key(a.start))
    return StableDirectionReport(arcs=tuple(arcs), full_circle=False, classification=_classify(arcs))


def _gap_at_least_pi(end: Vec, start: Vec, full: bool) -> bool:
    if full:
        return True
    cat = _ccw_cat(end, start)
    return cat in (2, 3)


def _classify(arcs: List[Arc]) -> str:
    # Supercritical iff some open semicircle avoids the stable set, i.e. some
    # complement gap has ccw width >= pi.
    k = len(arcs)
    supercritical = False
    for i, arc in enumerate(arcs):
        nxt = arcs[(i + 1) % k]
        full = k == 1 and arc.is_point
        if _gap_at_least_pi(arc.end, nxt.start, full):
            supercritical = True
            break
    if not supercritical:
        return NOT_SUPERCRITICAL

    if any(not a.is_point for a in arcs):
        return SUPERCRITICAL_ROOTED
    pts = [a.start for a in arcs]
    if len(pts) >= 3:
        return SUPERCRITICAL_ROOTED
    if len(pts) == 2 and pts[1] != _neg(pts[0]):
        return SUPERCRITICAL_ROOTED
    return SUPERCRITICAL_UNROOTED
