"""Update families: finite collections of finite rule sets in Z^2 \\ {0}.

A site's constraint is satisfied when some translated rule is entirely
empty.  Families are stored canonically: each rule's sites sorted, rules
deduplicated and ordered lexicographically.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, List, Sequence, Tuple

from .geometry import Site


class FamilyError(ValueError):
    """Raised for malformed update families; carries a location string."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{message}" + (f" (at {location})" if location else ""))
        self.location = location


Rule = Tuple[Site, ...]


@dataclass(frozen=True)
class UpdateFamily:
    name: str
    rules: Tuple[Rule, ...]

    @classmethod
    def create(cls, name: str, rules: Iterable[Iterable[Site]]) -> "UpdateFamily":
        canon = []
        seen = set()
        for i, rule in enumerate(rules):
            sites = tuple(sorted((int(x), int(y)) for x, y in rule))
            if not sites:
                raise FamilyError("empty rule", f"rule {i}")
            if (0, 0) in sites:
                raise FamilyError("origin in rule", f"rule {i}")
            if sites in seen:
                warnings.warn(f"duplicate rule {list(sites)} dropped", stacklevel=2)
                continue
            seen.add(sites)
            canon.append(sites)
        if not canon:
            raise FamilyError("family has no rules")
        return cls(name=name, rules=tuple(sorted(canon)))

    def offsets(self) -> Tuple[Site, ...]:
        """All distinct rule offsets, over all rules."""
        return tuple(sorted({s for rule in self.rules for s in rule}))


def parse_family(text: str) -> UpdateFamily:
    """Parse the JSON family format ``{"name": str, "rules": [[[dx,dy],...],...]}``."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FamilyError(f"invalid JSON: {exc.msg}", f"line {exc.lineno} col {exc.colno}")
    if not isinstance(data, dict):
        raise FamilyError("family must be a JSON object")
    name = data.get("name")
    if not isinstance(name, str):
        raise FamilyError("missing or non-string 'name'")
    rules = data.get("rules")
    if not isinstance(rules, list):
        raise FamilyError("missing or non-list 'rules'")
    parsed = []
    for i, rule in enumerate(rules):
        if not isinstance(rule, list):
            raise FamilyError("rule must be a list of [dx,dy] pairs", f"rule {i}")
        sites = []
        for j, site in enumerate(rule):
            if (
                not isinstance(site, list)
                or len(site) != 2
                or not all(isinstance(c, int) for c in site)
            ):
                raise FamilyError("site must be a pair of integers", f"rule {i}, site {j}")
            sites.append((site[0], site[1]))
        parsed.append(sites)
    return UpdateFamily.create(name, parsed)


def builtin_family(name: str) -> UpdateFamily:
    """Built-in named families: east1d, east2d, duarte."""
    if name == "east1d":
        return UpdateFamily.create("east1d", [[(-1, 0)]])
    if name == "east2d":
        return UpdateFamily.create("east2d", [[(-1, 0)], [(0, -1)]])
    if name == "duarte":
        nsw = [(0, 1), (0, -1), (-1, 0)]
        return UpdateFamily.create("duarte", [list(pair) for pair in combinations(nsw, 2)])
    raise FamilyError(f"unknown built-in family {name!r}")


def load_family(spec: str) -> UpdateFamily:
    """Resolve a family from a built-in name, a JSON string, or a file path."""
    try:
        return builtin_family(spec)
    except FamilyError:
        pass
    if spec.lstrip().startswith("{"):
        return parse_family(spec)
    if not os.path.isfile(spec):
        raise FamilyError(f"unknown family {spec!r}: not east1d, east2d, duarte, JSON or a file")
    with open(spec) as fh:
        return parse_family(fh.read())


def compile_rules(
    family: UpdateFamily, sites: Sequence[Site], exterior
) -> List[Tuple[Tuple[int, ...], ...]]:
    """Each site's constraint reduced against a fixed exterior: one tuple of
    neighbour indices into ``sites`` per live rule, in rule order.

    A rule touching a healthy exterior site can never fire and is dropped;
    empty exterior sites are left out of its tuple.  An empty tuple makes
    the site unconditionally legal.
    """
    index = {s: i for i, s in enumerate(sites)}
    out = []
    for a, b in sites:
        live = []
        for rule in family.rules:
            nbrs = []
            for dx, dy in rule:
                t = (a + dx, b + dy)
                if t in index:
                    nbrs.append(index[t])
                elif exterior.value_at(t) != 0:
                    break
            else:
                live.append(tuple(nbrs))
        out.append(tuple(live))
    return out


def compile_dependents(
    site_rules: Sequence[Tuple[Tuple[int, ...], ...]]
) -> List[Tuple[int, ...]]:
    """For each site j of ``compile_rules``' output, the sites whose rules
    read j, ascending: the only sites whose constraint a flip of j can
    change."""
    deps = [[] for _ in site_rules]
    for i, rules in enumerate(site_rules):
        for j in {j for rule in rules for j in rule}:
            deps[j].append(i)
    return [tuple(d) for d in deps]
