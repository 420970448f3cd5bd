import numpy as np
import pytest

from kcmlab import bootstrap, kcm, native
from kcmlab.families import UpdateFamily, builtin_family
from kcmlab.geometry import BoundaryCondition, Region, outer_boundary


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def drop_library(monkeypatch):
    """Put the program in the state of a process whose compiled library did
    not load: ``backend()`` is "python" and both Python loops run."""
    monkeypatch.setattr(native, "LIB", None)
    monkeypatch.setattr(kcm, "_event_loop", kcm._event_loop_lists)
    monkeypatch.setattr(bootstrap, "_kernel", None)


def random_region(rng, max_extent=6):
    """Random connected-ish nonempty site set inside a small box."""
    w = int(rng.integers(1, max_extent + 1))
    h = int(rng.integers(1, max_extent + 1))
    if rng.random() < 0.5:
        return Region.rectangle(0, w - 1, 0, h - 1)
    sites = {(0, 0)}
    for _ in range(int(rng.integers(1, w * h + 1))):
        x, y = list(sites)[int(rng.integers(0, len(sites)))]
        dx, dy = [(1, 0), (-1, 0), (0, 1), (0, -1)][int(rng.integers(0, 4))]
        sites.add((x + dx, y + dy))
    return Region(sites)


def random_tau(rng, region):
    return BoundaryCondition(
        region, {s: int(rng.random() < 0.5) for s in outer_boundary(region)}
    )


def random_two_rule_family(rng, spread=3):
    rules = []
    while len(rules) < 2:
        size = int(rng.integers(1, 4))
        rule = set()
        while len(rule) < size:
            x = int(rng.integers(-spread, spread + 1))
            y = int(rng.integers(-spread, spread + 1))
            if (x, y) != (0, 0):
                rule.add((x, y))
        if tuple(sorted(rule)) not in [tuple(sorted(r)) for r in rules]:
            rules.append(sorted(rule))
    return UpdateFamily.create("random2", rules)


def random_family(rng):
    choice = rng.random()
    if choice < 0.25:
        return builtin_family("east1d")
    if choice < 0.5:
        return builtin_family("east2d")
    if choice < 0.75:
        return builtin_family("duarte")
    return random_two_rule_family(rng)


def random_seed_set(rng, region, q):
    return frozenset(s for s in region.sites if rng.random() < q)
