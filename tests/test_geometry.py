import pytest

from kcmlab.geometry import (
    ALL_INFECTED,
    BoundaryCondition,
    BoundaryExterior,
    Region,
    boundaries,
    derive_rng,
    outer_boundary,
)

from conftest import random_region
from reference import Configuration, sample_bernoulli, uniform_boundary


def brute_force_boundaries(region):
    """Direct evaluation of the two defining set comprehensions."""
    sites = region.sites
    xs = [s[0] for s in sites]
    ys = [s[1] for s in sites]
    par, perp = set(), set()
    for x in range(min(xs) - 2, max(xs) + 3):
        for y in range(min(ys) - 2, max(ys) + 3):
            s = (x, y)
            if s in sites:
                continue
            if (x + 1, y) in sites:
                par.add(s)
            if (x, y + 1) in sites or (x, y - 1) in sites:
                perp.add(s)
    return frozenset(par), frozenset(perp)


class TestBoundaries:
    def test_single_site(self):
        par, perp = boundaries(Region([(0, 0)]))
        assert par == {(-1, 0)}
        assert perp == {(0, 1), (0, -1)}

    def test_two_by_two(self):
        par, perp = boundaries(Region.rectangle(0, 1, 0, 1))
        assert par == {(-1, 0), (-1, 1)}
        assert perp == {(0, 2), (1, 2), (0, -1), (1, -1)}

    def test_column_caps(self):
        height = 7
        col = Region([(3, y) for y in range(-height, height + 1)])
        _, perp = boundaries(col)
        assert perp == {(3, height + 1), (3, -height - 1)}

    def test_matches_brute_force_on_random_regions(self, rng):
        for _ in range(300):
            region = random_region(rng)
            assert boundaries(region) == brute_force_boundaries(region)

    def test_views_may_overlap_and_union_is_boundary(self, rng):
        region = Region([(0, 0), (1, 1)])
        par, perp = boundaries(region)
        assert (0, 1) in par and (0, 1) in perp
        assert outer_boundary(region) == par | perp


class TestBoundaryCondition:
    def test_support_must_match_exactly(self):
        region = Region([(0, 0)])
        with pytest.raises(ValueError, match="support mismatch"):
            BoundaryCondition(region, {(-1, 0): 0})
        extra = {s: 1 for s in outer_boundary(region)}
        extra[(5, 5)] = 0
        with pytest.raises(ValueError, match="support mismatch"):
            BoundaryCondition(region, extra)

    def test_values_must_be_binary(self):
        region = Region([(0, 0)])
        bad = {s: 2 for s in outer_boundary(region)}
        with pytest.raises(ValueError, match="0 or 1"):
            BoundaryCondition(region, bad)

    def test_split_overlap_takes_perpendicular_value(self):
        region = Region([(0, 0), (1, 1)])
        bc = BoundaryCondition.split(region, par_value=1, perp_value=0)
        assert bc.assignment[(0, 1)] == 0

    def test_uniform_and_ordering(self):
        region = Region.rectangle(0, 2, 0, 2)
        zero = uniform_boundary(region, 0)
        one = uniform_boundary(region, 1)
        assert zero.zeros == outer_boundary(region)
        assert one.zeros < zero.zeros


class TestConfiguration:
    def test_value_semantics_and_exteriors(self):
        region = Region.rectangle(0, 1, 0, 0)
        config = Configuration(region, {(0, 0)})
        assert config.value_at((0, 0)) == 0
        assert config.value_at((1, 0)) == 1
        assert config.value_at((9, 9)) == 1  # AllHealthy default
        infected = Configuration(region, {(0, 0)}, exterior=ALL_INFECTED)
        assert infected.value_at((9, 9)) == 0

    def test_boundary_exterior(self):
        region = Region([(0, 0)])
        bc = uniform_boundary(region, 0)
        config = Configuration(region, frozenset(), exterior=BoundaryExterior(bc))
        assert config.value_at((-1, 0)) == 0
        assert config.value_at((5, 5)) == 1

    def test_empty_set_must_be_inside(self):
        with pytest.raises(ValueError):
            Configuration(Region([(0, 0)]), {(1, 1)})


class TestSampling:
    def test_degenerate_q(self):
        region = Region.rectangle(0, 3, 0, 3)
        assert sample_bernoulli(region, 0.0, derive_rng(1)).empty == frozenset()
        assert sample_bernoulli(region, 1.0, derive_rng(1)).empty == region.sites

    def test_q_out_of_range(self):
        with pytest.raises(ValueError):
            sample_bernoulli(Region([(0, 0)]), 1.5, derive_rng(1))

    def test_determinism(self):
        region = Region.rectangle(0, 9, 0, 9)
        a = sample_bernoulli(region, 0.3, derive_rng(7, 1))
        b = sample_bernoulli(region, 0.3, derive_rng(7, 1))
        c = sample_bernoulli(region, 0.3, derive_rng(7, 2))
        assert a == b
        assert a != c

    def test_empirical_fraction_within_five_sigma(self):
        region = Region.rectangle(0, 99, 0, 99)
        q = 0.3
        config = sample_bernoulli(region, q, derive_rng(11))
        n = len(region.sites)
        sigma = (q * (1 - q) / n) ** 0.5
        assert abs(len(config.empty) / n - q) < 5 * sigma
