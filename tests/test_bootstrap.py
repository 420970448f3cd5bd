import math

import numpy as np
import pytest

from kcmlab import bootstrap
from kcmlab.bootstrap import (
    ClosureResult,
    bootstrap_time_on_grid,
    closure_free,
    closure_region,
    grid_step,
    median_bootstrap_time,
)
from kcmlab.families import UpdateFamily, builtin_family
from kcmlab.geometry import Region

from conftest import random_family, random_region, random_seed_set, random_tau
from reference import duarte_path_exists, synchronous_step, uniform_boundary

DUARTE = builtin_family("duarte")
EAST1 = builtin_family("east1d")
EAST2 = builtin_family("east2d")
LEFT = UpdateFamily.create("w", [[(1, 0)]])
RECTANGLE = frozenset({(x, 0) for x in range(21)} | {(0, y) for y in range(19)})


def record_shapes(monkeypatch):
    """Patch ``bootstrap.grid_step`` to log the shape of every grid it steps."""
    shapes = []
    real_step = bootstrap.grid_step

    def recording_step(family, infected):
        shapes.append(infected.shape)
        return real_step(family, infected)

    monkeypatch.setattr(bootstrap, "grid_step", recording_step)
    return shapes


def record_windows(monkeypatch):
    """Patch ``bootstrap._close`` to log the shape of every grid closed."""
    shapes = []
    real_close = bootstrap._close

    def recording_close(family, infected, inside=None):
        shapes.append(infected.shape)
        return real_close(family, infected, inside)

    monkeypatch.setattr(bootstrap, "_close", recording_close)
    return shapes


def iterate_synchronous(family, region, tau, seed):
    cur = frozenset(seed)
    rounds = 0
    while True:
        nxt = synchronous_step(family, region, tau, cur)
        if nxt == cur:
            return cur, rounds
        cur = nxt
        rounds += 1


class TestSynchronousStep:
    def test_nothing_infects_from_empty_seed(self):
        region = Region.rectangle(0, 4, 0, 4)
        tau = uniform_boundary(region, 1)
        assert synchronous_step(DUARTE, region, tau, frozenset()) == frozenset()

    def test_duarte_north_west_infects(self):
        region = Region.rectangle(-1, 0, -1, 1)
        tau = uniform_boundary(region, 1)
        seed = frozenset({(0, 1), (-1, 0)})
        out = synchronous_step(DUARTE, region, tau, seed)
        assert (0, 0) in out

    def test_full_region_is_fixed_point(self):
        region = Region.rectangle(0, 3, 0, 3)
        tau = uniform_boundary(region, 0)
        assert synchronous_step(DUARTE, region, tau, region.sites) == region.sites

    def test_boundary_zeros_act_as_infection(self):
        region = Region([(0, 0)])
        tau = uniform_boundary(region, 0)
        out = synchronous_step(DUARTE, region, tau, frozenset())
        assert out == {(0, 0)}

    def test_region_tau_mismatch(self):
        region = Region([(0, 0)])
        other = Region([(5, 5)])
        tau = uniform_boundary(other, 1)
        with pytest.raises(ValueError, match="does not match"):
            synchronous_step(DUARTE, region, tau, frozenset())


class TestClosureRegion:
    def test_queue_equals_synchronous_oracle(self, rng):
        for _ in range(150):
            family = random_family(rng)
            region = random_region(rng)
            tau = random_tau(rng, region)
            seed = random_seed_set(rng, region, float(rng.choice([0.1, 0.3, 0.5])))
            result = closure_region(family, region, tau, seed)
            closed, rounds = iterate_synchronous(family, region, tau, seed)
            assert result.closed == closed
            assert result.rounds == rounds

    def test_propagation_of_vertical_interval(self):
        # empty interval plus one empty site to its right fills the next column
        interval = [(0, j) for j in range(6)]
        seed = set(interval) | {(1, 3)}
        region = Region.rectangle(0, 1, 0, 5)
        tau = uniform_boundary(region, 1)
        closed = closure_region(DUARTE, region, tau, seed).closed
        assert all((1, j) in closed for j in range(6))

    def test_row_and_column_seed_fills_rectangle(self):
        n, m = 5, 4
        seed = {(x, 1) for x in range(1, n + 1)} | {(1, y) for y in range(1, m + 1)}
        region = Region.rectangle(1, n, 1, m)
        tau = uniform_boundary(region, 1)
        closed = closure_region(DUARTE, region, tau, seed).closed
        assert closed == region.sites

    def test_single_site_is_closed_under_duarte(self):
        region = Region.rectangle(-2, 2, -2, 2)
        tau = uniform_boundary(region, 1)
        result = closure_region(DUARTE, region, tau, {(0, 0)})
        assert result.closed == {(0, 0)}
        assert result.rounds == 0

    def test_idempotent_and_monotone(self, rng):
        for _ in range(50):
            family = random_family(rng)
            region = random_region(rng)
            tau = random_tau(rng, region)
            small = random_seed_set(rng, region, 0.2)
            extra = random_seed_set(rng, region, 0.2)
            c_small = closure_region(family, region, tau, small).closed
            c_again = closure_region(family, region, tau, c_small)
            assert c_again.closed == c_small
            assert c_again.rounds == 0
            c_large = closure_region(family, region, tau, small | extra).closed
            assert c_small <= c_large

    def test_oversized_bounding_box_rejected(self):
        region = Region([(0, 0), (10**5, 10**5)])
        with pytest.raises(
            ValueError,
            match="bounding box of 100001 x 100001 holds 10000200001 cells, above the limit of 134217728",
        ):
            closure_region(DUARTE, region, None, {(0, 0)})


class TestClosureFree:
    def test_empty_seed(self):
        result = closure_free(DUARTE, frozenset(), cap=8)
        assert result.closed == frozenset()
        assert not result.touched_cap

    def test_leftward_chain_hits_cap(self):
        result = closure_free(LEFT, {(0, 0)}, cap=10)
        assert result.closed == {(-k, 0) for k in range(0, 11)}
        assert result.touched_cap

    def test_duarte_finite_seed_stays_bounded(self, rng):
        # a Duarte closure stays in its seed's bounding box, so the box of
        # radius 8 with a healthy frame holds the whole closure
        region = Region.box(8)
        tau = uniform_boundary(region, 1)
        for _ in range(40):
            seed = {
                (int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
                for _ in range(int(rng.integers(1, 12)))
            }
            result = closure_free(DUARTE, seed, cap=40)
            assert not result.touched_cap
            closed, rounds = iterate_synchronous(DUARTE, region, tau, seed)
            assert (result.closed, result.rounds) == (closed, rounds)

    @pytest.mark.parametrize("family, seed, cap, windows", [
        (LEFT, {(0, 0)}, 40, [(33, 33), (57, 33)]),
        (EAST2, {(0, 0), (3, -2), (-6, 4)}, 20, [(40, 39), (41, 39)]),
        (DUARTE, RECTANGLE, 64, [(53, 51)]),
    ], ids=["leftward-chain", "east2d", "duarte-rectangle"])
    def test_matches_synchronous_iteration(self, monkeypatch, family, seed, cap, windows):
        # each restart of the growing search closes in one window; the
        # oracle is the synchronous iteration on the whole cap box
        shapes = record_windows(monkeypatch)
        result = closure_free(family, seed, cap)
        assert shapes == windows
        region = Region.box(cap)
        tau = uniform_boundary(region, 1)
        closed, rounds = iterate_synchronous(family, region, tau, seed)
        touched = any(
            (x - dx, y - dy) not in region for x, y in closed for dx, dy in family.offsets()
        )
        assert (result.closed, result.rounds) == (closed, rounds)
        assert result.touched_cap is touched

    def test_large_cap_costs_only_the_closure(self, monkeypatch):
        # the rectangle's closure stays in its seed's bounding box, so a cap
        # of 10^5 closes in the same window as a cap of 64
        shapes = record_windows(monkeypatch)
        assert closure_free(DUARTE, RECTANGLE, cap=10**5) == closure_free(DUARTE, RECTANGLE, cap=64)
        assert shapes == [(53, 51), (53, 51)]

    def test_long_chain_costs_its_length(self, monkeypatch):
        # the window grows along the chain only, and each step takes a box
        # about the chain's tip: about 1.4e8 cells in all, where stepping
        # the cap box every round would be 8192 * 16385^2, about 2.2e12
        shapes = record_shapes(monkeypatch)
        result = closure_free(EAST1, {(0, 0)}, cap=8192)
        assert result == ClosureResult(frozenset((k, 0) for k in range(8193)), 8192, True)
        assert sum(n * m for n, m in shapes) < 10**9

    def test_far_seed_closes_about_itself(self, monkeypatch):
        # the window lies about the seed, not the origin; a cell beyond the
        # cap reads the seed's site
        shapes = record_windows(monkeypatch)
        result = closure_free(DUARTE, {(6000, 0)}, cap=6000)
        assert result == ClosureResult(frozenset({(6000, 0)}), 0, True)
        assert shapes == [(17, 33)]

    def test_cap_smaller_than_seed_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            closure_free(DUARTE, {(9, 0)}, cap=3)
        with pytest.raises(ValueError, match="cap -1 smaller than seed radius 0"):
            closure_free(DUARTE, frozenset(), cap=-1)

    def test_oversized_window_rejected(self):
        with pytest.raises(
            ValueError, match="window of 12001 x 12001 holds 144024001 cells, above the limit of 134217728"
        ):
            closure_free(DUARTE, {(-6000, -6000), (6000, 6000)}, cap=6000)


class TestDuartePath:
    def test_horizontal_segment_witness(self):
        closed = {(x, 0) for x in range(5)}
        path = duarte_path_exists(closed, 0, 4)
        assert path == [(x, 0) for x in range(5)]

    def test_disconnected_blobs(self):
        closed = {(0, 0), (0, 1), (4, 0)}
        assert duarte_path_exists(closed, 0, 4) is None

    def test_staircase_witness_and_step_set(self):
        closed = {(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 1), (3, 1)}
        path = duarte_path_exists(closed, 0, 3)
        assert path is not None
        for a, b in zip(path, path[1:]):
            assert (b[0] - a[0], b[1] - a[1]) in {(1, 0), (0, 1), (0, -1)}
        assert path[0][0] == 0 and path[-1][0] == 3

    def test_shortest_witness(self):
        closed = {(0, 0), (1, 0), (2, 0)} | {(0, y) for y in range(5)} | {(1, 4), (2, 4)}
        path = duarte_path_exists(closed, 0, 2)
        assert len(path) == 3

    def test_bad_column_order(self):
        with pytest.raises(ValueError):
            duarte_path_exists({(0, 0)}, 2, 0)


class TestGridEngine:
    def test_grid_matches_set_engine(self, rng):
        # the grid iterated to its fixed point against the synchronous
        # iteration on the same box with a healthy frame
        box = 6
        n = 2 * box + 1
        region = Region.box(box)
        tau = uniform_boundary(region, 1)
        for _ in range(40):
            family = random_family(rng)
            empty = rng.random((n, n)) < 0.3
            cur = empty.copy()
            while True:
                nxt = grid_step(family, cur)
                if np.array_equal(nxt, cur):
                    break
                cur = nxt
            grid_set = {
                (i - box, j - box) for i, j in zip(*np.nonzero(cur))
            }
            seed = {(i - box, j - box) for i, j in zip(*np.nonzero(empty))}
            closed, _ = iterate_synchronous(family, region, tau, seed)
            assert grid_set == closed


def full_grid_time(family, empty, origin, max_steps=None):
    """The uncropped iteration: grid_step on the whole grid until the origin
    is infected, the grid reaches its fixed point, or max_steps steps."""
    cur = empty
    steps = 0
    while not cur[origin]:
        if max_steps is not None and steps == max_steps:
            return None
        nxt = grid_step(family, cur)
        if np.array_equal(nxt, cur):
            return None
        cur = nxt
        steps += 1
    return steps


def edge_origins(n, m):
    """The four corners, a middle cell of each edge, and the centre."""
    return sorted({
        (0, 0), (0, m - 1), (n - 1, 0), (n - 1, m - 1),
        (0, m // 2), (n - 1, m // 2), (n // 2, 0), (n // 2, m - 1),
        (n // 2, m // 2),
    })


class TestGridWindow:
    """bootstrap_time_on_grid steps only the origin's dependence window; the
    full-grid iteration of grid_step is its oracle."""

    def test_matches_full_grid(self, rng):
        families = [EAST1, EAST2, DUARTE] + [random_family(rng) for _ in range(9)]
        for family in families:
            for _ in range(4):
                n, m = int(rng.integers(1, 30)), int(rng.integers(1, 30))
                empty = rng.random((n, m)) < float(rng.choice([0.05, 0.15, 0.3]))
                for origin in edge_origins(n, m):
                    for max_steps in (None, 0, 1, 5, 64):
                        got = bootstrap_time_on_grid(family, empty, origin, max_steps)
                        want = full_grid_time(family, empty, origin, max_steps)
                        assert got == want, (family, origin, max_steps)

    def test_uncapped_long_and_censored(self, rng):
        # answers beyond the first cap of 16 make the window double; at low q
        # on a grid of 201^2 some origins are never infected
        n = 201
        long_runs = censored = 0
        for family, q in [(EAST1, 0.02), (EAST2, 0.01), (DUARTE, 0.05), (DUARTE, 0.2)]:
            for _ in range(2):
                empty = rng.random((n, n)) < q
                for origin in edge_origins(n, n):
                    got = bootstrap_time_on_grid(family, empty, origin)
                    assert got == full_grid_time(family, empty, origin), (family, origin)
                    long_runs += got is not None and got > 16
                    censored += got is None
        assert long_runs > 0 and censored > 0

    def test_duarte_steps_only_its_window(self, monkeypatch):
        # Duarte reads W, N and S: after 64 steps the origin depends on
        # 64 columns to its west and 64 rows either side, none to its east;
        # the first step takes that window, later ones the box of the front
        shapes = record_shapes(monkeypatch)
        empty = np.zeros((513, 513), dtype=bool)
        empty[:, :200] = True
        assert bootstrap_time_on_grid(DUARTE, empty, (256, 256), max_steps=64) is None
        assert shapes[0] == (65, 129)
        assert all(n <= 65 and m <= 129 for n, m in shapes[1:])

    def test_bad_input_rejected(self):
        grid = np.zeros((5, 5), dtype=bool)
        with pytest.raises(ValueError, match="2-D"):
            bootstrap_time_on_grid(DUARTE, np.zeros(5, dtype=bool), (0,))
        for origin in [(-1, 0), (0, -1), (5, 0), (0, 5), (0, 0, 0)]:
            with pytest.raises(ValueError, match="outside"):
                bootstrap_time_on_grid(DUARTE, grid, origin)
        with pytest.raises(ValueError, match="max_steps"):
            bootstrap_time_on_grid(DUARTE, grid, (2, 2), max_steps=-1)


class TestMedianBootstrapTime:
    def test_all_empty_q_one(self):
        out = median_bootstrap_time(DUARTE, 1.0, box=3, trials=5, seed=1)
        assert out["median"] == 0.0

    def test_q_out_of_range(self):
        for q in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                median_bootstrap_time(DUARTE, q, box=3, trials=5, seed=1)

    def test_east1d_geometric_law(self):
        q = 0.3
        out = median_bootstrap_time(EAST1, q, box=64, trials=400, seed=7)
        # first-infection time of the origin = distance to nearest empty on
        # the left, with an atom at zero when the origin starts empty
        analytic = math.ceil(-math.log(2) / math.log(1 - q))
        assert abs(out["median"] - analytic) <= 1

    def test_censoring_counted(self):
        # a rule pointing right cannot fire from a lone empty site at the
        # left edge, so most trials stall without infecting the origin
        fam = UpdateFamily.create("need2", [[(-1, 0), (-2, 0)]])
        out = median_bootstrap_time(fam, 0.05, box=4, trials=50, seed=3)
        assert out["censored"] > 0
        assert out["censored"] == sum(1 for t in out["times"] if math.isinf(t))

    def test_determinism(self):
        a = median_bootstrap_time(DUARTE, 0.3, box=10, trials=20, seed=5)
        b = median_bootstrap_time(DUARTE, 0.3, box=10, trials=20, seed=5)
        assert a == b

    def test_duarte_medians_increase_as_q_decreases(self):
        m_high = median_bootstrap_time(DUARTE, 0.4, box=48, trials=60, seed=2)
        m_low = median_bootstrap_time(DUARTE, 0.2, box=48, trials=60, seed=2)
        assert m_low["median"] > m_high["median"]
