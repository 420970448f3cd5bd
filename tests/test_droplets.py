import math

import numpy as np
import pytest

from kcmlab.bootstrap import closure_region
from kcmlab.droplets import (
    DOWN,
    UP,
    ArrowProfile,
    DropletRecord,
    ColumnGeometry,
    DuarteScales,
    _column_has_long_interval,
    _window_closure,
    column_masks,
    event_B1,
    event_B2,
    monitor_trajectory,
    run_droplet_algorithm,
)
from kcmlab.geometry import BoundaryCondition, BoundaryExterior, outer_boundary
from kcmlab.kcm import SimParams, make_dynamics, observe_trajectory

from reference import (
    DUARTE,
    block_count,
    block_size,
    check_droplet_disjointness,
    check_restriction_identity,
    column_caps,
    encode,
    estimate_uparrow_density,
    eta_project,
    reference_b2,
    reference_pass,
    scales_from_formulas,
    validate_coarse_path,
    window,
    window_closure,
)


def masks_of(geometry, empties):
    """The column masks of a set of empties, through its 0/1 state vector."""
    return column_masks(geometry, [int(s not in empties) for s in sorted(geometry.region.sites)])


def profile_of(geometry, empties, ell):
    return run_droplet_algorithm(masks_of(geometry, empties), geometry, ell)


def one_step_unconstrained(geometry, empties, tau, x):
    """Whether some rule's translate at x is fully empty for (empties, tau)."""

    def is_zero(t):
        if t in geometry.region.sites:
            return t in empties
        return tau.get(t, 1) == 0

    return any(
        all(is_zero((x[0] + dx, x[1] + dy)) for dx, dy in rule)
        for rule in DUARTE.rules
    )


class TestScales:
    def test_formula_values_q01(self):
        s = scales_from_formulas(0.1, 0.1)
        lg = math.log(10.0)
        assert s.ell == math.floor(lg / (0.1 * 0.1)) == 230
        assert s.n2 == 10 ** 6
        assert s.n1 == math.floor(0.1 * lg * lg / 0.2)
        assert s.N == math.floor(math.exp(0.1 * lg * lg / 0.1))

    def test_formula_values_q02(self):
        s = scales_from_formulas(0.2, 0.25)
        assert s.n2 == 15625

    def test_block_size_and_count(self):
        s = DuarteScales.toy(ell=2, N=10, n1=2, n2=3)
        assert block_size(s) == 24
        assert block_count(s) == 1
        s2 = DuarteScales.toy(ell=2, N=100, n1=2, n2=3)
        assert block_count(s2) == math.ceil(100 / 24)

    def test_validation(self):
        with pytest.raises(ValueError):
            DuarteScales.toy(ell=0, N=3)
        with pytest.raises(ValueError):
            scales_from_formulas(1.5, 0.1)

    def test_huge_scales_warn(self):
        with pytest.warns(UserWarning, match="2\\^64"):
            scales_from_formulas(0.01, 0.5)


class TestGeometry:
    def test_heights_n3(self):
        g = ColumnGeometry(3)
        assert [g.height(i) for i in (1, 2, 3)] == [9, 6, 3]
        assert [len(g.columns[i]) for i in (1, 2, 3)] == [17, 11, 5]

    def test_last_column_centred_on_origin(self):
        for N in (1, 2, 4):
            g = ColumnGeometry(N)
            assert g.column_x(N) == 0
            assert (0, 0) in g.columns[N]
            h = g.height(N)
            # the caps (0, +-h) lie just outside the column's ends
            assert {(0, h - 1), (0, 1 - h)} <= g.columns[N]
            assert not column_caps(g, N) & g.region.sites

    def test_site_count_and_limit(self):
        for N in (1, 2, 5, 10):
            assert len(ColumnGeometry(N).region) == N ** 3 + N ** 2 - N
        with pytest.raises(ValueError, match="4199041 sites"):
            ColumnGeometry(161)

    def test_columns_strictly_shrink(self):
        g = ColumnGeometry(5)
        sizes = [len(g.columns[i]) for i in range(1, 6)]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_window_and_prefix(self):
        g = ColumnGeometry(4)
        assert window(g, 2, 3).sites == g.columns[2] | g.columns[3]
        assert window(g, 1, 4).sites == g.region.sites
        with pytest.raises(ValueError):
            window(g, 3, 2)

    def test_initial_tau_split(self):
        g = ColumnGeometry(3)
        tau = g.initial_tau()
        for i in range(1, 4):
            for c in column_caps(g, i):
                assert tau.assignment[c] == 0
        x1 = g.column_x(1)
        assert tau.assignment[(x1 - 1, 0)] == 1

    def test_initial_tau_built_once_and_never_changed(self):
        g = ColumnGeometry(3)
        tau = g.initial_tau()
        assert g.initial_tau() is tau
        before = dict(tau.assignment)
        p = profile_of(g, set(g.columns[2]), 2)
        assert p.droplets
        assert tau.assignment == before


class TestDropletAlgorithm:
    def test_all_occupied_is_all_down(self):
        g = ColumnGeometry(3)
        p = profile_of(g, set(), 2)
        assert p.phi_string() == "DDD"
        assert p.droplets == {}

    def test_all_occupied_unit_ell_all_up(self):
        # with ell = 1 the permanently empty caps alone qualify every column
        g = ColumnGeometry(3)
        p = profile_of(g, set(), 1)
        assert p.phi_string() == "UUU"
        assert all(r.xi == r.k and r.range == 0 for r in p.droplets.values())

    def test_first_column_empty(self):
        g = ColumnGeometry(3)
        p = profile_of(g, set(g.columns[1]), 2)
        assert p.phi_string() == "UDD"
        assert p.droplets[1].xi == 1

    def test_second_column_empty(self):
        g = ColumnGeometry(3)
        p = profile_of(g, set(g.columns[2]), 2)
        assert p.phi_string() == "DUD"
        assert p.droplets[2].xi == 2
        assert p.droplets[2].range == 0

    def test_healing_hides_later_support(self):
        # empties in columns 2 and 3 chain into an interval of column 4, but
        # the droplet at column 3 heals them first if column 3 fires
        g = ColumnGeometry(4)
        x2, x3, x4 = g.column_x(2), g.column_x(3), g.column_x(4)
        empties = {(x3, 0), (x3, 1), (x4, 0)}
        p = profile_of(g, empties, 2)
        assert p.phi[2] == UP  # column 3 fires on its own interval
        assert p.phi[3] == DOWN  # its healing removes column 4's support

    def test_staircase_long_range_droplet(self):
        # a staircase of single empties lets column 4 build a length-3
        # interval only with column 2's help: xi_4 = 2, range 2
        g = ColumnGeometry(4)
        x2, x3, x4 = g.column_x(2), g.column_x(3), g.column_x(4)
        empties = {(x2, 2), (x3, 1), (x4, 0)}
        p = profile_of(g, empties, 3)
        assert p.phi_string() == "DDDU"
        assert p.droplets[4].xi == 2
        assert p.droplets[4].range == 2

    def test_region_mismatch(self):
        g3, g4 = ColumnGeometry(3), ColumnGeometry(4)
        with pytest.raises(ValueError, match="region"):
            run_droplet_algorithm(masks_of(g4, set()), g3, 2)

    def test_binary_search_matches_linear_scan(self, rng):
        # each up column's cut is the largest xi that passes the cut test on
        # the masks the pass saw, found here by scanning every xi; a down
        # column passes for no xi.  Column k saw the input masks with the
        # droplets of the columns before it healed.
        geometries = {}
        cut = 0
        for _ in range(300):
            N = int(rng.integers(1, 9))
            g = geometries.setdefault(N, ColumnGeometry(N))
            q = float(rng.uniform(0.05, 0.5))
            ell = int(rng.integers(1, 9))
            given = masks_of(g, {s for s in sorted(g.region.sites) if rng.random() < q})
            p = run_droplet_algorithm(given, g, ell)
            for k in range(1, N + 1):
                masks = [0 if any(r.xi <= c <= r.k < k for r in p.droplets.values()) else m
                         for c, m in enumerate(given, start=1)]
                passing = [xi for xi in range(1, k + 1)
                           if _column_has_long_interval(g, xi, k, masks, ell)]
                if k in p.droplets:
                    assert p.droplets[k].xi == max(passing)
                    cut += p.droplets[k].xi < k
                else:
                    assert not passing
        assert cut >= 20

    def test_droplets_disjoint_random(self, rng):
        g = ColumnGeometry(5)
        sites = sorted(g.region.sites)
        for _ in range(40):
            empties = {s for s in sites if rng.random() < 0.3}
            p = profile_of(g, empties, 2)
            assert check_droplet_disjointness(p)
            for r in p.droplets.values():
                assert 1 <= r.xi <= r.k
                assert r.range == r.k - r.xi
        overlap = {2: DropletRecord(k=2, xi=1, range=1), 3: DropletRecord(k=3, xi=2, range=1)}
        assert not check_droplet_disjointness(ArrowProfile((DOWN, UP, UP), overlap))

    def test_restriction_identity_random(self, rng):
        # the identity on the reference pass's history, whose phi and
        # droplets are the program's
        g = ColumnGeometry(4)
        sites = sorted(g.region.sites)
        for _ in range(30):
            empties = frozenset(s for s in sites if rng.random() < 0.3)
            p = profile_of(g, empties, 2)
            phi, drops, history = reference_pass(g, empties, 2)
            assert (p.phi, p.droplets) == (phi, drops)
            assert len(history) == g.N + 1
            assert check_restriction_identity(history, drops)
            # a column outside every droplet that changes breaks the identity
            outside = [c for c in range(1, 5)
                       if not any(r.xi <= c <= r.k for r in drops.values())]
            if outside:
                c = outside[0]
                bad = [list(m) for m in history]
                bad[-1][c - 1] ^= 2
                assert not check_restriction_identity(bad, drops)

    def test_prefix_locality(self, rng):
        # the first k arrows only depend on the empties in columns 1..k
        g = ColumnGeometry(5)
        for _ in range(25):
            sites = sorted(g.region.sites)
            empties = {s for s in sites if rng.random() < 0.3}
            k = int(rng.integers(1, 6))
            tail = set().union(*(g.columns[i] for i in range(k + 1, 6))) if k < 5 else set()
            scrambled = (empties - tail) | {s for s in tail if rng.random() < 0.5}
            a = profile_of(g, empties, 2)
            b = profile_of(g, scrambled, 2)
            assert a.phi[:k] == b.phi[:k]


class TestColumnMasks:
    def test_equal_encode(self, rng):
        # the vector converter against the site-by-site encoding of the same
        # state's empties
        for N in range(1, 11):
            g = ColumnGeometry(N)
            sites = sorted(g.region.sites)
            tau = g.initial_tau().assignment
            for q in (0.0, 1.0, *rng.uniform(0.0, 1.0, 8)):
                state = (rng.random(len(sites)) >= q).astype(np.int8)
                empties = {s for s, v in zip(sites, state.tolist()) if v == 0}
                assert column_masks(g, state) == encode(g, empties, tau), (N, q)


class TestColumnSweep:
    @staticmethod
    def sweep(g, i, j, empties, tau):
        """The sweep's closed masks as region sites, and the cap bits as a
        dict from cap site to whether its bit is set.  A cap with tau 1 is
        a healed cap, whose bit is clear."""
        closed = _window_closure(g, i, j, encode(g, empties, tau))
        sites, caps = set(), {}
        for c, m in enumerate(closed, start=i):
            x, h = g.column_x(c), g.height(c)
            sites.update((x, b - h) for b in range(1, 2 * h) if m >> b & 1)
            caps[(x, -h)] = bool(m & 1)
            caps[(x, h)] = bool(m >> (2 * h) & 1)
            assert m >> (2 * h + 1) == 0
        return sites, caps

    def test_sweep_equals_closure_region(self, rng):
        geometries = {}
        for _ in range(300):
            N = int(rng.integers(1, 11))
            g = geometries.setdefault(N, ColumnGeometry(N))
            q = float(rng.uniform(0.0, 0.7))
            empties = frozenset(s for s in sorted(g.region.sites) if rng.random() < q)
            tau = dict(g.initial_tau().assignment)
            flip = float(rng.random())
            tau.update({c: 1 for c in sorted(tau) if tau[c] == 0 and rng.random() < flip})
            j = int(rng.integers(1, N + 1))
            i = int(rng.integers(1, j + 1))
            sites, caps = self.sweep(g, i, j, empties, tau)
            assert sites == window_closure(g, i, j, empties, tau), (N, i, j)
            assert caps == {c: tau[c] == 0 for c in caps}

    @pytest.mark.parametrize("end", [-1, 1])
    def test_spread_crosses_a_whole_column(self, end):
        # a closed west column and one seed at an end of the column: the
        # 1-D fixed point fills the column one site per step
        g = ColumnGeometry(6)
        x2, h2 = g.column_x(2), g.height(2)
        tau = dict(g.initial_tau().assignment)
        tau.update({c: 1 for c in column_caps(g, 2)})
        empties = frozenset(g.columns[1] | {(x2, end * (h2 - 1))})
        sites, _ = self.sweep(g, 1, 2, empties, tau)
        assert g.columns[2] <= sites
        assert sites == window_closure(g, 1, 2, empties, tau)

    def test_pass_equals_reference_pass(self, rng):
        geometries = {}
        ups = wide = 0
        for _ in range(120):
            N = int(rng.integers(1, 8))
            g = geometries.setdefault(N, ColumnGeometry(N))
            q = float(rng.uniform(0.05, 0.5))
            ell = int(rng.integers(1, 9))
            empties = frozenset(s for s in sorted(g.region.sites) if rng.random() < q)
            p = profile_of(g, empties, ell)
            assert (p.phi, p.droplets) == reference_pass(g, empties, ell)[:2]
            ups += p.n_up
            wide += sum(1 for r in p.droplets.values() if r.range >= 1)
        assert ups >= 100 and wide >= 5


class TestCutTest:
    @staticmethod
    def healed_prefix_route(g, xi, k, empties, tau, ell):
        """The cut test written out: heal the capped columns left of xi,
        close on V_{1,k}, and look for a run of length ell in column k."""
        tau = dict(tau)
        for i in range(1, xi):
            empties = empties - g.columns[i]
            tau.update({c: 1 for c in column_caps(g, i)})
        v = window(g, 1, k)
        bc = BoundaryCondition(v, {s: tau.get(s, 1) for s in outer_boundary(v)})
        closed = closure_region(DUARTE, v, bc, empties & v.sites).closed
        x, h = g.column_x(k), g.height(k)
        col = [(x, j) in closed or (abs(j) == h and tau[(x, j)] == 0)
               for j in range(-h, h + 1)]
        best = run = 0
        for filled in col:
            run = run + 1 if filled else 0
            best = max(best, run)
        return best >= ell

    @pytest.mark.parametrize("N", [4, 5])
    def test_window_closure_equals_healed_prefix(self, N, rng):
        # the cut test closes V_{xi,k} directly; columns left of xi are
        # neither copied nor healed
        g = ColumnGeometry(N)
        sites = sorted(g.region.sites)
        caps = sorted(set().union(*(column_caps(g, i) for i in range(1, N + 1))))
        tau0 = g.initial_tau().assignment
        fired = 0
        for _ in range(150):
            empties = frozenset(s for s in sites if rng.random() < 0.3)
            tau = dict(tau0)
            tau.update({c: 1 for c in caps if rng.random() < 0.4})
            k = int(rng.integers(1, N + 1))
            xi = int(rng.integers(1, k + 1))
            ell = int(rng.integers(2, 5))
            got = _column_has_long_interval(g, xi, k, encode(g, empties, tau), ell)
            assert got == self.healed_prefix_route(g, xi, k, empties, tau, ell)
            fired += got
        assert 0 < fired < 150


class TestEastMotionOfArrows:
    def test_unconstrained_flips_leave_profile_alone_unless_left_up(self, rng):
        # flipping a site that is infectable in one step can only change the
        # profile when its column has an up arrow immediately to the left
        g = ColumnGeometry(4)
        tau = dict(g.initial_tau().assignment)
        sites = sorted(g.region.sites)
        col_of = {}
        for i in range(1, 5):
            for s in g.columns[i]:
                col_of[s] = i
        checked = 0
        seed = 0
        while checked < 500:
            seed += 1
            empties = {s for s in sites if rng.random() < 0.3}
            base = profile_of(g, empties, 2)
            for x in sites:
                if not one_step_unconstrained(g, empties, tau, x):
                    continue
                checked += 1
                flipped = set(empties) ^ {x}
                new = profile_of(g, flipped, 2)
                if new.phi != base.phi:
                    j = col_of[x]
                    assert j > 1, (empties, x)
                    assert base.phi[j - 2] == UP, (empties, x)
                if checked >= 500:
                    break
        assert checked >= 500

    def test_destroyed_up_arrow_leaves_a_new_one_in_its_droplet(self):
        # flipping far west of a droplet can only kill its up arrow by
        # raising another one over the droplet's other columns
        qualifying = 0
        for y0 in range(-8, 9):
            g = ColumnGeometry(6)
            x2, x3, x4 = g.column_x(2), g.column_x(3), g.column_x(4)
            empties = frozenset({(x3, y0 + 1), (x4, y0)})
            base = profile_of(g, empties, 2)
            assert base.phi[3] == UP
            rec = base.droplets[4]
            assert rec.xi == 3
            x = (x2, y0)
            assert not g.column_x(rec.xi) <= x[0] <= g.column_x(rec.k)
            new = profile_of(g, set(empties) | {x}, 2)
            if new.phi[3] != DOWN:
                continue
            qualifying += 1
            found = False
            for k in range(rec.xi, rec.k):
                if new.phi[k - 1] == UP and base.phi[k - 1] == DOWN:
                    found = True
            assert found, (empties, x)
        assert qualifying >= 15

    def test_random_search_agrees_with_lemma(self, rng):
        # scan random configurations for (x, i) pairs with an up arrow at i
        # destroyed by a flip outside its droplet and check the guarantee
        g = ColumnGeometry(4)
        sites = sorted(g.region.sites)
        col_of = {}
        for i in range(1, 5):
            for s in g.columns[i]:
                col_of[s] = i
        for _ in range(60):
            empties = frozenset(s for s in sites if rng.random() < 0.25)
            base = profile_of(g, empties, 2)
            ups = [k for k in base.droplets]
            if not ups:
                continue
            for x in sites:
                j = col_of[x]
                new = None
                for i in ups:
                    rec = base.droplets[i]
                    if i <= j or g.column_x(rec.xi) <= x[0] <= g.column_x(rec.k):
                        continue
                    if new is None:
                        new = profile_of(g, set(empties) ^ {x}, 2)
                    if new.phi[i - 1] != DOWN:
                        continue
                    assert any(
                        new.phi[k - 1] == UP and base.phi[k - 1] == DOWN
                        for k in range(rec.xi, rec.k)
                    ), (empties, x, i)


class TestCrossingEvents:
    def test_b1_counts_up_arrows(self):
        p = ArrowProfile(phi=(UP, DOWN, UP), droplets={})
        assert event_B1(p, 1) and event_B1(p, 2)
        assert not event_B1(p, 3)

    def test_row_of_empties_is_a_crossing(self):
        g = ColumnGeometry(4)
        empties = {(g.column_x(i), 0) for i in range(1, 5)}
        p = profile_of(g, empties, 3)
        assert p.phi_string() == "DDDD"
        masks = masks_of(g, empties)
        out = event_B2(masks, p, g, 4)
        assert out is not None
        i, j, path = out
        assert (i, j) == (1, 4)
        assert path[0] == (g.column_x(1), 0)
        assert path[-1] == (g.column_x(4), 0)
        for a, b in zip(path, path[1:]):
            assert (b[0] - a[0], b[1] - a[1]) in {(1, 0), (0, 1), (0, -1)}
        assert event_B2(masks, p, g, 6) is None

    def test_b2_equals_full_window_scan(self, rng):
        # the single window per start column and the mask search against
        # the scan over every window, each closed by closure_region and
        # searched on site sets
        geometries = {}
        witnesses = cut = rescanned = 0
        for _ in range(300):
            N = int(rng.integers(2, 9))
            g = geometries.setdefault(N, ColumnGeometry(N))
            q = float(rng.uniform(0.05, 0.6))
            n = int(rng.integers(1, N + 2))
            ell = int(rng.integers(1, 17))  # ell > 2 h_k + 1 keeps column k down
            empties = frozenset(s for s in sorted(g.region.sites) if rng.random() < q)
            masks = masks_of(g, empties)
            p = run_droplet_algorithm(masks, g, ell)
            got = event_B2(masks, p, g, n)
            want, searched = reference_b2(g, empties, p.phi, n)
            assert got == want, (N, n, sorted(empties))
            witnesses += got is not None
            for i in range(1, (got[0] if got else N) + 1):  # the start columns event_B2 saw
                j0 = max(i + 1, i + n - 1)
                cut += j0 <= N and UP in p.phi[i - 1 : j0]
            starts = [i for i, _ in searched]
            rescanned += sum(1 for i in set(starts) if starts.count(i) > 1)
        assert witnesses >= 30 and cut >= 30 and rescanned >= 10, (witnesses, cut, rescanned)

    def test_witness_steps_east_first(self):
        # two shortest paths, both with one +e2 step, around the cap of the
        # last column at y = -4: the search tries +e1 before +e2, so the
        # witness climbs as late as it can
        g = ColumnGeometry(4)
        empties = frozenset({(-3, -4), (-2, -4), (-2, -3), (-1, -4), (-1, -3), (0, -3)})
        p = profile_of(g, empties, 50)
        want = (1, 4, [(-3, -4), (-2, -4), (-1, -4), (-1, -3), (0, -3)])
        assert event_B2(masks_of(g, empties), p, g, 4) == want
        assert reference_b2(g, empties, p.phi, 4) == (want, [(1, 4)])

    def test_up_arrows_block_windows(self):
        g = ColumnGeometry(4)
        empties = {(g.column_x(i), 0) for i in range(1, 5)} | set(g.columns[2])
        p = profile_of(g, empties, 2)
        assert p.phi[1] == UP
        # windows containing column 2 are skipped; the healing is not applied
        # to the masks for later windows, so only i >= 3 windows remain
        out = event_B2(masks_of(g, empties), p, g, 2)
        assert out is not None
        assert out[0] >= 3

    def test_long_droplet_implies_crossing(self):
        # contrapositive of the maximum-range bound: a droplet of range
        # n2 produces a crossing witness over n2 down-arrow columns
        g = ColumnGeometry(4)
        x2, x3, x4 = g.column_x(2), g.column_x(3), g.column_x(4)
        empties = frozenset({(x2, 2), (x3, 1), (x4, 0)})
        p = profile_of(g, empties, 3)
        rec = p.droplets[4]
        assert rec.range == 2
        out = event_B2(masks_of(g, empties), p, g, 2)
        assert out is not None
        i, j, _ = out
        assert j - i >= 1

    def test_long_droplet_implies_crossing_random(self, rng):
        # range >= 2 droplets are rare in product samples, so plant a
        # staircase across three columns and add sparse noise around it
        g = ColumnGeometry(5)
        sites = sorted(g.region.sites)
        found = 0
        for _ in range(100):
            c = int(rng.integers(2, 4))  # staircase lands in columns c..c+2
            y = int(rng.integers(-3, 4))
            plant = {
                (g.column_x(c), y + 2),
                (g.column_x(c + 1), y + 1),
                (g.column_x(c + 2), y),
            }
            noise = {s for s in sites if rng.random() < 0.02}
            empties = frozenset(plant | noise)
            p = profile_of(g, empties, 3)
            ranges = [r.range for r in p.droplets.values()]
            if not ranges or max(ranges) < 2:
                continue
            found += 1
            assert event_B2(masks_of(g, empties), p, g, 2) is not None
        assert found >= 20


class TestCoarseGraining:
    def test_block_or(self):
        scales = DuarteScales.toy(ell=2, N=12, n1=1, n2=1)  # m = 4
        phi = (DOWN,) * 4 + (DOWN, UP, DOWN, DOWN) + (DOWN,) * 4
        cp = eta_project(ArrowProfile(phi=phi, droplets={}), scales)
        assert cp.eta == (0, 1, 0)
        assert not cp.padded

    def test_padding_flag(self):
        scales = DuarteScales.toy(ell=2, N=10, n1=1, n2=1)
        phi = (UP,) * 10
        cp = eta_project(ArrowProfile(phi=phi, droplets={}), scales)
        assert cp.eta == (1, 1, 1)
        assert cp.padded

    def test_valid_east_like_sequence(self):
        seq = [
            (0, 0, 0),
            (1, 0, 0),
            (1, 1, 0),
            (0, 1, 0),
            (1, 1, 0),
            (1, 1, 1),
            (0, 1, 1),
        ]
        out = validate_coarse_path(seq, n1=3)
        assert out["passed"], out["violations"]

    def test_occupation_cap_violation(self):
        seq = [(0, 0), (1, 0), (1, 1)]
        out = validate_coarse_path(seq, n1=1)
        assert not out["passed"]
        assert any("property 2" in v for v in out["violations"])

    def test_east_constraint_violation(self):
        seq = [(0, 0, 0), (0, 1, 0), (0, 1, 1)]
        out = validate_coarse_path(seq, n1=3)
        assert not out["passed"]
        assert any("property 3" in v for v in out["violations"])

    def test_endpoint_violation_and_empty(self):
        out = validate_coarse_path([(0, 0), (1, 0)], n1=2)
        assert not out["passed"]
        assert any("property 1" in v for v in out["violations"])
        assert not validate_coarse_path([], n1=2)["passed"]


class TestTrajectories:
    def test_zero_horizon_no_samples(self):
        scales = DuarteScales.toy(ell=2, N=2, q=0.3)
        report = monitor_trajectory(scales, t_max=0.0, sample_interval=1.0, seed=1)
        assert report.samples == 0
        assert report.first_b1 is None and report.first_b2 is None

    def test_dense_vacancies_trigger_b1_quickly(self):
        scales = DuarteScales.toy(ell=2, N=2, n1=1, q=0.99)
        report = monitor_trajectory(scales, t_max=5.0, sample_interval=0.5, seed=3)
        assert report.first_b1 is not None
        assert report.first_b1 <= 5.0

    def test_unreachable_threshold_never_fires(self):
        scales = DuarteScales.toy(ell=2, N=2, n1=5, q=0.99)
        report = monitor_trajectory(scales, t_max=3.0, sample_interval=0.5, seed=3)
        assert report.first_b1 is None  # needs more up arrows than columns

    def test_first_b2_is_the_first_sampled_crossing(self):
        # ell = 50 exceeds every column, so no arrow points up and every
        # window of two or more columns is searched for a crossing
        scales = DuarteScales.toy(ell=50, N=3, n2=2, q=0.5)
        g = ColumnGeometry(3)
        report = monitor_trajectory(scales, t_max=4.0, sample_interval=0.5, seed=7, geometry=g)
        params = SimParams(DUARTE, 0.5, g.region, BoundaryExterior(g.initial_tau()),
                           t_max=4.0, seed=7)
        dyn = make_dynamics(params)
        tau = g.initial_tau().assignment
        crossed = []

        def observer(t, state):
            masks = encode(g, {s for s, v in zip(dyn.sites, state.tolist()) if v == 0}, tau)
            p = run_droplet_algorithm(masks, g, 50)
            assert p.n_up == 0
            if event_B2(masks, p, g, 2) is not None:
                crossed.append(t)

        observe_trajectory(params, list(np.arange(0.0, 4.0 + 1e-12, 0.5)), observer, dyn=dyn)
        assert crossed and report.first_b2 == crossed[0]
        assert report.first_b1 is None and report.samples == 9

    def test_monitor_matches_set_route(self, monkeypatch):
        # every state the monitor observes, rebuilt as a set of empties and
        # taken through the set route (encode, the reference pass, B2 on the
        # encoded masks), gives the monitor's masks, phi, droplets and B2
        # witness
        import kcmlab.droplets as droplets

        observe, run_pass, b2 = (droplets.observe_trajectory,
                                 droplets.run_droplet_algorithm, droplets.event_B2)
        seen = []  # per observed state: its empties, the pass's masks and profile, and B2's witness if B2 ran

        def observe_spy(params, grid, observer, dyn):
            def spy(t, state):
                seen.append([{s for s, v in zip(dyn.sites, state.tolist()) if v == 0}])
                observer(t, state)
            return observe(params, grid, spy, dyn=dyn)

        def record_pass(masks, *args):
            seen[-1] += [list(masks), run_pass(masks, *args)]
            return seen[-1][-1]

        def record_b2(*args):
            seen[-1].append(b2(*args))
            return seen[-1][-1]

        monkeypatch.setattr(droplets, "observe_trajectory", observe_spy)
        monkeypatch.setattr(droplets, "run_droplet_algorithm", record_pass)
        monkeypatch.setattr(droplets, "event_B2", record_b2)
        g = ColumnGeometry(4)
        scales = DuarteScales.toy(ell=6, N=4, n2=2, q=0.3)
        for seed in range(8):
            monitor_trajectory(scales, t_max=3.0, sample_interval=0.25, seed=seed, geometry=g)
        tau = g.initial_tau().assignment
        wide = b2_calls = crossings = 0
        for empties, seen_masks, profile, *witness in seen:
            masks = encode(g, empties, tau)
            phi, drops, _ = reference_pass(g, frozenset(empties), scales.ell)
            assert (profile.phi, profile.droplets) == (phi, drops)
            assert seen_masks == masks
            if witness:
                assert witness == [b2(masks, profile, g, scales.n2)]
                b2_calls += 1
                crossings += witness[0] is not None
            wide += sum(1 for r in profile.droplets.values() if r.range >= 1)
        # B2 runs until a trajectory's first crossing, and not after it
        assert len(seen) == 8 * 13 and wide >= 20 and b2_calls > crossings >= 3

    def test_dynamics_built_once_per_geometry(self, monkeypatch):
        import kcmlab.droplets as droplets

        built = []
        make = droplets.make_dynamics
        monkeypatch.setattr(droplets, "make_dynamics", lambda p: built.append(p) or make(p))
        scales = DuarteScales.toy(ell=2, N=3, n1=1, q=0.3)
        g = ColumnGeometry(3)
        first = monitor_trajectory(scales, t_max=2.0, sample_interval=0.5, seed=5, geometry=g)
        again = monitor_trajectory(scales, t_max=2.0, sample_interval=0.5, seed=5, geometry=g)
        fresh = monitor_trajectory(scales, t_max=2.0, sample_interval=0.5, seed=5)
        assert first == again == fresh
        assert len(built) == 2

    def test_bad_interval(self):
        scales = DuarteScales.toy(ell=2, N=2)
        with pytest.raises(ValueError):
            monitor_trajectory(scales, t_max=1.0, sample_interval=0.0, seed=1)
        with pytest.raises(ValueError):
            monitor_trajectory(scales, t_max=-1.0, sample_interval=1.0, seed=1)

    def test_geometry_must_match_scales(self):
        # five columns under scales of two once reported max_n_up = 5
        scales = DuarteScales.toy(ell=1, N=2, q=0.3)
        with pytest.raises(ValueError, match="N = 5 columns, the scales N = 2"):
            monitor_trajectory(scales, t_max=1.0, sample_interval=0.5, seed=1,
                               geometry=ColumnGeometry(5))


class TestSampling:
    def test_density_estimate_monotone_in_q(self):
        g = ColumnGeometry(3)
        lo = estimate_uparrow_density(
            DuarteScales.toy(ell=3, N=3, q=0.1), trials=120, seed=9, geometry=g
        )
        hi = estimate_uparrow_density(
            DuarteScales.toy(ell=3, N=3, q=0.6), trials=120, seed=9, geometry=g
        )
        assert lo["p_hat"] < hi["p_hat"]
        for out in (lo, hi):
            assert 0.0 <= out["ci_low"] <= out["p_hat"] <= out["ci_high"] <= 1.0

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            estimate_uparrow_density(DuarteScales.toy(ell=2, N=2), trials=0, seed=1)
