import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from kcmlab import exact
from kcmlab.exact import (
    BFS_CAP,
    ReducibleChainError,
    StateSpaceError,
    UnreachableStatesError,
    _SHIFT,
    _capped_search,
    _constraint_bit,
    _eigenpair,
    _flip_table,
    _halves,
    _peel_order,
    _reflection,
    _site_masks,
    _symmetrized,
    an_reachability,
    build_generator,
    east_barrier,
    ergodic_component,
    lambda_region,
    mean_hitting,
    spectral_gap,
)
from kcmlab.families import UpdateFamily, builtin_family, compile_rules
from kcmlab.geometry import (
    ALL_HEALTHY,
    ALL_INFECTED,
    BoundaryCondition,
    BoundaryExterior,
    Region,
    outer_boundary,
)
from kcmlab.kcm import (
    SimParams,
    batch_tau0,
    east_chain_region,
    frozen_boundary_for,
)

from conftest import random_family, random_region
from reference import (
    Configuration,
    capped_search_full_scan,
    check_proxy_bound,
    constraint_satisfied,
    dirichlet_form,
    empty_frame,
)

EAST1 = builtin_family("east1d")
EAST2 = builtin_family("east2d")
DUARTE = builtin_family("duarte")


def east_chain_generator(length, q):
    region = east_chain_region(length)
    return build_generator(EAST1, region, q, exterior=frozen_boundary_for(EAST1, region))


def duarte_box_generator(w, h, q):
    region = Region.rectangle(-w + 1, 0, -h + 1, 0)
    return build_generator(DUARTE, region, q, exterior=frozen_boundary_for(DUARTE, region))


def double_loop_generator(gen, family, exterior):
    """(L, mu) assembled state by state and site by site from the compiled
    rule masks, accumulating each diagonal entry over the sites in order."""
    site_masks = _site_masks(compile_rules(family, gen.sites, exterior))
    n, size, q = len(gen.sites), len(gen.mu), gen.q
    p = 1.0 - q
    rows, cols, vals = [], [], []
    for state in range(size):
        total = 0.0
        for i in range(n):
            if not any(state & m == m for m in site_masks[i]):
                continue
            bit = 1 << i
            rate = p if state & bit else q
            rows.append(state)
            cols.append(state ^ bit)
            vals.append(rate)
            total += rate
        if total:
            rows.append(state)
            cols.append(state)
            vals.append(-total)
    L = sp.csr_matrix((vals, (rows, cols)), shape=(size, size))
    counts = np.array([bin(s).count("1") for s in range(size)])
    return L, (p ** (n - counts)) * (q ** counts)


def dense_spectrum(gen):
    """Eigenvalues of the dense symmetrized -L on the ergodic component,
    in ascending order."""
    comp = ergodic_component(gen)
    Lc = gen.L[np.ix_(comp, comp)].toarray()
    d = np.sqrt(gen.mu[comp] / gen.mu[comp].sum())
    sym = (d[:, None] * (-Lc)) / d[None, :]
    return np.linalg.eigvalsh(0.5 * (sym + sym.T))


class TestGeneratorStructure:
    def test_row_sums_vanish(self):
        gen = east_chain_generator(3, 0.3)
        rows = np.asarray(gen.L.sum(axis=1)).ravel()
        assert np.max(np.abs(rows)) < 1e-12

    def test_detailed_balance(self):
        gen = east_chain_generator(4, 0.35)
        L = gen.L.toarray()
        flows = gen.mu[:, None] * L
        assert np.max(np.abs(flows - flows.T)) < 1e-12

    def test_measure_normalized(self):
        gen = east_chain_generator(5, 0.2)
        assert abs(gen.mu.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "family, w, h", [("east", n, 1) for n in range(1, 11)] + [("duarte", 3, 3), ("duarte", 3, 4)]
    )
    def test_bit_identical_to_double_loop(self, family, w, h):
        if family == "east":
            fam, region = EAST1, east_chain_region(w)
        else:
            fam, region = DUARTE, Region.rectangle(-w + 1, 0, -h + 1, 0)
        exterior = frozen_boundary_for(fam, region)
        for q in (0.3, 0.03):
            gen = build_generator(fam, region, q, exterior=exterior)
            L, mu = double_loop_generator(gen, fam, exterior)
            for name in ("data", "indices", "indptr"):
                got, want = getattr(gen.L, name), getattr(L, name)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            assert np.array_equal(gen.mu, mu)

    def test_state_space_cap(self):
        region = Region.rectangle(0, 14, 0, 0)
        with pytest.raises(StateSpaceError):
            build_generator(EAST1, region, 0.5)

    def test_q_validation(self):
        region = Region([(0, 0)])
        for q in (0.0, 1.0, -1.0):
            with pytest.raises(ValueError):
                build_generator(EAST1, region, q)


class TestSpectralGap:
    def test_single_free_site_gap_is_one(self):
        gen = east_chain_generator(1, 0.3)
        out = spectral_gap(gen)
        assert abs(out["gap"] - 1.0) < 1e-10
        assert abs(out["t_rel"] - 1.0) < 1e-10

    def test_two_independent_sites_gap_is_one(self):
        # both sites sit next to their own frozen empty wall, so the chain is
        # a product of two free spins and the gap is still one
        region = Region([(0, 0), (5, 0)])
        gen = build_generator(
            EAST1, region, 0.4, exterior=frozen_boundary_for(EAST1, region)
        )
        out = spectral_gap(gen)
        assert abs(out["gap"] - 1.0) < 1e-10
        assert out["component_size"] == 4

    def test_matches_dense_eig_oracle(self):
        for q in (0.45, 0.3, 0.2, 0.15, 0.03):
            gens = [east_chain_generator(n, q) for n in range(2, 11)]
            gens += [duarte_box_generator(w, h, q) for w, h in ((3, 3), (2, 4), (4, 2))]
            for gen in gens:
                out = spectral_gap(gen)
                evals = dense_spectrum(gen)
                assert abs(out["gap"] - evals[1]) <= 1e-9 * evals[1]
                assert abs(evals[0]) < 1e-10

    def test_no_dense_copy(self):
        # a dense copy of S on these 4096 states alone takes 128 MiB
        gen = east_chain_generator(12, 0.3)
        tracemalloc.start()
        try:
            spectral_gap(gen)
            mean_hitting(gen)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_gap_decreases_with_length(self):
        gaps = [spectral_gap(east_chain_generator(n, 0.25))["gap"] for n in (1, 3, 5)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_reducible_chain_raises(self):
        gen = build_generator(EAST1, Region([(0, 0)]), 0.5, exterior=ALL_HEALTHY)
        with pytest.raises(ReducibleChainError):
            spectral_gap(gen)

    def test_degenerate_row_is_reproducible(self):
        # a Duarte row in the empty exterior is eleven independent spins:
        # the gap, 1, is an eigenvalue of multiplicity 11 of the whole chain
        region = Region.corner(11, 1)
        gen = build_generator(DUARTE, region, 0.45, exterior=frozen_boundary_for(DUARTE, region))
        first, second = spectral_gap(gen), spectral_gap(gen)
        assert first["gap"].hex() == second["gap"].hex()
        assert first["residual"].hex() == second["residual"].hex()
        assert abs(first["gap"] - 1.0) < 1e-12
        assert first["residual"] < 1e-12


# a site may flip when one of the two sites a knight's move away is empty;
# on a 3x3 corner with the empty frame the state space splits, and some
# sinks never empty on the component of the all-occupied state
KNIGHT = UpdateFamily.create("knight", [[(-1, -2)], [(1, 2)]])


def whole_component_gap(gen):
    """The second eigenvalue of S on the whole ergodic component, factored
    whole: no sink peeled and no reflection split off."""
    comp = ergodic_component(gen)
    mu = gen.mu[comp]
    S, _ = _symmetrized(gen.L[comp][:, comp], mu / mu.sum())
    return _eigenpair(S, 2, _SHIFT * float(S.diagonal().max()))[0]


def east_gap_mpmath(length, q, digits=40):
    """Gap of the East chain with its frozen wall, from the dense
    symmetrized generator in ``digits``-digit arithmetic.  Site 0 is the
    west end; site i > 0 flips only when site i - 1 is empty."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = digits
    q = mpmath.mpf(q)
    p = 1 - q
    size = 1 << length
    mu = [q ** bin(s).count("1") * p ** (length - bin(s).count("1")) for s in range(size)]
    S = mpmath.zeros(size, size)
    for s in range(size):
        for i in range(length):
            bit = 1 << i
            if i > 0 and not s & (bit >> 1):
                continue
            rate = p if s & bit else q
            S[s, s] += rate
            S[s, s ^ bit] -= rate * mpmath.sqrt(mu[s] / mu[s ^ bit])
    return sorted(mpmath.eigsy(S, eigvals_only=True))[1]


class TestHalves:
    """The bases that split S by an involution."""

    def test_bases_are_orthonormal_and_split_an_involution(self, rng):
        for m in (1, 2, 7, 40):
            for _ in range(5):
                order = rng.permutation(m)
                pairs = order[: 2 * int(rng.integers(0, m // 2 + 1))].reshape(-1, 2)
                partner = np.arange(m)
                partner[pairs[:, 0]], partner[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
                a = float(rng.uniform(0.05, 0.95))
                lower, plus, minus = _halves(partner, a)
                assert list(lower) == [s for s in range(m) if s <= partner[s]]
                assert minus.shape[1] == len(pairs)
                Q = sp.hstack([plus, minus]).toarray()
                assert Q.shape == (m, m)
                assert np.allclose(Q.T @ Q, np.eye(m), rtol=0, atol=1e-15)
                R = (plus @ plus.T - minus @ minus.T).toarray()
                assert np.array_equal(R, R.T)
                assert np.allclose(R @ R, np.eye(m), rtol=0, atol=1e-15)

    def test_sink_blocks_are_the_peeled_chain(self):
        q = 0.3
        gen = east_chain_generator(8, q)
        comp = ergodic_component(gen)
        S, _ = _symmetrized(gen.L[comp][:, comp], gen.mu[comp] / gen.mu[comp].sum())
        legal = _flip_table(gen.L, 8)
        i = _peel_order(legal)[0]
        image = comp ^ (1 << i)
        lower, plus, minus = _halves(np.searchsorted(comp, image), np.sqrt(1 - q))
        keep = np.flatnonzero(comp & (1 << i) == 0)
        assert np.array_equal(lower, keep)
        c = sp.diags(legal[comp[keep], i].astype(float))
        want = S[keep][:, keep]
        scale = abs(want).max()
        # U+ is the chain without site i: the slice on {i occupied}, less
        # the rate q c_i at which i empties
        assert abs(plus.T @ S @ plus - (want - q * c)).max() <= 1e-14 * scale
        # U- kills at rate c_i: the slice plus (1 - q) c_i
        assert abs(minus.T @ S @ minus - (want + (1 - q) * c)).max() <= 1e-14 * scale


class TestPeel:
    """Sinks peeled off before the factorization, against routes that peel
    nothing."""

    def test_matches_dense_eig_on_small_regions(self):
        cases = {"mixed": 0, "split": 0, "dead sink": 0}
        for family in (EAST1, EAST2, DUARTE, KNIGHT):
            for region in SMALL_REGIONS:
                for exterior in exteriors(region):
                    gen = build_generator(family, region, 0.3, exterior=exterior)
                    comp = ergodic_component(gen)
                    if len(comp) < 2:
                        continue
                    n = len(gen.sites)
                    order = _peel_order(_flip_table(gen.L, n))
                    cases["mixed"] += 0 < len(order) < n
                    cases["split"] += len(comp) < len(gen.mu)
                    # a peeled site that is never empty on the component
                    cases["dead sink"] += any(not (comp >> i & 1).any() for i in order)
                    evals = dense_spectrum(gen)
                    out = spectral_gap(gen)
                    assert abs(out["gap"] - evals[1]) <= 1e-9 * evals[1]
                    assert out["residual"] < 1e-12
        assert min(cases.values()) > 0, cases

    @pytest.mark.parametrize("q", [0.3, 0.05])
    def test_matches_whole_component_route(self, q):
        gens = [east_chain_generator(n, q) for n in range(2, 13)]
        region = Region.corner(3, 3)
        gens.append(build_generator(EAST2, region, q, exterior=frozen_boundary_for(EAST2, region)))
        for gen in gens:
            want = whole_component_gap(gen)
            assert abs(spectral_gap(gen)["gap"] - want) <= 1e-9 * want
        # Duarte boxes of odd and even heights: the one-column boxes peel
        # completely, the others split by their y-reflection
        for w, h in ((1, 2), (1, 3), (2, 2), (3, 3), (2, 5), (3, 4)):
            gen = duarte_box_generator(w, h, q)
            want = whole_component_gap(gen)
            out = spectral_gap(gen)
            assert abs(out["gap"] - want) <= 1e-12 * want
            assert out["residual"] < 1e-12

    def test_finds_the_reflection(self):
        def found(family, region, exterior):
            gen = build_generator(family, region, 0.3, exterior=exterior)
            return [gen.sites[j] for j in _reflection(gen.sites, _flip_table(gen.L, len(gen.sites)))]

        region = Region.corner(3, 4)
        assert found(DUARTE, region, frozen_boundary_for(DUARTE, region)) == [
            (x, -3 - y) for x, y in sorted(region.sites)
        ]
        region = Region.corner(3, 3)
        assert found(KNIGHT, region, ALL_HEALTHY) == [(-2 - x, -2 - y) for x, y in sorted(region.sites)]
        for family, region in (
            (EAST1, east_chain_region(6)),
            (DUARTE, Region(Region.corner(3, 2).sites | {(1, 0)})),
        ):
            assert found(family, region, frozen_boundary_for(family, region)) == sorted(region.sites)

    @pytest.mark.parametrize("q", ["0.3", "0.01"])
    def test_east_matches_mpmath(self, q):
        for length in range(1, 7):
            want = float(east_gap_mpmath(length, q))
            out = spectral_gap(east_chain_generator(length, float(q)))
            assert abs(out["gap"] - want) <= 1e-10 * want
            assert out["residual"] < 1e-12

    def factored_sizes(self, monkeypatch, gen):
        sizes = []
        factor = exact._spd_factor

        def recording(A):
            sizes.append(A.shape[0])
            return factor(A)

        monkeypatch.setattr(exact, "_spd_factor", recording)
        spectral_gap(gen)
        return sizes

    def test_east_factors_half_its_states(self, monkeypatch):
        gen = east_chain_generator(12, 0.3)
        assert _peel_order(_flip_table(gen.L, 12)) == list(range(11, -1, -1))
        sizes = self.factored_sizes(monkeypatch, gen)
        assert max(sizes) == 2048

    def test_duarte_box_has_no_sink(self, monkeypatch):
        gen = duarte_box_generator(3, 4, 0.3)
        assert _peel_order(_flip_table(gen.L, 12)) == []
        # the y-reflection splits the 4096 states into odd and even blocks
        assert sorted(self.factored_sizes(monkeypatch, gen)) == [2016, 2080]


def exteriors(region):
    # the empty frame is a partial exterior: KNIGHT reads past it
    return (ALL_HEALTHY, empty_frame(region), ALL_INFECTED)


# windows with the origin at a corner, and scattered sites that the rules
# split into several components
SMALL_REGIONS = (
    Region.corner(4, 1),
    Region.corner(3, 2),
    Region.corner(3, 3),
    Region([(0, 0), (-1, 0), (-3, 0), (0, -2), (-2, -1)]),
    # a Duarte 3x2 box, which has no sink, and one site east of its origin
    # that no Duarte rule of the box reads
    Region(Region.corner(3, 2).sites | {(1, 0)}),
)


def cannot_reach_target(gen):
    """States with no directed path of L's transitions into {origin empty},
    by a backward breadth-first search from the target."""
    back = gen.L.T.tocsr()
    seen = set(np.flatnonzero(gen.origin_empty).tolist())
    queue = deque(seen)
    while queue:
        y = queue.popleft()
        for x in back.indices[back.indptr[y]:back.indptr[y + 1]].tolist():
            if x not in seen:
                seen.add(x)
                queue.append(x)
    return [x for x in range(len(gen.mu)) if x not in seen]


class TestComponents:
    """The undirected labelling against directed searches of the graph of L."""

    @pytest.mark.parametrize("family", [EAST1, EAST2, DUARTE], ids=lambda f: f.name)
    def test_undirected_labelling_matches_directed_searches(self, family):
        split = stuck_cases = 0
        for region in SMALL_REGIONS:
            for exterior in exteriors(region):
                gen = build_generator(family, region, 0.3, exterior=exterior)
                off = (gen.L - sp.diags(gen.L.diagonal())).tocsr()
                off.eliminate_zeros()
                pattern = (off != 0).astype(np.int8)
                assert (pattern != pattern.T).nnz == 0

                _, strong = csgraph.connected_components(
                    gen.L, directed=True, connection="strong"
                )
                comp = ergodic_component(gen)
                assert np.array_equal(comp, np.flatnonzero(strong == strong[0]))
                split += len(comp) < len(gen.mu)

                stuck = cannot_reach_target(gen)
                if stuck:
                    stuck_cases += 1
                    with pytest.raises(UnreachableStatesError) as err:
                        mean_hitting(gen)
                    assert err.value.states == stuck
                else:
                    assert mean_hitting(gen)["e_mu_tau0"] > 0
        assert split > 0 and stuck_cases > 0

    def test_origin_empty_is_the_origin_bit(self):
        region = Region.corner(3, 2)
        gen = build_generator(DUARTE, region, 0.3)
        bit = gen.sites.index((0, 0))
        assert gen.sites == tuple(sorted(region.sites))
        assert gen.origin_empty.tolist() == [bool(s >> bit & 1) for s in range(len(gen.mu))]


class TestMeanHitting:
    def test_single_site_closed_form(self):
        for q in (0.1, 0.4, 0.7):
            gen = east_chain_generator(1, q)
            out = mean_hitting(gen)
            # stationary occupied mass (1-q) times the Exp(q) emptying time
            assert abs(out["e_mu_tau0"] - (1 - q) / q) < 1e-10

    def test_matches_independent_dense_solve(self):
        # rebuild the restricted system by direct state enumeration with the
        # library's configuration-level constraint check
        length, q = 3, 0.35
        region = east_chain_region(length)
        exterior = frozen_boundary_for(EAST1, region)
        gen = build_generator(EAST1, region, q, exterior=exterior)
        sites = sorted(region.sites)
        size = 1 << length
        M = np.zeros((size, size))
        for state in range(size):
            empty = frozenset(s for i, s in enumerate(sites) if state & (1 << i))
            config = Configuration(region, empty, exterior)
            for i, s in enumerate(sites):
                if not constraint_satisfied(config, EAST1, s):
                    continue
                bit = 1 << i
                rate = (1 - q) if state & bit else q
                M[state, state ^ bit] += rate
                M[state, state] -= rate
        origin_bit = 1 << sites.index((0, 0))
        ac = [s for s in range(size) if not s & origin_bit]
        u = np.linalg.solve(-M[np.ix_(ac, ac)], np.ones(len(ac)))
        expected = float(np.dot(gen.mu[ac], u))
        out = mean_hitting(gen)
        assert abs(out["e_mu_tau0"] - expected) < 1e-9

    def test_matches_simulation(self):
        length, q = 3, 0.4
        region = east_chain_region(length)
        exterior = frozen_boundary_for(EAST1, region)
        gen = build_generator(EAST1, region, q, exterior=exterior)
        exact = mean_hitting(gen)["e_mu_tau0"]
        params = SimParams(EAST1, q, region, exterior, t_max=1e4, seed=42)
        results, summary = batch_tau0(params, trials=3000)
        assert summary.censor_fraction == 0.0
        assert abs(summary.mean - exact) < 4 * summary.standard_error

    def test_small_q_matches_mpmath(self):
        # 40-digit solve of the same system with mpmath
        out = mean_hitting(east_chain_generator(8, 0.03))
        assert abs(out["e_mu_tau0"] - 343287.72299353481505) <= 1e-9 * 343287.72299353481505
        assert out["residual"] < 1e-14

    def test_residual_is_relative_backward_error(self):
        gen = east_chain_generator(12, 0.05)
        out = mean_hitting(gen)
        ac = np.flatnonzero(~gen.origin_empty)
        M = -gen.L[ac][:, ac]
        # the solve that mean_hitting makes, repeated: the same bits of u
        S, d = _symmetrized(gen.L[ac][:, ac], gen.mu[ac])
        u = exact._spd_factor(S).solve(d) / d
        assert out["e_mu_tau0"] == float(np.dot(gen.mu[ac], u))
        m_norm = np.max(abs(M).sum(axis=1))
        want = np.max(np.abs(M @ u - 1)) / (m_norm * np.max(np.abs(u)) + 1)
        assert out["residual"] == pytest.approx(want, rel=1e-12)
        assert out["residual"] < 1e-14
        assert out["e_mu_tau0"] > 1e5

    def test_unreachable_target_raises(self):
        gen = build_generator(EAST1, Region([(0, 0)]), 0.5, exterior=ALL_HEALTHY)
        with pytest.raises(UnreachableStatesError):
            mean_hitting(gen)


class TestDirichletForm:
    def test_single_site_indicator(self):
        q = 0.3
        gen = east_chain_generator(1, q)
        f = np.array([1.0, 0.0])  # indicator of the all-occupied state
        out = dirichlet_form(gen, f)
        assert abs(out["dirichlet"] - (1 - q) * q) < 1e-12
        assert abs(out["variance"] - (1 - q) * q) < 1e-12
        assert abs(out["poincare_ratio"] - 1.0) < 1e-12

    def test_constants_have_zero_form(self):
        gen = east_chain_generator(3, 0.4)
        out = dirichlet_form(gen, np.ones(8))
        assert out["dirichlet"] == 0.0
        assert abs(out["variance"]) < 1e-12
        assert "poincare_ratio" not in out

    def test_poincare_inequality_random_functions(self, rng):
        gen = east_chain_generator(3, 0.3)
        t_rel = spectral_gap(gen)["t_rel"]
        for _ in range(100):
            f = rng.normal(size=8)
            out = dirichlet_form(gen, f)
            if out["dirichlet"] > 0:
                assert out["variance"] <= t_rel * out["dirichlet"] * (1 + 1e-9)

    def test_matches_per_site_reference(self, rng):
        # sum over sites x and occupied states with c_x = 1 of
        # mu q (f(state^x) - f(state))^2, each flip counted once
        positive = 0
        for family in (EAST1, EAST2, DUARTE):
            for region in SMALL_REGIONS[:2]:
                for exterior in exteriors(region):
                    gen = build_generator(family, region, 0.3, exterior=exterior)
                    masks = _site_masks(compile_rules(family, gen.sites, exterior))
                    f = rng.normal(size=len(gen.mu))
                    want = 0.0
                    for i, site_masks in enumerate(masks):
                        bit = 1 << i
                        for x in range(len(gen.mu)):
                            if not x & bit and _constraint_bit(site_masks, x):
                                want += gen.mu[x] * gen.q * (f[x ^ bit] - f[x]) ** 2
                    got = dirichlet_form(gen, f)["dirichlet"]
                    assert abs(got - want) <= 1e-12 * want
                    positive += want > 0
        assert positive >= 10

    def test_shape_validation(self):
        gen = east_chain_generator(2, 0.3)
        with pytest.raises(ValueError):
            dirichlet_form(gen, np.ones(3))


def low_component(gen, max_empties):
    """Mask of the states that legal flips reach from all-occupied through
    states with at most ``max_empties`` empties."""
    states = np.arange(len(gen.mu))
    low = np.flatnonzero([bin(s).count("1") <= max_empties for s in states])
    labels = csgraph.connected_components(gen.L[low][:, low], directed=False)[1]
    return np.isin(states, low[labels == labels[0]])


class TestProxyBound:
    def test_occupied_indicator_bound_holds(self):
        gen = east_chain_generator(3, 0.25)
        phi = np.where(gen.origin_empty, 0.0, 1.0)
        out = check_proxy_bound(gen, phi)
        assert out["holds_at_t_star"]
        assert out["holds_on_grid"]
        assert out["t_star"] > 0
        assert out["figure"] > 0
        assert out["e_mu_tau0"] >= out["bound_at_t_star"] - 1e-9

    def test_bound_is_informative_for_small_q(self):
        gen = east_chain_generator(4, 0.15)
        phi = np.where(gen.origin_empty, 0.0, 1.0)
        out = check_proxy_bound(gen, phi)
        assert out["bound_at_t_star"] > 0

    def test_bottleneck_phi_bound_bites(self):
        # A is the set of states below the energy barrier b: reached from
        # all-occupied with at most b - 1 empties, so the origin never
        # empties in A.  The bound through 1_A grows in 1/q at least like
        # q^-(b - 1); the one through 1{origin occupied} does not.  Measured
        # between q = 0.1 and 0.03: 8.30 -> 1563 (slope 4.35) against
        # 3.52 -> 45.2 (slope 2.12), with E_mu(tau0) 3270 -> 3.43e5.
        b = east_barrier(8)
        assert b == 4
        qs = (0.1, 0.03)
        bounds = {"bottleneck": [], "trivial": []}
        for q in qs:
            gen = east_chain_generator(8, q)
            below = low_component(gen, b - 1)
            assert below.sum() == _capped_search(EAST1, east_chain_region(8), b - 1, BFS_CAP)[1]
            for name, phi in (("bottleneck", below), ("trivial", ~gen.origin_empty)):
                out = check_proxy_bound(gen, phi.astype(float))
                assert out["holds_at_t_star"] and out["holds_on_grid"]
                assert 0 < out["bound_at_t_star"] < out["e_mu_tau0"]
                bounds[name].append(out["bound_at_t_star"])
        span = math.log(qs[0] / qs[1])
        slopes = {name: math.log(hi / lo) / span for name, (lo, hi) in bounds.items()}
        assert slopes["bottleneck"] >= b - 1
        assert slopes["trivial"] < b - 1

    def test_phi_must_vanish_on_target(self):
        gen = east_chain_generator(2, 0.3)
        with pytest.raises(ValueError, match="vanish"):
            check_proxy_bound(gen, np.ones(4))

    def test_zero_phi_rejected(self):
        gen = east_chain_generator(2, 0.3)
        with pytest.raises(ValueError):
            check_proxy_bound(gen, np.zeros(4))


class TestEastBarrier:
    def test_logarithmic_law(self):
        for ell in range(1, 13):
            assert east_barrier(ell) == math.ceil(math.log2(ell + 1))

    def test_explicit_cap_below_threshold_fails(self):
        region = Region.corner(4, 1)
        assert not _capped_search(EAST1, region, 2, BFS_CAP, stop_at_origin=True)[0]
        assert _capped_search(EAST1, region, 3, BFS_CAP, stop_at_origin=True)[0]
        assert east_barrier(4) == 3

    def test_bad_ell(self):
        with pytest.raises(ValueError):
            east_barrier(0)


def brute_force_reachability(family, region, max_zeros, exterior=ALL_INFECTED):
    """Independent capped BFS over configurations of ``region`` with the
    public constraint check, at most ``max_zeros`` empties at a time."""
    start = Configuration(region, frozenset(), exterior=exterior)
    seen = {start.empty}
    queue = deque([start])
    origin = False
    while queue:
        config = queue.popleft()
        for s in sorted(region.sites):
            if not constraint_satisfied(config, family, s):
                continue
            if s in config.empty:
                nxt_empty = config.empty - {s}
            else:
                if len(config.empty) + 1 > max_zeros:
                    continue
                nxt_empty = config.empty | {s}
            if s == (0, 0) and s in nxt_empty:
                origin = True
            if nxt_empty in seen:
                continue
            seen.add(nxt_empty)
            queue.append(Configuration(region, nxt_empty, exterior=exterior))
    return {"origin_infectable": origin, "reachable_states": len(seen)}


class TestCappedSearch:
    def test_east_barrier_matches_brute_force(self):
        # the chain 1..ell with only the wall at site 0 empty outside it
        for ell in range(1, 9):
            region = east_chain_region(ell)
            wall = {s: int(s != (-ell, 0)) for s in outer_boundary(region)}
            exterior = BoundaryExterior(BoundaryCondition(region, wall))
            infectable = []
            for cap in range(ell + 1):
                want = brute_force_reachability(EAST1, region, cap, exterior)["origin_infectable"]
                assert _capped_search(EAST1, region, cap, BFS_CAP, stop_at_origin=True)[0] == want
                infectable.append(want)
            assert east_barrier(ell) == infectable.index(True)

    def test_budget_exhausted_is_state_space_error(self):
        # east_barrier(12) passes 10 states at cap 3, an_reachability(EAST2,
        # 3) at once
        with pytest.raises(StateSpaceError, match="budget of 10"):
            _capped_search(EAST1, Region.corner(12, 1), 3, 10, stop_at_origin=True)
        with pytest.raises(StateSpaceError, match="budget of 10"):
            _capped_search(EAST2, lambda_region(3, 1), 2, 10)

    def test_candidates_match_full_scan(self, rng):
        # the search checks only the sites that can be legal in each state;
        # the full scan checks every site, and the brute force enumerates
        # configurations: the same answer, count and stopping point
        infectable = stopped_early = 0
        for _ in range(300):
            family = random_family(rng)
            region = random_region(rng, 5)
            cap = int(rng.integers(0, 4))
            full = capped_search_full_scan(family, region, cap, BFS_CAP)
            assert _capped_search(family, region, cap, BFS_CAP) == full
            want = brute_force_reachability(family, region, cap)
            assert full == (want["origin_infectable"], want["reachable_states"])
            first = capped_search_full_scan(family, region, cap, BFS_CAP, stop_at_origin=True)
            assert _capped_search(family, region, cap, BFS_CAP, stop_at_origin=True) == first
            infectable += full[0]
            stopped_early += first[0] and first[1] < full[1]
        assert infectable >= 150 and stopped_early >= 150

    def test_candidates_match_full_scan_on_lambda(self):
        region = lambda_region(3, 1)
        for family in (EAST2, DUARTE):
            full = capped_search_full_scan(family, region, 2, BFS_CAP)
            assert _capped_search(family, region, 2, BFS_CAP) == full
        assert full == (False, 103)

    def test_barrier_search_stops_when_the_origin_empties(self):
        # at cap 4 site 8 first empties after 69 states, of 162 in the
        # whole capped space
        region = Region.corner(8, 1)
        assert _capped_search(EAST1, region, 4, 100, stop_at_origin=True) == (True, 69)
        assert _capped_search(EAST1, region, 4, BFS_CAP) == (True, 162)
        assert east_barrier(8) == 4


class TestAnReachability:
    def test_lambda_region_side(self):
        for n, kappa in [(1, 1), (2, 1), (2, 2)]:
            region = lambda_region(n, kappa)
            side = kappa * n * 2 ** n + 1
            xs = [s[0] for s in region.sites]
            assert max(xs) - min(xs) + 1 == side
            assert len(region.sites) == side * side

    def test_matches_brute_force(self):
        # "far" reads five sites west, past the 9 x 9 square, so every site
        # of its five westmost columns, the origin's among them, can empty
        far = UpdateFamily.create("far", [[(-5, 0)]])
        for family in (EAST1, EAST2, DUARTE, far):
            got = an_reachability(family, n=2, kappa=1)
            want = brute_force_reachability(family, lambda_region(2, 1), 1)
            assert got["origin_infectable"] == want["origin_infectable"]
            assert got["reachable_states"] == want["reachable_states"]
        assert (want["origin_infectable"], want["reachable_states"]) == (True, 46)

    def test_east2d_small_counts(self):
        out = an_reachability(EAST2, n=2, kappa=1)
        # one empty allowed: the 17 sites touching the infected exterior from
        # the west or south, plus the initial state
        assert out["reachable_states"] == 18
        assert not out["origin_infectable"]
        assert out["max_zeros"] == 1

    def test_single_zero_budget_is_stuck(self):
        out = an_reachability(EAST1, n=1, kappa=1)
        assert out["reachable_states"] == 1
        assert not out["origin_infectable"]

    def test_rule_pointing_away_from_exterior_reach(self):
        # a rule requiring two empties straight east cannot be seeded by a
        # single wandering empty, so the origin stays occupied
        fam = UpdateFamily.create("e2", [[(1, 0), (2, 0)]])
        out = an_reachability(fam, n=2, kappa=1)
        assert not out["origin_infectable"]

    def test_validation(self):
        with pytest.raises(ValueError):
            an_reachability(EAST1, n=0)
