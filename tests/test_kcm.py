import math

import numpy as np
import pytest
from scipy.linalg import expm

from kcmlab import kcm
from kcmlab.exact import _constraint_bit, _site_masks, build_generator
from kcmlab.families import builtin_family, compile_rules, constraint_satisfied, load_family
from kcmlab.geometry import (
    ALL_HEALTHY,
    ALL_INFECTED,
    BoundaryCondition,
    BoundaryExterior,
    Configuration,
    Region,
    boundaries,
)
from kcmlab.harness import ExperimentConfig, run_sweep
from kcmlab.kcm import (
    SimParams,
    batch_tau0,
    east_chain_region,
    frozen_boundary_for,
    make_dynamics,
    observe_trajectory,
    sample_state_at,
    simulate_persistence,
    simulate_tau0,
    summarize,
)

EAST1 = builtin_family("east1d")
DUARTE = builtin_family("duarte")


def single_site_params(q=0.4, seed=0, trial=0, t_max=1e4):
    region = Region([(0, 0)])
    return SimParams(
        family=EAST1,
        q=q,
        region=region,
        boundary=frozen_boundary_for(EAST1, region),
        t_max=t_max,
        seed=seed,
        trial=trial,
    )


def legal(dyn, state, i):
    """Whether site i may flip: some rule's neighbours in ``dyn.site_rules``,
    the tables the event loop reads, are all empty."""
    return any(not any(state[j] for j in rule) for rule in dyn.site_rules[i])


class TestDynamicsCompilation:
    def test_wall_makes_leftmost_site_free(self):
        region = east_chain_region(3)
        dyn = make_dynamics(
            SimParams(EAST1, 0.5, region, frozen_boundary_for(EAST1, region))
        )
        # leftmost site: rule reduced to the empty list -> always legal
        state = np.ones(3, dtype=np.int8)
        assert legal(dyn, state, 0)
        assert not legal(dyn, state, 1)
        assert not legal(dyn, state, 2)
        state[1] = 0
        assert legal(dyn, state, 2)

    def test_constraint_matches_configuration_check(self, rng):
        # on a Duarte box neighbour k of a rule is not site k, unlike on an
        # East chain; the exact layer's bitmasks come from the same tables
        region = Region.rectangle(-3, 0, -3, 0)
        exteriors = [ALL_HEALTHY, ALL_INFECTED, frozen_boundary_for(DUARTE, region)]
        for exterior in exteriors:
            dyn = make_dynamics(SimParams(DUARTE, 0.5, region, exterior))
            masks = _site_masks(DUARTE, dyn.sites, exterior)
            for _ in range(200):
                state = (rng.random(dyn.n) >= 0.5).astype(np.int8)
                empty = [s for s, v in zip(dyn.sites, state) if v == 0]
                config = Configuration(region, empty, exterior)
                bits = sum(1 << i for i, v in enumerate(state) if v == 0)
                for i, site in enumerate(dyn.sites):
                    want = constraint_satisfied(config, DUARTE, site)
                    assert legal(dyn, state, i) == want
                    assert _constraint_bit(masks[i], bits) == want

    def test_frozen_frame_compiles_like_one_sided_east_walls(self):
        # one-sided walls: empty west of the region (east1d), or west and
        # south of it (east2d); every other boundary site occupied
        def east_walls(family, region):
            par, perp = boundaries(region)
            empty = set(par)
            if family.name == "east2d":
                empty |= {s for s in perp if (s[0], s[1] + 1) in region.sites}
            return BoundaryExterior(BoundaryCondition(
                region, {s: int(s not in empty) for s in par | perp}
            ))

        notched = Region(
            s for s in Region.rectangle(-4, 0, -3, 0).sites
            if s not in {(-2, -1), (0, -3), (-4, 0)}
        )
        regions = [Region.corner(w, h) for w in range(1, 6) for h in range(1, 5)]
        for family in (EAST1, builtin_family("east2d")):
            for region in regions + [notched]:
                sites = sorted(region.sites)
                got = compile_rules(family, sites, frozen_boundary_for(family, region))
                assert got == compile_rules(family, sites, east_walls(family, region))

    def test_healthy_exterior_drops_rules(self):
        region = Region([(0, 0)])
        dyn = make_dynamics(SimParams(EAST1, 0.5, region, ALL_HEALTHY))
        state = np.ones(1, dtype=np.int8)
        assert not legal(dyn, state, 0)


class TestSingleSite:
    def test_determinism_and_stream_independence(self):
        a = simulate_tau0(single_site_params(seed=3, trial=5))
        b = simulate_tau0(single_site_params(seed=3, trial=5))
        c = simulate_tau0(single_site_params(seed=3, trial=6))
        assert a == b
        assert a != c

    def test_stationary_atom_at_zero(self):
        q = 0.35
        hits = sum(
            simulate_tau0(single_site_params(q=q, seed=1, trial=k)).tau0 == 0.0
            for k in range(2000)
        )
        sigma = math.sqrt(q * (1 - q) / 2000)
        assert abs(hits / 2000 - q) < 5 * sigma

    def test_conditional_hitting_is_exponential_rate_q(self):
        q = 0.4
        results, _ = batch_tau0(single_site_params(q=q, seed=2), trials=4000)
        positive = [r.tau0 for r in results if r.tau0 > 0 and not r.censored]
        mean = np.mean(positive)
        se = np.std(positive, ddof=1) / math.sqrt(len(positive))
        assert abs(mean - 1 / q) < 4 * se

    def test_persistence_is_unit_exponential(self):
        results, _ = batch_tau0(
            single_site_params(q=0.4, seed=4), trials=4000, persistence=True
        )
        times = [r.tau0 for r in results if not r.censored]
        mean = np.mean(times)
        se = np.std(times, ddof=1) / math.sqrt(len(times))
        assert abs(mean - 1.0) < 4 * se

    def test_blocked_site_censors_with_no_legal_updates(self):
        region = Region([(0, 0)])
        params = SimParams(EAST1, 0.3, region, ALL_HEALTHY, t_max=5.0, seed=9)
        for trial in range(30):
            p = SimParams(EAST1, 0.3, region, ALL_HEALTHY, t_max=5.0, seed=9, trial=trial)
            r = simulate_tau0(p)
            if r.tau0 == 0.0:
                continue
            assert r.censored
            assert r.tau0 == 5.0
            assert r.legal_updates == 0


class TestPathwiseRelations:
    def test_persistence_below_tau0_same_stream(self):
        region = east_chain_region(5)
        boundary = frozen_boundary_for(EAST1, region)
        for trial in range(200):
            params = SimParams(
                EAST1, 0.3, region, boundary, t_max=200.0, seed=21, trial=trial
            )
            h = simulate_tau0(params)
            p = simulate_persistence(params)
            if h.tau0 == 0.0:
                continue  # initial emptiness short-circuits before any ring
            if not h.censored:
                assert p.tau0 <= h.tau0 + 1e-12

    def test_events_bound_legal_updates(self):
        region = east_chain_region(6)
        params = SimParams(
            EAST1, 0.4, region, frozen_boundary_for(EAST1, region), t_max=50.0, seed=13
        )
        results, _ = batch_tau0(params, trials=100)
        for r in results:
            assert 0 <= r.legal_updates <= r.events


class TestStationarity:
    def test_product_measure_preserved_on_ergodic_chain(self):
        q = 0.3
        region = east_chain_region(4)
        boundary = frozen_boundary_for(EAST1, region)
        empties = 0
        trials = 1500
        for trial in range(trials):
            params = SimParams(
                EAST1, q, region, boundary, t_max=60.0, seed=31, trial=trial
            )
            state = sample_state_at(params, 50.0)
            empties += int(state[-1] == 0)
        sigma = math.sqrt(q * (1 - q) / trials)
        assert abs(empties / trials - q) < 5 * sigma


class TestAgainstMatrixExponential:
    def test_transient_law_matches_exact_semigroup(self):
        # East chain of four sites started from all occupied, observed at a
        # fixed transient time, compared with expm of the exact rate matrix
        q = 0.35
        t_obs = 2.0
        region = east_chain_region(4)
        boundary = frozen_boundary_for(EAST1, region)
        gen = build_generator(EAST1, region, q, exterior=boundary)
        semigroup = expm(gen.L.toarray() * t_obs)
        exact_law = semigroup[0]  # state 0 = no empty bits = all occupied
        assert abs(exact_law.sum() - 1.0) < 1e-9

        trials = 50_000
        counts = np.zeros(16)
        params0 = SimParams(EAST1, q, region, boundary, t_max=t_obs, seed=77)
        dyn = make_dynamics(params0)
        start = np.ones(4, dtype=np.int8)
        for trial in range(trials):
            params = SimParams(
                EAST1, q, region, boundary, t_max=t_obs, seed=77, trial=trial
            )
            state = sample_state_at(params, t_obs, dyn=dyn, initial_state=start)
            idx = 0
            for i in range(4):
                if state[i] == 0:
                    idx |= 1 << i
            counts[idx] += 1
        tv = 0.5 * np.abs(counts / trials - exact_law).sum()
        assert tv < 0.02


class TestSummaries:
    def test_median_even_and_odd(self):
        from kcmlab.kcm import HittingResult

        rs = [HittingResult(t, False, 1, 1) for t in (1.0, 3.0, 2.0)]
        assert summarize(rs).median == 2.0
        rs.append(HittingResult(4.0, False, 1, 1))
        assert summarize(rs).median == 2.5

    def test_censored_sort_last_and_can_dominate(self):
        from kcmlab.kcm import HittingResult

        rs = [HittingResult(1.0, False, 1, 1)] + [
            HittingResult(10.0, True, 1, 0) for _ in range(3)
        ]
        s = summarize(rs)
        assert math.isinf(s.median)
        assert s.censor_fraction == 0.75

    def test_all_censored_mean_nan(self):
        from kcmlab.kcm import HittingResult

        s = summarize([HittingResult(5.0, True, 0, 0)])
        assert math.isnan(s.mean)
        assert math.isinf(s.median)


class TestObservation:
    def test_observer_times_and_monotone_clock(self):
        region = east_chain_region(3)
        params = SimParams(
            EAST1, 0.4, region, frozen_boundary_for(EAST1, region), t_max=10.0, seed=5
        )
        seen = []
        observe_trajectory(params, [0.0, 1.0, 2.5, 7.0], lambda t, s: seen.append(t))
        assert seen == [0.0, 1.0, 2.5, 7.0]
        with pytest.raises(ValueError, match="nondecreasing"):
            observe_trajectory(params, [1.0, 0.5], lambda t, s: None)

    def test_initial_observation_matches_stationary_sample(self):
        region = east_chain_region(4)
        params = SimParams(
            EAST1, 0.4, region, frozen_boundary_for(EAST1, region), t_max=1.0, seed=8
        )
        dyn = make_dynamics(params)
        grabbed = {}
        observe_trajectory(
            params, [0.0], lambda t, s: grabbed.setdefault(t, s.copy()), dyn=dyn
        )
        from kcmlab.geometry import derive_rng

        expected = dyn.sample_state(0.4, derive_rng(8, 0))
        assert np.array_equal(grabbed[0.0], expected)


class TestValidation:
    def test_bad_params(self):
        region = Region([(0, 0)])
        with pytest.raises(ValueError):
            SimParams(EAST1, 0.0, region)
        with pytest.raises(ValueError):
            SimParams(EAST1, 0.5, region, t_max=0.0)
        with pytest.raises(ValueError, match="origin must lie in the region"):
            SimParams(EAST1, 0.5, Region([(1, 0), (2, 0)]))

    @pytest.mark.parametrize(
        "start",
        [np.ones(4, dtype=np.int8), np.ones(30, dtype=np.int8), np.full(10, 2, dtype=np.int8)],
        ids=["short", "long", "entry-2"],
    )
    def test_bad_initial_state(self, start):
        region = east_chain_region(10)
        params = SimParams(EAST1, 0.4, region, frozen_boundary_for(EAST1, region), seed=1)
        with pytest.raises(ValueError, match="initial_state must hold 10 entries, each 0 or 1"):
            sample_state_at(params, 5.0, initial_state=start)


COMPILED = pytest.mark.skipif(
    kcm._event_loop is kcm._event_loop_lists,
    reason="the compiled event loop could not be built (kcmlab.kcm printed why on "
    "stderr at import), so there is nothing to check against the list loop",
)
WEST = load_family('{"name":"west","rules":[[[1,0]]]}')


@COMPILED
@pytest.mark.parametrize(
    "family,region",
    [
        (EAST1, east_chain_region(30)),
        (DUARTE, Region.rectangle(0, 4, 0, 4)),
        (builtin_family("east2d"), Region.rectangle(0, 3, 0, 3)),
        (WEST, east_chain_region(12)),
    ],
    ids=["east1d", "duarte", "east2d", "west"],
)
def test_compiled_event_loop_matches_list_loop(family, region):
    """Both event loops return the same status, time, counts and final
    state on identical pre-drawn randoms, in every mode; some batches hold
    one ring, and some stop at a ring whose time is exactly t_max."""
    dyn = kcm.Dynamics(family, region, frozen_boundary_for(family, region))
    rng = np.random.default_rng(17)
    statuses = set()
    for case in range(150):
        q = float(rng.uniform(0.05, 0.9))
        nb = 1 if case % 10 == 0 else int(rng.integers(1, 2000))
        state = (rng.random(dyn.n) >= q).astype(np.int8)
        dts = rng.exponential(1.0 / dyn.n, size=nb)
        picks = rng.integers(0, dyn.n, size=nb)
        coins = rng.random(nb)
        t = float(rng.random())
        if case % 3 == 0:
            t_max = float(np.cumsum(np.concatenate(([t], dts)))[1 + int(rng.integers(0, nb))])
        else:
            t_max = t + float(rng.uniform(0.0, 1.5 * nb / dyn.n))
        mode = int(rng.integers(0, 3))
        origin = int(rng.integers(0, dyn.n))
        a, b = state.copy(), state.copy()
        args = (origin, q, t, t_max, mode, dts, picks, coins)
        ra = kcm._batch(kcm._event_loop, dyn, a, *args)
        rb = kcm._batch(kcm._event_loop_lists, dyn, b, *args)
        assert tuple(ra) == tuple(rb)
        assert np.array_equal(a, b)
        statuses.add(ra[0])
    assert statuses == {0, 1, 2}


@pytest.mark.parametrize("loop", ["compiled", "lists"])
def test_ring_at_t_max_is_processed(loop):
    """A ring at exactly t_max happens; the first ring after it stops the
    batch with the clock at t_max."""
    if loop == "compiled" and kcm._event_loop is kcm._event_loop_lists:
        pytest.skip("the compiled event loop could not be built")
    fn = kcm._event_loop if loop == "compiled" else kcm._event_loop_lists
    region = east_chain_region(4)
    dyn = kcm.Dynamics(EAST1, region, frozen_boundary_for(EAST1, region))
    dts = np.full(6, 0.25)
    picks = np.zeros(6, dtype=np.int64)  # the free west end: every ring is legal
    coins = np.zeros(6)
    state = np.ones(4, dtype=np.int8)
    status, t, events, legal = kcm._batch(
        fn, dyn, state, 3, 0.5, 0.0, 1.0, kcm.MODE_RUN, dts, picks, coins
    )
    assert (status, t, events, legal) == (kcm._STATUS_TMAX, 1.0, 4, 4)
    assert state[0] == 0
    state = np.ones(4, dtype=np.int8)
    status, t, events, legal = kcm._batch(
        fn, dyn, state, 3, 0.5, 0.0, 1.5, kcm.MODE_RUN, dts, picks, coins
    )
    assert (status, t, events, legal) == (kcm._STATUS_EXHAUSTED, 1.5, 6, 6)


@COMPILED
@pytest.mark.parametrize("persistence", [False, True])
def test_batch_tau0_same_on_both_loops(monkeypatch, persistence):
    """Whole trials that span several batches of ``_run`` give the same
    results on the compiled loop and on the list loop."""
    region = east_chain_region(20)
    params = SimParams(
        EAST1, 0.3, region, frozen_boundary_for(EAST1, region), t_max=300.0, seed=4
    )
    compiled, _ = batch_tau0(params, 40, persistence=persistence)
    monkeypatch.setattr(kcm, "_event_loop", kcm._event_loop_lists)
    lists, _ = batch_tau0(params, 40, persistence=persistence)
    assert compiled == lists
    # batches hold 64, 256, 1024, ... rings: some trial needs three or more
    assert max(r.events for r in compiled) > 64 + 256


class TestLoopLoader:
    def test_missing_compiler(self, tmp_path, capsys):
        loop = kcm._load_event_loop(("kcmlab-no-such-cc",), str(tmp_path / "cache"))
        assert loop is kcm._event_loop_lists
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "cannot run compiler 'kcmlab-no-such-cc'" in err[0]

    def test_unwritable_cache(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        loop = kcm._load_event_loop(("gcc",), str(blocker / "kcmlab"))
        assert loop is kcm._event_loop_lists
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "is not writable" in err[0]

    def test_failed_build(self, tmp_path, capsys):
        loop = kcm._load_event_loop(("false",), str(tmp_path))
        assert loop is kcm._event_loop_lists
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "false exited with status 1" in err[0]
        assert list(tmp_path.iterdir()) == []

    @COMPILED
    def test_cached_library_is_loaded(self, tmp_path, capsys):
        first = kcm._load_event_loop(("gcc",), str(tmp_path))
        built = list(tmp_path.iterdir())
        assert first is not kcm._event_loop_lists
        assert len(built) == 1 and built[0].name.endswith(".so")
        # a second load finds the library and never runs the compiler
        second = kcm._load_event_loop(("kcmlab-no-such-cc",), str(tmp_path))
        assert second is not kcm._event_loop_lists
        assert capsys.readouterr().err == ""

    @COMPILED
    def test_sweep_bytes_on_fallback(self, tmp_path, monkeypatch):
        outs = []
        for sub in ("c", "python"):
            if sub == "python":
                monkeypatch.setattr(kcm, "_event_loop", kcm._event_loop_lists)
            config = ExperimentConfig(
                kind="kcm", family="duarte", qs=[0.45, 0.35], box=5, trials=12,
                t_max=200.0, seed=6, out_dir=str(tmp_path / sub),
            )
            manifest = run_sweep(config)
            assert manifest["backend"] == sub
            outs.append([(tmp_path / sub / c["file"]).read_bytes() for c in manifest["cells"]])
        assert outs[0] == outs[1]
