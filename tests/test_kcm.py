import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from kcmlab import kcm
from kcmlab.exact import _constraint_bit, _site_masks, build_generator, mean_hitting
from kcmlab.families import builtin_family, compile_rules, load_family
from kcmlab.geometry import (
    ALL_HEALTHY,
    ALL_INFECTED,
    BoundaryCondition,
    BoundaryExterior,
    Region,
    boundaries,
    derive_rng,
    sample_occupation,
)
from kcmlab.harness import ExperimentConfig, run_sweep
from kcmlab.kcm import (
    SimParams,
    batch_tau0,
    east_chain_region,
    frozen_boundary_for,
    make_dynamics,
    observe_trajectory,
    summarize,
)

from conftest import random_region
from reference import (
    Configuration,
    constraint_satisfied,
    empty_frame,
    sample_state_at,
    simulate_persistence,
    simulate_tau0,
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
        exteriors = [ALL_HEALTHY, ALL_INFECTED, empty_frame(region)]
        for exterior in exteriors:
            dyn = make_dynamics(SimParams(DUARTE, 0.5, region, exterior))
            masks = _site_masks(compile_rules(DUARTE, dyn.sites, exterior))
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

    def test_empty_exterior_compiles_like_the_empty_frame(self, rng):
        # the built-in rules read west, south and north neighbours, which
        # outside a region lie in its parallel and perpendicular boundary
        regions = [Region.corner(w, h) for w in range(1, 8) for h in range(1, 8)]
        regions += [random_region(rng) for _ in range(300)]
        for family in (EAST1, builtin_family("east2d"), DUARTE):
            for region in regions:
                assert frozen_boundary_for(family, region) is ALL_INFECTED
                sites = sorted(region.sites)
                got = compile_rules(family, sites, ALL_INFECTED)
                assert got == compile_rules(family, sites, empty_frame(region))

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
        assert any(r.events > 0 for r in results)
        for r in results:
            assert r.events == r.legal_updates


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


class TestDuarteLaw:
    """The engine against the exact chain on a 3x3 Duarte box in the
    empty exterior (512 states)."""

    REGION = Region.rectangle(-2, 0, -2, 0)
    BOUNDARY = frozen_boundary_for(DUARTE, REGION)
    Q = 0.3

    def test_mean_hitting_time_matches_exact(self):
        gen = build_generator(DUARTE, self.REGION, self.Q, exterior=self.BOUNDARY)
        exact = mean_hitting(gen)["e_mu_tau0"]
        params = SimParams(DUARTE, self.Q, self.REGION, self.BOUNDARY, t_max=1e7, seed=1507)
        _, summary = batch_tau0(params, trials=10_000)
        assert summary.censor_fraction == 0.0
        assert abs(summary.mean - exact) < 3 * summary.standard_error

    def test_transient_law_matches_exact_semigroup(self):
        # from all occupied; at this time and trial count the total
        # variation distance of the empirical law has mean about 0.01
        t_obs = 2.0
        gen = build_generator(DUARTE, self.REGION, self.Q, exterior=self.BOUNDARY)
        exact_law = expm(gen.L.toarray() * t_obs)[0]
        params = SimParams(DUARTE, self.Q, self.REGION, self.BOUNDARY, t_max=t_obs, seed=1508)
        dyn = make_dynamics(params)
        assert tuple(dyn.sites) == gen.sites
        weights = 1 << np.arange(dyn.n)
        start = np.ones(dyn.n, dtype=np.int8)
        trials = 40_000
        counts = np.zeros(len(exact_law))
        for trial in range(trials):
            state = sample_state_at(replace(params, trial=trial), t_obs, dyn=dyn,
                                    initial_state=start)
            counts[int(weights[state == 0].sum())] += 1
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

    @pytest.mark.parametrize("grid", [[1.0, 0.5], [0.0, 2.0, 2.0, 1.0], [-1.0]])
    def test_bad_grid_rejected_before_any_observation(self, grid):
        region = east_chain_region(3)
        params = SimParams(
            EAST1, 0.4, region, frozen_boundary_for(EAST1, region), t_max=10.0, seed=5
        )
        seen = []
        with pytest.raises(ValueError, match="nondecreasing from 0"):
            observe_trajectory(params, grid, lambda t, s: seen.append(t))
        assert seen == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_grid_rejected_before_any_observation(self, bad):
        region = east_chain_region(3)
        params = SimParams(
            EAST1, 0.4, region, frozen_boundary_for(EAST1, region), t_max=10.0, seed=5
        )
        seen = []
        with pytest.raises(ValueError, match="time grid must be finite"):
            observe_trajectory(params, [0.0, 1.0, bad], lambda t, s: seen.append(t))
        assert seen == []

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
        expected = sample_occupation(dyn.region, 0.4, derive_rng(8, 0))
        assert np.array_equal(grabbed[0.0], expected)


class TestValidation:
    def test_bad_params(self):
        region = Region([(0, 0)])
        with pytest.raises(ValueError):
            SimParams(EAST1, 0.0, region)
        for t_max in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="t_max must be finite and positive"):
                SimParams(EAST1, 0.5, region, t_max=t_max)
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


COMPILED_LOOP = kcm._event_loop
LOOPS = {"compiled": COMPILED_LOOP, "lists": kcm._event_loop_lists}


def _on_loop(monkeypatch, loop, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` on ``loop``, plus the final state of every
    stream that ``kcm`` derived meanwhile."""
    made = []

    def capture(*key):
        rng = derive_rng(*key)
        made.append(rng)
        return rng

    monkeypatch.setattr(kcm, "_event_loop", loop)
    monkeypatch.setattr(kcm, "derive_rng", capture)
    out = fn(*args, **kwargs)
    return out, [rng.bit_generator.state for rng in made]


def _trial(dyn, q, t_max, mode, seed, trial):
    """One whole trial of ``kcm._run`` from the stationary start of
    ``kcm.derive_rng(seed, trial)``, whose stream ``_on_loop`` sees: its
    result and final state."""
    rng = kcm.derive_rng(seed, trial)
    state = sample_occupation(dyn.region, q, rng)
    result = kcm._run(dyn, state, q, t_max, mode, rng, dyn.index[(0, 0)])
    return result, state.tolist()


FAMILIES = {
    "east1d": (EAST1, east_chain_region(30)),
    "duarte": (DUARTE, Region.rectangle(-4, 0, -4, 0)),
    "east2d": (builtin_family("east2d"), Region.rectangle(-3, 0, -3, 0)),
    "west": (WEST, Region.rectangle(0, 11, 0, 0)),  # origin at the west end: it can flip
    "one-site": (EAST1, Region([(0, 0)])),  # a site draw with nothing to draw
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_dependents_reverse_the_rules(name):
    """Site i is a dependent of site j exactly when a rule of i reads j, in
    the tuples and in the flat table, and in ascending order."""
    family, region = FAMILIES[name]
    dyn = kcm.Dynamics(family, region, frozen_boundary_for(family, region))
    for j in range(dyn.n):
        want = tuple(i for i in range(dyn.n) if any(j in rule for rule in dyn.site_rules[i]))
        assert dyn.site_deps[j] == want
        assert dyn.dependents[dyn.dep_ptr[j]:dyn.dep_ptr[j + 1]].tolist() == list(want)


@COMPILED
@pytest.mark.parametrize("name", list(FAMILIES))
def test_compiled_event_loop_matches_list_loop(monkeypatch, name):
    """Whole trials, drawing their own randoms, give the same hit flag,
    time, ring and legal counts, final state and final generator state on
    the compiled loop and on the list loop, in the tau0 and persistence
    modes; some stop at the origin and some at t_max."""
    family, region = FAMILIES[name]
    dyn = kcm.Dynamics(family, region, frozen_boundary_for(family, region))
    hits = set()
    for trial in range(60):
        q = (0.15, 0.3, 0.5, 0.8)[trial % 4]
        t_max = (2.0, 30.0, 400.0)[trial % 3]
        mode = (kcm.MODE_TAU0, kcm.MODE_PERSISTENCE)[trial % 2]
        runs = [_on_loop(monkeypatch, loop, _trial, dyn, q, t_max, mode, 19, trial)
                for loop in LOOPS.values()]
        assert runs[0] == runs[1]
        hits.add(runs[0][0][0][0])
    assert hits == {True, False}


@COMPILED
@pytest.mark.parametrize("persistence", [False, True])
def test_batch_tau0_same_on_both_loops(monkeypatch, persistence):
    """``batch_tau0`` gives the same results, and leaves every trial's
    stream in the same state, on both loops, for every family."""
    for family, region in FAMILIES.values():
        params = SimParams(family, 0.35, region, frozen_boundary_for(family, region),
                           t_max=50.0, seed=23)
        runs = [_on_loop(monkeypatch, loop, lambda: batch_tau0(params, 30, persistence)[0])
                for loop in LOOPS.values()]
        assert runs[0] == runs[1]
        assert any(r.events > 0 for r in runs[0][0])


@COMPILED
def test_segments_same_on_both_loops(monkeypatch):
    """``observe_trajectory`` over many segments, and ``sample_state_at``
    with and without an initial state, see the same states and leave the
    stream in the same state on both loops."""
    region = Region.rectangle(-4, 0, -4, 0)
    boundary = frozen_boundary_for(DUARTE, region)
    start = np.ones(25, dtype=np.int8)
    grid = [0.0, 0.0, 0.3, 1.0, 1.0, 2.5, 4.0, 9.0]
    for trial in range(10):
        p = SimParams(DUARTE, 0.3, region, boundary, t_max=10.0, seed=29, trial=trial)
        runs = []
        for loop in LOOPS.values():
            seen = []
            observed = _on_loop(monkeypatch, loop, observe_trajectory, p, grid,
                                lambda t, s: seen.append((t, s.tolist())))
            plain = _on_loop(monkeypatch, loop, sample_state_at, p, 3.0)
            started = _on_loop(monkeypatch, loop, sample_state_at, p, 3.0,
                               initial_state=start)
            runs.append((seen, observed[1], plain[0].tolist(), plain[1],
                         started[0].tolist(), started[1]))
        assert runs[0] == runs[1]
    assert [t for t, _ in seen] == grid


@pytest.mark.parametrize("loop", ["compiled", "lists"])
def test_frozen_state_stops_at_once(monkeypatch, loop):
    """With no legal site the run stops at t_max with no ring and no draw:
    a lone site under a healthy exterior, and an all-occupied row under a
    healthy exterior whose sites read only their east neighbour."""
    if loop == "compiled" and COMPILED_LOOP is kcm._event_loop_lists:
        pytest.skip("the compiled event loop could not be built")
    lone = Region([(0, 0)])
    frozen = 0
    for trial in range(20):
        params = SimParams(EAST1, 0.3, lone, ALL_HEALTHY, t_max=1e9, seed=41, trial=trial)
        result, streams = _on_loop(monkeypatch, LOOPS[loop], simulate_tau0, params)
        if result.tau0 == 0.0:
            continue
        frozen += 1
        assert result == kcm.HittingResult(1e9, True, 0, 0)
        rng = derive_rng(41, trial)
        sample_occupation(lone, 0.3, rng)
        assert streams == [rng.bit_generator.state]
    assert frozen >= 5

    box = Region.corner(4, 1)
    params = SimParams(WEST, 0.3, box, ALL_HEALTHY, seed=42)
    start = np.ones(4, dtype=np.int8)
    state, streams = _on_loop(monkeypatch, LOOPS[loop], sample_state_at, params, 1e9,
                              initial_state=start)
    assert state.tolist() == [1, 1, 1, 1]
    assert streams == [derive_rng(42, 0).bit_generator.state]


@pytest.mark.parametrize("loop", ["compiled", "lists"])
def test_ring_at_t_max_is_processed(monkeypatch, loop):
    """A ring at exactly t_max happens: rerun with t_max = tau0, a hitting
    trial hits at the same ring.  With t_max just below tau0 the trial is
    censored before that ring, with the clock at t_max."""
    if loop == "compiled" and COMPILED_LOOP is kcm._event_loop_lists:
        pytest.skip("the compiled event loop could not be built")
    monkeypatch.setattr(kcm, "_event_loop", LOOPS[loop])
    region = east_chain_region(6)
    boundary = frozen_boundary_for(EAST1, region)
    hits = 0
    for trial in range(20):
        params = SimParams(EAST1, 0.3, region, boundary, t_max=1e4, seed=31, trial=trial)
        r = simulate_tau0(params)
        if r.tau0 == 0.0 or r.censored:
            continue
        hits += 1
        at = simulate_tau0(SimParams(EAST1, 0.3, region, boundary, t_max=r.tau0,
                                     seed=31, trial=trial))
        assert at == r
        below = np.nextafter(r.tau0, 0.0)
        cut = simulate_tau0(SimParams(EAST1, 0.3, region, boundary, t_max=below,
                                      seed=31, trial=trial))
        assert cut == kcm.HittingResult(below, True, r.events - 1, r.legal_updates - 1)
    assert hits >= 5


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

    def test_missing_numpy_library(self, tmp_path, capsys):
        missing = tmp_path / "no-numpy-lib"
        loop = kcm._load_event_loop(("gcc",), str(tmp_path / "cache"), str(missing))
        assert loop is kcm._event_loop_lists
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert str(missing / "libnpyrandom.a") in err[0]
        assert not (tmp_path / "cache").exists()

    def test_library_name_keyed_on_numpy_version(self):
        assert kcm._library_name("2.4.6") != kcm._library_name("2.4.7")

    @COMPILED
    def test_cached_library_is_loaded(self, tmp_path, capsys):
        first = kcm._load_event_loop(("gcc",), str(tmp_path))
        built = list(tmp_path.iterdir())
        assert first is not kcm._event_loop_lists
        assert [b.name for b in built] == [kcm._library_name(np.__version__)]
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
