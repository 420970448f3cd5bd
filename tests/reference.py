"""Reference implementations that only the tests call.

Each is an oracle, a checker or a thin wrapper that a test compares the
program against: the synchronous bootstrap step, the site-set path search,
configurations with the site-by-site constraint check, uniform boundary
conditions and the empty frame, the full-scan capped search, the paper's
variational lower bound on the mean hitting time, the droplet pass and
crossing event on site sets with the droplet invariants, membership in a
stable set, single KCM trials, and the paper's asymptotic scales and
coarse-grained paths.
"""

from __future__ import annotations

import decimal
import math
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from kcmlab import kcm
from kcmlab.bootstrap import closure_region
from kcmlab.directions import StableDirectionReport, Vec, _ccw_cat, _cross, _primitive
from kcmlab.droplets import DOWN, UP, ArrowProfile, ColumnGeometry, DropletRecord, DuarteScales
from kcmlab.droplets import column_masks, run_droplet_algorithm
from kcmlab.exact import GeneratorOperator, StateSpaceError, _constraint_bit, _site_masks, mean_hitting
from kcmlab.families import UpdateFamily, builtin_family, compile_rules
from kcmlab.geometry import (
    ALL_HEALTHY,
    ALL_INFECTED,
    BoundaryCondition,
    BoundaryExterior,
    Region,
    Site,
    derive_rng,
    outer_boundary,
    sample_occupation,
)

DUARTE = builtin_family("duarte")


# --- bootstrap ---------------------------------------------------------------


def synchronous_step(
    family: UpdateFamily,
    region: Region,
    tau: Optional[BoundaryCondition],
    infected: FrozenSet[Site],
) -> FrozenSet[Site]:
    """One parallel update: infect every region site with a fully infected
    translated rule; the boundary condition never changes."""
    if tau is not None and tau.region != region:
        raise ValueError("boundary condition does not match region")
    if not infected <= region.sites:
        raise ValueError("infection set must be contained in the region")
    zeros = tau.zeros if tau is not None else frozenset()
    active = infected | zeros
    new = set(infected)
    for x in region.sites:
        if x in infected:
            continue
        a, b = x
        for rule in family.rules:
            if all((a + dx, b + dy) in active for dx, dy in rule):
                new.add(x)
                break
    return frozenset(new)


_DUARTE_STEPS: Tuple[Site, ...] = ((1, 0), (0, 1), (0, -1))


def duarte_path_exists(
    closed: Iterable[Site], from_x: int, to_x: int
) -> Optional[List[Site]]:
    """Shortest path inside ``closed`` from column x=from_x to column x=to_x
    using steps {+e1, +e2, -e2}; deterministic neighbour order."""
    if from_x > to_x:
        raise ValueError("from column must not exceed to column")
    closed = frozenset(closed)
    starts = sorted(s for s in closed if s[0] == from_x)
    if not starts:
        return None
    parent = {s: None for s in starts}
    queue = deque(starts)
    while queue:
        s = queue.popleft()
        if s[0] == to_x:
            path = []
            cur = s
            while cur is not None:
                path.append(cur)
                cur = parent[cur]
            path.reverse()
            return path
        a, b = s
        for dx, dy in _DUARTE_STEPS:
            n = (a + dx, b + dy)
            if n in closed and n not in parent:
                parent[n] = s
                queue.append(n)
    return None


# --- configurations ----------------------------------------------------------


class Configuration:
    """A 0/1 field on a region plus an exterior policy."""

    __slots__ = ("region", "empty", "exterior")

    def __init__(self, region: Region, empty: Iterable[Site], exterior=ALL_HEALTHY):
        self.region = region
        self.empty: FrozenSet[Site] = frozenset(empty)
        if not self.empty <= region.sites:
            raise ValueError("empty set must be contained in the region")
        self.exterior = exterior

    def value_at(self, site: Site) -> int:
        if site in self.region.sites:
            return 0 if site in self.empty else 1
        return self.exterior.value_at(site)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Configuration)
            and self.region == other.region
            and self.empty == other.empty
        )


def uniform_boundary(region: Region, value: int) -> BoundaryCondition:
    """The boundary condition taking ``value`` on the whole outer boundary."""
    return BoundaryCondition(region, {s: value for s in outer_boundary(region)})


def empty_frame(region: Region) -> BoundaryExterior:
    """An empty frame on the parallel and perpendicular boundary, healthy
    beyond it.  The built-in families read only sites in the frame, so it
    compiles like the empty exterior for them; a rule that reads an east or
    diagonal neighbour can see past it."""
    return BoundaryExterior(uniform_boundary(region, 0))


def sample_bernoulli(region: Region, q: float, rng: np.random.Generator) -> Configuration:
    """Product measure: each site independently empty with probability q."""
    state = sample_occupation(region, q, rng)
    return Configuration(region, (s for s, v in zip(sorted(region.sites), state.tolist()) if v == 0))


def constraint_satisfied(config: Configuration, family: UpdateFamily, x: Site) -> bool:
    """The constraint indicator c_x: some rule, translated to x, is all empty.

    Sites outside the region take values from the configuration's exterior
    policy.
    """
    if x not in config.region.sites:
        raise ValueError(f"site {x} outside region")
    a, b = x
    for rule in family.rules:
        if all(config.value_at((a + dx, b + dy)) == 0 for dx, dy in rule):
            return True
    return False


# --- exact -------------------------------------------------------------------


def capped_search_full_scan(
    family: UpdateFamily, region: Region, max_zeros: int, budget: int,
    stop_at_origin: bool = False,
) -> Tuple[bool, int]:
    """``exact._capped_search`` checking every site's constraint in every
    state, in ascending site order."""
    sites = sorted(region.sites)
    origin_bit = 1 << sites.index((0, 0))
    site_masks = _site_masks(compile_rules(family, sites, ALL_INFECTED))
    seen = {0}
    queue = deque([0])
    origin_empties = False
    while queue:
        state = queue.popleft()
        zeros = bin(state).count("1")
        for i, masks in enumerate(site_masks):
            if not _constraint_bit(masks, state):
                continue
            bit = 1 << i
            if not state & bit and zeros + 1 > max_zeros:
                continue
            nxt = state ^ bit
            if nxt & origin_bit:
                if stop_at_origin:
                    return True, len(seen)
                origin_empties = True
            if nxt in seen:
                continue
            seen.add(nxt)
            queue.append(nxt)
            if len(seen) > budget:
                raise StateSpaceError(f"capped search exceeded its budget of {budget} states")
    return origin_empties, len(seen)


def dirichlet_form(gen: GeneratorOperator, f: np.ndarray) -> Dict[str, float]:
    """D(f) = 1/2 sum_{x != y} mu(x) L(x, y) (f(y) - f(x))^2, read off the
    entries of L (the diagonal's terms vanish), plus the variance and
    Poincare ratio."""
    mu = gen.mu
    if f.shape != mu.shape:
        raise ValueError("f must be defined on every state")
    C = gen.L.tocoo()
    diff = f[C.col] - f[C.row]
    d_val = 0.5 * float(np.sum(mu[C.row] * C.data * diff * diff))
    mean = float(np.dot(mu, f))
    var = float(np.dot(mu, f * f) - mean * mean)
    out = {"dirichlet": d_val, "variance": var, "mean": mean}
    if d_val > 0:
        out["poincare_ratio"] = var / d_val
    return out


def proxy_bound_value(m_phi: float, d_phi: float, T: float) -> float:
    """T |m| (|m| e^{-T D} - sqrt(T D))."""
    a = abs(m_phi)
    return T * a * (a * math.exp(-T * d_phi) - math.sqrt(T * d_phi))


def check_proxy_bound(
    gen: GeneratorOperator,
    phi: np.ndarray,
    t_grid: Optional[Sequence[float]] = None,
    tol: float = 1e-9,
) -> Dict[str, object]:
    """Verify the hitting-time lower bound through a test function.

    phi must vanish on {origin empty}; it is normalized to mu(phi^2) = 1.
    Checks E_mu(tau0) >= bound(T) on the grid and at the distinguished
    T* = mu(phi)^2 / (16 D(phi)).
    """
    if np.any(phi[gen.origin_empty] != 0):
        raise ValueError("phi must vanish on states with the origin empty")
    norm2 = float(np.dot(gen.mu, phi * phi))
    if norm2 <= 0:
        raise ValueError("phi is zero almost surely")
    phi = phi / math.sqrt(norm2)
    df = dirichlet_form(gen, phi)
    m_phi, d_phi = df["mean"], df["dirichlet"]
    if d_phi <= 0:
        raise ValueError("phi has zero Dirichlet form; target unreachable")
    e_mu = mean_hitting(gen)["e_mu_tau0"]

    t_star = m_phi ** 2 / (16.0 * d_phi)
    if t_grid is None:
        t_grid = [t_star * (i + 1) / 10.0 for i in range(20)]
    checks = []
    for T in t_grid:
        b = proxy_bound_value(m_phi, d_phi, T)
        checks.append({"T": T, "bound": b, "holds": e_mu >= b - tol})
    b_star = proxy_bound_value(m_phi, d_phi, t_star)
    star_holds = e_mu >= b_star - tol
    return {
        "e_mu_tau0": e_mu,
        "mu_phi": m_phi,
        "dirichlet": d_phi,
        "t_star": t_star,
        "bound_at_t_star": b_star,
        "figure": m_phi ** 4 / d_phi,
        "holds_at_t_star": star_holds,
        "holds_on_grid": all(c["holds"] for c in checks),
        "grid": checks,
    }


# --- directions --------------------------------------------------------------


def _ccw_leq(anchor: Vec, u: Vec, v: Vec) -> bool:
    """True iff the ccw angle from anchor to u is <= the one to v."""
    cu, cv = _ccw_cat(anchor, u), _ccw_cat(anchor, v)
    if cu != cv:
        return cu < cv
    if cu in (0, 2):
        return True
    return _cross(u, v) >= 0


def is_stable(report: StableDirectionReport, u: Vec) -> bool:
    """Whether direction u lies in the report's closed stable set."""
    if report.full_circle:
        return True
    u = _primitive(u)
    return any(
        u == arc.start if arc.is_point else _ccw_leq(arc.start, u, arc.end)
        for arc in report.arcs
    )


# --- kcm ---------------------------------------------------------------------


def simulate_tau0(params: kcm.SimParams, dyn: Optional[kcm.Dynamics] = None) -> kcm.HittingResult:
    """Time of first emptiness at the origin from a stationary start."""
    return kcm._hitting(params, dyn, kcm.MODE_TAU0, params.trial)


def simulate_persistence(
    params: kcm.SimParams, dyn: Optional[kcm.Dynamics] = None
) -> kcm.HittingResult:
    """Time of the first legal update at the origin from a stationary start."""
    return kcm._hitting(params, dyn, kcm.MODE_PERSISTENCE, params.trial)


def sample_state_at(
    params: kcm.SimParams,
    t_obs: float,
    dyn: Optional[kcm.Dynamics] = None,
    initial_state: Optional[np.ndarray] = None,
) -> np.ndarray:
    """State vector at a fixed time, no stopping rule, on the trial's stream
    ``kcm.derive_rng(seed, trial)``.  ``initial_state``, if given, holds one
    0 or 1 per site of the dynamics; it is copied."""
    if dyn is None:
        dyn = kcm.make_dynamics(params)
    rng = kcm.derive_rng(params.seed, params.trial)
    if initial_state is None:
        state = sample_occupation(dyn.region, params.q, rng)
    else:
        state = np.asarray(initial_state)
        if state.shape != (dyn.n,) or not ((state == 0) | (state == 1)).all():
            raise ValueError(
                f"initial_state must hold {dyn.n} entries, each 0 or 1; "
                f"got shape {state.shape}"
            )
        state = state.astype(np.int8)
    kcm._run(dyn, state, params.q, t_obs, kcm.MODE_RUN, rng)
    return state


# --- droplets ----------------------------------------------------------------


def scales_from_formulas(q: float, eps: float) -> DuarteScales:
    """The asymptotic scale choices; impractical except for tiny 1/q."""
    if not 0.0 < q < 1.0 or not 0.0 < eps < 1.0:
        raise ValueError("q and eps must lie in (0,1)")

    def floor_exactish(x: float) -> int:
        # guard against values like 999999.9999999999 produced by float
        # rounding of an integer-valued formula
        r = round(x)
        if abs(x - r) < 1e-9 * max(1.0, abs(x)):
            return int(r)
        return math.floor(x)

    lg = math.log(1.0 / q)
    ell = floor_exactish(lg / (eps * q))
    exponent = eps * lg * lg / q
    if exponent < 700.0:
        big_n = floor_exactish(math.exp(exponent))
    else:  # beyond float range: evaluate with arbitrary precision
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            big_n = int(decimal.Decimal(exponent).exp().to_integral_value(
                rounding=decimal.ROUND_FLOOR
            ))
    n1 = floor_exactish(eps * lg * lg / (2.0 * q))
    n2 = floor_exactish(q ** -6)
    if big_n > 2 ** 64:
        warnings.warn("N exceeds 2^64; these scales are not materializable")
    if min(ell, big_n, n1, n2) < 1:
        raise ValueError("degenerate scales; use explicit toy values")
    return DuarteScales(q=q, ell=ell, N=big_n, n1=n1, n2=n2)


def window(geometry: ColumnGeometry, i: int, j: int) -> Region:
    """V_{i,j}, the union of columns i..j."""
    if not 1 <= i <= j <= geometry.N:
        raise ValueError("need 1 <= i <= j <= N")
    return Region.column_union(geometry.columns[k] for k in range(i, j + 1))


def block_size(scales: DuarteScales) -> int:
    """Coarse block size m = 4 n1 n2."""
    return 4 * scales.n1 * scales.n2


def block_count(scales: DuarteScales) -> int:
    """Number of coarse blocks (last one possibly padded)."""
    return max(1, math.ceil(scales.N / block_size(scales)))


@dataclass(frozen=True)
class CoarseProfile:
    eta: Tuple[int, ...]
    padded: bool


def eta_project(profile: ArrowProfile, scales: DuarteScales) -> CoarseProfile:
    """Block-wise OR of arrows over consecutive blocks of size m."""
    m = block_size(scales)
    phi = profile.phi
    padded = len(phi) % m != 0
    eta = []
    for start in range(0, len(phi), m):
        block = phi[start : start + m]
        eta.append(1 if UP in block else 0)
    return CoarseProfile(eta=tuple(eta), padded=padded)


def validate_coarse_path(
    sequence: Sequence[Sequence[int]], n1: int
) -> Dict[str, object]:
    """Check the three path properties of a coarse-profile sequence.

    (1) starts all-zero and ends with the last coordinate set; (2) at most
    n1 ones throughout; (3) each step flips exactly one coordinate, and a
    flip at i > 1 requires the left neighbour to be 1 beforehand.
    """
    seq = [tuple(int(v) for v in s) for s in sequence]
    violations: List[str] = []
    if not seq:
        return {"passed": False, "violations": ["empty sequence"]}
    M = len(seq[0])
    if any(len(s) != M for s in seq):
        violations.append("profiles have inconsistent length")
    if any(seq[0]):
        violations.append("property 1: initial profile not all-zero")
    if seq[-1][-1] != 1:
        violations.append("property 1: final profile does not set the last block")
    for t, s in enumerate(seq):
        if sum(s) > n1:
            violations.append(f"property 2: step {t} carries {sum(s)} > {n1} ones")
    for t in range(1, len(seq)):
        prev, cur = seq[t - 1], seq[t]
        flips = [i for i in range(M) if prev[i] != cur[i]]
        if len(flips) != 1:
            violations.append(f"property 3: step {t} flips {len(flips)} coordinates")
            continue
        i = flips[0]
        if i > 0 and prev[i - 1] != 1:
            violations.append(
                f"property 3: step {t} flips coordinate {i + 1} without a set left neighbour"
            )
    return {"passed": not violations, "violations": violations}


def check_droplet_disjointness(profile: ArrowProfile) -> bool:
    """The droplets' column ranges [xi, k] are pairwise disjoint."""
    spans = sorted((r.xi, r.k) for r in profile.droplets.values())
    return all(k < xi for (_, k), (xi, _) in zip(spans, spans[1:]))


def check_restriction_identity(
    history: Sequence[Sequence[int]], droplets: Dict[int, DropletRecord]
) -> bool:
    """Off the union of droplets, every recorded state equals the initial one:
    after column `step`, each column outside the droplets with k <= step
    still has its initial mask.  ``history`` holds the column masks before
    the pass and after each column, as ``reference_pass`` records them."""
    if not history:
        raise ValueError("empty history")
    first = history[0]
    for step, masks in enumerate(history[1:], start=1):
        spans = [(r.xi, r.k) for r in droplets.values() if r.k <= step]
        for c, (m0, m) in enumerate(zip(first, masks), start=1):
            if m != m0 and not any(xi <= c <= k for xi, k in spans):
                return False
    return True


def column_caps(geometry: ColumnGeometry, i: int) -> Set[Site]:
    """The two cap sites of column i, just above and below it."""
    x, h = geometry.column_x(i), geometry.height(i)
    return {(x, h), (x, -h)}


def encode(geometry: ColumnGeometry, empties, tau) -> List[int]:
    """(empties, tau) as the pass's column masks, written out site by site:
    bit y + h_c of entry c - 1 is set when (x_c, y) is empty, or is a cap
    whose tau is 0."""
    masks = []
    for c in range(1, geometry.N + 1):
        x, h = geometry.column_x(c), geometry.height(c)
        masks.append(sum(1 << (y + h) for y in range(-h, h + 1)
                         if (x, y) in empties or tau.get((x, y), 1) == 0))
    return masks


def window_closure(geometry: ColumnGeometry, i: int, j: int, empties, tau) -> FrozenSet[Site]:
    """closure_region on V_{i,j}, boundary read from tau (healthy when absent)."""
    v = window(geometry, i, j)
    bc = BoundaryCondition(v, {s: tau.get(s, 1) for s in outer_boundary(v)})
    return closure_region(DUARTE, v, bc, empties & v.sites).closed


def reference_pass(geometry: ColumnGeometry, empties: FrozenSet[Site], ell: int):
    """The droplet pass with every cut tested by closure_region and a
    linear scan over the cuts.  Returns phi, the droplets, and the history:
    the (empties, tau) state before the pass and after each column, encoded
    as column masks."""
    g = geometry
    tau = dict(g.initial_tau().assignment)
    phi, drops = [], {}
    history = [tuple(encode(g, empties, tau))]
    for k in range(1, g.N + 1):
        x, h = g.column_x(k), g.height(k)

        def holds(xi):
            closed = window_closure(g, xi, k, empties, tau)
            best = run = 0
            for y in range(-h, h + 1):
                filled = (x, y) in closed or tau.get((x, y), 1) == 0
                run = run + 1 if filled else 0
                best = max(best, run)
            return best >= ell

        cuts = [xi for xi in range(1, k + 1) if holds(xi)]
        if cuts:
            xi = max(cuts)
            for i in range(xi, k + 1):
                empties = empties - g.columns[i]
                tau.update({c: 1 for c in column_caps(g, i)})
            drops[k] = DropletRecord(k=k, xi=xi, range=k - xi)
        phi.append(UP if cuts else DOWN)
        history.append(tuple(encode(g, empties, tau)))
    return tuple(phi), drops, tuple(history)


def reference_b2(geometry: ColumnGeometry, empties: FrozenSet[Site], phi: Sequence[str], n: int):
    """The crossing event B2 as a scan over every window (i, j) with
    j - i >= n - 1 and all arrows down on [i, j], in the order i, then j:
    each closed by closure_region on V_{i,j} under the initial split
    boundary and searched by ``duarte_path_exists``.  Returns the first
    (i, j, path) witness or None, and the list of windows searched."""
    g = geometry
    tau = g.initial_tau().assignment
    searched = []
    for i in range(1, g.N + 1):
        if phi[i - 1] == UP:
            continue
        for j in range(i + 1, g.N + 1):
            if phi[j - 1] == UP:
                break
            if j - i < n - 1:
                continue
            searched.append((i, j))
            path = duarte_path_exists(window_closure(g, i, j, empties, tau),
                                      g.column_x(i), g.column_x(j))
            if path is not None:
                return (i, j, path), searched
    return None, searched


def estimate_uparrow_density(
    scales: DuarteScales,
    trials: int,
    seed: int,
    geometry: Optional[ColumnGeometry] = None,
) -> Dict[str, float]:
    """Monte Carlo estimate of mu(some arrow points up) with a Wilson CI."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    geometry = geometry or ColumnGeometry(scales.N)
    hits = 0
    for trial in range(trials):
        state = sample_occupation(geometry.region, scales.q, derive_rng(seed, trial))
        profile = run_droplet_algorithm(column_masks(geometry, state), geometry, scales.ell)
        if profile.n_up > 0:
            hits += 1
    p_hat = hits / trials
    z = 1.959963984540054  # 95% normal quantile
    denom = 1 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials)) / denom
    return {
        "p_hat": p_hat,
        "ci_low": max(0.0, center - half),
        "ci_high": min(1.0, center + half),
        "trials": trials,
        "hits": hits,
    }
