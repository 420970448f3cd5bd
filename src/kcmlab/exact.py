"""Exact finite-state computations for small constrained chains.

A ``GeneratorOperator`` (sites, L, mu, q) is the only description of a
chain.  States are bitmasks over the region's sorted sites, a set bit meaning
the site is empty.  The generator L is a sparse matrix assembled with numpy
bit operations, one pass per site.  Detailed balance makes
S = D^{1/2} (-L) D^{-1/2}, D = diag(mu), symmetric, and both solvers work on
sparse S; no dense matrix is built.

- The spectral gap is found after splitting S by symmetric involutions
  that commute with it, one routine (``_halves``) cutting each into its
  +1 and -1 eigenspaces: first one per sink site, a site whose state no
  other site's legality reads, then a reflection of the chain, when it
  has one (see ``spectral_gap``).  Each -1 block gives its lowest
  eigenvalue and the last +1 block its second, by shift-invert Lanczos
  (ARPACK) with a SuperLU factorization in symmetric mode.  East chains
  split at every site, so their largest block has half their states.
  Duarte boxes have no sink, but their empty exterior and rules are
  symmetric under the reflection about the middle row, so the largest
  block again has about half their states.
- Mean hitting times solve the symmetrized system on {origin occupied} with
  the same kind of factorization, checked by a relative backward error.
- One undirected component labelling, ``_components``, serves the gap and
  the hitting solve.

Both costs are those of the sparse factor, whose fill grows faster than the
state count.  For East chains of 2^13 and 2^14 states at q = 0.3, gap plus
hitting time take about 0.4 s and 1.8 s on one x86-64 core, with a peak
process memory of about 0.08 and 0.15 GB.  On the 2^12 states of a Duarte
3 x 4 box the gap takes about 0.15 s there: its odd and even blocks of
2016 and 2080 states factor with about 0.3 M nonzeros each, where the
whole component took 1.4 M and about 0.45 s.

- Energy barriers and capped-vacancy reachability share one breadth-first
  search, ``_capped_search``, over the states with at most k empties
  reachable by legal flips from all-occupied, the exterior all infected.
  ``east_barrier`` runs it on an East chain for k = 1, 2, ...;
  ``an_reachability`` runs it once on the square Lambda(n, kappa).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .families import UpdateFamily, builtin_family, compile_dependents, compile_rules
from .geometry import ALL_HEALTHY, ALL_INFECTED, Region, Site

GENERATOR_CAP = 1 << 14
BFS_CAP = 1 << 20
# Shift of the gap's shift-invert solve, as a fraction of the largest exit
# rate: far enough from 0 for S - sigma I to factor stably, and below every
# gap that float64 resolves to better than about 1e-6 relative.
_SHIFT = -1e-10
_EAST1 = builtin_family("east1d")


class StateSpaceError(ValueError):
    pass


class ReducibleChainError(ValueError):
    pass


class UnreachableStatesError(ValueError):
    def __init__(self, message: str, states: List[int]):
        super().__init__(message)
        self.states = states


def _site_masks(site_rules: Sequence[Tuple[Tuple[int, ...], ...]]) -> List[List[int]]:
    """``compile_rules``' output as bitmasks (bit i is sites[i]): one
    required-empty mask per live rule.  A zero mask means the rule always
    fires."""
    return [[sum(1 << j for j in set(rule)) for rule in rules] for rules in site_rules]


def _constraint_bit(masks: List[int], state: int) -> bool:
    for m in masks:
        if state & m == m:
            return True
    return False


@dataclass
class GeneratorOperator:
    """The chain on {0,1}^sites.  A state integer is its own index into L
    and mu; bit i is sites[i], a set bit meaning empty."""

    sites: Tuple[Site, ...]
    L: sp.csr_matrix
    mu: np.ndarray
    q: float

    @property
    def origin_empty(self) -> np.ndarray:
        """Mask over the states of the target set A = {origin empty}."""
        bit = 1 << self.sites.index((0, 0))
        return (np.arange(len(self.mu)) & bit) != 0


def build_generator(
    family: UpdateFamily,
    region: Region,
    q: float,
    exterior=ALL_HEALTHY,
) -> GeneratorOperator:
    """Sparse rate operator: state -> state^x at rate c_x * (q to empty,
    1 - q to occupied); diagonal balances each row exactly."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0,1), got {q}")
    n = len(region.sites)
    if 2 ** n > GENERATOR_CAP:
        raise StateSpaceError(f"state space 2^{n} exceeds cap {GENERATOR_CAP}")
    if (0, 0) not in region.sites:
        raise ValueError("origin must lie in the region")
    sites = tuple(sorted(region.sites))
    size = 1 << n
    p = 1.0 - q

    states = np.arange(size, dtype=np.int64)
    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    vals: List[np.ndarray] = []
    total = np.zeros(size)
    for i, masks in enumerate(_site_masks(compile_rules(family, sites, exterior))):
        bit = 1 << i
        legal = np.flatnonzero(np.any([(states & m) == m for m in masks], axis=0))
        rate = np.where(legal & bit, p, q)
        rows.append(legal)
        cols.append(legal ^ bit)
        vals.append(rate)
        # summed site by site, so each diagonal entry rounds the same way
        # as a per-state sum over the sites in order
        total[legal] += rate
    busy = np.flatnonzero(total)
    rows.append(busy)
    cols.append(busy)
    vals.append(-total[busy])
    L = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )

    counts = sum((states >> i) & 1 for i in range(n))
    mu = (p ** (n - counts)) * (q ** counts)
    return GeneratorOperator(sites=sites, L=L, mu=mu, q=q)


def _components(L: sp.spmatrix) -> np.ndarray:
    """Labels of the connected components of the transition graph of L.

    A site's constraint never reads the site itself (``UpdateFamily.create``
    rejects the origin as a rule site) and 0 < q < 1, so every legal flip
    can be undone: the pattern of L is symmetric, and its strong components
    are its undirected components.  The diagonal's self-loops change
    neither."""
    return csgraph.connected_components(L, directed=False)[1]


def ergodic_component(gen: GeneratorOperator) -> np.ndarray:
    """States in the component of the all-occupied state."""
    labels = _components(gen.L)
    return np.flatnonzero(labels == labels[0])


def _symmetrized(L_block: sp.spmatrix, mu_block: np.ndarray) -> Tuple[sp.csc_matrix, np.ndarray]:
    """S = D^{1/2} (-L) D^{-1/2}, D = diag(mu), on a block of states, and
    the diagonal of D^{1/2}.  Detailed balance makes S symmetric; the
    rounding is symmetrized away."""
    d = np.sqrt(mu_block)
    S = sp.diags(d) @ (-L_block) @ sp.diags(1.0 / d)
    return (0.5 * (S + S.T)).tocsc(), d


def _spd_factor(A: sp.spmatrix) -> spla.SuperLU:
    """SuperLU in symmetric mode for a symmetric positive definite matrix:
    a minimum-degree ordering of A + A^T and pivots kept on the diagonal."""
    return spla.splu(
        sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def _flip_table(L: sp.spmatrix, n: int) -> np.ndarray:
    """legal[s, j]: site j may flip in state s, read off L as
    L[s, s ^ (1 << j)] != 0."""
    C = L.tocoo()
    off = (C.row != C.col) & (C.data != 0)
    rows = C.row[off]
    legal = np.zeros((L.shape[0], n), dtype=bool)
    # each flip differs from its row in one bit, a power of two 2^j
    legal[rows, np.frexp(rows ^ C.col[off])[1] - 1] = True
    return legal


def _peel_order(legal: np.ndarray) -> List[int]:
    """Sinks in the order they are peeled.  A sink is a site whose state no
    other remaining site's legality reads; each turn peels the highest such
    site.  Peeling a site can only remove readers, so a sink stays one,
    and the order ends when no remaining site is a sink."""
    size, n = legal.shape
    states = np.arange(size)
    # reads[i, j]: the legality of site j depends on the state of site i
    reads = np.array([(legal != legal[states ^ (1 << i)]).any(axis=0) for i in range(n)])
    left = list(range(n))
    order: List[int] = []
    while True:
        sinks = [i for i in left if not reads[i, left].any()]
        if not sinks:
            return order
        order.append(sinks[-1])
        left.remove(sinks[-1])


def _permute_states(states: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Each state with bit j moved to bit perm[j]."""
    out = np.zeros_like(states)
    for j, pj in enumerate(perm.tolist()):
        out |= ((states >> j) & 1) << pj
    return out


def _reflection(sites: Sequence[Site], legal: np.ndarray) -> np.ndarray:
    """A reflection of the chain, as the permutation perm of site indices
    (site j goes to site perm[j]), or the identity when there is none.

    The candidates are the involutions of the sites' bounding box that move
    some site: x -> x0 + x1 - x, y -> y0 + y1 - y, the half-turn, and on a
    square box the two diagonal reflections.  The first that maps the
    sites to themselves and the flip table to itself,
    legal[pi(s), pi(j)] == legal[s, j], is kept.  Rates read only legality
    and q, and mu is a product of one measure per site, so that is exactly
    the invariance of L under pi."""
    n = len(sites)
    index = {s: i for i, s in enumerate(sites)}
    xs, ys = zip(*sites)
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    maps = [
        lambda x, y: (x0 + x1 - x, y),
        lambda x, y: (x, y0 + y1 - y),
        lambda x, y: (x0 + x1 - x, y0 + y1 - y),
    ]
    if x1 - x0 == y1 - y0:
        maps += [
            lambda x, y: (x0 + y - y0, y0 + x - x0),
            lambda x, y: (x0 + y1 - y, y0 + x1 - x),
        ]
    identity = np.arange(n)
    states = np.arange(legal.shape[0])
    for f in maps:
        images = [index.get(f(*s)) for s in sites]
        if None in images:
            continue
        perm = np.array(images)
        if not np.array_equal(perm, identity) and np.array_equal(
            legal[_permute_states(states, perm)][:, perm], legal
        ):
            return perm
    return identity


def _eigenpair(A: sp.spmatrix, k: int, sigma: float) -> Tuple[float, np.ndarray]:
    """The k-th smallest eigenvalue of a symmetric positive semidefinite A
    and its eigenvector: shift-invert Lanczos (ARPACK) about sigma, with
    A - sigma I positive definite so that its sparse factorization needs no
    pivoting.  Matrices of at most two states, too small for ARPACK, take a
    dense eigh."""
    m = A.shape[0]
    if m <= 2:
        evals, evecs = np.linalg.eigh(A.toarray())
    else:
        lu = _spd_factor(A - sigma * sp.identity(m) if sigma else A)
        evals, evecs = spla.eigsh(
            A, k=k, sigma=sigma, which="LM",
            OPinv=spla.LinearOperator((m, m), matvec=lu.solve, dtype=float),
            v0=np.random.default_rng(0).random(m),
        )
    j = np.argsort(evals)[k - 1]
    return float(evals[j]), evecs[:, j]


def _halves(partner: np.ndarray, a: float) -> Tuple[np.ndarray, sp.csc_matrix, sp.csc_matrix]:
    """Orthonormal bases U+ and U- of the +1 and -1 eigenspaces of the
    symmetric involution whose orbits are {s, t = partner[s]}, s <= t: on
    an orbit of two states a e_s + b e_t goes in U+ and b e_s - a e_t in
    U-, b = sqrt(1 - a^2); a fixed state's e_s goes in U+ only.  Returns
    the states s, which index the columns of U+, then U+ and U-."""
    m = len(partner)
    lower = np.flatnonzero(np.arange(m) <= partner)
    fixed = partner[lower] == lower
    a = np.where(fixed, 1.0, a)
    # 1 - a^2 without the cancellation of rounding a^2 when a is near 1
    b = np.sqrt((1.0 - a) * (1.0 + a))

    def basis(rows: np.ndarray, first: np.ndarray, second: np.ndarray) -> sp.csc_matrix:
        # one column per orbit, first at its state s and second at partner[s]
        return sp.csc_matrix(
            (np.concatenate([first, second]),
             (np.concatenate([rows, partner[rows]]), np.tile(np.arange(len(rows)), 2))),
            shape=(m, len(rows)),
        )

    return lower, basis(lower, a, b), basis(lower[~fixed], b[~fixed], -a[~fixed])


def spectral_gap(gen: GeneratorOperator) -> Dict[str, float]:
    """Smallest nonzero eigenvalue of -L on the ergodic component C of the
    all-occupied state, with a residual cross-check.

    Let R be a symmetric involution that commutes with S and pairs each
    state s with a state t = partner[s] (t = s when R fixes e_s), as in
    ``_halves``.  Then R = U+ U+^T - U- U-^T, and S is block diagonal in
    [U+ U-]: its spectrum is that of U+^T S U+ together with that of
    U-^T S U-.  Two kinds of R are split off, each + block being the next
    level's S:

    - a sink i, a site whose state no other site's legality reads, gives
      R = D^{1/2} (2 Pi_i - 1) D^{-1/2}, Pi_i the mu_i-average over eta_i,
      which commutes with L because no rate reads eta_i: s <-> s ^ (1 << i)
      with a = sqrt(1 - q) on the occupied state;
    - the reflection pi of ``_reflection``, which maps sinks to sinks and
      so the last level to itself, gives s <-> pi(s) with a = 1/sqrt 2.

    Sinks go highest first (``_peel_order``), then the reflection; a sink's
    + block is S of the chain without it, in which the later sinks are still
    sinks.  The kernel of S on C is spanned by sqrt(mu), which every R fixes,
    so each - block is positive definite and one shift-invert about 0 gives
    its lowest eigenvalue, and the last + block gives its second by
    shift-invert about sigma < 0.  The gap is the smallest of these
    candidates; its eigenvector, lifted through the stored U+ in reverse and
    divided by D^{1/2}, is checked against the full L.
    """
    comp = ergodic_component(gen)
    m = len(comp)
    if m < 2:
        raise ReducibleChainError("all-occupied state is isolated; no dynamics to relax")
    Lc = gen.L[comp][:, comp]
    mu_c = gen.mu[comp]
    S, d = _symmetrized(Lc, mu_c / mu_c.sum())
    legal = _flip_table(gen.L, len(gen.sites))
    perm = _reflection(gen.sites, legal)
    # a sink's occupied state, its bit clear, is the lower of its orbit
    moves = [(np.sqrt(1.0 - gen.q), lambda s, bit=1 << i: s ^ bit) for i in _peel_order(legal)]
    moves.append((np.sqrt(0.5), lambda s: _permute_states(s, perm)))
    # the level's states as masks over all sites, the split-off sinks' bits clear
    states = comp
    ups: List[sp.csc_matrix] = []
    # (eigenvalue, eigenvector of the level's S, level)
    candidates = []
    for a, move in moves:
        image = move(states)
        partner = np.searchsorted(states, image).clip(max=len(states) - 1)
        partner = np.where(states[partner] == image, partner, np.arange(len(states)))
        lower, plus, minus = _halves(partner, a)
        if minus.shape[1]:
            lam, h = _eigenpair(minus.T @ S @ minus, 1, 0.0)
            candidates.append((lam, minus @ h, len(ups)))
        ups.append(plus)
        states, S = states[lower], plus.T @ S @ plus
    if len(states) >= 2:
        lam, h = _eigenpair(S, 2, _SHIFT * float(S.diagonal().max()))
        candidates.append((lam, h, len(ups)))
    lam, v, level = min(candidates, key=lambda t: t[0])
    for U in reversed(ups[:level]):
        v = U @ v
    v = v / d
    residual = float(np.max(np.abs(Lc @ v + lam * v)) / max(1.0, np.max(np.abs(v))))
    if residual > 1e-8:
        raise ArithmeticError(f"eigen residual {residual} exceeds tolerance")
    return {
        "gap": lam,
        "t_rel": 1.0 / lam,
        "residual": residual,
        "component_size": int(m),
    }


def mean_hitting(gen: GeneratorOperator) -> Dict[str, object]:
    """Solve (-L restricted to A^c) u = 1; E_mu(tau0) = sum mu(w) u(w).

    A state reaches A iff its component meets A.  The system is solved in
    its symmetrized, positive definite form; the reported residual is the
    relative backward error ||M u - 1||_inf / (||M||_inf ||u||_inf + 1) of
    M = -L on A^c.
    """
    target = gen.origin_empty
    ac_idx = np.flatnonzero(~target)
    labels = _components(gen.L)
    stuck = ac_idx[~np.isin(labels[ac_idx], labels[target])]
    if len(stuck):
        raise UnreachableStatesError(
            f"{len(stuck)} states cannot reach the target", stuck.tolist()
        )

    L_ac = gen.L[ac_idx][:, ac_idx]
    S, d = _symmetrized(L_ac, gen.mu[ac_idx])
    M = -L_ac
    u = _spd_factor(S).solve(d) / d
    m_norm = float(np.max(abs(M).sum(axis=1)))
    residual = float(
        np.max(np.abs(M @ u - 1.0)) / (m_norm * np.max(np.abs(u)) + 1.0)
    )
    if residual > 1e-10:
        raise ArithmeticError(f"hitting solve relative residual {residual} > 1e-10")
    return {"e_mu_tau0": float(np.dot(gen.mu[ac_idx], u)), "residual": residual}


def _capped_search(
    family: UpdateFamily, region: Region, max_zeros: int, budget: int,
    stop_at_origin: bool = False,
) -> Tuple[bool, int]:
    """Breadth-first search over legal flips from the all-occupied state of
    ``region``, with an all-infected exterior and at most ``max_zeros``
    simultaneous empties.  Returns whether the origin ever empties and how
    many states were reached; with ``stop_at_origin`` the search ends when
    the origin first empties, and the count is of the states seen so far.

    Only two kinds of site can be legal in a state: a site with a rule that
    always fires (a zero mask), and a dependent of one of the state's
    empties, since every other rule needs an empty among the sites it
    reads.  Those candidates are checked in ascending index order, the
    order of a scan over all sites, so the search visits the same states in
    the same order as that scan."""
    sites = sorted(region.sites)
    origin_bit = 1 << sites.index((0, 0))
    rules = compile_rules(family, sites, ALL_INFECTED)
    site_masks = _site_masks(rules)
    deps = compile_dependents(rules)
    always = [i for i, masks in enumerate(site_masks) if 0 in masks]
    seen = {0}
    queue = deque([0])
    origin_empties = False
    while queue:
        state = queue.popleft()
        zeros = bin(state).count("1")
        candidates = set(always)
        empties = state
        while empties:
            low = empties & -empties
            candidates.update(deps[low.bit_length() - 1])
            empties ^= low
        for i in sorted(candidates):
            if not _constraint_bit(site_masks[i], state):
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


def east_barrier(ell: int) -> int:
    """Minimal number of simultaneous empties needed to empty site ell of an
    East chain with a frozen empty at site 0, found by capped search.

    Sites 1..ell are ``Region.corner(ell, 1)``, whose origin is site ell.
    The only exterior site that an East rule reads there is the wall west of
    site 1, so the all-infected exterior of ``_capped_search`` is exactly
    the frozen empty at site 0.  Each cap tried is one search, which stops
    once site ell empties: at the cap that succeeds, the full capped state
    space can be far larger (beyond ``BFS_CAP`` at ell = 40, cap 6).  Cap
    ell needs no search: it binds nothing, and emptying sites 1, ..., ell
    in turn empties site ell.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    region = Region.corner(ell, 1)
    for cap in range(1, ell):
        if _capped_search(_EAST1, region, cap, BFS_CAP, stop_at_origin=True)[0]:
            return cap
    return ell


def lambda_region(n: int, kappa: int) -> Region:
    """Square of side kappa*n*2^n + 1 centered at the origin."""
    side = kappa * n * (1 << n) + 1
    half = (side - 1) // 2
    return Region.box(half)


def an_reachability(family: UpdateFamily, n: int, kappa: int = 1) -> Dict[str, object]:
    """Capped search on ``lambda_region(n, kappa)`` with at most n - 1
    simultaneous empties; reports whether the origin ever empties."""
    if n < 1:
        raise ValueError("n must be >= 1")
    region = lambda_region(n, kappa)
    origin_infectable, reached = _capped_search(family, region, n - 1, BFS_CAP)
    return {
        "origin_infectable": origin_infectable,
        "reachable_states": reached,
        "region_size": len(region),
        "max_zeros": n - 1,
    }
