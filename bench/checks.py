"""Correctness checks and reference computations for the benchmark.

Every check returns a list of problems (empty when the check holds), so a
run can report all of them at once.  The reference computations here are
written apart from ``kcmlab``: they take plain numbers and arrays, never the
program's objects, so a check cannot pass merely because the program agrees
with itself.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

Site = Tuple[int, int]


# ---------------------------------------------------------------------------
# East chain: a dense generator of our own.


def east_chain_generator(length: int, q: float) -> Tuple[np.ndarray, np.ndarray]:
    """Dense generator and product measure of the East chain with a frozen
    empty wall left of site 0 and the tracked origin at site ``length - 1``.

    Bit i of a state is set when site i is empty.  Site i may flip when
    site i - 1 is empty; site 0 always may, because of the wall.
    """
    size = 1 << length
    states = np.arange(size)
    L = np.zeros((size, size))
    for i in range(length):
        bit = 1 << i
        legal = np.ones(size, dtype=bool) if i == 0 else (states & (bit >> 1)) != 0
        src = states[legal]
        rate = np.where(src & bit, 1.0 - q, q)
        L[src, src ^ bit] = rate
    L[states, states] = -L.sum(axis=1)
    empties = np.array([bin(s).count("1") for s in range(size)])
    mu = q ** empties * (1.0 - q) ** (length - empties)
    return L, mu


def east_chain_reference(length: int, q: float) -> Dict[str, float]:
    """Spectral gap and E_mu(tau0) of the East chain by dense linear algebra."""
    L, mu = east_chain_generator(length, q)
    d = np.sqrt(mu)
    S = -(d[:, None] * L) / d[None, :]
    evals = np.linalg.eigvalsh(0.5 * (S + S.T))
    origin_bit = 1 << (length - 1)
    keep = np.array([s for s in range(1 << length) if not s & origin_bit])
    u = np.linalg.solve(-L[np.ix_(keep, keep)], np.ones(len(keep)))
    return {"gap": float(evals[1]), "e_mu_tau0": float(mu[keep] @ u)}


# ---------------------------------------------------------------------------
# east-kcm-sweep


def check_kcm_rows(rows: Sequence[Dict[str, float]], t_max: float) -> List[str]:
    """Per row: 0 <= legal <= events; tau0 = 0 exactly when events = 0;
    censored exactly when tau0 = t_max."""
    problems = []
    for r in rows:
        tag = f"q={r['q']} trial={r['trial']}"
        if not 0 <= r["legal_updates"] <= r["events"]:
            problems.append(f"{tag}: legal {r['legal_updates']} outside [0, {r['events']}]")
        if (r["tau0"] == 0) != (r["events"] == 0):
            problems.append(f"{tag}: tau0={r['tau0']} with {r['events']} events")
        if bool(r["censored"]) != (r["tau0"] == t_max):
            problems.append(f"{tag}: censored={r['censored']} with tau0={r['tau0']}")
    return problems


def check_stationary_start(zero_count: int, trials: int, q: float, z: float = 5.0) -> List[str]:
    """Under a stationary start the origin is empty with probability q, so
    the number of trials with tau0 = 0 is Binomial(trials, q)."""
    sd = math.sqrt(trials * q * (1.0 - q))
    if abs(zero_count - trials * q) > z * sd:
        return [f"q={q}: {zero_count}/{trials} trials start empty, expected {trials * q:.1f} +- {z * sd:.1f}"]
    return []


def check_median(reported: float, times: Sequence[float], label: str) -> List[str]:
    """The reported median lies between the two middle order statistics of
    the recomputed times (censored trials count as +inf)."""
    s = sorted(times)
    lo, hi = s[(len(s) - 1) // 2], s[len(s) // 2]
    if not lo <= reported <= hi:
        return [f"{label}: manifest median {reported} outside [{lo}, {hi}] of the CSV rows"]
    return []


def check_mc_mean(samples: Sequence[float], exact: float, z: float = 4.0) -> List[str]:
    """A Monte Carlo mean lies within z standard errors of the exact value."""
    x = np.asarray(samples, dtype=float)
    se = float(np.std(x, ddof=1) / math.sqrt(len(x)))
    if not abs(float(x.mean()) - exact) <= z * se:
        return [f"Monte Carlo mean {x.mean():.6g} +- {se:.3g} is not within {z} SE of {exact:.10g}"]
    return []


# ---------------------------------------------------------------------------
# duarte-bootstrap


def duarte_grid_time(empty: np.ndarray, origin: Tuple[int, int], max_steps: int) -> Optional[int]:
    """Synchronous Duarte bootstrap on a boolean grid, written apart from
    the program: a site becomes infected when at least two of its north,
    south and west neighbours are infected; beyond the grid all is healthy.
    Axis 0 is x and axis 1 is y.  Returns the step at which the origin is
    infected, or None at a fixed point or after ``max_steps`` steps."""
    a = empty.copy()
    if a[origin]:
        return 0
    for step in range(1, max_steps + 1):
        p = np.pad(a, 1).astype(np.int8)
        count = p[1:-1, 2:] + p[1:-1, :-2] + p[:-2, 1:-1]
        b = a | (count >= 2)
        if b[origin]:
            return step
        if np.array_equal(a, b):
            return None
        a = b
    return None


def check_monotone_in_q(times_by_q: Sequence[Tuple[float, Optional[int]]], label: str) -> List[str]:
    """On coupled fields the infection time never decreases as q decreases;
    None (not infected) counts as +inf."""
    problems = []
    ordered = sorted(times_by_q, key=lambda qt: -qt[0])
    for (q_hi, t_hi), (q_lo, t_lo) in zip(ordered, ordered[1:]):
        a = math.inf if t_hi is None else t_hi
        b = math.inf if t_lo is None else t_lo
        if b < a:
            problems.append(f"{label}: infected at step {t_lo} for q={q_lo} but {t_hi} for q={q_hi}")
    return problems


# ---------------------------------------------------------------------------
# exact-spectra


def check_hitting_vs_relaxation(q: float, gap: float, e_mu_tau0: float, label: str) -> List[str]:
    """q E_mu(tau0) <= T_rel = 1 / gap."""
    if not (gap > 0 and q * e_mu_tau0 <= (1.0 / gap) * (1.0 + 1e-9)):
        return [f"{label}: q*E_mu(tau0) = {q * e_mu_tau0:.10g} exceeds T_rel = {1.0 / gap:.10g}"]
    return []


def check_monotone_in_length(by_length: Sequence[Tuple[int, float, float]], q: float) -> List[str]:
    """For East chains at fixed q the gap decreases and E_mu(tau0)
    increases with the chain length.  Items are (length, gap, e_mu_tau0)."""
    problems = []
    ordered = sorted(by_length)
    for (l1, g1, e1), (l2, g2, e2) in zip(ordered, ordered[1:]):
        if not g2 < g1:
            problems.append(f"q={q}: gap {g2} at length {l2} not below {g1} at length {l1}")
        if not e2 > e1:
            problems.append(f"q={q}: E_mu(tau0) {e2} at length {l2} not above {e1} at length {l1}")
    return problems


def check_relative(value: float, reference: float, rel: float, label: str) -> List[str]:
    if not abs(value - reference) <= rel * abs(reference):
        return [f"{label}: {value!r} differs from the reference {reference!r} by more than {rel:g} relative"]
    return []


# ---------------------------------------------------------------------------
# duarte-droplet-monitor


def duarte_columns(N: int) -> Dict[int, frozenset]:
    """Columns C_i = {(i - N, y) : |y| < N^2 - (i - 1) N}, i = 1..N."""
    cols = {}
    for i in range(1, N + 1):
        h = N * N - (i - 1) * N
        cols[i] = frozenset((i - N, y) for y in range(-h + 1, h))
    return cols


def check_empty_fraction(empties: int, observations: int, sites: int, trajectories: int,
                         q: float, z: float = 5.0) -> List[str]:
    """Empty share over all observed states is within z sigma of q.

    The product measure is invariant and trajectories are independent, and
    a time average of one trajectory varies no more than a single
    snapshot, so sigma <= sqrt(q (1 - q) / (sites * trajectories)).
    """
    frac = empties / (observations * sites)
    sigma = math.sqrt(q * (1.0 - q) / (sites * trajectories))
    if abs(frac - q) > z * sigma:
        return [f"empty fraction {frac:.5f} over {observations} states is not within {z} sigma ({sigma:.5f}) of q={q}"]
    return []


def check_arrow_profile(phi: Sequence[str], droplets: Dict[int, Tuple[int, int]]) -> List[str]:
    """Droplet ranges [xi, k] are pairwise disjoint with 1 <= xi <= k, and
    phi_k = U exactly for the recorded droplets.  ``droplets`` maps k to
    (xi, range)."""
    problems = []
    ups = {k for k, a in enumerate(phi, start=1) if a == "U"}
    if ups != set(droplets):
        problems.append(f"up arrows at {sorted(ups)} but droplets at {sorted(droplets)}")
    spans = []
    for k, (xi, rng) in sorted(droplets.items()):
        if not 1 <= xi <= k:
            problems.append(f"droplet {k}: xi={xi} outside [1, {k}]")
        if rng != k - xi:
            problems.append(f"droplet {k}: range {rng} != k - xi = {k - xi}")
        spans.append((xi, k))
    for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
        if a2 <= b1:
            problems.append(f"droplets [{a1},{b1}] and [{a2},{b2}] overlap")
    return problems


def check_b2_witness(i: int, j: int, path: Sequence[Site], phi: Sequence[str],
                     columns: Dict[int, frozenset], n2: int) -> List[str]:
    """A B2 witness uses only steps +e1 and +-e2, runs from column i to
    column j inside V_{i,j}, and lies over down arrows only."""
    problems = []
    N = len(columns)
    if not 1 <= i < j <= N or j - i < n2 - 1:
        return [f"witness window ({i}, {j}) invalid for N={N}, n2={n2}"]
    if any(phi[k - 1] != "D" for k in range(i, j + 1)):
        problems.append(f"witness ({i}, {j}) crosses an up arrow")
    window = frozenset().union(*(columns[k] for k in range(i, j + 1)))
    if not path:
        return problems + [f"witness ({i}, {j}) has an empty path"]
    if path[0][0] != i - N or path[-1][0] != j - N:
        problems.append(f"witness ({i}, {j}) runs from x={path[0][0]} to x={path[-1][0]}")
    if any(tuple(s) not in window for s in path):
        problems.append(f"witness ({i}, {j}) leaves V_{{{i},{j}}}")
    for a, b in zip(path, path[1:]):
        if (b[0] - a[0], b[1] - a[1]) not in ((1, 0), (0, 1), (0, -1)):
            problems.append(f"witness ({i}, {j}) takes step {a} -> {b}")
            break
    return problems
