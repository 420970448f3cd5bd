"""E_mu(tau0) of an East chain in arbitrary precision, apart from kcm-lab.

    python3 bench/mpmath_reference.py

The chain has a frozen empty wall left of site 0 and the tracked origin at
its right end, as ``harness.exact_report`` sets it up.  The script prints
the value for East length 8 at q = 0.03, the exact-spectra case that
``exact.mean_hitting`` rejects today, to 40 digits.
"""

import mpmath


def east_e_tau0(length: int, q, digits: int):
    """Solve -L u = 1 on {origin occupied} and return sum mu(w) u(w)."""
    mpmath.mp.dps = digits
    q = mpmath.mpf(q)
    p = 1 - q
    origin = 1 << (length - 1)
    states = [s for s in range(1 << length) if not s & origin]
    index = {s: k for k, s in enumerate(states)}
    M = mpmath.zeros(len(states), len(states))
    for s in states:
        for i in range(length):
            bit = 1 << i
            if i > 0 and not s & (bit >> 1):
                continue  # site i may flip only when site i - 1 is empty
            rate = p if s & bit else q
            M[index[s], index[s]] += rate
            t = s ^ bit
            if t in index:
                M[index[s], index[t]] -= rate
    u = mpmath.lu_solve(M, mpmath.ones(len(states), 1))
    mu = [q ** bin(s).count("1") * p ** (length - bin(s).count("1")) for s in states]
    return mpmath.fsum(m * u[k] for k, m in enumerate(mu))


def main():
    print(mpmath.nstr(east_e_tau0(8, "0.03", 40), 40))


if __name__ == "__main__":
    main()
