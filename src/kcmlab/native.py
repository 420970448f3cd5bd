"""The compiled library: one C source, two functions, one build and cache.

``_C_SOURCE`` holds the KCM event loop ``kcm_event_loop`` (``kcm``) and
the bootstrap kernel ``bootstrap_close`` (``bootstrap``).  It is built on
first import with the system ``gcc -O2 -shared -fPIC ... -lnpyrandom
-lm``, linked against numpy's ``random/lib/libnpyrandom.a`` for the event
loop's draws, into ``$XDG_CACHE_HOME/kcmlab`` (else ``~/.cache/kcmlab``)
under one name keyed by the sha256 of the source and numpy's version.  The
library is written to a temporary file and moved into place, so concurrent
processes are safe, and later imports only load it.  If the compiler or
numpy's library is missing, the build fails or the cache is not writable,
one line on stderr says why, ``LIB`` is None, ``backend()`` is
``"python"``, and both callers run their Python loops, which are also the
tests' oracles: ``kcm._event_loop_lists`` and the numpy stepping of
``bootstrap._steps``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
from typing import Optional, Sequence

import numpy as np

_C_SOURCE = r"""
#include <stdbool.h>
#include <stdint.h>

/* numpy/random/bitgen.h, and two functions of numpy's distributions.h,
   which cannot be included because it includes Python.h. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;
double random_standard_exponential(bitgen_t *bitgen_state);
uint64_t random_bounded_uint64(bitgen_t *bitgen_state, uint64_t off, uint64_t rng,
                               uint64_t mask, bool use_masked);

/* Whether some rule of site i reads only empty sites. */
static int legal_at(const int8_t *state, const int64_t *site_ptr, const int64_t *rule_ptr,
                    const int64_t *neighbors, int64_t i)
{
    int64_t r, j;
    for (r = site_ptr[i]; r < site_ptr[i + 1]; r++) {
        for (j = rule_ptr[r]; j < rule_ptr[r + 1] && !state[neighbors[j]]; j++)
            ;
        if (j == rule_ptr[r + 1])
            return 1;
    }
    return 0;
}

/* _event_loop_lists on the flat tables of Dynamics, drawing from g, with
   the legal set in slots[0..m) and pos: clock holds t on entry and the
   stop time on return, events receives the ring count, and 1 is returned
   if the origin stopped the run.  Mode 0 is MODE_TAU0 and 1
   MODE_PERSISTENCE. */
int kcm_event_loop(int8_t *state, const int64_t *site_ptr, const int64_t *rule_ptr,
                   const int64_t *neighbors, const int64_t *dep_ptr,
                   const int64_t *dependents, int64_t *slots, int64_t *pos, int64_t n,
                   int64_t origin, double q, double t_max, int mode, bitgen_t *g,
                   double *clock, int64_t *events)
{
    double t = *clock;
    int64_t m = 0, rings = 0, i, k;
    int hit = 0;
    for (i = 0; i < n; i++) {
        pos[i] = -1;
        if (legal_at(state, site_ptr, rule_ptr, neighbors, i)) {
            pos[i] = m;
            slots[m++] = i;
        }
    }
    while (m > 0) {
        double dt = random_standard_exponential(g) * (1.0 / m);
        int8_t v;
        if (t + dt > t_max)
            break;
        t += dt;
        rings++;
        i = slots[random_bounded_uint64(g, 0, m - 1, 0, 0)];
        v = g->next_double(g->state) >= q;
        if (v != state[i]) {
            state[i] = v;
            for (k = dep_ptr[i]; k < dep_ptr[i + 1]; k++) {
                int64_t d = dependents[k], at = pos[d];
                if (legal_at(state, site_ptr, rule_ptr, neighbors, d)) {
                    if (at < 0) {
                        pos[d] = m;
                        slots[m++] = d;
                    }
                } else if (at >= 0) {
                    int64_t last = slots[--m];
                    slots[at] = last;
                    pos[last] = at;
                    pos[d] = -1;
                }
            }
        }
        if (i == origin && (mode == 1 || (mode == 0 && !v))) {
            hit = 1;
            break;
        }
    }
    *clock = hit ? t : t_max;
    *events = rings;
    return hit;
}

/* Synchronous bootstrap steps on a flat grid of n cells: cell c is
   infected when grid[c] is 1, healthy when 0, and healthy for good when 2
   (a frame at least as wide as the rules' reach, and cells that may not
   become infected).  A healthy cell c becomes infected when for some rule
   r every cell c + offsets[k], rule_ptr[r] <= k < rule_ptr[r + 1], is
   infected; readers[0..n_readers) are the distinct negated offsets, so
   that c + readers[k] runs over the cells that read c.  A cell infected at
   one step reads a cell infected at the step before, so each step checks
   only the readers of the last step's new cells, front[head..end) (the
   first step, of every infected cell).  It marks the cells it will infect
   4, which reads as healthy and is not checked twice, and appends them to
   front; then it infects them all.  So each cell enters front once, and
   front must hold every cell that can end infected.  Steps until one
   infects nothing, max_steps steps (max_steps < 0: no limit) or the
   target cell (target < 0: none) is infected after a step; returns the
   steps made, each of which infected a cell. */
int64_t bootstrap_close(uint8_t *grid, int64_t n, const int64_t *rule_ptr,
                        const int64_t *offsets, int64_t n_rules, const int64_t *readers,
                        int64_t n_readers, int64_t target, int64_t max_steps, int64_t *front)
{
    int64_t head = 0, end = 0, tail = 0, steps = 0, c, i, k, r, j;
    for (c = 0; c < n; c++)
        if (grid[c] == 1)
            front[tail++] = c;
    while (max_steps < 0 || steps < max_steps) {
        head = end;
        end = tail;
        for (i = head; i < end; i++)
            for (k = 0; k < n_readers; k++) {
                c = front[i] + readers[k];
                if (grid[c])
                    continue;
                for (r = 0; r < n_rules; r++) {
                    for (j = rule_ptr[r]; j < rule_ptr[r + 1] && (grid[c + offsets[j]] & 1); j++)
                        ;
                    if (j == rule_ptr[r + 1]) {
                        grid[c] = 4;
                        front[tail++] = c;
                        break;
                    }
                }
            }
        if (tail == end)
            break;
        for (i = end; i < tail; i++)
            grid[front[i]] = 1;
        steps++;
        if (target >= 0 && grid[target] == 1)
            break;
    }
    return steps;
}
"""


def _library_name(numpy_version: str) -> str:
    """File name of the library: numpy's random code is linked into it, so
    the key covers numpy's version as well as the source."""
    digest = hashlib.sha256((_C_SOURCE + numpy_version).encode()).hexdigest()[:16]
    return f"kcmlab-{digest}.so"


def _build(compiler: Sequence[str], cache_dir: str, lib: str, npyrandom_dir: str) -> None:
    """Compile ``_C_SOURCE`` against ``npyrandom_dir/libnpyrandom.a`` into a
    temporary file in ``cache_dir``, then move it to ``lib``; raises
    ``OSError`` naming the step that failed."""
    archive = os.path.join(npyrandom_dir, "libnpyrandom.a")
    if not os.path.isfile(archive):
        raise OSError(f"numpy's random library {archive} is missing")
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".so.tmp")
    except OSError as exc:
        raise OSError(f"cache directory {cache_dir} is not writable: {exc}") from exc
    os.close(fd)
    try:
        # no fused multiply-add, so that t + dt * (1/n) rounds as in Python
        cmd = [*compiler, "-O2", "-ffp-contract=off", "-shared", "-fPIC", "-x", "c", "-",
               "-o", tmp, f"-L{npyrandom_dir}", "-lnpyrandom", "-lm"]
        try:
            built = subprocess.run(cmd, input=_C_SOURCE, capture_output=True, text=True)
        except OSError as exc:
            raise OSError(f"cannot run compiler {compiler[0]!r}: {exc}") from exc
        if built.returncode != 0:
            detail = (built.stderr.strip().splitlines() or ["no output"])[0]
            raise OSError(f"{compiler[0]} exited with status {built.returncode}: {detail}")
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _load(
    compiler: Sequence[str] = ("gcc",),
    cache_dir: Optional[str] = None,
    npyrandom_dir: Optional[str] = None,
) -> Optional[ctypes.CDLL]:
    """The one library, with ``kcm_event_loop`` and ``bootstrap_close``
    typed, from ``cache_dir`` (default ``$XDG_CACHE_HOME/kcmlab``, else
    ``~/.cache/kcmlab``) under the one name that ``_library_name`` keys on
    the source and numpy's version; built there first against
    ``npyrandom_dir`` (default numpy's ``random/lib``) unless it exists.  On
    any failure, one line on stderr and None."""
    if cache_dir is None:
        base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
        cache_dir = os.path.join(base, "kcmlab")
    if npyrandom_dir is None:
        npyrandom_dir = os.path.join(os.path.dirname(np.__file__), "random", "lib")
    path = os.path.join(cache_dir, _library_name(np.__version__))
    try:
        if not os.path.exists(path):
            _build(compiler, cache_dir, path, npyrandom_dir)
        lib = ctypes.CDLL(path)
    except OSError as exc:
        print(f"kcmlab: compiled library unavailable, using the Python loops: {exc}",
              file=sys.stderr)
        return None
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.kcm_event_loop.argtypes = [ptr] * 8 + [i64, i64, ctypes.c_double, ctypes.c_double,
                                               ctypes.c_int, ptr, ctypes.POINTER(ctypes.c_double),
                                               ctypes.POINTER(i64)]
    lib.kcm_event_loop.restype = ctypes.c_int
    lib.bootstrap_close.argtypes = [ptr, i64, ptr, ptr, i64, ptr, i64, i64, i64, ptr]
    lib.bootstrap_close.restype = i64
    return lib


def backend() -> str:
    """``"c"`` when the compiled library loaded, ``"python"`` otherwise."""
    return "python" if LIB is None else "c"


LIB = _load()
