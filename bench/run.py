"""Run one benchmark workload in this process and print its result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kcm-lab checkout: the program is imported from
``src/`` and never from an installed copy.  The workload's inputs are
built from the seed, then whole rounds of the same work repeat until S
seconds have passed; every round's outputs are checked.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it records the
environment.  See README.md.
"""

import os
import sys
import time

_T0 = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


_AGE0 = _process_age()

import argparse  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOAD_NAMES = ("east-kcm-sweep", "duarte-bootstrap", "exact-spectra", "duarte-droplet-monitor")


def _since_start() -> float:
    return _AGE0 + time.perf_counter() - _T0


def _import_program():
    """kcmlab from this checkout's src/, or None."""
    if not os.path.isfile(os.path.join(SRC, "kcmlab", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import kcmlab

    if os.path.dirname(os.path.dirname(os.path.realpath(kcmlab.__file__))) != os.path.realpath(SRC):
        return None
    return kcmlab


def _environment(kcmlab):
    import numpy
    import scipy
    from kcmlab import kcm

    loop = getattr(kcm, "_event_loop", None)
    if loop is None:
        backend = "unknown"
    elif inspect.isfunction(loop):
        backend = "python"
    else:
        backend = f"compiled ({type(loop).__name__})"
    return {
        "kcm_backend": backend,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kcmlab": kcmlab.__version__,
    }


def measure(workload, seconds: float, traced: bool):
    """Whole rounds until ``seconds`` have passed.  With tracing, plain and
    traced rounds alternate, starting plain, so the traced run can report
    its own overhead."""
    problems = []
    attempted = failed = 0
    if hasattr(workload, "capture_round"):
        a, f, found = workload.capture_round()
        attempted, failed, problems = attempted + a, failed + f, problems + found
    tracer = spans.Tracer()
    plain, with_trace = [], []
    start = time.perf_counter()
    out = None
    while True:
        use_trace = traced and len(plain) > len(with_trace)
        op_times = []

        def op(fn, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                op_times.append(time.perf_counter() - t0)

        if use_trace:
            with tracer:
                workload.trace(tracer)
                a, f, out = workload.run_round(op)
        else:
            a, f, out = workload.run_round(op)
        (with_trace if use_trace else plain).append(op_times)
        attempted, failed = attempted + a, failed + f
        problems += workload.check_round(out)
        if time.perf_counter() - start >= seconds and (with_trace or not traced):
            break
    problems += workload.check_final(out)
    return problems, attempted, failed, plain, with_trace, tracer


def round_time(rounds):
    """Wall time of one round: the sum over its operations of each
    operation's median time over the rounds."""
    return sum(statistics.median(times) for times in zip(*rounds))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    kcmlab = _import_program()
    if kcmlab is None:
        print(f"kcm-lab sources not found under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    import workloads

    tmp = tempfile.mkdtemp(prefix=".run-", dir=HERE)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
        setup_s = _since_start()
        problems, attempted, failed, plain, with_trace, tracer = measure(
            workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    run_s = round_time(plain)
    if args.trace:
        metrics = spans.layer_values(tracer, len(with_trace))
        metrics["trace.run_s"] = round_time(with_trace)
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - run_s
        units = spans.PER_LAYER
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_mb}
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    env = _environment(kcmlab)
    env.update(workload=args.workload, seed=args.seed,
               plain_round_s=[sum(r) for r in plain], traced_round_s=[sum(r) for r in with_trace])
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
