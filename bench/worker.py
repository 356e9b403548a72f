"""One benchmark process: set up a workload, run it, print one JSON line.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread and
``src`` on ``PYTHONPATH``.  Set-up time runs from the first line of
this file, before ``toricpot`` is imported, to the first timed op.
"""

import time
from fractions import Fraction


def python_work():
    acc = Fraction(0)
    seen = {}
    for i in range(1, 300):
        acc += Fraction(i, i + 1)
        seen[(i, i % 7)] = acc


def kernel_seconds(*works) -> float:
    """Time a fixed piece of work, which measures the host's speed now.

    The speed of one core drifts by tens of percent over seconds, so
    timings are scaled by a kernel run next to them (see ``run_ops``).
    """
    t = time.perf_counter()
    for work in works:
        work()
    return time.perf_counter() - t


PRE_KERNEL = [kernel_seconds(python_work) for _ in range(5)]
T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

REF_KERNEL_S = 1e-3   # calibrated times: a host where a kernel takes 1 ms
TRACE_OPS = 100       # the traced run covers this prefix of the op order
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

_M = np.array([[1.0 / (i + j + 1) for j in range(6)] for i in range(6)])


def numpy_work():
    a = np.ones(64, dtype=complex)
    for _ in range(30):
        a = np.convolve(a, a[:8])[:64] * 0.1
    for _ in range(10):
        np.roots([1, 0.5, 0, 2, 1])
        np.linalg.lstsq(_M, _M[0], rcond=None)


def calibrate() -> float:
    """Kernel seconds for the Fraction, dict and small numpy work ops do."""
    return kernel_seconds(python_work, numpy_work)


def run_ops(wl, ops, records=None, tracer=None):
    """Closed loop over ``ops``.

    Returns (latencies, calibrated latencies, failure records); a
    calibrated latency is the latency scaled to a host on which the
    calibration kernel takes ``REF_KERNEL_S``.
    """
    latencies = []
    calibrate()   # the first call pays for numpy's lazy set-up
    kernel = [calibrate()]
    failures = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = i
        t = time.perf_counter()
        try:
            out = wl.call(op)
        except Exception as exc:  # a raising op is a failed op
            latencies.append(time.perf_counter() - t)
            ok, record = False, {"op": repr(op)[:400], "error": repr(exc)}
        else:
            latencies.append(time.perf_counter() - t)
            try:
                ok, record = wl.check(op, out)
            except Exception as exc:  # a result the check cannot read
                ok, record = False, {"op": repr(op)[:400],
                                     "error": repr(exc)}
        kernel.append(calibrate())
        if not ok:
            failures.append(record)
        if records is not None:
            records.append(record)
    # kernel[i] ran just before op i and kernel[i + 1] just after it
    calibrated = [
        x * REF_KERNEL_S / statistics.median(kernel[max(0, i - 1):i + 2])
        for i, x in enumerate(latencies)]
    return latencies, calibrated, failures


def timing_metrics(passes) -> dict:
    """Throughput over every op; percentiles over each op's median.

    ``passes`` holds one latency list per pass over the same ops.  Taking
    each op's median over the passes first keeps noise from reordering
    ops near a percentile.
    """
    per_op = [statistics.median(x) for x in zip(*passes)]
    cuts = statistics.quantiles(per_op, n=10, method="inclusive")
    return {"ops_per_s": sum(map(len, passes)) / sum(map(sum, passes)),
            "op_p50_ms": statistics.median(per_op) * 1e3,
            "op_p90_ms": cuts[8] * 1e3}


def environment() -> dict:
    import toricpot
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"toricpot": os.path.relpath(toricpot.__file__),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--max-ops", type=int, default=0)
    args = ap.parse_args(argv)

    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed)
    if args.max_ops:
        wl.ops = wl.ops[:args.max_ops]
    setup_s = time.perf_counter() - T0
    # numpy is not loaded before T0, so set-up is scaled by the Fraction
    # kernel alone, run on both sides of it
    kernel = PRE_KERNEL + [kernel_seconds(python_work) for _ in range(5)]
    result = {"setup_s": setup_s, "setup_calibrated_s":
              setup_s * REF_KERNEL_S / statistics.median(kernel)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    result["env"] = environment()
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    if args.trace:
        from spans import METRICS, Tracer
        ops = wl.ops[:TRACE_OPS]
        _, plain, failures = run_ops(wl, ops)
        tracer = Tracer()
        with tracer:
            raw, traced, more = run_ops(wl, ops, tracer=tracer)
        failures += more
        attempted = 2 * len(ops)
        metrics = {name: {"value": value, "unit": METRICS[name][0]}
                   for name, value in tracer.metrics(
                       len(ops), sum(raw), sum(plain) / sum(traced)).items()}
        np.savez_compressed(stem + ".trace.npz", **tracer.arrays())
        result["spans"] = len(tracer.name)
    else:
        # whole passes over the pool, as many as come closest to --seconds
        records = []
        raw, calibrated, failures = run_ops(wl, wl.ops, records)
        raw, calibrated = [raw], [calibrated]
        for _ in range(max(1, round(args.seconds / sum(raw[0]))) - 1):
            more_raw, more_cal, more_fail = run_ops(wl, wl.ops)
            raw.append(more_raw)
            calibrated.append(more_cal)
            failures += more_fail
        attempted = sum(map(len, raw))
        metrics = timing_metrics(calibrated)
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        canonical = json.dumps(records, sort_keys=True,
                               separators=(",", ":"))
        with open(stem + ".results.json", "w") as fh:
            fh.write(canonical)
        result.update(
            raw=timing_metrics(raw),
            digest=hashlib.sha256(canonical.encode()).hexdigest(),
            digest_ops=len(records), passes=len(raw), samples=len(records),
            beyond_p90=sum(statistics.median(x) * 1e3 > metrics["op_p90_ms"]
                           for x in zip(*calibrated)))
    result.update(metrics=metrics, attempted=attempted,
                  failed=len(failures), failures=failures[:5])
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
