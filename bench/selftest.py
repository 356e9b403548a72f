"""Self-test of the benchmark itself (not of toricpot).

    python3 bench/selftest.py

Checks, on tiny op pools, that every workload prints every metric named
in BENCHMARK.json with its unit; that deliberately corrupted results
are counted as failed ops; that a seed fixes the inputs; and that the
launcher refuses to run, without printing a result, when only
BENCHMARK.json and the benchmark directory are present.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import toricpot as tp  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = 3


def launch(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_printed_metrics(spec):
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = launch(["--workload", name, "--seed", "1", "--seconds",
                           "1", "--trace", str(trace), "--max-ops",
                           str(TINY)])
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, lines
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], (name, trace)
            text = "\n".join(lines[:-1])
            missing = [m for m in got if m not in text]
            assert not missing, (name, trace, missing)
            if trace == 0:
                assert "error_rate" in text
            print(f"ok  {name} trace={trace}: {len(got)} metrics printed")


def _corrupt_scan(reports):
    r = reports[0]
    r.threshold_bound = (Fraction(1) if r.threshold_bound is tp.INF
                         else r.threshold_bound + Fraction(1, 80))
    return reports


def _corrupt_lift(out):
    bulk, y, cert = out
    return bulk, [y[0] * 1.001] + list(y[1:]), cert   # perturbed witness


def _corrupt_cases(reports):
    reports[0].solutions[0].d_bar += 1e-3
    return reports


def _corrupt_solve(result):
    result.solutions = result.solutions[:-1]
    return result


def _corrupt_potential(F):
    return tp.PotentialFunction(F.n, [(c.scale(2), e) for c, e in F.terms])


CORRUPTIONS = {
    "scan-rows": {"scan": _corrupt_scan},
    "lift-verify": {"lift_bulk": _corrupt_lift},
    "newton-cases": {"case_analysis_two_point": _corrupt_cases},
    "exact-generalized": {
        "solve": _corrupt_solve,
        "euler_check": lambda out: (False, Fraction(1)),
        "leading_potential": _corrupt_potential},
}


def check_corruption_counted():
    for name, patches in CORRUPTIONS.items():
        wl = WORKLOADS[name](7)
        wl.ops = wl.ops[:TINY]
        if name == "exact-generalized":   # one op of each kind
            wl.ops = [next(op for op in WORKLOADS[name](7).ops
                           if op[0] == kind)
                      for kind in ("solve", "euler", "pairing")]
        _, _, failures = worker.run_ops(wl, wl.ops)
        assert not failures, (name, failures)
        saved = {attr: getattr(tp, attr) for attr in patches}
        try:
            for attr, corrupt in patches.items():
                original = saved[attr]
                setattr(tp, attr, lambda *a, _f=original, _c=corrupt, **k:
                        _c(_f(*a, **k)))
            latencies, _, failures = worker.run_ops(wl, wl.ops)
        finally:
            for attr, original in saved.items():
                setattr(tp, attr, original)
        assert len(failures) == len(latencies) == len(wl.ops), (name,
                                                                failures)
        print(f"ok  {name}: {len(failures)}/{len(latencies)} corrupted "
              "results counted as failed")


def check_seeded_inputs():
    for name, cls in WORKLOADS.items():
        a, b, c = cls(3), cls(3), cls(4)
        assert repr(a.ops) == repr(b.ops), name
        assert repr(a.ops) != repr(c.ops), name
        assert len(a.ops) >= 100, (name, len(a.ops))
    print("ok  same seed gives the same inputs; pools hold >= 100 ops")


def check_refuses_without_sources(spec):
    scratch = os.path.join(HERE, "out", "selftest-stripped")
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(scratch, path),
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        proc = launch(["--workload", "scan-rows", "--seed", "1",
                       "--seconds", "1", "--trace", "0"], cwd=scratch)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("ok  without src/ the launcher exits non-zero and prints no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_seeded_inputs()
    check_corruption_counted()
    check_refuses_without_sources(spec)
    check_printed_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
