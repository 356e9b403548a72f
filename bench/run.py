"""toricpot benchmark launcher.

    python3 bench/run.py --workload scan-rows --seed 1 --seconds 15 --trace 0

Runs one workload (see ``workloads.py``) from the repository's ``src``
in fresh worker processes with BLAS and OpenMP pinned to one thread and
a fixed ``PYTHONHASHSEED``.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run.  Human
readable lines come first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits
non-zero, without that line, when ``src/toricpot`` is missing or a
worker fails.

Seeds: tune with any seed; ``HELD_OUT_SEED`` is kept out of tuning and
is the seed a performance claim must also hold on.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("scan-rows", "lift-verify", "newton-cases", "exact-generalized")
HELD_OUT_SEED = 2008
SETUP_PROBES = 4      # fresh processes that only set up; the run adds one
DEADLINE_S = 170      # the whole run ends well inside 180 s
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
          "VECLIB_MAXIMUM_THREADS": "1", "PYTHONHASHSEED": "0"}
END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


def run_worker(args, started, setup_only=False) -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--max-ops", str(args.max_ops)]
    if setup_only:
        cmd.append("--setup-only")
    left = DEADLINE_S - (time.monotonic() - started)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=max(left, 1))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_identity() -> dict:
    """Git SHA when the checkout is a repository, and a digest of src."""
    sha = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.samefile(lines[0], ROOT):
            sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=0,
                    help="cut each op pool to this size (self-test only)")
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "toricpot", "__init__.py")):
        print(f"toricpot sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        probes = ([] if args.trace else
                  [run_worker(args, started, setup_only=True)
                   for _ in range(SETUP_PROBES)])
        run = run_worker(args, started)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    env = dict(run["env"], **source_identity(), seed=args.seed,
               held_out_seed=HELD_OUT_SEED)
    print(f"toricpot bench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    if args.trace:
        metrics = run["metrics"]
        for name, m in metrics.items():
            print(f"  {name:44s} {m['value']:14.4f} {m['unit']}")
        print(f"  spans recorded: {run['spans']}")
    else:
        probes.append(run)
        values = dict(run["metrics"], setup_s=statistics.median(
            p["setup_calibrated_s"] for p in probes))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        wall = dict(run["raw"], setup_s=statistics.median(
            p["setup_s"] for p in probes))
        for name, m in metrics.items():
            note = f"   wall-clock {wall[name]:.4f}" if name in wall else ""
            print(f"  {name:12s} {m['value']:12.4f} {m['unit']:4s}{note}")
        print(f"  error_rate   {run['failed'] / run['attempted']:12.4f} ratio"
              f"   ({run['failed']} failed of {run['attempted']} attempted)")
        print(f"  percentiles over {run['samples']} ops (each the median of "
              f"{run['passes']} pass(es)), {run['beyond_p90']} beyond p90; "
              f"setup is the median of {len(probes)} fresh processes")
        print(f"  digest sha256:{run['digest']} over {run['digest_ops']} "
              f"op results (floats to 6 decimals), written to "
              f"bench/out/{args.workload}-seed{args.seed}.results.json")
    for failure in run["failures"]:
        print(f"  FAILED {json.dumps(failure, default=str)[:600]}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": run["failed"] == 0,
                      "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
