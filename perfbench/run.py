"""Benchmark of the liouville package on the checkout it sits in.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: spectra, fit, inversion, cli_cold (see BENCHMARK.json for why
each exists).  Each run starts fresh worker processes one after another and
never two at once: ``SETUP_SAMPLES - 1`` workers that only set up (none in a
traced run), then one that sets up and runs the ops in a closed loop with
one client.  With
``--trace 0`` the last line of standard output holds the end-to-end metrics;
with ``--trace 1`` each op of a fixed list runs once untraced and once
traced, and the last line holds the per-layer metrics.  The line before it
holds the run's facts and details.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spectra", "fit", "inversion", "cli_cold")
SETUP_SAMPLES = 3
RUN_TIMEOUT = 170.0
# One BLAS thread per worker; the machine's core count is the ceiling.
BLAS_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)
TAIL_BEYOND = 10


def tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Nearest-rank percentiles down to p75; below that the median is
    reported.  With a few dozen samples a tail cannot be told apart from
    noise, and the maximum of a dozen ops moves with every stall of the
    machine.  The candidates are spaced widely so that the op counts a
    workload reaches on a fast and a slow machine pick the same one.
    """
    xs = sorted(samples)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * len(xs))
        if len(xs) - rank >= TAIL_BEYOND:
            return xs[rank - 1], f"p{p:g}", len(xs) - rank
    return statistics.median(xs), "p50", len(xs) // 2


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def start_worker(args, env, setup_only: bool):
    """Start one worker and wait for it to finish set-up; returns (proc, seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def finish_worker(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker exceeded the run time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def end_to_end(raw, setups) -> dict:
    """The end-to-end metrics, timings in reference seconds; wall values go to details.

    A time t measured while the calibration kernel took c seconds counts
    t * calibrate.REFERENCE / c reference seconds.
    """
    durations = raw["durations"]
    ref = [d * calibrate.REFERENCE / c for d, c in zip(durations, raw["local_calib"])]
    ok = len(durations) - len(raw["errors"])
    tail_wall, tail_label, beyond = tail(durations)
    wall = {
        "setup_s": statistics.median(s for s, _ in setups),
        "ops_per_s": ok / sum(durations),
        "op_p50_s": statistics.median(durations),
        "op_tail_s": tail_wall,
    }
    metrics = {
        "setup_s": (statistics.median(s * calibrate.REFERENCE / c for s, c in setups), "s"),
        "ops_per_ref_s": (ok / sum(ref), "1/s"),
        "op_p50_ref_s": (statistics.median(ref), "s"),
        "op_tail_ref_s": (tail(ref)[0], "s"),
        "ok_share": (ok / len(durations), "ratio"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }
    details = {"tail_percentile": tail_label, "tail_samples_beyond": beyond,
               "samples": len(durations), "wall": wall,
               "setup_samples": [s for s, _ in setups],
               "kernel_s": statistics.median(raw["local_calib"])}
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "liouville" / "__init__.py").is_file():
        print(f"error: no liouville package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    env = dict(os.environ, **BLAS_ENV)
    env.pop("PYTHONPATH", None)
    deadline = time.perf_counter() + RUN_TIMEOUT
    setups = []
    try:
        workers = 1 if args.trace else SETUP_SAMPLES  # traced runs report no set-up
        for k in range(workers):
            proc, setup = start_worker(args, env, setup_only=k < workers - 1)
            raw = json.loads(finish_worker(proc, deadline - time.perf_counter())
                             .strip().splitlines()[-1])
            # A worker calls the calibration kernel right after set-up.
            setups.append((setup, statistics.median(raw["calib"])))
    except (RuntimeError, ValueError) as exc:  # ValueError: a worker printed no result
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / ".perfbench_work", ignore_errors=True)

    facts = dict(raw["facts"], commit=commit(), workload=args.workload,
                 seed=args.seed, seconds=args.seconds, trace=args.trace,
                 nproc=os.cpu_count(), blas_threads=int(BLAS_ENV["OPENBLAS_NUM_THREADS"]))
    correct = not any(e["wrong"] for e in raw["errors"])
    if args.trace:
        import layers

        metrics = {name: (value, layers.UNITS[name])
                   for name, value in raw["metrics"].items()}
        correct = correct and raw["selftest_ok"]
        details = {key: raw[key] for key in ("absent_wrappers", "absent_metrics",
                                             "selftest_ok", "spans")}
        details["ops"] = len(raw["durations"])
    else:
        metrics, details = end_to_end(raw, setups)
    details["errors"] = raw["errors"][:20]
    print(json.dumps({"facts": facts, "details": details}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(raw["durations"]),
        "failed": len(raw["errors"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
