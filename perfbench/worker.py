"""One benchmark worker process: set up, run ops one at a time, check them.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Run from ``run.py``, one worker at a time.  The worker prints ``ready`` as
soon as set-up ends (interpreter start, ``import liouville``, the first
input, one warm-up call), then a single JSON line with its raw measurements.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import calibrate  # noqa: E402

WORKDIR = ROOT / ".perfbench_work"
WALL_CAP_FACTOR = 2.0   # stop starting ops after this many times --seconds
WALL_CAP_SLACK = 30.0   # ... plus this many seconds of untimed work
CALIBRATE_EVERY = 0.5   # seconds of op time between kernel calls in the loop


def _import_checked():
    import liouville

    if SRC.resolve() not in Path(liouville.__file__).resolve().parents:
        raise SystemExit(f"imported liouville from {liouville.__file__}, "
                         f"not from this checkout's {SRC}")
    return liouville


def _run_one(wl, inp):
    """Time one op; returns (seconds, output or exception, error text or None)."""
    t0 = time.perf_counter()
    try:
        out, err = wl.run(inp), None
    except Exception as exc:  # the op boundary: every failure is counted
        out, err = exc, f"{type(exc).__name__}: {exc}"[:300]
    return time.perf_counter() - t0, out, err


def _failure(wl, i, inp, out, err) -> dict | None:
    """The op's failure, if any: it raised, a command exited non-zero, or the
    output missed its reference check (``wrong``)."""
    if err is not None:
        return {"op": i, "error": err, "wrong": False}
    ratio = wl.check(inp, out)
    if not ratio <= 1.0:
        return {"op": i, "error": f"reference check missed: error is {ratio:.3g} x "
                                  "tolerance", "wrong": True}
    return None


def timed_run(wl, first, seconds: float, calib: list) -> dict:
    """Timed ops; each op also gets the kernel time measured around it.

    The kernel runs between batches of ops of about CALIBRATE_EVERY seconds.
    An op's local kernel time is the mean of the calls just before and just
    after its batch.
    """
    durations, local, errors, batch = [], [], [], []
    wall0 = time.perf_counter()
    cap = WALL_CAP_FACTOR * seconds + WALL_CAP_SLACK
    before = calib[-1]

    def close_batch():
        nonlocal before
        after = calibrate.sample()
        for j in batch:
            local[j] = 0.5 * (before + after)
        before = after
        batch.clear()

    i = 0
    # Whole cycles keep the mix of op kinds the same in every run.
    while ((sum(durations) < seconds or i % wl.cycle)
           and time.perf_counter() - wall0 < cap):
        inp = first if i == 0 else wl.make_input(i)
        if sum(durations[j] for j in batch) >= CALIBRATE_EVERY:
            close_batch()
        dt, out, err = _run_one(wl, inp)
        durations.append(dt)
        local.append(None)
        batch.append(i)
        failure = _failure(wl, i, inp, out, err)
        if failure is not None:
            errors.append(failure)
        i += 1
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_cold" else resource.RUSAGE_SELF
    peak = resource.getrusage(who).ru_maxrss
    close_batch()
    return {"durations": durations, "local_calib": local, "errors": errors,
            "peak_rss_kb": peak}


def traced_run(wl, first) -> dict:
    import layers
    import selftest
    import tracer

    selftest_ok = selftest.check(wl.L)
    inputs = [first] + [wl.make_input(i) for i in range(1, wl.traced_ops)]
    tr = tracer.Tracer()
    untraced, results, children = [], [], []

    def run_traced(i, inp):
        if wl.name == "cli_cold":
            wl.launcher = HERE / "cli_launcher.py"
        else:
            tr.install(tracer.LIBRARY_POINTS)
        try:
            results.append(tr.run_op(i, _run_one, wl, inp))
        finally:
            tr.uninstall()
        if wl.launcher is not None:
            wl.launcher = None
            for k in range(len(inp)):
                path = wl.spans_file(k)
                if path.exists():  # a command that failed early writes none
                    children.append((i, json.loads(path.read_text())))

    # Each op runs once untraced and once traced, alternating which goes
    # first, so that both sides of the overhead see the same machine.
    for i, inp in enumerate(inputs):
        if i % 2:
            run_traced(i, inp)
        untraced.append(_run_one(wl, inp)[0])
        if not i % 2:
            run_traced(i, inp)

    cli_facts = {"import_s": 0.0, "command_s": 0.0}
    absent = set(tr.absent)
    for op, child in children:
        offset = len(tr.spans)
        for s in child["spans"]:
            s[3] = None if s[3] is None else s[3] + offset
            s[4] = op
            tr.spans.append(s)
        cli_facts["import_s"] += child["import_s"]
        cli_facts["command_s"] += child["command_s"]
        absent.update(child["absent"])

    errors = [f for i, (inp, (dt, out, err)) in enumerate(zip(inputs, results))
              if (f := _failure(wl, i, inp, out, err)) is not None]
    metrics = layers.layer_metrics(tr.spans, cli_facts, wl.ref_rel_err)
    traced = [dt for dt, out, err in results]
    metrics["trace.ops_per_s_untraced"] = len(untraced) / sum(untraced)
    metrics["trace.ops_per_s_traced"] = len(traced) / sum(traced)
    metrics["trace.overhead"] = sum(traced) / sum(untraced) - 1.0
    return {"durations": traced, "errors": errors, "metrics": metrics,
            "absent_wrappers": sorted(absent),
            "absent_metrics": layers.absent_metrics(metrics, absent),
            "selftest_ok": selftest_ok, "spans": len(tr.spans)}


def facts() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main(argv) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    L = _import_checked()
    import workloads

    WORKDIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[name](L, seed, WORKDIR)
    first = wl.make_input(0)
    wl.warm_up()
    print("ready", flush=True)
    calib = [calibrate.sample() for _ in range(calibrate.SAMPLES)]
    if "--setup-only" in argv:
        result = {}
    elif trace:
        result = traced_run(wl, first)
    else:
        result = timed_run(wl, first, seconds, calib)
    result["calib"] = calib
    result["facts"] = facts()
    print(json.dumps(result, allow_nan=False, default=float), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
