"""Benchmark of latticecode's three pipelines, end to end and per layer.

    python3 bench/run.py --workload {capacity,codec,sample} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Each repetition of a workload runs in a
fresh interpreter (bench/rep.py), so module caches start empty as they do
for a CLI user; repetitions continue until --seconds have passed, with a
floor of MIN_REPS.  Every operation's output is checked after its
repetition ends, outside the timed region and outside --seconds.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the sum and
the geometric mean over the calls of each call's median seconds, scaled
to a reference machine speed (see rep.SpeedProbe), and the medians of
the raw set-up time and of the peak RSS.
--trace 1 alternates untraced repetitions with TRACED_REPS traced ones
(bench/tracer.py wraps the package's public functions) and reports the
per-layer metrics, the tracing overhead (traced minus untraced wall
time), and each call's scaled untraced figure under its own name; a call
the workload does not run reads 0.

The last line of standard output is the result object; the line before it
records the run environment and the per-repetition figures.  The exit code
is 0 whenever a result is printed, failures or not.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))     # the checkers read grids with the package

import workloads  # noqa: E402  (beside this script)

WORK = ROOT / ".bench_work"

MIN_REPS = 3          # untraced repetitions of a trace-0 run, even past --seconds
TRACED_REPS = 2       # their counts must agree exactly
SETUP_SAMPLES = 11    # set-up measurements per trace-0 run
HARD_LIMIT_S = 170.0  # a run must end within 180 s
# Reference time of one speed-probe slice (rep.probe_work).  A call's
# scaled seconds are its wall seconds x PROBE_REF_S / the probe's mean
# during the call: the time it would take at the reference speed.
PROBE_REF_S = 0.00025

# Single-process measurement: numpy's BLAS may not add threads of its own.
CHILD_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Per-operation figures reported with --trace 1, in documentation order.
OP_METRICS = (
    "capacity_zero_s", "capacity_cyclic_s", "report_s",
    "strip_encode_nodes_per_s", "strip_decode_nodes_per_s",
    "algo1_encode_nodes_per_s", "algo1_decode_nodes_per_s",
    "ans_encode_symbols_per_s", "ans_decode_symbols_per_s",
    "strip_evaluate_s", "sample_s", "describe_s", "algo2_s",
)


class RepFailed(Exception):
    """A repetition's process failed or ran out of time."""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def environment() -> dict:
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "platform": platform.platform(),
            "loadavg": os.getloadavg()}


def run_child(spec: dict, workdir: Path, deadline: float) -> dict:
    path = workdir / "spec.json"
    path.write_text(json.dumps(spec))
    timeout = deadline - time.monotonic()
    if timeout <= 1.0:
        raise RepFailed("no time left for another repetition")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "rep.py"), str(path)],
                              cwd=workdir, env=dict(os.environ, **CHILD_ENV),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RepFailed("repetition exceeded %.0f s" % timeout)
    if proc.returncode != 0:
        raise RepFailed("repetition exited %d: %s"
                        % (proc.returncode, proc.stderr[-500:]))
    return json.loads(proc.stdout.splitlines()[-1])


def digest(op, res: dict, workdir: Path) -> str:
    h = hashlib.sha256(repr((res["rc"], res["stdout"])).encode())
    for name in op.outputs:
        h.update((workdir / name).read_bytes())
    return h.hexdigest()


def verify(op, res: dict, workdir: Path, verified: dict) -> list:
    """Problems with one operation's output.  The first clean output of an
    operation is checked in full; later repetitions of the same seed must
    reproduce it byte for byte."""
    try:
        key = digest(op, res, workdir)
        if op.name in verified:
            return ([] if key == verified[op.name] else
                    ["output differs from an earlier repetition of this seed"])
        problems = op.check(res)
    except Exception:                      # a checker crash is a failed check
        return [traceback.format_exc()]
    if not problems:
        verified[op.name] = key
    return problems


def declared_metrics() -> tuple:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes: workloads.Sizes = workloads.FULL) -> tuple:
    """Run one benchmark run; returns (result object, detail object)."""
    deadline = time.monotonic() + HARD_LIMIT_S
    workdir = WORK / ("%s-%d" % (workload, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(workload, seed, seconds, trace, sizes, workdir,
                        deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):     # still in use by another run
            WORK.rmdir()


def _measure(workload, seed, seconds, trace, sizes, workdir, deadline):
    ops = workloads.build(workload, seed, workdir, sizes)
    env_before = environment()
    base = {"src": str(SRC), "ops": [op.argv for op in ops]}
    # untimed warm-up: byte-compiles the package and fills the file cache,
    # which a user's second invocation also finds done
    run_child(dict(base, ops=[], trace=False), workdir, deadline)

    plan = ["u"] + ["t"] * TRACED_REPS if trace else ["u"] * MIN_REPS
    reps, verified = [], {}
    attempted = failed = 0
    measured = longest = 0.0       # checks do not count against --seconds
    while True:
        if plan:
            kind = plan.pop(0)
        else:
            kind = "t" if trace and reps[-1]["kind"] == "u" else "u"
            if measured + longest > seconds:
                break
        t0 = time.monotonic()
        try:
            res = run_child(dict(base, trace=kind == "t"), workdir, deadline)
        except RepFailed as e:
            log("%s repetition failed: %s" % (workload, e))
            attempted += len(ops)
            failed += len(ops)
            break
        took = time.monotonic() - t0
        measured += took
        longest = max(longest, took)
        for op, r in zip(ops, res["ops"]):
            attempted += 1
            problems = verify(op, r, workdir, verified)
            if problems:
                failed += 1
                log("%s %s: %s" % (workload, op.name, "; ".join(problems)))
        res["kind"] = kind
        res["loadavg"] = os.getloadavg()
        reps.append(res)
        if kind == "u":
            for o in res["ops"]:
                o["scaled_s"] = o["seconds"] * PROBE_REF_S / o["probe_s"]

    plain = [r for r in reps if r["kind"] == "u"]
    traced = [r for r in reps if r["kind"] == "t"]
    if not plain or (trace and not traced):
        raise RepFailed("no repetition completed")
    walls = [sum(o["seconds"] for o in r["ops"]) for r in plain]
    scaled = [statistics.median(r["ops"][i]["scaled_s"] for r in plain)
              for i in range(len(ops))]
    setups = [r["setup_s"] for r in reps]

    if trace:
        metrics, bad = _layer_metrics(traced, walls)
        metrics.update(dict.fromkeys(OP_METRICS, 0.0))
        metrics.update((op.metric, op.value(s)) for op, s in zip(ops, scaled))
        failed += bad
    else:
        while len(setups) < SETUP_SAMPLES and time.monotonic() < deadline - 10:
            setups.append(run_child(dict(base, ops=[], trace=False),
                                    workdir, deadline)["setup_s"])
        metrics = {
            "scaled_wall_s": sum(scaled),
            "scaled_geomean_s": statistics.geometric_mean(scaled),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    detail = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "environment": env_before, "loadavg_after": os.getloadavg(),
        "reps": [{"kind": r["kind"], "setup_s": r["setup_s"],
                  "peak_rss_mb": r["peak_rss_mb"], "loadavg": r["loadavg"],
                  "op_seconds": [o["seconds"] for o in r["ops"]],
                  "op_probe_s": [o["probe_s"] for o in r["ops"]]}
                 for r in reps],
        "setup_samples": setups,
        "ops": {op.metric: op.value(s) for op, s in zip(ops, scaled)},
    }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, detail


def _layer_metrics(traced, walls) -> tuple:
    """Per-layer medians over the traced repetitions, the tracing overhead,
    and the number of counts that did not repeat exactly between them."""
    from tracer import COUNTS
    bad = 0
    for name in COUNTS:
        seen = {r["layers"][name] for r in traced}
        if len(seen) > 1:
            bad += 1
            log("count %s differs between traced repetitions: %s"
                % (name, sorted(seen)))
    metrics = {n: statistics.median(r["layers"][n] for r in traced)
               for n in traced[0]["layers"]}
    plain_wall = statistics.median(walls)
    traced_wall = statistics.median(sum(o["seconds"] for o in r["ops"])
                                    for r in traced)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.overhead_share"] = (traced_wall - plain_wall) / plain_wall
    return metrics, bad


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "latticecode" / "cli.py").is_file():
        log("no latticecode sources under %s; run from a checkout" % SRC)
        return 2
    try:
        result, detail = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except RepFailed as e:
        log("benchmark failed: %s" % e)
        return 1
    e2e, layers = declared_metrics()
    units = layers if args.trace else e2e
    if set(result["metrics"]) != set(units):
        log("metrics %s do not match BENCHMARK.json"
            % sorted(set(result["metrics"]) ^ set(units)))
        return 1
    result["metrics"] = {n: {"value": float(result["metrics"][n]), "unit": u}
                         for n, u in units.items()}
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
