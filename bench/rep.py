"""One cold repetition of a workload, run in a fresh interpreter.

    python3 bench/rep.py SPEC.json

SPEC names the package source directory, the argv of each CLI call and
whether to trace.  The process times the cold import of `latticecode.cli`
plus building its parser (set-up), then each call through `cli.main`,
and prints one JSON object: set-up seconds, peak RSS, per-call exit code,
output, seconds and speed-probe mean, and the traced per-layer metrics
when asked.

Nothing outside the standard library is imported before the set-up timer
starts, so set-up includes numpy's import as a CLI user pays it.
"""

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

PROBE_INTERVAL_S = 0.01


def probe_work() -> int:
    """A fixed slice of interpreter work: integer arithmetic, tuple and
    dict traffic, as in the package's own inner loops."""
    d = {}
    s = 0
    for i in range(1500):
        s += (i * i) & 7
        d[i & 63] = (i, s)
    return s


class SpeedProbe:
    """Times `probe_work` on a SIGALRM timer while the CLI calls run.

    The machine's speed drifts by tens of percent from second to second
    when it is shared; the mean probe time taken during a call measures
    that drift while the call ran, so the benchmark can scale it out.
    The time spent in the probe itself is subtracted from the call.
    """

    def __init__(self):
        self.total = 0.0        # seconds spent probing
        self.count = 0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe_work()
        self.total += time.perf_counter() - t0
        self.count += 1

    @contextlib.contextmanager
    def running(self):
        """Probe around one call.  Yields a dict that holds, on exit, the
        probe seconds spent inside the call and the probe's mean time."""
        total0, count0 = self.total, self.count
        self._tick(None, None)     # at least one sample, however short the call
        inside0 = self.total
        stats = {"spent": 0.0, "mean": None}
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield stats
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            stats["spent"] = self.total - inside0
            stats["mean"] = (self.total - total0) / (self.count - count0)


def run_op(cli, argv, probe=None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    probing = (probe.running() if probe else
               contextlib.nullcontext({"spent": 0.0, "mean": None}))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with probing as stats:
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as e:        # argparse usage errors
                rc = e.code
            except Exception:              # reported as a failed operation
                rc = None
                error = traceback.format_exc()
            seconds = time.perf_counter() - t0
    return {"rc": rc, "seconds": seconds - stats["spent"],
            "probe_s": stats["mean"], "stdout": out.getvalue(),
            "stderr": error or err.getvalue()}


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    src = spec["src"]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from latticecode import cli
    cli._build_parser()
    setup_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit("latticecode imported from %s, not %s" % (cli.__file__, src))
    tracer = probe = None
    if spec["trace"]:
        from tracer import Tracer      # beside this script, on sys.path
        tracer = Tracer()
        tracer.install()
    else:
        probe = SpeedProbe()
    ops = [run_op(cli, argv, probe) for argv in spec["ops"]]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"setup_s": setup_s, "peak_rss_mb": rss_mb, "ops": ops}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
