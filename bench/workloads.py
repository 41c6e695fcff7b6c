"""The benchmark's workloads: their inputs, the CLI calls, and the checks.

Each workload is a list of `latticecode` command lines run in order in one
fresh interpreter, as a user would run them one after another.  Inputs
(payloads, symbol streams, the seeds handed to the program) come from
`random.Random(seed)`, never from `latticecode.rng`, so a change to the
package's generator cannot change what the benchmark feeds it.

Why these three workloads:

- `capacity` is the strip transfer-matrix build (column enumeration and
  pair checks, then the eigensolve).  No coder or sampler runs, so codec
  and sampler changes must not move it.
- `codec` is the entropy coders on file round trips over a tiny width-8
  strip; strip construction is a small share, so transfer-matrix changes
  should barely move it.
- `sample` is Monte-Carlo statistics: flip-chain moves and generator
  draws, with no strip and no ANS.

Every check runs outside the timed region, on the files and text the
command produced.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent

WORKLOADS = ("capacity", "codec", "sample")


@dataclass(frozen=True)
class Sizes:
    capacity_width: int = 12
    strip_width: int = 8
    strip_columns: int = 16384
    algo1_side: int = 512
    ans_symbols: int = 10 ** 6
    evaluate_columns: int = 4096
    evaluate_trials: int = 4
    sample_side: int = 16
    samples: int = 50
    algo2_side: int = 200
    algo2_trials: int = 4


FULL = Sizes()
# for the benchmark's own tests; report always runs at its one fixed size
TINY = Sizes(capacity_width=6, strip_width=4, strip_columns=256,
             algo1_side=32, ans_symbols=2000, evaluate_columns=64,
             evaluate_trials=2, sample_side=5, samples=3, algo2_side=50,
             algo2_trials=1)

# Capacities printed by the seed commit (`capacity --width n`, 6 decimals).
SEED_CAPACITY = {
    (12, "zero"): "0.595953",
    (12, "cyclic"): "0.587893",
    (8, "zero"): "0.599984",
    (6, "zero"): "0.604015",
    (6, "cyclic"): "0.588339",
    (4, "zero"): "0.612074",
}

# Payloads are sized to 90% of the rates the seed commit measured
# (`strip evaluate --width 8 --columns 4096`, `algo1 rate --side 512`),
# leaving room for the coder's termination cost and run-to-run variation.
STRIP_RATE = 0.59998
ALGO1_RATE = 0.56636
PAYLOAD_SHARE = 0.9

ANS_PROBS = "1/2,1/4,1/4"
ANS_FORBIDDEN = "1/64"
# random byte -> symbol with probabilities 1/2, 1/4, 1/4 (low two bits)
_ANS_SYMBOL = bytes((0, 0, 1, 2)[b & 3] for b in range(256))

# the one row the seed commit reports red (k=6 benefit 130 vs 129)
KNOWN_RED = frozenset({"k-model benefit k=6"})
# rows whose computed value is a floating-point residual, checked by bound
RESIDUAL_ROWS = {"k-model closed form vs automaton": 1e-9}

_ROW = re.compile(r"^(?P<name>.+?)\s+(?P<computed>\S+)\s+(?P<reference>\S+)"
                  r"\s+\(tol (?P<tol>[^)]*)\)\s+(?P<verdict>pass|FAIL)$")


@dataclass
class Op:
    """One CLI call: its argv, the files it writes, and its checker."""

    name: str
    argv: list
    outputs: tuple
    check: Callable[[dict], list]
    metric: str
    units: int = 0          # nodes or symbols for a rate metric, 0 for seconds

    def value(self, seconds: float) -> float:
        return self.units / seconds if self.units else seconds


def payload_bytes(rate: float, nodes: int) -> int:
    return int(PAYLOAD_SHARE * rate * nodes / 8)


def build(workload: str, seed: int, workdir: Path, sizes: Sizes = FULL) -> list:
    """Write the workload's inputs into `workdir` and return its ops."""
    rnd = random.Random(seed)
    workdir = Path(workdir)
    if workload == "capacity":
        return _capacity_ops(sizes)
    if workload == "codec":
        return _codec_ops(rnd, workdir, sizes)
    if workload == "sample":
        return _sample_ops(rnd, workdir, sizes)
    raise ValueError("unknown workload %r" % workload)


def _program_seed(rnd: random.Random) -> str:
    return str(rnd.randrange(1 << 31))


# ---------------------------------------------------------------------------
# capacity


def _capacity_ops(sz: Sizes) -> list:
    ops = []
    for boundary in ("zero", "cyclic"):
        want = ("model hard-square\nwidth %d\nboundary %s\ncapacity %s\n"
                % (sz.capacity_width, boundary,
                   SEED_CAPACITY[sz.capacity_width, boundary]))
        ops.append(Op("capacity_" + boundary,
                      ["capacity", "--model", "hard-square",
                       "--width", str(sz.capacity_width),
                       "--boundary", boundary],
                      (), _expect_stdout(want), "capacity_%s_s" % boundary))
    ops.append(Op("report", ["report"], (), check_report, "report_s"))
    return ops


def _expect_stdout(want: str):
    def check(res):
        if res["rc"] != 0:
            return ["exit %s" % res["rc"]]
        if res["stdout"] != want:
            return ["printed %r, expected %r" % (res["stdout"], want)]
        return []
    return check


def parse_report(text: str) -> list:
    """(name, computed, reference, tol, verdict) rows of `report` output."""
    rows = []
    for line in text.splitlines():
        if line.startswith("verdict "):
            continue
        m = _ROW.match(line)
        if m is None:
            raise ValueError("unparsed report line %r" % line)
        rows.append(m.groups())
    return rows


SEED_REPORT = (HERE / "report_seed.txt").read_text()


def check_report(res: dict) -> list:
    """Rows equal the seed's, and the only red row is the known k=6 one."""
    try:
        got = parse_report(res["stdout"])
    except ValueError as e:
        return [str(e)]
    want = parse_report(SEED_REPORT)
    problems = []
    failing = {r[0] for r in got if r[4] == "FAIL"}
    if failing != KNOWN_RED:
        problems.append("failing rows %s, expected exactly %s"
                        % (sorted(failing), sorted(KNOWN_RED)))
    if res["rc"] != 1 or not res["stdout"].endswith("verdict FAIL\n"):
        problems.append("exit %s, expected 1 with verdict FAIL" % res["rc"])
    if [r[0] for r in got] != [r[0] for r in want]:
        return problems + ["report rows differ from the seed's"]
    for g, w in zip(got, want):
        bound = RESIDUAL_ROWS.get(w[0])
        if bound is not None:
            same = g[2:] == w[2:] and abs(float(g[1])) < bound
        else:
            same = g == w
        if not same:
            problems.append("row %r is %s, seed printed %s" % (w[0], g[1:], w[1:]))
    return problems


# ---------------------------------------------------------------------------
# codec


def _codec_ops(rnd: random.Random, wd: Path, sz: Sizes) -> list:
    strip_nodes = sz.strip_width * sz.strip_columns
    algo1_nodes = sz.algo1_side * sz.algo1_side
    strip_payload = rnd.randbytes(payload_bytes(STRIP_RATE, strip_nodes))
    algo1_payload = rnd.randbytes(payload_bytes(ALGO1_RATE, algo1_nodes))
    symbols = rnd.randbytes(sz.ans_symbols).translate(_ANS_SYMBOL)
    eval_seed = _program_seed(rnd)
    (wd / "strip.bin").write_bytes(strip_payload)
    (wd / "algo1.bin").write_bytes(algo1_payload)
    (wd / "symbols.bin").write_bytes(symbols)
    side = str(sz.algo1_side)
    ans = ["--probs", ANS_PROBS, "--forbidden-eps", ANS_FORBIDDEN]
    return [
        Op("strip_encode",
           ["strip", "encode", "--width", str(sz.strip_width),
            "--columns", str(sz.strip_columns),
            "--in", "strip.bin", "--out", "strip.txt"],
           ("strip.txt",), _expect_lattice(wd / "strip.txt", "strip",
                                           (sz.strip_width, sz.strip_columns)),
           "strip_encode_nodes_per_s", strip_nodes),
        Op("strip_decode",
           ["strip", "decode", "--in", "strip.txt", "--out", "strip.out"],
           ("strip.out",), _expect_bytes(wd / "strip.out", strip_payload),
           "strip_decode_nodes_per_s", strip_nodes),
        Op("algo1_encode",
           ["algo1", "encode", "--rows", side, "--cols", side,
            "--in", "algo1.bin", "--out", "algo1.txt"],
           ("algo1.txt",), _expect_lattice(wd / "algo1.txt", "algo1",
                                           (sz.algo1_side, sz.algo1_side)),
           "algo1_encode_nodes_per_s", algo1_nodes),
        Op("algo1_decode",
           ["algo1", "decode", "--in", "algo1.txt", "--out", "algo1.out"],
           ("algo1.out",), _expect_bytes(wd / "algo1.out", algo1_payload),
           "algo1_decode_nodes_per_s", algo1_nodes),
        Op("ans_encode",
           ["ans", "encode"] + ans + ["--in", "symbols.bin", "--out", "ans.blob"],
           ("ans.blob",), _expect_symbols(len(symbols)),
           "ans_encode_symbols_per_s", len(symbols)),
        Op("ans_decode",
           ["ans", "decode"] + ans + ["--in", "ans.blob", "--out", "symbols.out"],
           ("symbols.out",), _expect_bytes(wd / "symbols.out", symbols),
           "ans_decode_symbols_per_s", len(symbols)),
        Op("strip_evaluate",
           ["strip", "evaluate", "--width", str(sz.strip_width),
            "--columns", str(sz.evaluate_columns),
            "--trials", str(sz.evaluate_trials), "--verify", "--jobs", "1",
            "--seed", eval_seed],
           (), _expect_evaluation(sz.evaluate_trials,
                                  SEED_CAPACITY[sz.strip_width, "zero"]),
           "strip_evaluate_s"),
    ]


def hard_square_problems(grid) -> list:
    """Invalid cells of a hard-square grid, by `lattice.scan` and by a
    direct adjacency test that does not depend on the package."""
    from latticecode import lattice as lat
    g = np.asarray(grid)
    problems = []
    if not np.isin(g, (0, 1)).all():
        problems.append("grid holds a value outside {0, 1}")
    elif (g[1:, :] & g[:-1, :]).any() or (g[:, 1:] & g[:, :-1]).any():
        problems.append("grid has two adjacent 1s")
    bad = lat.scan(g, lat.hard_square())
    if bad:
        problems.append("lattice.scan finds %d violations, first %s"
                        % (len(bad), bad[0]))
    return problems


def _expect_lattice(path: Path, header: str, shape: tuple):
    def check(res):
        if res["rc"] != 0:
            return ["exit %s: %s" % (res["rc"], res["stderr"][-300:])]
        from latticecode import lattice as lat
        text = path.read_text()
        first, _, rest = text.partition("\n")
        if first.split()[:1] != [header]:
            return ["%s lacks its %r header" % (path.name, header)]
        try:
            grid, _ = lat.load_grid(rest)
        except ValueError as e:
            return ["%s: %s" % (path.name, e)]
        if grid.shape != shape:
            return ["%s is %s, expected %s" % (path.name, grid.shape, shape)]
        return hard_square_problems(grid)
    return check


def _expect_bytes(path: Path, want: bytes):
    def check(res):
        if res["rc"] != 0:
            return ["exit %s: %s" % (res["rc"], res["stderr"][-300:])]
        if path.read_bytes() != want:
            return ["%s differs from the input" % path.name]
        return []
    return check


def _expect_symbols(n: int):
    def check(res):
        if res["rc"] != 0:
            return ["exit %s: %s" % (res["rc"], res["stderr"][-300:])]
        if not res["stdout"].startswith("symbols %d\nstored_bits " % n):
            return ["printed %r" % res["stdout"][:80]]
        return []
    return check


def _expect_evaluation(trials: int, capacity: str):
    def check(res):
        if res["rc"] != 0:
            return ["exit %s: %s" % (res["rc"], res["stderr"][-300:])]
        vals = dict(line.split(" = ", 1) for line in res["stdout"].splitlines())
        rates = [float(vals.get("rate[%d]" % i, "nan")) for i in range(trials)]
        problems = []
        if not all(0.0 < r < 1.0 for r in rates):
            problems.append("rates %s outside (0, 1)" % rates)
        if "%.6f" % float(vals.get("capacity", "nan")) != capacity:
            problems.append("capacity %s, seed printed %s"
                            % (vals.get("capacity"), capacity))
        return problems
    return check


# ---------------------------------------------------------------------------
# sample


def _sample_ops(rnd: random.Random, wd: Path, sz: Sizes) -> list:
    side = str(sz.sample_side)
    return [
        Op("sample",
           ["sample", "--rows", side, "--cols", side,
            "--samples", str(sz.samples), "--seed", _program_seed(rnd),
            "--out", "grids.txt"],
           ("grids.txt",),
           _expect_grids(wd / "grids.txt", sz.samples, (sz.sample_side,) * 2),
           "sample_s"),
        Op("describe",
           ["describe", "--in", "grids.txt", "--shapes", "1x2,2x1,2x2"],
           (), _expect_value("normalization_error ", lambda v: v <= 1e-12),
           "describe_s"),
        Op("algo2",
           ["algo2", "--side", str(sz.algo2_side),
            "--trials", str(sz.algo2_trials), "--seed", _program_seed(rnd),
            "--jobs", "1"],
           (), _expect_value("entropy_gap = ", lambda v: v > 0.0), "algo2_s"),
    ]


def read_grids(text: str) -> list:
    """Grid blocks as written by `sample --out`."""
    lines = text.split("\n")
    grids = []
    pos = 0
    while pos < len(lines) and lines[pos]:
        rows = int(lines[pos].split()[1])
        block = lines[pos + 1:pos + 1 + rows]
        grids.append(np.array([[int(c) for c in row] for row in block]))
        pos += rows + 1
    return grids


def _expect_grids(path: Path, count: int, shape: tuple):
    def check(res):
        if res["rc"] != 0:
            return ["exit %s: %s" % (res["rc"], res["stderr"][-300:])]
        grids = read_grids(path.read_text())
        if len(grids) != count or any(g.shape != shape for g in grids):
            return ["%d grids of shapes %s, expected %d of %s"
                    % (len(grids), sorted({g.shape for g in grids}), count, shape)]
        return [p for g in grids for p in hard_square_problems(g)]
    return check


def _expect_value(prefix: str, ok: Callable[[float], bool]):
    def check(res):
        if res["rc"] != 0:
            return ["exit %s: %s" % (res["rc"], res["stderr"][-300:])]
        for line in res["stdout"].splitlines():
            if line.startswith(prefix):
                value = float(line[len(prefix):].split()[0])
                return [] if ok(value) else ["%s%r fails its bound"
                                             % (prefix, value)]
        return ["no %r line" % prefix]
    return check
