"""Tests of the benchmark itself: each workload at a tiny size, traced and
untraced, and the checkers on outputs that must be refused.

    python3 -m pytest bench/tests
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import COUNTS, Tracer  # noqa: E402
from latticecode import cli  # noqa: E402  (run.py put src on the path)


def cli_run(argv, cwd):
    """Run one CLI call inside `cwd`, returning the checker's result dict."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        os.chdir(here)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_tiny(workload, trace):
    result, detail = run.measure(workload, 7, 0.0, trace, wl.TINY)
    assert result["failed"] == 0 and result["correct"]
    reps = 1 + run.TRACED_REPS if trace else run.MIN_REPS
    assert len(detail["reps"]) == reps
    assert result["attempted"] == reps * len(detail["ops"])
    e2e, layers = run.declared_metrics()
    assert set(result["metrics"]) == set(layers if trace else e2e)
    if trace:
        assert result["metrics"]["cli.self_s"] > 0


def test_tracer_counts_codec_work(tmp_path):
    ops = wl.build("codec", 3, tmp_path, wl.TINY)
    tracer = Tracer()
    original = cli.main
    tracer.install()
    try:
        for op in ops[:2]:
            assert op.check(cli_run(op.argv, tmp_path)) == []
    finally:
        tracer.restore()
    assert cli.main is original
    m = tracer.layer_metrics()
    assert m["strip.nodes"] == wl.TINY.strip_width * wl.TINY.strip_columns
    assert m["strip.states"] > 0 and m["spectral.pair_checks"] > 0
    # decode replays exactly the draws encode made
    assert m["ans.abs_draw_calls"] == m["ans.abs_absorb_calls"] > 0
    assert m["strip.encode_s"] >= m["strip.encode.self_s"] > 0
    assert m["rng.next_u64_calls"] == 0
    assert set(COUNTS) <= set(m)


def test_checker_flags_corrupted_round_trip(tmp_path):
    ops = {op.name: op for op in wl.build("codec", 3, tmp_path, wl.TINY)}
    res = {}
    for name in ("strip_encode", "strip_decode", "ans_encode", "ans_decode"):
        res[name] = cli_run(ops[name].argv, tmp_path)
        assert ops[name].check(res[name]) == []
    for name, out in (("strip_decode", "strip.out"), ("ans_decode", "symbols.out")):
        data = bytearray((tmp_path / out).read_bytes())
        data[len(data) // 2] ^= 1
        (tmp_path / out).write_bytes(bytes(data))
        assert ops[name].check(res[name]) != []


def test_checker_flags_invalid_grid(tmp_path):
    ops = {op.name: op for op in wl.build("codec", 3, tmp_path, wl.TINY)}
    enc = ops["strip_encode"]
    res = cli_run(enc.argv, tmp_path)
    assert enc.check(res) == []
    path = tmp_path / "strip.txt"
    lines = path.read_text().split("\n")   # codec header, grid header, rows
    for i in (2, 3):                         # two vertical neighbours
        lines[i] = "1" + lines[i][1:]
    path.write_text("\n".join(lines))
    problems = enc.check(res)
    assert any("adjacent" in p for p in problems)
    assert any("lattice.scan" in p for p in problems)


def test_hard_square_problems_on_sample_grids():
    good = np.array([[1, 0, 1], [0, 0, 0], [1, 0, 1]])
    assert wl.hard_square_problems(good) == []
    bad = good.copy()
    bad[0, 1] = 1
    assert len(wl.hard_square_problems(bad)) == 2


def _report_result(text, rc):
    return {"rc": rc, "stdout": text, "stderr": ""}


def test_report_checker_accepts_the_seed_report():
    assert wl.check_report(_report_result(wl.SEED_REPORT, 1)) == []


def test_report_checker_flags_fixed_known_red():
    text = wl.SEED_REPORT.replace(
        "130           129  (tol exact)  FAIL", "129           129  (tol exact)  pass")
    text = text.replace("verdict FAIL", "verdict pass")
    assert text != wl.SEED_REPORT
    assert wl.check_report(_report_result(text, 0)) != []


def test_report_checker_flags_a_new_red_row():
    line = next(ln for ln in wl.SEED_REPORT.splitlines()
                if ln.startswith("checkerboard writer entropy gap"))
    text = wl.SEED_REPORT.replace(line, line[:-4] + "FAIL")
    problems = wl.check_report(_report_result(text, 1))
    assert any("failing rows" in p for p in problems)


def test_report_checker_bounds_the_residual_row():
    line = next(ln for ln in wl.SEED_REPORT.splitlines()
                if ln.startswith("k-model closed form"))
    ok = wl.SEED_REPORT.replace(line, line.replace("4.996e-16", "1.110e-16"))
    assert wl.check_report(_report_result(ok, 1)) == []
    bad = wl.SEED_REPORT.replace(line, line.replace("4.996e-16", "2.000e-09"))
    assert wl.check_report(_report_result(bad, 1)) != []


def test_counts_that_differ_between_traced_reps_fail():
    layer = {n: 1 for n in COUNTS}
    reps = [{"layers": dict(layer), "ops": [{"seconds": 1.0}]},
            {"layers": dict(layer, **{"strip.states": 2}),
             "ops": [{"seconds": 1.0}]}]
    _, bad = run._layer_metrics(reps, [0.5])
    assert bad == 1


def test_inputs_repeat_for_a_seed_and_change_with_it(tmp_path):
    a, b, c = (tmp_path / d for d in "abc")
    for d, seed in ((a, 5), (b, 5), (c, 6)):
        d.mkdir()
        wl.build("codec", seed, d, wl.TINY)
    for name in ("strip.bin", "algo1.bin", "symbols.bin"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / name).read_bytes() != (c / name).read_bytes()
    assert set((a / "symbols.bin").read_bytes()) == {0, 1, 2}
