import contextlib
import hashlib
import io
import os
import resource
import struct
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

import latticecode
from latticecode import ans
from latticecode import cli
from latticecode import experiments as exp
from latticecode import strip as st
from latticecode.cli import main
from latticecode.rng import SplitMix64


def run(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, buf.getvalue(), err.getvalue()


def rand_bytes(n, seed):
    rng = SplitMix64(seed)
    return bytes(rng.randbelow(256) for _ in range(n))


def test_capacity_kmodel():
    rc, out, _ = run(["capacity", "--model", "k-model:1"])
    assert rc == 0
    assert "capacity 0.694242" in out
    assert "benefit 39%" in out


def test_capacity_chain_and_strip():
    rc, out, _ = run(["capacity", "--model", "no-111"])
    assert rc == 0
    assert "capacity 0.879146" in out
    rc, out, _ = run(["capacity", "--model", "hard-square", "--width", "4",
                      "--boundary", "zero"])
    assert rc == 0
    want = st.strip_capacity(st.lat.model_preset("hard-square"), 4, "zero")
    assert ("capacity %.6f" % want) in out


def test_capacity_usage_errors():
    rc, _, err = run(["capacity", "--model", "no-111", "--width", "3"])
    assert rc == 2
    rc, _, err = run(["capacity", "--model", "hard-square"])
    assert rc == 2
    assert "width" in err


def test_report_is_honestly_red():
    rc, out, _ = run(["report", "--format", "csv"])
    assert rc == 1
    lines = out.splitlines()
    assert lines[0] == "name,computed,reference,tolerance,pass"
    assert "k-model benefit k=6,130,129,exact,False" in lines
    assert lines[-1] == "verdict FAIL"
    # every other row passes
    assert sum(ln.endswith(",False") for ln in lines[1:-1]) == 1


def test_report_rows_match_the_recorded_report():
    seed = Path(__file__).resolve().parents[1] / "bench" / "report_seed.txt"
    rc, out, _ = run(["report"])
    assert rc == 1
    got, want = out.splitlines(), seed.read_text().splitlines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w.startswith("k-model closed form vs automaton"):
            # the residual may move in its last bits; it stays below 1e-9
            assert g.split()[-4:] == w.split()[-4:] and float(g.split()[-5]) < 1e-9
        else:
            assert g == w


def test_abs_roundtrip_and_constant_framing(tmp_path):
    sizes = {}
    for n in (64, 256):
        src = tmp_path / ("in%d" % n)
        enc = tmp_path / ("enc%d" % n)
        dec = tmp_path / ("dec%d" % n)
        src.write_bytes(rand_bytes(n, n))
        rc, _, _ = run(["abs", "encode", "--q", "0.5", "--in", str(src),
                        "--out", str(enc), "--verify"])
        assert rc == 0
        sizes[n] = enc.stat().st_size
        rc, _, _ = run(["abs", "decode", "--in", str(enc), "--out", str(dec)])
        assert rc == 0
        assert dec.read_bytes() == src.read_bytes()
    # q = 1/2 stores one digit per bit: framing overhead is a constant
    assert sizes[256] - sizes[64] == 256 - 64
    src = tmp_path / "bias"
    src.write_bytes(rand_bytes(500, 7))
    rc, _, _ = run(["abs", "encode", "--q", "0.3", "--in", str(src),
                    "--out", str(tmp_path / "bias.enc"), "--verify"])
    assert rc == 0


def test_ans_roundtrip_and_corruption(tmp_path):
    rng = SplitMix64(13)
    data = bytes(rng.randbelow(4) for _ in range(3000))
    src = tmp_path / "syms"
    src.write_bytes(data)
    probs = "0.1,0.2,0.3,0.4"
    enc, dec = tmp_path / "enc", tmp_path / "dec"
    rc, _, _ = run(["ans", "encode", "--probs", probs, "--in", str(src),
                    "--out", str(enc), "--verify"])
    assert rc == 0
    rc, _, _ = run(["ans", "decode", "--probs", probs, "--in", str(enc),
                    "--out", str(dec)])
    assert rc == 0
    assert dec.read_bytes() == data
    # forbidden-symbol stream detects a flipped byte
    encf = tmp_path / "encf"
    rc, _, _ = run(["ans", "encode", "--probs", probs, "--forbidden-eps",
                    "1/64", "--in", str(src), "--out", str(encf), "--verify"])
    assert rc == 0
    blob = bytearray(encf.read_bytes())
    blob[70] ^= 0xFF
    bad = tmp_path / "bad"
    bad.write_bytes(blob)
    rc, _, err = run(["ans", "decode", "--probs", probs, "--forbidden-eps",
                      "1/64", "--in", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 1
    # reported before the checksum mismatch the flip also causes
    assert err.splitlines()[-1].startswith("error: forbidden symbol at position ")


@pytest.mark.parametrize("extra", [[], ["--forbidden-eps", "1/64"]])
def test_ans_refuses_a_byte_equal_to_the_alphabet_size(tmp_path, extra):
    # byte n would code as the forbidden symbol, or fall outside the table
    src = tmp_path / "in"
    src.write_bytes(bytes([0, 1] * 50 + [2]))
    rc, _, err = run(["ans", "encode", "--probs", "1/2,1/2", "--in", str(src),
                      "--out", str(tmp_path / "o")] + extra)
    assert rc == 1
    assert err.splitlines()[-1] == "error: input byte outside the 2-symbol alphabet"


def test_abs_decode_refuses_symbols_past_a_bit(tmp_path):
    # a 3-symbol `ans` container is no bit stream: 2 is not written as a 1
    src, enc, dec = tmp_path / "in", tmp_path / "enc", tmp_path / "dec"
    src.write_bytes(bytes([0, 1, 2, 1, 0, 2, 2, 1]))
    rc, _, _ = run(["ans", "encode", "--probs", "1/2,1/4,1/4", "--in", str(src),
                    "--out", str(enc)])
    assert rc == 0
    rc, _, err = run(["abs", "decode", "--in", str(enc), "--out", str(dec)])
    assert rc == 1 and not dec.exists()
    assert err.splitlines()[1:] == ["error: decoded symbol 2 outside the output's 0..1"]


def test_ans_decode_refuses_symbols_past_a_byte(tmp_path):
    # a table of more than 256 symbols: 299 and 257 are not wrapped into a byte
    t = ans.ans_build_table([1 / 300] * 300, 1 << 9, 2, key=3)
    d, xs = ans.ans_stream_encode([299, 257, 0], t)
    enc, dec = tmp_path / "enc", tmp_path / "dec"
    enc.write_bytes(ans.pack_container(t, xs, d, 3))
    rc, _, err = run(["ans", "decode", "--in", str(enc), "--out", str(dec)])
    assert rc == 1 and not dec.exists()
    assert err.splitlines()[1:] == ["error: decoded symbol 299 outside the output's 0..255"]
    # symbols that fit are written one byte each, though the table's
    # decode hands them back as uint16
    bits = [0, 1, 1, 0, 1, 0, 0, 1] * 4
    d, xs = ans.ans_stream_encode(bits, t)
    enc.write_bytes(ans.pack_container(t, xs, d, len(bits)))
    for cmd, want in (("abs", b"\x69" * 4), ("ans", bytes(bits))):
        rc, _, _ = run([cmd, "decode", "--in", str(enc), "--out", str(dec)])
        assert rc == 0 and dec.read_bytes() == want


def test_ans_usage_and_data_errors(tmp_path):
    src = tmp_path / "in"
    src.write_bytes(b"\x00\x05")
    rc, _, _ = run(["ans", "encode", "--probs", "0.5,0.6", "--in", str(src),
                    "--out", str(tmp_path / "o")])
    assert rc == 2
    rc, _, err = run(["ans", "encode", "--probs", "0.5,0.5", "--in", str(src),
                      "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "alphabet" in err
    # the container stores digits of 1..8 bits
    for bits in (0, 9):
        rc, _, err = run(["ans", "encode", "--digit-bits", str(bits),
                          "--in", str(src), "--out", str(tmp_path / "o")])
        assert rc == 2 and "--digit-bits" in err
    src.write_bytes(b"\x00\x01")
    rc, _, _ = run(["ans", "encode", "--digit-bits", "8", "--in", str(src),
                    "--out", str(tmp_path / "o"), "--verify"])
    assert rc == 0


def test_ans_decode_truncated_header(tmp_path):
    src = tmp_path / "in"
    src.write_bytes(bytes([0, 1, 2, 1, 0]))
    blob = tmp_path / "blob"
    rc, _, _ = run(["ans", "encode", "--probs", "1/2,1/4,1/4", "--in", str(src),
                    "--out", str(blob)])
    assert rc == 0
    data = blob.read_bytes()
    # magic, version/w/R/n, l_s[3], key/N/K/D, one lane state
    header = 4 + 5 + 4 * 3 + 26 + 4
    assert len(data) > header
    cut = tmp_path / "cut"
    for k in range(header):
        cut.write_bytes(data[:k])
        rc, _, err = run(["ans", "decode", "--probs", "1/2,1/4,1/4",
                          "--in", str(cut), "--out", str(tmp_path / "o")])
        assert rc == 1, k
        assert sum(ln.startswith("error:") for ln in err.splitlines()) == 1, k
        assert "Traceback" not in err


@pytest.mark.parametrize("width", [0, 1, 9])
def test_ans_decode_oversized_digit_count(tmp_path, width):
    # 2^40 digits of width 0 read no byte at all: the decoder used to spin
    src = tmp_path / "in"
    src.write_bytes(bytes([0, 1, 2, 1, 0]))
    blob = tmp_path / "blob"
    rc, _, _ = run(["ans", "encode", "--probs", "1/2,1/4,1/4", "--in", str(src),
                    "--out", str(blob)])
    assert rc == 0
    data = bytearray(blob.read_bytes())
    data[5] = width
    count = 4 + 5 + 4 * 3 + 18  # magic, version/w/R/n, l_s[3], key/N/K
    data[count:count + 8] = (1 << 40).to_bytes(8, "little")
    blob.write_bytes(data)
    got = subprocess.run([sys.executable, "-m", "latticecode.cli", "ans",
                          "decode", "--probs", "1/2,1/4,1/4", "--in", str(blob),
                          "--out", str(tmp_path / "o")],
                         capture_output=True, text=True, timeout=60)
    assert got.returncode == 1
    assert sum(ln.startswith("error:") for ln in got.stderr.splitlines()) == 1
    assert "Traceback" not in got.stderr


def _limit_memory():
    # 2 GB of address space: an unbounded table build fails fast, not late
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_ans_decode_oversized_table(tmp_path):
    # R = 32 and two slots of 2^31 sum to 2^R, so only a bound on the
    # (b - 1)·2^R table stops the build
    blob = tmp_path / "blob"
    blob.write_bytes(b"ANS2" + struct.pack("<BBBH", 2, 1, 32, 2)
                     + struct.pack("<2I", 1 << 31, 1 << 31)
                     + struct.pack("<QQHQI", 0, 0, 1, 0, 0)
                     + struct.pack("<I", 0))
    got = subprocess.run([sys.executable, "-m", "latticecode.cli", "ans",
                          "decode", "--in", str(blob),
                          "--out", str(tmp_path / "o")],
                         capture_output=True, text=True, timeout=60,
                         preexec_fn=_limit_memory)
    assert got.returncode == 1
    assert [ln for ln in got.stderr.splitlines() if ln.startswith("error:")] == [
        "error: table of (2^1 - 1) * 2^32 slots exceeds 1048576"]
    assert "Traceback" not in got.stderr


def test_ans1_container_is_refused(tmp_path):
    blob = tmp_path / "blob"
    blob.write_bytes(b"ANS1" + struct.pack("<BBBH", 1, 1, 8, 2)
                     + struct.pack("<2I", 128, 128)
                     + struct.pack("<QQQ", 0, 256, 0))
    rc, _, err = run(["ans", "decode", "--in", str(blob),
                      "--out", str(tmp_path / "o")])
    assert rc == 1
    assert err.splitlines()[1:] == [
        "error: ANS1 containers are no longer read; re-encode the source file"]


def _ans_container(tmp_path, data, flags):
    src, blob = tmp_path / "in", tmp_path / "blob"
    src.write_bytes(data)
    rc, _, _ = run(["ans", "encode"] + flags + ["--in", str(src),
                                                "--out", str(blob)])
    assert rc == 0
    return blob.read_bytes()


def _with_crc(body):
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.mark.parametrize("field", ["N", "D"])
def test_ans_lowered_counts_fail(tmp_path, field):
    # the symbol count binds the decode: lowering N or the digit count D,
    # with the checksum made to match, fails with one error line
    flags = ["--probs", "1/2,1/4,1/4", "--precision", "8"]
    data = bytes(SplitMix64(17).randbelow(3) for _ in range(300))
    blob = _ans_container(tmp_path, data, flags)
    off = 4 + 5 + 4 * 3 + (8 if field == "N" else 18)
    old = struct.unpack_from("<Q", blob, off)[0]
    bad = tmp_path / "bad"
    for cut in range(1, 17):
        body = bytearray(blob[:-4])
        struct.pack_into("<Q", body, off, old - cut)
        bad.write_bytes(_with_crc(bytes(body)))
        rc, _, err = run(["ans", "decode"] + flags + ["--in", str(bad),
                                                      "--out", str(tmp_path / "o")])
        assert rc == 1, cut
        assert len(err.splitlines()[1:]) == 1, cut
        assert err.splitlines()[1].startswith("error: "), cut


def test_ans_one_symbol_law(tmp_path):
    # every step of a one-symbol law is digit-free, so a lane carries at
    # most (b - 1) l symbols; past that encode refuses to write a file
    # that decode would refuse
    for n, rc_want in ((100, 0), (5000, 1)):
        src, blob = tmp_path / "in", tmp_path / ("blob%d" % n)
        src.write_bytes(bytes(n))
        rc, _, err = run(["ans", "encode", "--probs", "1", "--in", str(src),
                          "--out", str(blob), "--verify"])
        assert rc == rc_want
        if rc:
            assert err.splitlines()[1:] == [
                "error: 5000 symbols exceed what 0 digits can carry"]
            assert not blob.exists()


def test_ans_checksum_mismatch(tmp_path):
    flags = ["--probs", "1/2,1/4,1/4", "--digit-bits", "2"]
    data = bytes(SplitMix64(18).randbelow(3) for _ in range(500))
    blob = _ans_container(tmp_path, data, flags)
    bad = tmp_path / "bad"
    for at in (60, len(blob) - 6, len(blob) - 1):
        out = bytearray(blob)
        out[at] ^= 0x24
        bad.write_bytes(bytes(out))
        rc, _, err = run(["ans", "decode"] + flags + ["--in", str(bad),
                                                      "--out", str(tmp_path / "o")])
        assert rc == 1
        assert err.splitlines()[1:] == ["error: checksum mismatch"], at


# runs argv under 1 GB of address space and reports the seconds main took
_BOUNDED_MAIN = """
import resource, sys, time
from latticecode.cli import main
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
t = time.perf_counter()
rc = main(sys.argv[1:])
print("seconds %f" % (time.perf_counter() - t))
sys.exit(rc)
"""


@pytest.mark.parametrize("argv", [
    ["strip", "decode"],
    ["strip", "build", "--model", "unconstrained", "--width", "24"],
    ["capacity", "--model", "unconstrained", "--width", "24"]],
    ids=["decode-header", "build", "capacity"])
def test_huge_strip_width_is_refused_before_enumeration(tmp_path, argv):
    # 2^24 unconstrained columns took 7.6 GB and 12 s to build before
    # their count met the state limit
    if argv[1] == "decode":
        latf = tmp_path / "s.lat"
        latf.write_bytes(b"strip model=unconstrained n=24 boundary=zero R=16 "
                         b"key=0 x=65536 bits=0\n"
                         + st.lat.save_grid(np.zeros((24, 2), dtype=np.int8)))
        argv = argv + ["--in", str(latf), "--out", str(tmp_path / "o")]
    got = subprocess.run([sys.executable, "-c", _BOUNDED_MAIN] + argv,
                         capture_output=True, text=True, timeout=60)
    assert got.returncode == 1
    assert [ln for ln in got.stderr.splitlines() if ln.startswith("error:")] == [
        "error: at least 32768 column states exceed the limit 16384"]
    assert "Traceback" not in got.stderr
    assert float(got.stdout.split()[-1]) < 1.0


@pytest.mark.parametrize("argv", [
    ["strip", "decode"],
    ["sample", "--model", "k-model:1000000", "--cols", "4"],
    ["describe", "--model", "k-model:1000000", "--exact", "--cols", "3",
     "--shapes", "1x1"]],
    ids=["decode-header", "sample", "describe"])
def test_huge_kmodel_preset_is_refused_before_its_patterns(tmp_path, argv):
    # listing 10^6 patterns took 12.8 s before a strip decode refused the
    # 1-d model, and sample and describe ran past 20 s
    if argv[1] == "decode":
        latf = tmp_path / "s.lat"
        latf.write_bytes(b"strip model=k-model:1000000 n=2 boundary=zero R=16 "
                         b"key=0 x=65536 bits=0\n"
                         + st.lat.save_grid(np.zeros((2, 2), dtype=np.int8)))
        argv = argv + ["--in", str(latf), "--out", str(tmp_path / "o")]
    got = subprocess.run([sys.executable, "-c", _BOUNDED_MAIN] + argv,
                         capture_output=True, text=True, timeout=60)
    assert got.returncode == 1
    assert [ln for ln in got.stderr.splitlines() if ln.startswith("error:")] == [
        "error: k-model:1000000 exceeds the largest preset K, 4096"]
    assert "Traceback" not in got.stderr
    assert float(got.stdout.split()[-1]) < 1.0


@pytest.mark.parametrize("flags", [["--precision", "-1"], ["--precision", "0"],
                                   ["--precision", "21"],
                                   ["--precision", "13", "--digit-bits", "8"]])
def test_ans_table_bound_is_a_usage_error(tmp_path, flags):
    src = tmp_path / "in"
    src.write_bytes(b"\x00\x01")
    rc, _, err = run(["ans", "encode", "--in", str(src),
                      "--out", str(tmp_path / "o")] + flags)
    assert rc == 2
    assert err.splitlines()[1].startswith("usage error: ")


def test_merw_output(tmp_path):
    g = tmp_path / "graph.txt"
    g.write_text("3\n0 1 1\n1 0 1\n1 1 0\n")
    rc, out, _ = run(["merw", "--graph", str(g), "--path", "0,1,2"])
    assert rc == 0
    assert "lambda = 2" in out
    assert "entropy_bits = 1" in out
    assert "path_prob = 0.25" in out


@pytest.mark.parametrize("path, node", [("0,5", 5), ("-1,0", -1)])
def test_merw_path_outside_the_graph_is_one_error_line(tmp_path, path, node):
    # a negative index is not a node counted from the end
    g = tmp_path / "graph.txt"
    g.write_text("3\n0 1 1\n1 0 1\n1 1 0\n")
    rc, out, err = run(["merw", "--graph", str(g), "--path=" + path])
    assert rc == 1 and "path_prob" not in out
    assert err.splitlines()[1:] == ["error: path node %d outside 0..2" % node]


def test_merw_large_weights_stop_at_the_rounding_floor(tmp_path):
    # the converged residual grows with lambda and stays above 10 * tol;
    # the solver stops when the residual stops falling
    g = tmp_path / "graph.txt"
    g.write_text("2\n1e6 1e6\n1e6 0\n")
    t0 = time.perf_counter()
    rc, out, _ = run(["merw", "--graph", str(g)])
    assert time.perf_counter() - t0 < 2.0
    assert rc == 0
    lam = float(next(ln for ln in out.splitlines()
                     if ln.startswith("lambda = ")).split("=")[1])
    assert abs(lam / (1e6 * (1 + 5 ** 0.5) / 2) - 1.0) < 1e-12


def test_merw_reducible_graph_names_the_nodes(tmp_path):
    g = tmp_path / "graph.txt"
    g.write_text("4\n1 1 0 0\n1 0 0 0\n1 0 0 1\n0 0 1 0\n")
    rc, _, err = run(["merw", "--graph", str(g)])
    assert rc == 1
    assert err.splitlines()[1:] == [
        "error: graph is reducible; nodes [2, 3] are not on a cycle "
        "through node 0"]


def test_sample_describe_pipeline(tmp_path):
    grids = tmp_path / "grids.txt"
    rc, _, _ = run(["sample", "--rows", "8", "--cols", "8", "--samples", "4",
                    "--seed", "2", "--out", str(grids)])
    assert rc == 0
    rc, out, _ = run(["describe", "--in", str(grids),
                      "--shapes", "1x1,2x1"])
    assert rc == 0
    assert "normalization_error 0" in out
    assert "p[0,0;1,0][11] = 0" in out


_SAMPLE = ["sample", "--cols", "4"]


# every subcommand checks its size flags the way `sample` does; the last
# flag of each argv is the bad one
@pytest.mark.parametrize("flags", [
    _SAMPLE + ["--rows", "0"], _SAMPLE + ["--rows", "-1"],
    _SAMPLE + ["--cols", "0"], _SAMPLE + ["--samples", "0"],
    _SAMPLE + ["--samples", "-2"], _SAMPLE + ["--warmup", "-1"],
    _SAMPLE + ["--spacing", "-1"],
    ["strip", "evaluate", "--columns", "0"],
    ["strip", "evaluate", "--trials", "0"],
    ["strip", "build", "--width", "0"],
    ["describe", "--exact", "--rows", "0"],
    ["describe", "--exact", "--cols", "0"],
    ["algo1", "rate", "--side", "16", "--trials", "0"],
    ["algo1", "rate", "--side", "0"],
    ["algo1", "encode", "--in", "x", "--rows", "0"],
    ["algo2", "--side", "50", "--trials", "1", "--bins", "0"],
    ["algo2", "--trials", "0"],
    ["capacity", "--width", "-1"],
    ["strip", "evaluate", "--jobs", "0"],
    ["algo1", "rate", "--side", "16", "--jobs", "-3"],
    ["algo2", "--side", "50", "--jobs", "0"],
    ["algo2", "--side", "20"]])
def test_sample_rejects_bad_sizes(flags):
    rc, out, err = run(flags)
    assert rc == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("usage error: " + flags[-2])


def test_sample_exact_or_chain():
    rc, out, err = run(["sample", "--rows", "5", "--cols", "5", "--samples",
                        "3", "--seed", "4"])
    assert rc == 0 and "# sampler exact" in err
    assert out.count("2 5 5 01") == 3
    for argv in (["--boundary", "cyclic", "--rows", "4", "--cols", "4"],
                 ["--model", "no-111", "--cols", "9"]):
        rc, out, err = run(["sample", "--samples", "2", "--warmup", "1"] + argv)
        assert rc == 0 and "# sampler chain" in err
        assert out.count("\n") == 2 * (1 + (4 if "cyclic" in argv else 1))


@pytest.mark.parametrize("argv", [
    ["--rows", "200", "--cols", "200"],
    ["--model", "no-111", "--cols", "20000"]], ids=["grid", "chain"])
def test_flip_chain_past_the_work_guard_is_refused(argv):
    # 8e9 and 2e9 flip moves: each ran past 20 s before the chain was
    # bounded by the work guard
    got = subprocess.run([sys.executable, "-c", _BOUNDED_MAIN, "sample"] + argv,
                         capture_output=True, text=True, timeout=60)
    assert got.returncode == 1
    errors = [ln for ln in got.stderr.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "exceed the work guard" in errors[0], errors
    assert "Traceback" not in got.stderr
    assert float(got.stdout.split()[-1]) < 1.0


def test_bad_grid_symbol_names_row_and_column(tmp_path):
    grids = tmp_path / "grids.txt"
    grids.write_text("2 2 3 01\n010\n0x0\n")
    rc, _, err = run(["describe", "--in", str(grids)])
    assert rc == 1
    assert err.splitlines()[-1] == ("error: grid row 1 column 1 holds 'x', "
                                    "not in alphabet '01'")
    src = tmp_path / "pay"
    src.write_bytes(rand_bytes(8, 6))
    latf = tmp_path / "pay.lat"
    rc, _, _ = run(["strip", "encode", "--width", "4", "--columns", "64",
                    "--in", str(src), "--out", str(latf)])
    assert rc == 0
    lines = latf.read_text().split("\n")
    lines[2] = "2" + lines[2][1:]   # first grid row: codec header, grid header
    latf.write_text("\n".join(lines))
    rc, _, err = run(["strip", "decode", "--in", str(latf),
                      "--out", str(tmp_path / "back")])
    assert rc == 1
    assert err.splitlines()[-1] == ("error: grid row 0 column 0 holds '2', "
                                    "not in alphabet '01'")


@pytest.mark.parametrize("grid, message", [
    ("7 2 3 01\n010\n001\n", "grid kind 7 is neither 1 (a line) nor 2 (a grid)"),
    ("1 2 3 01\n010\n001\n", "a kind-1 grid has one row, not 2"),
    ("2 2 3 011\n010\n001\n", "alphabet '011' repeats a symbol")],
    ids=["kind", "kind-1-rows", "alphabet"])
def test_bad_grid_header_is_one_error_line(tmp_path, grid, message):
    back = tmp_path / "back"
    heads = {"describe": "",
             "strip": "strip model=hard-square n=2 boundary=zero R=16 key=0 "
                      "x=65536 bits=0\n",
             "algo1": "algo1 q=0.3 R=16 x=65536 bits=0\n"}
    for cmd, head in heads.items():
        f = tmp_path / (cmd + ".txt")
        f.write_text(head + grid)
        argv = (["describe", "--in", str(f)] if cmd == "describe"
                else [cmd, "decode", "--in", str(f), "--out", str(back)])
        rc, _, err = run(argv)
        assert rc == 1, cmd
        assert err.splitlines()[1:] == ["error: " + message], cmd
        assert not back.exists()


def test_bits_and_bytes_round_trip_every_byte():
    data = bytes(range(256))
    bits = cli._bits_from_bytes(data)
    assert isinstance(bits, bytes)
    assert bits == bytes(b >> (7 - i) & 1 for b in data for i in range(8))
    assert cli._bytes_from_bits(bits) == data
    assert cli._bytes_from_bits(list(bits)) == data
    assert cli._bits_from_bytes(b"") == b"" and cli._bytes_from_bits(b"") == b""


def test_describe_exact_ploc():
    rc, out, _ = run(["describe", "--exact", "--rows", "5", "--cols", "5",
                      "--shapes", "1x1", "--ploc"])
    assert rc == 0
    assert "p[0,0][1] = 0.238191426046495" in out
    assert "ploc_violation 0" in out


def test_strip_pipeline(tmp_path):
    payload = rand_bytes(80, 4)
    src = tmp_path / "pay"
    src.write_bytes(payload)
    latf = tmp_path / "pay.lat"
    back = tmp_path / "pay.back"
    rc, _, _ = run(["strip", "encode", "--width", "5", "--columns", "300",
                    "--in", str(src), "--out", str(latf), "--verify"])
    assert rc == 0
    head = latf.read_text().splitlines()[0]
    assert head.startswith("strip model=hard-square n=5 boundary=zero")
    rc, _, _ = run(["strip", "decode", "--in", str(latf), "--out", str(back)])
    assert rc == 0
    assert back.read_bytes() == payload
    rc, _, err = run(["strip", "encode", "--width", "5", "--columns", "5",
                      "--in", str(src), "--out", str(tmp_path / "x.lat")])
    assert rc == 1
    assert "holds only" in err
    rc, out, _ = run(["strip", "evaluate", "--width", "4", "--columns",
                      "256", "--trials", "2", "--format", "csv"])
    assert rc == 0
    assert any(ln.startswith("capacity,") for ln in out.splitlines())


@pytest.mark.parametrize("argv, held", [
    (["strip", "encode", "--width", "4", "--columns", "5"], 28),
    (["algo1", "encode", "--rows", "10", "--cols", "10"], 75)])
def test_capacity_exceeded_is_one_error_line(tmp_path, argv, held):
    src = tmp_path / "pay"
    src.write_bytes(rand_bytes(80, 4))
    rc, out, err = run(argv + ["--in", str(src), "--out", str(tmp_path / "x")])
    assert rc == 1 and out == ""
    assert err.splitlines()[1:] == [
        "error: lattice holds only %d of 640 payload bits" % held]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda t: t.replace(" x=", " y=", 1), "header misses 'x'"),
    (lambda t: t.replace(" R=", " junk R=", 1), "bad header field 'junk'"),
    (lambda t: t.split("\n", 1)[0], "missing algo1 header")],
    ids=["no-x", "bare-token", "no-newline"])
def test_algo1_bad_header(tmp_path, edit, message):
    src = tmp_path / "pay"
    src.write_bytes(rand_bytes(10, 5))
    latf = tmp_path / "a1.lat"
    rc, _, _ = run(["algo1", "encode", "--rows", "16", "--cols", "16",
                    "--in", str(src), "--out", str(latf)])
    assert rc == 0
    latf.write_text(edit(latf.read_text()))
    rc, _, err = run(["algo1", "decode", "--in", str(latf),
                      "--out", str(tmp_path / "back")])
    assert rc == 1
    assert err.splitlines()[1:] == ["error: " + message]


def _laned_algo1_file(tmp_path):
    """A 512 x 512 algo1 file at q*, whose even pass codes in 256 lanes:
    its path, payload and header tokens, with x= as a list."""
    src = tmp_path / "pay"
    src.write_bytes(rand_bytes(2000, 34))
    latf = tmp_path / "a1.lat"
    rc, _, _ = run(["algo1", "encode", "--rows", "512", "--cols", "512",
                    "--in", str(src), "--out", str(latf)])
    assert rc == 0
    head = latf.read_text().split("\n", 1)[0].split()
    assert head[3].startswith("x=")
    return latf, src.read_bytes(), head


def _with_states(latf, head, states):
    text = latf.read_text()
    head = [t if not t.startswith("x=") else "x=" + ",".join(states) for t in head]
    latf.write_text(" ".join(head) + text[text.index("\n"):])


def test_algo1_file_stores_every_lane_state(tmp_path):
    latf, payload, head = _laned_algo1_file(tmp_path)
    states = head[3][2:].split(",")
    assert len(states) == exp.algorithm1_lanes((512, 512), exp.algorithm1_optimum()[0],
                                               16) == 256
    assert all(1 << 16 <= int(x) < 1 << 17 for x in states)
    back = tmp_path / "back"
    rc, _, _ = run(["algo1", "decode", "--in", str(latf), "--out", str(back)])
    assert rc == 0 and back.read_bytes() == payload


def test_algo1_single_state_file_still_decodes(tmp_path, monkeypatch):
    # a file written before lanes stores one state for a grid whose even
    # pass now codes in 256 lanes; it decodes as one lane
    monkeypatch.setattr(ans, "ABS_LANE_MIN_NODES", 1 << 40)
    latf, payload, head = _laned_algo1_file(tmp_path)
    assert "," not in head[3]
    monkeypatch.undo()
    back = tmp_path / "back"
    rc, _, _ = run(["algo1", "decode", "--in", str(latf), "--out", str(back)])
    assert rc == 0 and back.read_bytes() == payload


@pytest.mark.parametrize("edit, message", [
    (lambda xs: xs[:2], "header field x holds 2 values, not 1 or 256"),
    (lambda xs: xs + xs[:1], "header field x holds 257 values, not 1 or 256"),
    (lambda xs: xs[:1] * 10 ** 6, "header field x holds 1000000 values, not 1 or 256"),
    (lambda xs: xs[:5] + [""] + xs[6:], "header field x holds '', not a decimal integer"),
    (lambda xs: xs[:7] + [str((1 << 16) - 1)] + xs[8:], "final coder state out of range"),
    (lambda xs: xs[:255] + [str(1 << 17)], "final coder state out of range"),
    (lambda xs: ["0"] + xs[1:], "final coder state out of range")],
    ids=["two", "one-more", "million", "empty-item", "below", "above", "lane-0"])
def test_algo1_lane_states_are_refused_before_any_lane_array(tmp_path, monkeypatch,
                                                             edit, message):
    # K comes from the grid, never from the header: a list of another
    # length, an item that is not an integer or a state outside [l, 2l) is
    # one error line, before any sublattice or coder is built
    latf, _, head = _laned_algo1_file(tmp_path)
    _with_states(latf, head, edit(head[3][2:].split(",")))

    def unreached(*args):
        raise AssertionError("built before the lane states were checked")

    monkeypatch.setattr(exp, "_sublattice", unreached)
    monkeypatch.setattr(ans.AbsStreamEncoder, "__init__", unreached)
    back = tmp_path / "back"
    rc, _, err = run(["algo1", "decode", "--in", str(latf), "--out", str(back)])
    assert rc == 1
    assert err.splitlines()[1:] == ["error: " + message]
    assert not back.exists()


def _laned_strip_file(tmp_path, cols=8192):
    """A width-4 strip file of 8192 columns, which codes in 128 lanes: its
    path, payload and header tokens, x= the fifth."""
    src = tmp_path / "pay"
    src.write_bytes(rand_bytes(1000, 35))
    latf = tmp_path / "s.lat"
    rc, _, _ = run(["strip", "encode", "--width", "4", "--columns", str(cols),
                    "--in", str(src), "--out", str(latf)])
    assert rc == 0
    head = latf.read_text().split("\n", 1)[0].split()
    assert head[6].startswith("x=")
    return latf, src.read_bytes(), head


def test_strip_file_stores_every_lane_state(tmp_path):
    latf, payload, head = _laned_strip_file(tmp_path)
    states = head[6][2:].split(",")
    codec = st.LatticeCodec(st.codec_strip(st.lat.hard_square(), 4, "zero"))
    assert len(states) == codec.lanes(8192) == 128
    assert all(1 << 16 <= int(x) < 1 << 17 for x in states)
    back = tmp_path / "back"
    rc, _, _ = run(["strip", "decode", "--in", str(latf), "--out", str(back)])
    assert rc == 0 and back.read_bytes() == payload


def test_strip_single_state_file_still_decodes(tmp_path, monkeypatch):
    # a file written before lanes stores one state for a grid that now
    # codes in 128 lanes; it decodes as one lane
    monkeypatch.setattr(st, "MIN_LANES", 1 << 40)
    latf, payload, head = _laned_strip_file(tmp_path)
    assert "," not in head[6]
    monkeypatch.undo()
    back = tmp_path / "back"
    rc, _, _ = run(["strip", "decode", "--in", str(latf), "--out", str(back)])
    assert rc == 0 and back.read_bytes() == payload


@pytest.mark.parametrize("edit, message", [
    (lambda xs: xs[:2], "header field x holds 2 values, not 1 or 128"),
    (lambda xs: xs + xs[:1], "header field x holds 129 values, not 1 or 128"),
    (lambda xs: xs[:7] + [str((1 << 16) - 1)] + xs[8:], "final coder state out of range"),
    (lambda xs: xs[:127] + [str(1 << 17)], "final coder state out of range")],
    ids=["two", "one-more", "below", "above"])
def test_strip_lane_states_are_refused_before_any_lane_array(tmp_path, monkeypatch,
                                                             edit, message):
    # K comes from the grid and R, never from the header
    latf, _, head = _laned_strip_file(tmp_path)
    _with_states(latf, head, edit(head[6][2:].split(",")))

    def unreached(*args):
        raise AssertionError("built before the lane states were checked")

    monkeypatch.setattr(st, "_lane_layout", unreached)
    monkeypatch.setattr(ans.AbsStreamEncoder, "__init__", unreached)
    back = tmp_path / "back"
    rc, _, err = run(["strip", "decode", "--in", str(latf), "--out", str(back)])
    assert rc == 1
    assert err.splitlines()[1:] == ["error: " + message]
    assert not back.exists()


def test_strip_separator_holding_a_1_is_refused(tmp_path):
    # lane 0 draws 64 columns and column 64 separates it from lane 1; a 1
    # there that keeps the columns valid is named by its row and column
    latf, _, _ = _laned_strip_file(tmp_path)
    lines = latf.read_text().split("\n")
    rows = lines[2:6]  # the codec header, the grid header, then the rows
    assert all(r[64] == "0" for r in rows)
    r = next(r for r in range(4) if rows[r][63] == rows[r][65] == "0")
    lines[2 + r] = rows[r][:64] + "1" + rows[r][65:]
    latf.write_text("\n".join(lines))
    rc, _, err = run(["strip", "decode", "--in", str(latf), "--out", str(tmp_path / "b")])
    assert rc == 1
    assert err.splitlines()[1:] == ["error: separator column holds a 1 at (%d, 64)" % r]


@pytest.mark.parametrize("field, value", [
    ("x", "1_0"), ("x", "+65536"), ("R", "1_6"), ("R", "+16"),
    ("bits", "+8"), ("bits", "0x8"), ("n", "+4"), ("n", "4.0")])
def test_header_integers_are_ascii_decimal(tmp_path, field, value):
    # int() takes '1_0', '+10' and non-ASCII digits; a header integer is
    # what '%d' writes, an optional '-' and ASCII digits, or one error line
    src = tmp_path / "pay"
    src.write_bytes(rand_bytes(8, 6))
    for cmd, argv in (("strip", ["--width", "4", "--columns", "64"]),
                      ("algo1", ["--rows", "12", "--cols", "12"])):
        if cmd == "algo1" and field == "n":
            continue
        latf = tmp_path / (cmd + ".lat")
        rc, _, _ = run([cmd, "encode", "--in", str(src), "--out", str(latf)] + argv)
        assert rc == 0
        head, rest = latf.read_text().split("\n", 1)
        tokens = [t if not t.startswith(field + "=") else field + "=" + value
                  for t in head.split()]
        latf.write_text(" ".join(tokens) + "\n" + rest)
        rc, _, err = run([cmd, "decode", "--in", str(latf), "--out", str(tmp_path / "b")])
        assert rc == 1, cmd
        assert err.splitlines()[1:] == [
            "error: header field %s holds %r, not a decimal integer" % (field, value)], cmd


def test_header_ints_refuse_non_ascii_digits():
    # a file's header reads as latin-1, which has no other decimal digits;
    # the reader refuses them all the same
    for text in ("\u0661\u0660", "\u00b2", "\uff11", "1\u0660"):
        with pytest.raises(st.ConfigMismatch, match="not a decimal integer"):
            st.header_ints({"x": text}, "x")
    assert st.header_ints({"x": "-5"}, "x") == [-5]
    assert st.header_ints({"x": "007,65536"}, "x", 1, 2) == [7, 65536]


@pytest.mark.parametrize("grid", ["2 0 4 01\n", "2 3 3 012\n222\n222\n222\n"],
                         ids=["empty", "non-binary"])
def test_algo1_bad_q_is_one_error_line(tmp_path, grid):
    latf = tmp_path / "a1.lat"
    latf.write_text("algo1 q=2 R=16 x=65536 bits=0\n" + grid)
    rc, _, err = run(["algo1", "decode", "--in", str(latf),
                      "--out", str(tmp_path / "back")])
    assert rc == 1
    assert err.splitlines()[1:] == ["error: q must lie in [0, 1]"]


@pytest.mark.parametrize("argv", [["strip", "encode", "--width", "4"],
                                  ["algo1", "encode"]])
def test_negative_bit_count_is_one_error_line(tmp_path, argv):
    # a negative bits= header used to slice the payload from its end
    src = tmp_path / "pay"
    src.write_bytes(rand_bytes(64, 5))
    latf, back = tmp_path / "x.lat", tmp_path / "back"
    rc, _, _ = run(argv + ["--in", str(src), "--out", str(latf)])
    assert rc == 0
    latf.write_text(latf.read_text().replace(" bits=512", " bits=-5", 1))
    rc, _, err = run([argv[0], "decode", "--in", str(latf), "--out", str(back)])
    assert rc == 1
    assert err.splitlines()[1:] == ["error: declared bit count -5 is negative"]
    assert not back.exists()


# each asks for petabytes, so numpy refuses at once; a size that allocates
# step by step (describe --exact on a huge region) would not be safe here
@pytest.mark.parametrize("argv", [
    ["strip", "encode", "--columns", "1000000000000000"],
    ["strip", "evaluate", "--columns", "1000000000000000"],
    ["algo1", "encode", "--rows", "100000000", "--cols", "100000000"],
    ["algo1", "rate", "--side", "100000000"],
    ["sample", "--samples", "1000000000000000"],
    ["algo2", "--side", "100000000"]])
def test_oversized_size_is_one_error_line(tmp_path, argv):
    if argv[1] == "encode":
        src = tmp_path / "pay"
        src.write_bytes(rand_bytes(8, 6))
        argv = argv + ["--in", str(src), "--out", str(tmp_path / "x")]
    rc, _, err = run(argv)
    assert rc == 1
    lines = err.splitlines()[1:]
    assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate")


def test_bare_memory_error_is_one_error_line(monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(exp, "algorithm2_simulate", no_memory)
    rc, _, err = run(["algo2"])
    assert rc == 1
    assert err.splitlines()[1:] == ["error: out of memory"]


@pytest.mark.parametrize("cmd, flags", [
    ("abs", ["--q", "3/10", "--precision", "14"]),
    ("ans", ["--probs", "1/2,1/4,1/4", "--forbidden-eps", "1/64",
             "--digit-bits", "2"])])
def test_decode_builds_only_the_container_table(tmp_path, monkeypatch, cmd,
                                                flags):
    src, enc, dec = tmp_path / "in", tmp_path / "enc", tmp_path / "dec"
    src.write_bytes(bytes([0, 1, 2, 0, 2]) * 20)
    rc, _, _ = run([cmd, "encode"] + flags + ["--in", str(src), "--out",
                                              str(enc)])
    assert rc == 0
    built = []
    real = ans.AnsTable.__init__

    def counting(self, *a, **k):
        built.append(a)
        real(self, *a, **k)

    monkeypatch.setattr(ans.AnsTable, "__init__", counting)
    ans._keyed_table.cache_clear()   # decode as its own process starts
    rc, _, _ = run([cmd, "decode"] + flags + ["--in", str(enc), "--out",
                                              str(dec)])
    assert rc == 0 and dec.read_bytes() == src.read_bytes()
    assert len(built) == 1   # unpack_container rebuilding the stored table


def test_ans_encode_verify_builds_one_table(tmp_path, monkeypatch):
    src, enc, dec = tmp_path / "in", tmp_path / "enc", tmp_path / "dec"
    src.write_bytes(bytes([0, 1, 2, 2, 1]) * 100)
    flags = ["--probs", "1/2,1/4,1/4", "--digit-bits", "8", "--precision", "6"]
    built = []
    real = ans.AnsTable.__init__

    def counting(self, *a, **k):
        built.append(a)
        real(self, *a, **k)

    monkeypatch.setattr(ans.AnsTable, "__init__", counting)
    rc, out, _ = run(["ans", "encode"] + flags + ["--in", str(src), "--out",
                                                  str(enc), "--verify"])
    assert rc == 0 and out.startswith("symbols 500\n")
    assert len(built) == 1   # the reread reuses the encoder's cached table
    rc, _, _ = run(["ans", "decode"] + flags + ["--in", str(enc), "--out",
                                                str(dec)])
    assert rc == 0 and dec.read_bytes() == src.read_bytes()


def test_zero_slot_count_is_one_error_line(tmp_path, monkeypatch):
    src, enc = tmp_path / "in", tmp_path / "enc"
    src.write_bytes(bytes([0, 1, 2, 0]))
    flags = ["--probs", "1/2,1/4,1/4", "--precision", "4"]
    rc, _, _ = run(["ans", "encode"] + flags + ["--in", str(src), "--out",
                                                str(enc)])
    assert rc == 0
    blob = bytearray(enc.read_bytes())
    assert struct.unpack_from("<3I", blob, 9) == (8, 4, 4)
    struct.pack_into("<3I", blob, 9, 12, 4, 0)  # still sums to l = 16
    enc.write_bytes(bytes(blob))

    # the count is refused before the keyed shuffle draws anything
    def no_draws(self, k):
        raise AssertionError("the keyed shuffle ran")

    monkeypatch.setattr(SplitMix64, "block", no_draws)
    rc, _, err = run(["ans", "decode"] + flags + ["--in", str(enc), "--out",
                                                  str(tmp_path / "dec")])
    assert rc == 1
    assert err.splitlines()[1:] == ["error: every symbol needs at least one slot"]


def test_strip_encode_verify_builds_one_strip(tmp_path, monkeypatch):
    src, latf = tmp_path / "pay", tmp_path / "s.lat"
    src.write_bytes(rand_bytes(16, 3))
    built = []
    real = st.strip_model

    def counting(*a, **k):
        built.append(a)
        return real(*a, **k)

    monkeypatch.setattr(st, "strip_model", counting)
    rc, _, _ = run(["strip", "encode", "--width", "6", "--columns", "64",
                    "--in", str(src), "--out", str(latf), "--verify"])
    assert rc == 0
    assert len(built) == 1   # the reread reuses the encoder's cached strip
    assert st.decode_text(latf.read_bytes()) == np.unpackbits(
        np.frombuffer(src.read_bytes(), dtype=np.uint8)).tobytes()


def test_algo1_encode_verify_rereads(tmp_path, monkeypatch):
    src = tmp_path / "pay"
    src.write_bytes(rand_bytes(16, 4))
    argv = ["algo1", "encode", "--rows", "20", "--cols", "20", "--in", str(src),
            "--verify", "--out"]
    calls = []
    real = exp.algorithm1_decode

    def counting(*a, **k):
        calls.append(a)
        return real(*a, **k)

    monkeypatch.setattr(exp, "algorithm1_decode", counting)
    rc, _, _ = run(argv + [str(tmp_path / "a.lat")])
    assert rc == 0 and len(calls) == 1
    # a reread that disagrees with the payload is a data error
    monkeypatch.setattr(exp, "algorithm1_decode", lambda *a, **k: [])
    rc, _, err = run(argv + [str(tmp_path / "b.lat")])
    assert rc == 1
    assert err.splitlines()[1:] == ["error: verification reread mismatch"]
    assert not (tmp_path / "b.lat").exists()


@pytest.mark.parametrize("cmd", ["strip", "ans"])
def test_failed_verify_reread_writes_no_file(tmp_path, monkeypatch, cmd):
    # the reread runs before the output is written: a mismatch is one
    # error line and leaves nothing at --out
    src, out = tmp_path / "pay", tmp_path / "out"
    src.write_bytes(bytes(b & 1 for b in rand_bytes(16, 6)))  # two symbols
    if cmd == "strip":
        argv = ["strip", "encode", "--width", "6", "--columns", "64"]
        monkeypatch.setattr(st, "decode_text", lambda data: b"")
    else:
        argv = ["ans", "encode"]
        monkeypatch.setattr(ans, "decode_container",
                            lambda blob, forbidden=False: np.zeros(0, np.uint8))
    rc, stdout, err = run(argv + ["--in", str(src), "--out", str(out), "--verify"])
    assert rc == 1 and stdout == ""
    assert err.splitlines()[1:] == ["error: verification reread mismatch"]
    assert not out.exists()


def test_cli_import_leaves_multiprocessing_out():
    # the process pool is imported only when --jobs asks for workers
    code = ("import sys, latticecode.cli; "
            "print('multiprocessing' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(latticecode.__file__).parents[1])]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    got = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert got.returncode == 0 and got.stdout == "False\n"


@pytest.mark.parametrize("cmd", ["encode", "decode"])
def test_strip_past_the_law_table_bound_is_one_error_line(tmp_path, monkeypatch,
                                                          cmd):
    src = tmp_path / "pay"
    src.write_bytes(rand_bytes(4, 5))
    latf = tmp_path / "x.lat"
    argv = ["strip", "encode", "--width", "4", "--in", str(src), "--out", str(latf)]
    if cmd == "decode":
        assert run(argv)[0] == 0
        argv = ["strip", "decode", "--in", str(latf), "--out", str(tmp_path / "back")]
        st.codec_strip.cache_clear()   # decode as its own process starts
    # 8 width-4 states by 1 + 2 + 3 + 5 column prefixes
    monkeypatch.setattr(st, "MAX_LAW_ENTRIES", 87)
    rc, out, err = run(argv)
    assert rc == 1 and out == ""
    assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
        "error: a law table of 8 states by 11 prefixes exceeds 87 entries"]
    assert "Traceback" not in err
    assert not (tmp_path / ("x.lat" if cmd == "encode" else "back")).exists()


@pytest.mark.parametrize("cmd", ["encode", "decode", "evaluate"])
def test_strip_too_tall_for_a_law_table_is_refused_first(tmp_path, monkeypatch,
                                                         cmd):
    # a 130-byte file of a 19-row grid once built a 10946-state dense strip
    # (about 10 s and 2 GB) before its law table was refused, and so did
    # rate trials on that strip
    src, latf = tmp_path / "pay", tmp_path / "tall.lat"
    src.write_bytes(b"")
    latf.write_bytes(b"strip model=hard-square n=19 boundary=zero R=16 key=0 "
                     b"x=65536 bits=0\n"
                     + st.lat.save_grid(np.zeros((19, 3), dtype=np.int8)))
    out = tmp_path / "out"
    argv = {"encode": ["strip", "encode", "--width", "19", "--in", str(src)],
            "decode": ["strip", "decode", "--in", str(latf)],
            "evaluate": ["strip", "evaluate", "--width", "19", "--columns", "4",
                         "--trials", "1"]}[cmd]

    def no_pairs(*args):
        raise AssertionError("the dense strip was built")

    monkeypatch.setattr(st.lat, "column_compat", no_pairs)
    rc, stdout, err = run(argv + ["--out", str(out)])
    assert rc == 1 and stdout == ""
    assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
        "error: a law table of 10946 states by 17709 prefixes exceeds "
        "33554432 entries"]
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("argv", [["strip", "encode", "--width", "4"],
                                  ["algo1", "encode"]])
def test_precision_zero_is_rejected(tmp_path, argv):
    # a 1-state coder has no dyadic law strictly inside (0, 1)
    src = tmp_path / "pay"
    src.write_bytes(rand_bytes(4, 5))
    rc, _, err = run(argv + ["--precision", "0", "--in", str(src),
                             "--out", str(tmp_path / "x")])
    assert rc == 1
    assert err.splitlines()[1:] == ["error: precision must be positive"]


@pytest.mark.parametrize("case", ["encode", "evaluate", "header"])
def test_negative_precision_is_one_error_line(tmp_path, case):
    src = tmp_path / "pay"
    src.write_bytes(rand_bytes(4, 5))
    latf = tmp_path / "x.lat"
    if case == "encode":
        argv = ["strip", "encode", "--width", "4", "--precision", "-1",
                "--in", str(src), "--out", str(latf)]
    elif case == "evaluate":
        argv = ["strip", "evaluate", "--width", "4", "--columns", "16",
                "--trials", "2", "--precision", "-1"]
    else:
        rc, _, _ = run(["strip", "encode", "--width", "4", "--in", str(src),
                        "--out", str(latf)])
        assert rc == 0
        latf.write_text(latf.read_text().replace(" R=16 ", " R=-1 ", 1))
        argv = ["strip", "decode", "--in", str(latf),
                "--out", str(tmp_path / "back")]
    rc, _, err = run(argv)
    assert rc == 1
    assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
        "error: precision must be positive"]
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["strip", "algo1", "header"])
def test_huge_precision_is_one_error_line(tmp_path, case):
    src = tmp_path / "pay"
    src.write_bytes(rand_bytes(4, 5))
    latf = tmp_path / "x.lat"
    if case == "header":
        rc, _, _ = run(["strip", "encode", "--width", "4", "--in", str(src),
                        "--out", str(latf)])
        assert rc == 0
        head, grid = latf.read_text().split("\n", 1)
        head = " ".join("R=1100" if t.startswith("R=") else
                        "x=%d" % (1 << 1100) if t.startswith("x=") else t
                        for t in head.split())
        latf.write_text(head + "\n" + grid)
        argv = ["strip", "decode", "--in", str(latf),
                "--out", str(tmp_path / "back")]
    else:
        argv = [case, "encode", "--precision", "1100", "--in", str(src),
                "--out", str(latf)]
        if case == "strip":
            argv += ["--width", "4"]
    rc, _, err = run(argv)
    assert rc == 1
    assert err.splitlines()[1:] == ["error: precision must be at most 64"]


def test_algo1_pipeline(tmp_path):
    payload = rand_bytes(30, 5)
    src = tmp_path / "pay"
    src.write_bytes(payload)
    latf = tmp_path / "a1.lat"
    back = tmp_path / "a1.back"
    rc, _, _ = run(["algo1", "encode", "--rows", "30", "--cols", "30",
                    "--in", str(src), "--out", str(latf)])
    assert rc == 0
    assert latf.read_text().startswith("algo1 q=")
    rc, _, _ = run(["algo1", "decode", "--in", str(latf), "--out", str(back)])
    assert rc == 0
    assert back.read_bytes() == payload
    rc, out, _ = run(["algo1", "rate", "--side", "64", "--trials", "2"])
    assert rc == 0
    assert "closed_form = " in out
    assert "optimal_q = " in out


def test_algo2_formats():
    rc, out, _ = run(["algo2", "--side", "50", "--trials", "2"])
    assert rc == 0
    assert "entropy_direct" in out
    rc, out, _ = run(["algo2", "--side", "50", "--trials", "2",
                      "--format", "csv"])
    assert rc == 0
    assert "curve,a" in out
    assert "curve,q" in out


@pytest.mark.parametrize("profile", ["nan", "inf", "0.2,-inf", "1,2,3,4,5,6",
                                     "0.2,x"])
def test_algo2_rejects_bad_profile(profile):
    rc, out, err = run(["algo2", "--side", "50", "--profile", profile])
    assert rc == 2
    assert out == ""
    lines = [ln for ln in err.splitlines() if not ln.startswith("# ")]
    assert len(lines) == 1
    assert lines[0].startswith("usage error: --profile %r: " % profile)


def test_usage_exit_codes(tmp_path):
    rc, _, _ = run(["describe"])
    assert rc == 2
    rc, _, _ = run(["algo1", "decode"])
    assert rc == 2
    rc, _, _ = run(["strip", "encode", "--width", "4"])
    assert rc == 2
    with pytest.raises(SystemExit) as info:
        run(["not-a-command"])
    assert info.value.code == 2


def test_determinism_same_argv_same_bytes():
    a = run(["sample", "--rows", "6", "--cols", "6", "--samples", "2",
             "--seed", "9"])[1]
    b = run(["sample", "--rows", "6", "--cols", "6", "--samples", "2",
             "--seed", "9"])[1]
    c = run(["sample", "--rows", "6", "--cols", "6", "--samples", "2",
             "--seed", "10"])[1]
    assert a == b
    assert a != c


def test_console_entry_subprocess():
    got = subprocess.run([sys.executable, "-m", "latticecode.cli",
                          "capacity", "--model", "k-model:2"],
                         capture_output=True, text=True)
    assert got.returncode == 0
    assert "benefit 65%" in got.stdout



# Recorded before the strip codec and the checkerboard writer moved onto one
# shared walk-draw-replay driver; the move must not change a single byte.
CODEC_DIGESTS = {
    "algo1opt": "b9a6cf28e34a33f56204ca6922dc91afa03c00221d895a6d9d3b5633aeb84ca1",
    "algo1q0": "763fdc076f0dc104726a67d23a04e40cc2e45c2e2f65201316138868288f691c",
    "algo1q17": "8cc48789267deb71634ab9f9e88b16a57041eb1da1e653b541f80186acdbd4f2",
    "evaluate": "c5e151aa120595d23c0d16318149aa82978dfeaab87941d12c370cc5ecd3fa52",
    "rate": "4b325ea657ba7fe11b92f2a0cb75ec38a5fee2a9dcf51de744312f5944060f7a",
    "strip5cyclic": "6833aff9d15c8b36f25e935a72dbc23f333e62d65b21460dbea402540b970bba",
    "strip8zero": "938f48c261966a5f391ceacb48c7029aff7da7fb2d3c83094c50a63a05772ef0",
}


def test_codec_outputs_are_byte_identical(tmp_path):
    # strip and algo1 lattice files (which must also decode back) and the
    # stdout of the two rate measurements, as sha256 digests
    got = {}
    files = {"strip8zero": (["strip", "encode", "--width", "8", "--columns",
                             "120"], 60),
             "strip5cyclic": (["strip", "encode", "--width", "5", "--boundary",
                               "cyclic", "--columns", "150"], 40),
             "algo1opt": (["algo1", "encode", "--rows", "32", "--cols", "32"], 40),
             "algo1q17": (["algo1", "encode", "--rows", "32", "--cols", "33",
                           "--q", "0.17"], 40),
             "algo1q0": (["algo1", "encode", "--rows", "33", "--cols", "32",
                          "--q", "0"], 40)}
    for name, (argv, nbytes) in files.items():
        payload = rand_bytes(nbytes, 31)
        src, latf, back = (tmp_path / (name + ext) for ext in (".bin", ".lat",
                                                               ".back"))
        src.write_bytes(payload)
        rc, _, _ = run(argv + ["--in", str(src), "--out", str(latf)])
        assert rc == 0, name
        rc, _, _ = run([argv[0], "decode", "--in", str(latf), "--out", str(back)])
        assert rc == 0 and back.read_bytes() == payload, name
        got[name] = hashlib.sha256(latf.read_bytes()).hexdigest()
    for name, argv in (("evaluate", ["strip", "evaluate", "--verify", "--width",
                                     "6", "--columns", "256", "--trials", "3",
                                     "--seed", "3"]),
                       ("rate", ["algo1", "rate", "--verify", "--side", "48",
                                 "--trials", "3", "--seed", "2"])):
        rc, out, _ = run(argv)
        assert rc == 0, name
        got[name] = hashlib.sha256(out.encode()).hexdigest()
    assert got == CODEC_DIGESTS


# Recorded before the --in/--out/--verify declarations were merged into one
# helper: `latticecode --help` ("") and each subcommand's --help at 80
# columns, as sha256 digests.
HELP_DIGESTS = {
    "": "76e7eddbdb14a3b9b849a37627b12652419fcb1cec45c8be8743620826f7343b",
    "capacity": "2615c95bb2468bbade5021b1949a03fdd1fa4b6ad3e586d4a52d165db7eb6b49",
    "merw": "904b294bf461e5bd630f40a33d38e06bbaf2506cbabbc2bd0f48da9111a023d7",
    "abs": "02eeec12cf5d81ac38ee359c8ae3e1155665e272d6cc7f983795c7dabc548f66",
    "ans": "0d3ec9f8b7e54faeb1241bc7bcf48479987e584dec550aee036398fb6cf38be9",
    "sample": "8ba02149a369a1308c95ff00eed4dbb02354ef8d984ecd9a28a1c4d2a588c5b7",
    "describe": "df0eec40ba3b9b645167c326dd890c931deddab5bbc0c8c873b32550dc94af70",
    "strip": "ba07d9e5d1675a818640b6b0953bebc57a7dbb459dbb79d46a8abb9ca8ffdb50",
    "algo1": "78581bb39c12a7942347e6d9c8625b876c873a60f0f60b8b3cb0a33f788a530c",
    "algo2": "37a64cb675aa6784f7c2780ddc1ef82b2c90a9127d7a2b2201aab9ec56c71c0f",
    "report": "4d4abf484fd00627e0fd4aa5ae1f27bd16ca229702430be51b1354e82de1fc38",
}


def test_help_is_byte_identical(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = {}
    for cmd in HELP_DIGESTS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as e:
            main(([cmd] if cmd else []) + ["--help"])
        assert e.value.code == 0, cmd
        got[cmd] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert got == HELP_DIGESTS



# Recorded before the strip graph was built straight from the compatibility
# matrix: capacity --width 1..14 per boundary (stdout joined in width order),
# strip build --width 8 and merw on a 3-node file.
GRAPH_DIGESTS = {
    "capacity_zero": "418d949d903f06011118150a551f40f7ebab4943a616d7bab502e26001d82404",
    "capacity_cyclic": "53f736647eab174fcda81b66c65a4f87a00f6950cef1450ed98be811bf569cc9",
    "strip_build": "d3a5dc40d9d9b82c867e736e309d0763041f07efe0632cfb419c4f2836432def",
    "merw": "a3613ea50f17a7cc660aeac2fa8bdac79079ec6537507b98f7d91020ae5de4d1",
}


def test_graph_outputs_are_byte_identical(tmp_path):
    got = {}
    for boundary in ("zero", "cyclic"):
        outs = []
        for n in range(1, 15):
            rc, out, _ = run(["capacity", "--width", str(n), "--boundary",
                              boundary])
            assert rc == 0, (boundary, n)
            outs.append(out)
        got["capacity_" + boundary] = hashlib.sha256(
            "".join(outs).encode()).hexdigest()
    rc, out, _ = run(["strip", "build", "--width", "8"])
    assert rc == 0
    got["strip_build"] = hashlib.sha256(out.encode()).hexdigest()
    g = tmp_path / "graph.txt"
    g.write_text("3\n0 1 1\n1 0 1\n1 1 2\n")
    rc, out, _ = run(["merw", "--graph", str(g), "--path", "0,1,2"])
    assert rc == 0
    got["merw"] = hashlib.sha256(out.encode()).hexdigest()
    assert got == GRAPH_DIGESTS
