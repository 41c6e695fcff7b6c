"""Properties of the shared walk-draw-replay loops and their files.

Both codecs write through `strip._write` and read back through
`strip._read`; every example must decode to exactly the payload bits the
encoder consumed and leave a valid lattice.  Mutated strip and algo1 files
and mutated ANS1 containers must decode or fail with one `error:` line, in
bounded time.  The profiles are derandomized and the container mutations
seeded, so the examples are the same on every run.
"""

import contextlib
import functools
import io
import random
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as hs

from latticecode import experiments as ex
from latticecode import lattice as lat
from latticecode import strip as st
from latticecode.cli import main

HS = lat.hard_square()
PROFILE = settings(derandomize=True, deadline=None, database=None,
                   max_examples=100)
PAYLOADS = hs.lists(hs.integers(0, 1), max_size=96)

_strips = {}


def _strip(width, boundary):
    key = (width, boundary)
    if key not in _strips:
        _strips[key] = st.strip_model(HS, width, boundary)
    return _strips[key]


@PROFILE
@given(width=hs.integers(1, 6), boundary=hs.sampled_from(["zero", "cyclic"]),
       precision=hs.integers(1, 24), cols=hs.integers(1, 12), bits=PAYLOADS)
def test_strip_roundtrip(width, boundary, precision, cols, bits):
    codec = st.LatticeCodec(_strip(width, boundary), precision)
    res = codec.encode(bits, cols, partial=True)
    assert res.consumed <= len(bits)
    back = codec.decode(res.grid, res.final_state, res.consumed)
    assert back == bits[:res.consumed]
    if boundary == "zero":
        assert lat.scan(res.grid, HS) == []


@PROFILE
@given(rows=hs.integers(1, 12), cols=hs.integers(1, 12),
       q=hs.floats(0.0, 1.0), precision=hs.integers(1, 24), bits=PAYLOADS)
def test_algorithm1_roundtrip(rows, cols, q, precision, bits):
    res = ex.algorithm1_encode((rows, cols), q, bits, precision, partial=True)
    assert res.consumed <= len(bits)
    back = ex.algorithm1_decode(res.grid, q, res.final_state, res.consumed,
                                precision)
    assert back == bits[:res.consumed]
    assert lat.scan(res.grid, HS) == []


# ---------------------------------------------------------------------------
# mutated lattice files

PAYLOAD = bytes([0x5A, 0xC3, 0x0F, 0x96])
ENCODE = {"strip": ["strip", "encode", "--width", "4", "--columns", "24"],
          "algo1": ["algo1", "encode", "--rows", "10", "--cols", "10"]}
# seconds a decode may take on a file of this size
DECODE_BOUND = 2.0


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@functools.lru_cache(maxsize=None)
def _encoded(kind):
    with tempfile.TemporaryDirectory() as d:
        src, lat_file = Path(d) / "pay", Path(d) / "lat"
        src.write_bytes(PAYLOAD)
        assert _main(ENCODE[kind] + ["--in", str(src), "--out", str(lat_file)])[0] == 0
        return lat_file.read_text()


def _mutate(text, ops):
    head, grid_head, *rows = text.rstrip("\n").split("\n")
    fields = head.split()
    for op, a, b in ops:
        if op == "flip" and rows:
            i = a % len(rows)
            j = b % len(rows[i])
            rows[i] = rows[i][:j] + "10"[int(rows[i][j])] + rows[i][j + 1:]
        elif op == "set":
            fields = [f for f in fields if not f.startswith(a + "=")] + [a + "=" + b]
        elif op == "drop":
            fields = [f for f in fields if not f.startswith(a + "=")]
        elif op == "truncate":
            rows = rows[:max(len(rows) - a, 0)]
            if b:  # keep the grid header's row count in step
                g = grid_head.split()
                grid_head = " ".join([g[0], str(len(rows))] + g[2:])
    return "\n".join([" ".join(fields), grid_head] + rows) + "\n"


FIELDS = hs.sampled_from(["x", "bits", "R", "n", "q"])
VALUES = hs.one_of(
    hs.integers(-(1 << 70), 1 << 70).map(str),
    hs.sampled_from(["", "0", "1", "-1", "3", "19", "24", "64", "65", "0.5",
                     "nan", "inf", "1e400", "abc", "9" * 5000]))
MUTATIONS = hs.lists(hs.one_of(
    hs.tuples(hs.just("flip"), hs.integers(0, 99), hs.integers(0, 99)),
    hs.tuples(hs.just("set"), FIELDS, VALUES),
    hs.tuples(hs.just("drop"), FIELDS, hs.just(None)),
    hs.tuples(hs.just("truncate"), hs.integers(1, 12), hs.booleans())),
    min_size=1, max_size=3)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(kind=hs.sampled_from(["strip", "algo1"]), ops=MUTATIONS)
@example(kind="strip", ops=[("set", "n", "19")])
@example(kind="strip", ops=[("set", "n", "1" + "0" * 9)])
@example(kind="algo1", ops=[("set", "R", "65")])
@example(kind="algo1", ops=[("flip", 0, 0)])
def test_mutated_lattice_files_decode_or_fail_cleanly(kind, ops):
    text = _mutate(_encoded(kind), ops)
    with tempfile.TemporaryDirectory() as d:
        src, back = Path(d) / "lat", Path(d) / "back"
        src.write_text(text)
        t = time.perf_counter()
        rc, out, err = _main([kind, "decode", "--in", str(src), "--out", str(back)])
        assert time.perf_counter() - t < DECODE_BOUND
        assert out == ""
        lines = [ln for ln in err.splitlines() if not ln.startswith("# ")]
        if rc == 0:
            # the files carry no checksum yet, so a flipped cell that leaves
            # a valid lattice may decode to other bits; an untouched file
            # must decode to the payload
            assert lines == []
            if text == _encoded(kind):
                assert back.read_bytes() == PAYLOAD
        else:
            assert rc == 1
            assert len(lines) == 1 and lines[0].startswith("error: ")


# ---------------------------------------------------------------------------
# mutated ANS1 containers

CONTAINERS = {
    "ans-forbidden": ["ans", "--probs", "1/2,1/4,1/4", "--forbidden-eps", "1/64"],
    "ans-w3": ["ans", "--probs", "1/2,1/4,1/4", "--digit-bits", "3", "--key", "9"],
    "abs": ["abs", "--q", "1/3", "--key", "5"],
}
SYMBOLS = {"ans-forbidden": bytes([0, 1, 2, 0, 0, 2, 1, 0] * 24),
           "ans-w3": bytes([2, 0, 0, 1, 0, 2, 0, 1] * 24),
           "abs": bytes(range(0, 256, 5))}
# seconds a container decode may take: a changed digit width can ask for a
# table of up to 2^20 slots, about half a second to build
ANS_DECODE_BOUND = 5.0


@functools.lru_cache(maxsize=None)
def _container(kind):
    with tempfile.TemporaryDirectory() as d:
        src, blob = Path(d) / "sym", Path(d) / "blob"
        src.write_bytes(SYMBOLS[kind])
        cmd = CONTAINERS[kind]
        assert _main(cmd[:1] + ["encode"] + cmd[1:]
                     + ["--in", str(src), "--out", str(blob)])[0] == 0
        return blob.read_bytes()


def _header_fields(blob):
    """(name, offset, byte size) of every ANS1 header field after the magic
    and version: w, R, n, each l_s, key, final state and digit count."""
    n = int.from_bytes(blob[7:9], "little")
    fields = [("w", 5, 1), ("R", 6, 1), ("n", 7, 2)]
    fields += [("l_s%d" % i, 9 + 4 * i, 4) for i in range(n)]
    off = 9 + 4 * n
    fields += [("key", off, 8), ("x", off + 8, 8), ("ndigits", off + 16, 8)]
    return fields


def _container_mutations(blob, rng):
    """Seeded (label, mutated blob) cases: single bit flips anywhere, random
    header bytes, edge and random values in every header field, and
    truncations at every header length and inside the payload."""
    fields = _header_fields(blob)
    head = fields[-1][1] + fields[-1][2]
    for _ in range(120):
        k = rng.randrange(8 * len(blob))
        out = bytearray(blob)
        out[k // 8] ^= 1 << (k % 8)
        yield "flip bit %d" % k, bytes(out)
    for _ in range(60):
        out = bytearray(blob)
        for _ in range(rng.randint(1, 4)):
            out[rng.randrange(head)] = rng.randrange(256)
        yield "header bytes %s" % out[:head].hex(), bytes(out)
    for name, off, size in fields:
        old = int.from_bytes(blob[off:off + size], "little")
        top = (1 << (8 * size)) - 1
        for v in {0, 1, 2, 8, 9, 20, 64, old - 1, old + 1, old * 2, top,
                  rng.randrange(top + 1), rng.randrange(top + 1)}:
            if 0 <= v <= top:
                out = blob[:off] + v.to_bytes(size, "little") + blob[off + size:]
                yield "%s=%d" % (name, v), out
    for cut in sorted({*range(head + 2), *rng.sample(range(len(blob)), 10)}):
        yield "truncate to %d" % cut, blob[:cut]


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
def test_mutated_containers_decode_or_fail_cleanly(kind):
    blob = _container(kind)
    cmd = CONTAINERS[kind]
    cases = 0
    with tempfile.TemporaryDirectory() as d:
        src, back = Path(d) / "blob", Path(d) / "back"
        for label, mutated in _container_mutations(blob, random.Random(kind)):
            src.write_bytes(mutated)
            t = time.perf_counter()
            rc, _, err = _main(cmd[:1] + ["decode"] + cmd[1:]
                               + ["--in", str(src), "--out", str(back)])
            assert time.perf_counter() - t < ANS_DECODE_BOUND, label
            lines = [ln for ln in err.splitlines() if not ln.startswith("# ")]
            if rc == 0:
                assert lines == [], label
            else:
                assert rc == 1, label
                assert len(lines) == 1 and lines[0].startswith("error: "), \
                    (label, lines)
            cases += 1
    assert cases > 250
