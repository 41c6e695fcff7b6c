import contextlib
import hashlib
import io

import numpy as np
import pytest

from latticecode.cli import main
from latticecode.rng import SplitMix64

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
# the counter wraps past 2^64 on the third draw
NEAR_WRAP = (-3 * GAMMA) & MASK64


@pytest.mark.parametrize("seed", [0, 1, MASK64, NEAR_WRAP])
@pytest.mark.parametrize("n", [0, 1, 1000])
def test_block_is_the_single_call_stream(seed, n):
    a, b = SplitMix64(seed), SplitMix64(seed)
    got = a.block(n)
    assert got.dtype == np.uint64 and got.shape == (n,)
    assert got.tolist() == [b.next_u64() for _ in range(n)]
    assert a._state == b._state
    # and the streams go on together
    assert a.next_u64() == b.next_u64()


def test_block_refuses_a_negative_count():
    rng = SplitMix64(5)
    with pytest.raises(ValueError):
        rng.block(-1)
    assert rng.next_u64() == SplitMix64(5).next_u64()


@pytest.mark.parametrize("seed", [0, 1, MASK64, NEAR_WRAP])
@pytest.mark.parametrize("n", [0, 1, 1000])
def test_uniforms_is_the_single_call_stream(seed, n):
    a, b = SplitMix64(seed), SplitMix64(seed)
    got = a.uniforms(n)
    assert got.dtype == np.float64
    assert got.tolist() == [b.uniform() for _ in range(n)]
    assert a._state == b._state


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, buf.getvalue()


# Recorded before the generator's bulk consumers moved to block draws:
# stdout of algo2 (text and csv, one and two jobs), strip evaluate, algo1
# rate and sample (exact and both chain cases), and ans/abs containers.
RNG_DIGESTS = {
    "algo2_text_j1": "c6664a2d584df095307fef471d016739fce45a14ae458ab4753048f74b894359",
    "algo2_text_j2": "c6664a2d584df095307fef471d016739fce45a14ae458ab4753048f74b894359",
    "algo2_csv_j1": "78bf8c08598dfe464867be1add3d192d80393993ff35d88c26478092888eb063",
    "algo2_csv_j2": "78bf8c08598dfe464867be1add3d192d80393993ff35d88c26478092888eb063",
    "evaluate": "8086830d9824f319d05712abf8b996f9350760a00d9fce01c9542058c89e28d7",
    "rate": "16203f92b4894ccd6bfa5dff58e480aeb019001d5a312ff34afbeb50c5994bc9",
    "sample_exact": "8fd1bf444ab68ce698ae6d79ef8eabc4188092f5e69650d81309970035e01cd7",
    "sample_cyclic": "6e6d0b447b014d96abf37fa6e7030dfe344249bedc1ea0b2720c12a58b9d14d6",
    "sample_chain_1d": "8f2b1cb078368b85d2ad89b442c0d876884a63dc1b75ab866377e91e901c4ede",
    "ans_w3": "708fe25c07fc3e4753f8e9910bf64fe161b1588d5b3a2a7413b5a8e684dbd548",
    "ans_w8": "7fe73e6a72aa909b58759954f028d6417c1ec85fcdd40e5f99aa592da86248ae",
    "abs_key": "d71275ddc19e20bb019948d0986980bc2727842d1a4d3b7d1a068b2b8ba30297",
}

STDOUT = {
    "algo2_text_j1": ["algo2", "--side", "50", "--trials", "3", "--bins", "20",
                      "--seed", "5"],
    "algo2_text_j2": ["algo2", "--side", "50", "--trials", "3", "--bins", "20",
                      "--seed", "5", "--jobs", "2"],
    "algo2_csv_j1": ["algo2", "--side", "60", "--trials", "2", "--seed", "17",
                     "--profile", "0.1,0.6,-0.3", "--format", "csv"],
    "algo2_csv_j2": ["algo2", "--side", "60", "--trials", "2", "--seed", "17",
                     "--profile", "0.1,0.6,-0.3", "--format", "csv",
                     "--jobs", "2"],
    "evaluate": ["strip", "evaluate", "--verify", "--width", "5", "--boundary",
                 "cyclic", "--columns", "100", "--trials", "3", "--seed", "11",
                 "--format", "csv", "--jobs", "2"],
    "rate": ["algo1", "rate", "--verify", "--q", "0.3", "--side", "24",
             "--trials", "3", "--seed", "4"],
    "sample_exact": ["sample", "--rows", "9", "--cols", "11", "--samples", "3",
                     "--seed", "8"],
    "sample_cyclic": ["sample", "--rows", "6", "--cols", "7", "--boundary",
                      "cyclic", "--samples", "3", "--warmup", "2", "--seed", "4"],
    "sample_chain_1d": ["sample", "--model", "no-111", "--cols", "30",
                        "--samples", "3", "--spacing", "7", "--seed", "3"],
}

# encode flags (plus --verify) and the alphabet size of the random input
CONTAINERS = {
    "ans_w3": (["ans", "encode", "--probs", "1/2,1/4,1/8,1/8", "--digit-bits",
                "3", "--key", "12345"], 4),
    "ans_w8": (["ans", "encode", "--probs", "0.7,0.2,0.1", "--digit-bits", "8",
                "--precision", "9", "--key", "99", "--forbidden-eps", "1/64"], 3),
    "abs_key": (["abs", "encode", "--q", "3/10", "--key", "7"], 256),
}


def test_rng_outputs_are_byte_identical(tmp_path):
    got = {}
    for name, argv in STDOUT.items():
        rc, out = run(argv)
        assert rc == 0, name
        got[name] = hashlib.sha256(out.encode()).hexdigest()
    rng = SplitMix64(23)
    for name, (argv, n) in CONTAINERS.items():
        src, enc, back = (tmp_path / (name + ext) for ext in (".in", ".ans",
                                                              ".back"))
        src.write_bytes(bytes(rng.randbelow(n) for _ in range(3000)))
        rc, _ = run(argv + ["--verify", "--in", str(src), "--out", str(enc)])
        assert rc == 0, name
        decode = [argv[0], "decode", "--in", str(enc), "--out", str(back)]
        if "--forbidden-eps" in argv:
            decode += ["--forbidden-eps", "1/64"]
        rc, _ = run(decode)
        assert rc == 0 and back.read_bytes() == src.read_bytes(), name
        got[name] = hashlib.sha256(enc.read_bytes()).hexdigest()
    assert got == RNG_DIGESTS
