import math
import re
import tracemalloc
from array import array

import numpy as np
import pytest

import latticecode.lattice as lat
from latticecode import ans
from latticecode import experiments as ex
from latticecode import spectral as sp
from latticecode import strip as st
from latticecode.ans import CapacityExceeded, CorruptStream
from latticecode.rng import SplitMix64
from latticecode.strip import ConfigMismatch, InvalidLattice

H_HS = lat.HARD_SQUARE_ENTROPY


def test_algorithm1_entropy_closed_form():
    assert ex.algorithm1_entropy(0.0) == 0.5
    assert ex.algorithm1_entropy(0.5) == 0.53125
    assert ex.algorithm1_entropy(1.0) == 0.0
    with pytest.raises(ValueError):
        ex.algorithm1_entropy(-0.1)
    with pytest.raises(ValueError):
        ex.algorithm1_entropy(1.1)


def test_algorithm1_optimum_stable_and_gap():
    q1, best1 = ex.algorithm1_optimum()
    q2, best2 = ex.algorithm1_optimum(0.01, 0.6)
    q3, best3 = ex.algorithm1_optimum(0.05, 0.9)
    assert abs(q1 - q2) < 1e-10
    assert abs(q1 - q3) < 1e-10
    assert 0.15 < q1 < 0.19
    assert abs(best1 - best2) < 1e-12
    # maximum, not an endpoint: both neighbours are lower
    assert ex.algorithm1_entropy(q1 - 1e-4) < best1
    assert ex.algorithm1_entropy(q1 + 1e-4) < best1
    assert abs(H_HS - best1 - 0.0217) < 5e-4


def test_algorithm1_roundtrip():
    rng = SplitMix64(11)
    bits = [rng.randbelow(2) for _ in range(60)]
    res = ex.algorithm1_encode((12, 12), 0.17, bits)
    assert res.consumed == 60
    assert not lat.scan(res.grid, lat.hard_square())
    back = ex.algorithm1_decode(res.grid, 0.17, res.final_state, 60)
    assert back == bytes(bits)
    # square side as a bare int
    res2 = ex.algorithm1_encode(12, 0.17, bits)
    assert np.array_equal(res2.grid, res.grid)


def test_algorithm1_capacity_exceeded():
    bits = [1, 0] * 200
    with pytest.raises(CapacityExceeded) as info:
        ex.algorithm1_encode((6, 6), 0.17, bits)
    assert 0 < info.value.achieved_bits < 400
    res = ex.algorithm1_encode((6, 6), 0.17, bits, partial=True)
    assert res.consumed == info.value.achieved_bits
    back = ex.algorithm1_decode(res.grid, 0.17, res.final_state, res.consumed)
    assert back == bytes(bits[:res.consumed])


def test_algorithm1_zero_q_half_rate():
    # q = 0 leaves the even sublattice empty, so every odd node carries
    # exactly one fair bit: consumed is the odd-node count plus the
    # 16 bits seeding the coder state.
    rng = SplitMix64(3)
    bits = [rng.randbelow(2) for _ in range(64 * 64 + 64)]
    res = ex.algorithm1_encode((64, 64), 0.0, bits, partial=True)
    assert res.consumed == 64 * 64 // 2 + 16
    back = ex.algorithm1_decode(res.grid, 0.0, res.final_state, res.consumed)
    assert back == bytes(bits[:res.consumed])
    rate = (res.consumed - 17) / (64 * 64)
    assert abs(rate - 0.5) < 0.005


def test_algorithm1_decode_rejections():
    rng = SplitMix64(5)
    bits = [rng.randbelow(2) for _ in range(40)]
    res = ex.algorithm1_encode((10, 10), 0.17, bits)
    bad = res.grid.copy()
    i, j = 4, 5
    bad[i, j] = 1
    bad[i, j + 1] = 1
    with pytest.raises(InvalidLattice):
        ex.algorithm1_decode(bad, 0.17, res.final_state, 40)
    with pytest.raises(ConfigMismatch):
        ex.algorithm1_decode(res.grid, 0.17, 3, 40)
    with pytest.raises(ConfigMismatch):
        ex.algorithm1_decode(res.grid[0], 0.17, res.final_state, 40)
    with pytest.raises(CorruptStream):
        ex.algorithm1_decode(res.grid, 0.17, res.final_state, 10 ** 6)
    trash = res.grid.copy()
    trash[0, 0] = 7
    with pytest.raises(InvalidLattice):
        ex.algorithm1_decode(trash, 0.17, res.final_state, 40)
    # q = 0 forces the even sublattice to 0
    zres = ex.algorithm1_encode((10, 10), 0.0, bits, partial=True)
    forced = zres.grid.copy()
    forced[0, 0] = 1
    with pytest.raises(InvalidLattice):
        ex.algorithm1_decode(forced, 0.0, zres.final_state, zres.consumed)


def _odd(shape):
    """The odd checkerboard sublattice of a grid of this shape; (0, 0) is even."""
    return np.add.outer(np.arange(shape[0]), np.arange(shape[1])) % 2 == 1


def _visit(grid):
    """A grid's nodes in the checkerboard writer's visiting order: the even
    ones row by row, then the odd ones."""
    odd = _odd(grid.shape)
    return np.concatenate((grid[~odd], grid[odd]))


def _blocked(grid):
    """The nodes with a neighbour that is 1 (zero boundary)."""
    pad = np.pad(grid == 1, 1)
    return pad[:-2, 1:-1] | pad[2:, 1:-1] | pad[1:-1, :-2] | pad[1:-1, 2:]


def test_algorithm1_decode_names_the_first_bad_node_in_visiting_order():
    # the writer visits the even nodes row by row, then the odd ones; the
    # fault reported is the first in that order, a forced node that
    # disagrees or a non-binary one, whichever row either lies in
    rng = SplitMix64(29)
    bits = [rng.randbelow(2) for _ in range(200)]
    zero = ex.algorithm1_encode((6, 6), 0.0, bits, partial=True)
    res = ex.algorithm1_encode((6, 6), 0.17, bits, partial=True)
    odd = _odd((6, 6))
    first_blocked = tuple(np.argwhere(odd & _blocked(res.grid))[0])
    last_even_zero = tuple(np.argwhere(~odd & (res.grid == 0))[-1])
    assert first_blocked < last_even_zero
    cases = [
        # q = 0 forces every even node to 0: a 1 in the even pass comes
        # ahead of a non-binary node in the odd pass, a row above it
        (zero, 0.0, {(4, 4): 1, (0, 1): 2}, "forced node disagrees at (4, 4)"),
        # the reverse: a 0 turned non-binary in the even pass comes ahead
        # of a blocked odd node turned 1, though that lies rows above it
        (res, 0.17, {last_even_zero: 2, first_blocked: 1},
         "non-binary value at (%d, %d)" % last_even_zero),
        # within one pass, the first in row order
        (zero, 0.0, {(2, 2): 2, (4, 4): 1}, "non-binary value at (2, 2)"),
        (res, 0.17, {first_blocked: 1, (5, 4): 2},
         "forced node disagrees at (%d, %d)" % first_blocked),
    ]
    for base, q, edits, message in cases:
        grid = base.grid.copy()
        for at, v in edits.items():
            grid[at] = v
        with pytest.raises(InvalidLattice, match="^%s$" % re.escape(message)):
            ex.algorithm1_decode(grid, q, base.final_state, base.consumed)


def test_algorithm1_checks_q_before_the_walk_yields():
    # q is rejected even when no law is drawn: on an empty grid, and ahead
    # of the non-binary first node the decode would otherwise report
    for grid in (np.zeros((0, 4), dtype=np.int8),
                 np.full((3, 3), 2, dtype=np.int8)):
        with pytest.raises(ValueError, match=r"q must lie in \[0, 1\]"):
            ex.algorithm1_decode(grid, 2.0, 1 << 16, 0)
    with pytest.raises(ValueError, match=r"q must lie in \[0, 1\]"):
        ex.algorithm1_encode((3, 3), -0.5, [])


@pytest.mark.parametrize("R", [1, 16, 63, 64])
def test_algorithm1_gathered_laws_equal_the_walk(R, walk_oracle, monkeypatch):
    # the decoder's laws are those of the spans it hands `_absorb`, odd pass
    # first, put back in visiting order; the even pass gives its one law
    spans = []
    monkeypatch.setattr(ex, "_absorb", lambda s, *rest: spans.extend(s) or b"")
    rng = SplitMix64(40 + R)
    for rows, cols in ((1, 1), (1, 6), (3, 3), (4, 6), (7, 5), (8, 8)):
        for q in (0.0, 0.17, 0.5, 1.0):
            bits = [rng.randbelow(2) for _ in range(rows * cols + R)]
            grid = ex.algorithm1_encode((rows, cols), q, bits, R, partial=True).grid
            spans.clear()
            ex.algorithm1_decode(grid, q, 1 << R, 0, R)
            assert [run for _, _, run, _ in spans] == [True, True]
            assert np.ndim(spans[1][1]) == 0
            symbols = _visit(grid).tolist()
            assert np.concatenate([v for v, *_ in spans[::-1]]).tolist() == symbols
            # the odd pass gives its free mask and the fair law
            free, fair = spans[0][1]
            even = np.broadcast_to(spans[1][1], len(spans[1][0]))
            odd = np.array([fair * f for f in free.tolist()], dtype=object)
            walk_oracle(
                lambda dec: _visit(ex._algorithm1_walk(rows, cols, q, R, dec)),
                np.concatenate([even, odd]), symbols, R)


def test_coder_calls_pair_up_across_encode_and_decode(monkeypatch, quantize):
    # a benchmark counts `draw` and `absorb` calls and expects equal counts:
    # every node drawn one at a time is absorbed one at a time, in reverse;
    # algo1 draws its two passes as runs, absorbed as runs in reverse, and
    # reaches neither per-node method
    calls = {"draw": [], "absorb": [], "run": [], "absorb_run": []}
    draw, absorb = ans.AbsStreamDecoder.draw, ans.AbsStreamEncoder.absorb
    run, absorb_run = ans.AbsStreamDecoder.run, ans.AbsStreamEncoder.absorb_run

    def counted_draw(self, m):
        calls["draw"].append(m)
        return draw(self, m)

    def counted_absorb(self, s, m):
        calls["absorb"].append(m)
        return absorb(self, s, m)

    def counted_run(self, m, k):
        calls["run"].append((m, k))
        return run(self, m, k)

    def counted_absorb_run(self, symbols, m):
        calls["absorb_run"].append((m, len(symbols)))
        return absorb_run(self, symbols, m)

    monkeypatch.setattr(ans.AbsStreamDecoder, "draw", counted_draw)
    monkeypatch.setattr(ans.AbsStreamEncoder, "absorb", counted_absorb)
    monkeypatch.setattr(ans.AbsStreamDecoder, "run", counted_run)
    monkeypatch.setattr(ans.AbsStreamEncoder, "absorb_run", counted_absorb_run)
    rng = SplitMix64(21)
    bits = [rng.randbelow(2) for _ in range(1200)]
    codec = st.LatticeCodec(st.strip_model(lat.hard_square(), 6), 16)
    res = codec.encode(bits, 300, partial=True)
    assert codec.decode(res.grid, res.final_state, res.consumed) == bytes(
        bits[:res.consumed])
    assert len(calls["draw"]) > 0 and calls["absorb"] == calls["draw"][::-1]
    assert calls["run"] == calls["absorb_run"] == []
    rows, cols = 29, 30
    neven = (rows * cols + 1) // 2
    for q in (0.17, 0.5, 0.0):
        m = quantize(q, 1 << 16)
        for key in calls:
            calls[key] = []
        res = ex.algorithm1_encode((rows, cols), q, bits, partial=True)
        assert ex.algorithm1_decode(res.grid, q, res.final_state,
                                    res.consumed) == bytes(bits[:res.consumed])
        assert calls["draw"] == calls["absorb"] == []
        k = int(np.count_nonzero(_odd(res.grid.shape) & ~_blocked(res.grid)))
        assert k > 0
        even = [(m, neven)] if 0 < m < 1 << 16 else []
        assert calls["run"] == calls["absorb_run"][::-1] == even + [(1 << 15, k)]
    # at q = 0 every odd node is free and carries one payload bit
    assert res.consumed == 16 + rows * cols // 2


def test_decoders_read_any_binary_dtype():
    # a float grid once made the strip decode index a list with a float
    assert st.LatticeCodec(st.strip_model(lat.hard_square(), 3)).decode(
        np.zeros((3, 3)), 1 << 16, 0) == b""
    rng = SplitMix64(8)
    bits = [rng.randbelow(2) for _ in range(200)]
    codec = st.LatticeCodec(st.strip_model(lat.hard_square(), 3))
    sres = codec.encode(bits, 40, partial=True)
    ares = ex.algorithm1_encode((12, 12), 0.17, bits, partial=True)
    for dtype in (np.int8, np.int64, bool, float):
        assert codec.decode(sres.grid.astype(dtype), sres.final_state,
                            sres.consumed) == bytes(bits[:sres.consumed])
        assert ex.algorithm1_decode(ares.grid.astype(dtype), 0.17, ares.final_state,
                                    ares.consumed) == bytes(bits[:ares.consumed])


def test_encoders_read_any_binary_sequence():
    # the payload may be a list, bytes, a bytearray or an integer array of
    # any dtype (an int64 array is cast, not copied as its raw 8 bytes a
    # bit); any value but 0 and 1 is refused
    rng = SplitMix64(28)
    bits = [rng.randbelow(2) for _ in range(300)]
    codec = st.LatticeCodec(st.strip_model(lat.hard_square(), 4))
    for encode in (lambda b: codec.encode(b, 60, partial=True),
                   lambda b: ex.algorithm1_encode((16, 16), 0.17, b, partial=True)):
        want = encode(bits)
        for form in (bytes(bits), bytearray(bits), np.array(bits, dtype=np.int8),
                     np.array(bits, dtype=np.int64), np.array(bits, dtype=bool)):
            got = encode(form)
            assert np.array_equal(got.grid, want.grid)
            assert (got.final_state, got.consumed, got.padded) == (
                want.final_state, want.consumed, want.padded)
        for bad in (bits + [2], bytes(bits) + b"\x02",
                    np.array(bits + [2], dtype=np.int8),
                    np.array(bits + [256], dtype=np.int64),
                    np.array(bits + [-1], dtype=np.int64)):
            with pytest.raises(ValueError, match="^payload bits must be 0 or 1$"):
                encode(bad)


def _benchmark_algo1_payload():
    """q* and the bits of the benchmark's 512 x 512 algo1 file (133,616)."""
    bits = SplitMix64(24).block(133616).astype(np.int64) & 1
    return ex.algorithm1_optimum()[0], bits.tolist()


# The two passes run on bool checkerboard masks, so the traced peaks of the
# benchmark's file are 4.6 B/node to encode and 5.5 to decode, where an intp
# visiting order and a law per node took 17.0 for each, and the decode took
# 9.3 while it built both passes' spans, the even pass with a law per node,
# before absorbing the first.  Each bound sits between its two figures.

def test_algorithm1_encode_memory_is_bounded():
    q, bits = _benchmark_algo1_payload()
    tracemalloc.start()
    ex.algorithm1_encode((512, 512), q, bits)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak <= 8.0 * 512 * 512, peak / (512 * 512)


def test_algorithm1_decode_memory_is_bounded():
    q, bits = _benchmark_algo1_payload()
    res = ex.algorithm1_encode((512, 512), q, bits)
    tracemalloc.start()
    got = ex.algorithm1_decode(res.grid, q, res.final_state, len(bits),
                               lane_states=res.lane_states)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert got == bytes(bits) and peak <= 7.5 * 512 * 512, peak / (512 * 512)


def test_algorithm1_rate_charges_every_stored_state():
    # at 512 x 512 the even pass codes in K = 256 lanes, and the rate is
    # charged R + 1 bits for each of the K stored states, not for one
    q, R, side = ex.algorithm1_optimum()[0], 16, 512
    K = ex.algorithm1_lanes((side, side), q, R)
    assert K == 256
    rep = ex.algorithm1_rate(q, side=side, trials=1, seed=3, precision=R)
    rng = SplitMix64(3).spawn(0)
    bits = (rng.block(side * side + 64) & np.uint64(1)).astype(np.uint8).tobytes()
    res = ex.algorithm1_encode((side, side), q, bits, R, partial=True)
    assert len(res.lane_states) == K - 1
    assert rep.rates == [(res.consumed - K * (R + 1)) / side ** 2]


def test_algorithm1_rate_verify_failure_is_a_data_error(monkeypatch):
    # a failed round trip or scan in a rate trial is reported like the strip
    # trial's, as a decode error the CLI prints as one line
    monkeypatch.setattr(ex, "algorithm1_decode", lambda *args: [])
    with pytest.raises(CorruptStream):
        ex.algorithm1_rate(0.17, side=16, trials=1, verify=True)
    monkeypatch.undo()
    monkeypatch.setattr(lat, "scan", lambda grid, model: [(0, 0)])
    with pytest.raises(InvalidLattice):
        ex.algorithm1_rate(0.17, side=16, trials=1, verify=True)


def test_algorithm1_rate_matches_closed_form():
    qstar, _ = ex.algorithm1_optimum()
    rep = ex.algorithm1_rate(qstar, side=256, trials=4, seed=0, verify=True)
    assert abs(rep.mean - ex.algorithm1_entropy(qstar)) < 0.003
    assert rep.stderr < 0.002
    assert len(rep.rates) == 4


def test_algorithm1_rate_parallel_matches_serial():
    serial = ex.algorithm1_rate(0.17, side=64, trials=2, seed=9)
    par = ex.algorithm1_rate(0.17, side=64, trials=2, seed=9, jobs=2)
    assert serial.rates == par.rates


def test_charging_profile():
    p = ex.ChargingProfile((-1.0, 3.0))
    assert p(0.0) == 0.0
    assert p(1.0) == 1.0
    assert abs(float(p(0.5)) - 0.5) < 1e-12
    lin = ex.ChargingProfile.linear(0.2, 0.3)
    assert lin.coeffs == (0.2, 0.3, 0.0, 0.0, 0.0)
    vals = lin(np.array([0.0, 1.0]))
    assert np.allclose(vals, [0.2, 0.5])
    with pytest.raises(ValueError):
        ex.ChargingProfile((1, 2, 3, 4, 5, 6))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            ex.ChargingProfile((0.2, bad))


def test_algorithm2_zero_profile():
    rep = ex.algorithm2_simulate(50, trials=2, seed=1,
                                 profile=ex.ChargingProfile((0.0,)))
    assert rep.scalars["entropy_direct"] == (0.0, 0.0)
    assert rep.scalars["entropy_integral"] == (0.0, 0.0)
    assert rep.scalars["entropy_integral_blocking"] == (0.0, 0.0)
    assert rep.scalars["free_fraction"][0] == 1.0
    assert rep.scalars["a_at_1"][0] == 1.0
    assert all(v == 1.0 for v in rep.curves["a"][1])


def test_algorithm2_default_profile_band():
    rep = ex.algorithm2_simulate(100, trials=6, seed=0)
    # no node is blocked at time zero, by construction
    assert rep.curves["a"][1][0] == 1.0
    gap, gap_err = rep.scalars["entropy_gap"]
    assert 0.005 < gap < 0.03
    assert gap_err < 0.004
    d, de = rep.scalars["entropy_direct"]
    i, ie = rep.scalars["entropy_integral"]
    assert abs(d - i) < 3.0 * (de + ie)
    # the blocking-time curve overstates availability: unvisited nodes
    # cannot have shielded their neighbours yet
    b, _ = rep.scalars["entropy_integral_blocking"]
    assert b > d + 0.01
    assert rep.scalars["q_at_0"] == (0.2266, 0.0)
    assert rep.samples == {"trials": 6, "nodes": 100 * 100}
    for value in rep.scalars.values():
        assert len(value) == 2


def test_algorithm2_guards():
    with pytest.raises(ValueError):
        ex.algorithm2_simulate(20)
    with pytest.raises(ValueError):
        ex.algorithm2_simulate(50, trials=0)


def test_algorithm2_parallel_matches_serial():
    a = ex.algorithm2_simulate(50, trials=2, seed=4)
    b = ex.algorithm2_simulate(50, trials=2, seed=4, jobs=2)
    assert a.scalars == b.scalars
    assert a.curves == b.curves


_VISIT_CHUNK = 1 << 10


def _reference_visit(t, write, side):
    """The per-node visit loop of the random-order writer: free flags and
    blocking times, as `_random_order_visit` must reproduce them."""
    n = side * side
    # blocking times: when a neighbour was first written 1 (doubles, so the
    # times kept do not pin the loop's float objects)
    tau = array("d", [math.inf]) * n
    free = bytearray(n)  # 1 where the visit found the node free
    order = np.argsort(t, kind="stable")
    for start in range(0, n, _VISIT_CHUNK):
        ids = order[start:start + _VISIT_CHUNK]
        for idx, s, w in zip(ids.tolist(), t[ids].tolist(), write[ids].tolist()):
            if s >= tau[idx]:
                continue
            free[idx] = 1
            if w:
                i, j = divmod(idx, side)
                if i > 0 and tau[idx - side] > s:
                    tau[idx - side] = s
                if i + 1 < side and tau[idx + side] > s:
                    tau[idx + side] = s
                if j > 0 and tau[idx - 1] > s:
                    tau[idx - 1] = s
                if j + 1 < side and tau[idx + 1] > s:
                    tau[idx + 1] = s
    return order, np.frombuffer(free, dtype=bool), np.asarray(tau)


def _visit_cases():
    rng = np.random.default_rng(15)
    for side in list(range(1, 13)) + [50]:
        n = side * side
        for p in (0.3, 0.7):
            yield side, rng.random(n), rng.random(n) < p
        # coarse timestamps: many ties, broken by index in visit order
        yield side, np.floor(rng.random(n) * 4) / 4, rng.random(n) < 0.6
        yield side, rng.random(n), np.ones(n, dtype=bool)
        yield side, rng.random(n), np.zeros(n, dtype=bool)
    yield 50, np.zeros(2500), np.ones(2500, dtype=bool)
    # one tied pair among distinct times, at the first, a middle and the
    # last sorted place, with its later index first or second before the
    # tie: numpy's default sort orders some of these against the index
    for side in list(range(2, 13)) + [50]:
        n = side * side
        for place in (0, n // 2 - 1, n - 2):
            for later_first in (False, True):
                t = rng.random(n)
                a, b = sorted(np.argsort(t, kind="stable")[place:place + 2])
                if later_first:
                    t[a] = t[b]
                else:
                    t[b] = t[a]
                yield side, t, rng.random(n) < 0.6


def test_random_order_visit_matches_loop():
    for side, t, write in _visit_cases():
        order, free, tau = ex._random_order_visit(t, write, side)
        ref_order, ref_free, ref_tau = _reference_visit(t, write, side)
        assert np.array_equal(order, ref_order)
        assert np.array_equal(free, ref_free), side
        assert np.array_equal(tau, ref_tau), side


def test_algo2_trial_bit_identical_to_loop(monkeypatch):
    cases = [(side, coeffs, seed, t_index, 7)
             for side in list(range(1, 13)) + [50]
             for coeffs, seed, t_index in (
                 (ex.DEFAULT_PROFILE.coeffs, 3, 0),
                 ((0.1, 0.6, -0.3, 0.0, 0.0), 17, 1),
                 ((1.0, 0.0, 0.0, 0.0, 0.0), 5, 2),
                 ((0.0, 0.0, 0.0, 0.0, 0.0), 5, 3))]
    got = [ex._algo2_trial(c) for c in cases]
    monkeypatch.setattr(ex, "_random_order_visit", _reference_visit)
    for case, new in zip(cases, got):
        ref = ex._algo2_trial(case)
        assert len(new) == len(ref)
        for a, b in zip(new, ref):
            assert np.array_equal(a, b), case


def test_reproduce_tables_honest_verdict():
    rows, ok = ex.reproduce_tables()
    byname = {r.name: r for r in rows}
    # the k=6 benefit entry rounds to 130 and does not reproduce the
    # published 129; the report stays red rather than patching it
    failing = [r for r in rows if not r.passed]
    assert [r.name for r in failing] == ["k-model benefit k=6"]
    assert byname["k-model benefit k=6"].computed == "130"
    assert byname["k-model benefit k=6"].reference == "129"
    assert ok is False
    for k in (0, 1, 5, 12):
        assert byname["k-model benefit k=%d" % k].passed
    assert byname["k-model closed form vs automaton"].passed
    for x in range(19):
        assert byname["abs q=0.3 decode x=%d" % x].passed
    assert byname["abs q=0.3 decode x=0"].computed == "1:0"
    assert byname["abs q=0.3 decode x=5"].computed == "0:3"
    assert byname["checkerboard writer entropy gap"].passed
    assert byname["hard-square entropy, cyclic strip n=12"].passed
    assert len(rows) == 35


def test_automaton_row_solves_m64_in_few_steps(monkeypatch):
    iterations = []

    def counted(graph):
        e = sp.dominant_eigs(graph)
        iterations.append(e.iterations)
        return e

    monkeypatch.setattr(ex, "dominant_eigs", counted)
    for k in range(13):
        direct = math.log2(sp.dominant_eigs(sp.kmodel_graph(k)).value)
        assert abs(ex._automaton_capacity(k) - direct) < 1e-15, k
    # the direct solves of the 13 automata take 1904 steps
    assert len(iterations) == 13 and sum(iterations) <= 60, iterations
