import math
import struct
import tracemalloc
import zlib
from collections import deque
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np
import pytest

from latticecode import ans
from latticecode.ans import AnsTable, CorruptStream, _ceil_div, largest_remainder
from latticecode.rng import SplitMix64, derive


# Test references: a deterministic table rule and a one-symbol-at-a-time
# coder state, which the package's keyed tables and lane loops must match.
# Both read the table's columns as arrays: slot x - l holds sym_array and
# xs_array, and s's reduced state xs encodes to enc_array[enc_base[s] + xs].


def ans_build_table_precise(qs: Sequence[float], l: int, b: int = 2) -> AnsTable:
    """Deterministic table built from chained two-way ceiling splits.

    With suffix slot counts R_s = l_s + ... + l_{n-1}, state x is classified
    by asking "symbol >= s+1?" at the conditional ratio R_{s+1}/R_s: the
    answer is yes when ceil((v+1) R_{s+1} / R_s) > ceil(v R_{s+1} / R_s),
    in which case v moves to that ceiling and the chain continues.  Each
    split is the exact two-symbol ceiling-variant bijection, so every
    symbol receives exactly (b-1) l_s states and the single-split case
    reproduces abs_decode_step."""
    l_s = largest_remainder(l, qs)
    n = len(l_s)
    suffix = [0] * (n + 1)
    for s in range(n - 1, -1, -1):
        suffix[s] = suffix[s + 1] + l_s[s]

    def symbol_at(x):
        v, den = x, l
        for s in range(n - 1):
            num = suffix[s + 1]
            if num == 0:
                return s
            v1 = _ceil_div(v * num, den)
            if _ceil_div((v + 1) * num, den) == v1:
                return s
            v, den = v1, num
        return n - 1

    dec_sym = [symbol_at(x) for x in range(l, b * l)]
    return AnsTable(l, b, l_s, dec_sym, key=0)


class StreamState:
    """Incremental coder state: x in I plus the digit buffer.

    Encoding pushes symbols in reverse message order, stacking fresh digits
    at the front (LIFO); decoding pops symbols in message order, consuming
    the buffer front (FIFO).  ans_stream_encode / ans_stream_decode at one
    lane are the batch equivalents."""

    def __init__(self, table: AnsTable, x: Optional[int] = None, digits: Iterable[int] = ()):
        self.table = table
        self.x = table.l if x is None else x
        if not table.l <= self.x < table.b * table.l:
            raise ValueError("state outside the coding interval")
        self.digits = deque(digits)

    def push(self, s: int) -> None:
        t = self.table
        x = self.x
        top = t.b * t.l_s[s] - 1
        while x > top:
            self.digits.appendleft(x % t.b)
            x //= t.b
        self.x = int(t.enc_array[t.enc_base[s] + x])

    def pop(self) -> int:
        t = self.table
        i = self.x - t.l
        s, x = int(t.sym_array[i]), int(t.xs_array[i])
        while x < t.l:
            if not self.digits:
                raise CorruptStream("digit stream exhausted during renormalization")
            x = x * t.b + self.digits.popleft()
        self.x = x
        return s


def sample_symbols(qs, n, seed):
    """Deterministic i.i.d. source over len(qs) symbols."""
    cum = np.cumsum(qs)
    u = np.random.default_rng(seed).random(n)
    return np.searchsorted(cum, u, side="right").astype(np.int64).tolist()


def _slot_loop_tables(table):
    """The reduced-state column and each symbol's encode row, filled one
    slot at a time, the way AnsTable once did."""
    l, l_s = table.l, table.l_s
    counters = list(l_s)
    dec_xs = [0] * len(table.sym_array)
    enc = [[0] * ((table.b - 1) * ls) for ls in l_s]
    for i, s in enumerate(table.sym_array.tolist()):
        xs = counters[s]
        counters[s] += 1
        dec_xs[i] = xs
        enc[s][xs - l_s[s]] = l + i
    return dec_xs, enc


def _assert_bijective(t):
    """Every state decodes to an (s, xs) with l_s <= xs < b l_s that
    encodes back to it, and every such (s, xs) encodes to a state that
    decodes to it."""
    s, xs = t.sym_array, t.xs_array
    ls = np.asarray(t.l_s)[s]
    assert ((ls <= xs) & (xs < t.b * ls)).all()
    assert (t.enc_array[t.enc_base[s] + xs] == np.arange(t.l, t.b * t.l)).all()
    for sym, ls in enumerate(t.l_s):
        held = np.arange(ls, t.b * ls)
        i = t.enc_array[t.enc_base[sym] + held] - t.l
        assert (t.sym_array[i] == sym).all() and (t.xs_array[i] == held).all()


@pytest.mark.parametrize("w", [1, 3, 8])
def test_table_columns_equal_the_slot_loop(w):
    for qs, key in (([0.5, 0.25, 0.25], 99), ([0.1] * 7 + [0.3], 3),
                    ([0.9, 0.1], 2 ** 64 - 1)):
        t = ans.ans_build_table(qs, 1 << 10, 1 << w, key=key)
        dec_xs, enc = _slot_loop_tables(t)
        assert t.xs_array.tolist() == dec_xs
        # the rows back to back, row s from enc_base[s] + l_s[s]
        assert t.enc_array.tolist() == sum(enc, [])
        starts = np.cumsum([0] + [len(row) for row in enc[:-1]])
        assert (t.enc_base + t.l_s == starts).all()


def test_table_rejects_a_bad_decode_column():
    with pytest.raises(ValueError, match="symbol 0 occupies 3 slots, expected 2"):
        ans.AnsTable(4, 2, [2, 2], [0, 0, 0, 1])
    with pytest.raises(ValueError, match="outside 0..1"):
        ans.AnsTable(4, 2, [2, 2], [0, 2, 1, 1])


def test_abs_golden_table():
    q = Fraction(3, 10)
    ones = [x for x in range(20) if ans.abs_decode_step(x, q)[0] == 1]
    assert ones == [0, 3, 6, 10, 13, 16]
    assert ans.abs_decode_step(5, q) == (0, 3)
    assert ans.abs_decode_step(3, q) == (1, 1)
    assert ans.abs_encode_step(1, 2, q) == 6
    assert ans.abs_encode_step(0, 3, q) == 5


def test_abs_half_is_binary():
    # q = 1/2 degenerates to the usual binary system
    q = Fraction(1, 2)
    for x in range(200):
        s, xs = ans.abs_decode_step(x, q)
        assert s == (1 if x % 2 == 0 else 0)
        assert xs == ((x + 1) // 2 if s else x // 2)


def test_abs_roundtrip_exhaustive():
    q = Fraction(3, 10)
    for x in range(10 ** 6):
        s, xs = ans.abs_decode_step(x, q)
        assert ans.abs_encode_step(s, xs, q) == x


def test_abs_roundtrip_other_ratios_and_floor():
    for variant in ("ceiling", "floor"):
        for q in (Fraction(7, 16), Fraction(1, 5), Fraction(9, 10)):
            for x in range(20000):
                s, xs = ans.abs_decode_step(x, q, variant)
                assert ans.abs_encode_step(s, xs, q, variant) == x


def test_largest_remainder():
    assert ans.largest_remainder(16, [0.25, 0.75]) == [4, 12]
    assert sum(ans.largest_remainder(256, [0.2, 0.3, 0.5])) == 256
    # ties broken by symbol index
    assert ans.largest_remainder(10, [0.25, 0.25, 0.25, 0.25]) == [3, 3, 2, 2]
    with pytest.raises(ValueError):
        ans.largest_remainder(8, [0.0, 0.0])


def test_build_table_l2_both_permutations():
    seen = {}
    for key in range(30):
        t = ans.ans_build_table([0.5, 0.5], 2, 2, key=key)
        assert t.l_s == [1, 1]
        _assert_bijective(t)
        seen[tuple(t.sym_array.tolist())] = key
        if len(seen) == 2:
            break
    assert set(seen) == {(0, 1), (1, 0)}


def test_build_table_multiset_counts():
    rng = SplitMix64(17)
    for _ in range(10):
        n = 2 + rng.randbelow(5)
        qs = [rng.randbelow(50) + 1 for _ in range(n)]
        tot = sum(qs)
        qs = [Fraction(v, tot) for v in qs]
        l = 1 << (6 + rng.randbelow(3))
        b = 1 << (1 + rng.randbelow(3))
        try:
            t = ans.ans_build_table(qs, l, b, key=rng.next_u64())
        except ans.DegenerateSymbol:
            continue
        held = np.bincount(t.sym_array, minlength=n)
        assert held.tolist() == [(b - 1) * ls for ls in t.l_s]


def test_distinct_keys_diverge():
    qs = [0.1, 0.2, 0.3, 0.4]
    t1 = ans.ans_build_table(qs, 64, 2, key=1)
    t2 = ans.ans_build_table(qs, 64, 2, key=2)
    assert not np.array_equal(t1.sym_array, t2.sym_array)
    msg = sample_symbols(qs, 3000, seed=4)
    for t in (t1, t2):
        d, xs = ans.ans_stream_encode(msg, t)
        assert ans.ans_stream_decode(d, t, xs, len(msg)).tolist() == msg


def test_table_bijectivity_exhaustive():
    tables = [
        ans.ans_build_table([0.2, 0.3, 0.5], 256, 4, key=5),
        ans_build_table_precise([0.6, 0.4], 1024, 2),
    ]
    for t in tables:
        _assert_bijective(t)


def test_precise_builder_equals_abs_for_dyadic_pairs():
    for num, r in ((1, 2), (3, 4), (77, 8), (1, 8)):
        l = 1 << (r + 2)
        q = Fraction(num, 1 << r)
        t = ans_build_table_precise([1 - q, q], l, 2)
        for x in range(l, 2 * l):
            assert (t.sym_array[x - l], t.xs_array[x - l]) == ans.abs_decode_step(x, q)


def test_stream_empty_and_single():
    t = ans.ans_build_table([0.25, 0.75], 1 << 6, 2, key=0)
    d, xs = ans.ans_stream_encode([], t)
    assert len(d) == 0 and xs == [t.l]
    assert len(ans.ans_stream_decode(d, t, xs, 0)) == 0
    for s in (0, 1):
        d, xs = ans.ans_stream_encode([s], t)
        assert ans.ans_stream_decode(d, t, xs, 1).tolist() == [s]


@pytest.mark.parametrize("count", [3, ans.LANE_MIN_SYMBOLS + 3])
def test_stream_encode_refuses_symbols_outside_the_table(count):
    # one check on both sides of LANE_MIN_SYMBOLS: the single lane would
    # code -1 as symbol n - 1 and index past its rows on n
    t = ans.ans_build_table([0.5, 0.25, 0.25], 1 << 8, 2, key=1)
    for bad in (-1, 3):
        msg = [0] * (count - 1) + [bad]
        with pytest.raises(ValueError, match=r"symbol outside 0\.\.2"):
            ans.ans_stream_encode(msg, t)
        with pytest.raises(ValueError, match=r"symbol outside 0\.\.2"):
            ans.ans_stream_encode(np.array(msg), t)


@pytest.mark.parametrize("l, b", [(3000, 2), (1 << 10, 3)])
def test_containers_and_sizes_need_power_of_two_widths(l, b):
    # the header stores lg l and lg b, so a rounded exponent would write a
    # container that no reader accepts, and a rounded size
    t = ans.ans_build_table([0.5, 0.25, 0.25], l, b, key=1)
    msg = sample_symbols([0.5, 0.25, 0.25], 500, seed=3)
    d, xs = ans.ans_stream_encode(msg, t)
    assert ans.ans_stream_decode(d, t, xs, len(msg)).tolist() == msg
    with pytest.raises(ValueError, match="power-of-two l and b"):
        ans.pack_container(t, xs, d, len(msg))
    with pytest.raises(ValueError, match="power-of-two l and b"):
        ans.stream_bits(len(d), t, len(xs))


def test_stream_roundtrip_rate_quarter():
    # 1e6 symbols at q=(1/4,3/4), l=2^12: identity and rate near h(1/4)
    t = ans_build_table_precise([Fraction(1, 4), Fraction(3, 4)], 1 << 12, 2)
    msg = sample_symbols([0.25, 0.75], 10 ** 6, seed=100)
    d, xs = ans.ans_stream_encode(msg, t)
    assert len(xs) == ans.lanes_for(len(msg)) == 488
    assert ans.ans_stream_decode(d, t, xs, len(msg)).tolist() == msg
    rate = ans.stream_bits(len(d), t, len(xs)) / len(msg)
    h = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    assert abs(rate - h) < 0.01


def test_stream_rate_bound_various_distributions():
    # measured bits/symbol <= H + 0.01 at l = 2^12 whenever min q >= 2^-6
    for qs in ([0.25, 0.75], [0.2, 0.3, 0.5], [1 / 64] + [21 / 64] * 3, [0.1, 0.9]):
        t = ans_build_table_precise(qs, 1 << 12, 2)
        qhat = [ls / t.l for ls in t.l_s]
        msg = sample_symbols(qhat, 200000, seed=len(qs) * 7)
        d, xs = ans.ans_stream_encode(msg, t)
        rate = ans.stream_bits(len(d), t, len(xs)) / len(msg)
        H = -sum(q * math.log2(q) for q in qhat)
        assert rate <= H + 0.01


def test_stream_corrupt_errors():
    t = ans.ans_build_table([0.5, 0.5], 1 << 8, 2, key=3)
    msg = sample_symbols([0.5, 0.5], 500, seed=9)
    d, xs = ans.ans_stream_encode(msg, t)
    # a truncated stream never decodes to the message: with the symbol
    # count given, the digits run out mid-symbol or the lanes end away
    # from l, so every cut raises
    raised = 0
    for cut in range(1, 30):
        try:
            ans.ans_stream_decode(d[:-cut], t, xs, len(msg))
        except ans.CorruptStream:
            raised += 1
    assert raised == 29
    with pytest.raises(ans.CorruptStream):
        ans.ans_stream_decode(d, t, [t.b * t.l], len(msg))


def test_stream_state_incremental_matches_batch():
    t = ans.ans_build_table([0.2, 0.3, 0.5], 1 << 7, 2, key=11)
    msg = sample_symbols([0.2, 0.3, 0.5], 2000, seed=12)
    st = StreamState(t)
    for s in reversed(msg):
        st.push(s)
        assert t.l <= st.x < t.b * t.l
    d, xs = ans.ans_stream_encode(msg, t)
    assert list(st.digits) == d.tolist() and [st.x] == xs
    rd = StreamState(t, xs[0], d.tolist())
    out = []
    for _ in msg:
        out.append(rd.pop())
        assert t.l <= rd.x < t.b * t.l
    assert out == msg and rd.x == t.l and not rd.digits


# The single-lane loops as they stood before lanes, kept as the oracle;
# a detection comes back as its message index.
def _reference_stream_encode(symbols, table, initial_x=None):
    """Encode symbols (walked back to front); digits come back in decoder order."""
    l, b = table.l, table.b
    x = l if initial_x is None else initial_x
    if not l <= x < b * l:
        raise ValueError("initial state outside the coding interval")
    enc, base = table.enc_array.tolist(), table.enc_base.tolist()
    hi = [b * ls - 1 for ls in table.l_s]
    emitted = []
    append = emitted.append
    for s in reversed(symbols):
        top = hi[s]
        while x > top:
            append(x % b)
            x //= b
        x = enc[base[s] + x]
    emitted.reverse()
    return emitted, x


def _reference_stream_decode_checked(digits, table, final_x, forbidden):
    """Decode, flagging the first occurrence of the forbidden symbol.

    Digit exhaustion mid-stream is also treated as a detection at the
    current position rather than an exception.
    """
    l, b = table.l, table.b
    if not l <= final_x < b * l:
        return [], 0
    dec_sym, dec_xs = table.sym_array.tolist(), table.xs_array.tolist()
    x = final_x
    pos = 0
    nd = len(digits)
    out = []
    while True:
        if x == l and pos == nd:
            break
        i = x - l
        s = dec_sym[i]
        if s == forbidden:
            return out, len(out)
        out.append(s)
        x = dec_xs[i]
        while x < l:
            if pos >= nd:
                return out, len(out)
            x = x * b + digits[pos]
            pos += 1
    return out, None


def _reference_fields(symbols, table):
    """Per symbol, the digits of its renormalisation field in decoder
    order, and the final state, from the reference coder."""
    digits, x = _reference_stream_encode(symbols, table)
    st = StreamState(table, x, digits)
    fields = []
    for _ in symbols:
        before = list(st.digits)
        st.pop()
        fields.append(before[:len(before) - len(st.digits)])
    return fields, x


def _sequential_lanes_decode(digits, table, states, count, forbidden):
    """Lane decode one symbol at a time: the symbols, and the index of a
    detection (None if none) with whether it is the forbidden symbol."""
    dec_sym, dec_xs = table.sym_array.tolist(), table.xs_array.tolist()
    x, pos, out = list(states), 0, []
    for i in range(count):
        k = i % len(x)
        s, xs = dec_sym[x[k] - table.l], dec_xs[x[k] - table.l]
        if s == forbidden:
            return out, i, True
        out.append(s)
        while xs < table.l:
            if pos == len(digits):
                return out, i + 1, False
            xs = xs * table.b + digits[pos]
            pos += 1
        x[k] = xs
    if pos != len(digits) or any(v != table.l for v in x):
        return out, count, False
    return out, None, False


def _random_table(rng, n, w, r, key):
    """A random n-symbol law and its keyed table at l = 2^r, b = 2^w."""
    qs = rng.random(n) + 0.05
    qs /= qs.sum()
    return qs, ans.ans_build_table(list(qs), 1 << r, 1 << w, key=key)


@pytest.mark.parametrize("w", [1, 2, 3, 8])
def test_one_lane_equals_the_reference(w):
    rng = np.random.default_rng(w)
    for trial in range(6):
        qs, t = _random_table(rng, 2 + trial % 4, w, 12 if w < 8 else 9, trial)
        msg = rng.choice(len(qs), size=int(rng.integers(0, 3000)), p=qs).tolist()
        ref_d, ref_x = _reference_stream_encode(msg, t)
        d, xs = ans.ans_stream_encode(msg, t)
        assert d.tolist() == ref_d and xs == [ref_x]
        # the numpy lane steps at K = 1 write the same stream
        d1, xs1 = ans._encode_lanes(np.asarray(msg), t, 1)
        assert d1.tolist() == ref_d and xs1 == [ref_x]
        assert _reference_stream_decode_checked(ref_d, t, ref_x, -1) == (msg, None)
        assert ans.ans_stream_decode(d, t, xs, len(msg)).tolist() == msg
        assert ans._decode_lanes(d, t, xs, len(msg), None).tolist() == msg


def _check_lane_fields(msg, t, k):
    """`_encode_lanes` in k lanes against the reference coder on each lane:
    the final states, and the stream read back field by field, step by
    step, lane by lane.  Returns the digits and states."""
    d, xs = ans._encode_lanes(np.asarray(msg), t, k)
    lanes = [_reference_fields(msg[j::k], t) for j in range(k)]
    assert xs == [x for _, x in lanes]
    got, at = d.tolist(), 0
    for step in range(-(-len(msg) // k)):
        for j in range(min(k, len(msg) - step * k)):
            field = lanes[j][0][step]
            assert got[at:at + len(field)] == field, (step, j)
            at += len(field)
    assert at == len(got)
    return d, xs


@pytest.mark.parametrize("k", [2, 3, 7, 64])
def test_lane_fields_equal_the_reference_on_each_lane(k):
    rng = np.random.default_rng(k)
    for w, n_sym in ((1, 1001), (2, 770), (5, 129), (8, 64 * 5 + 3)):
        qs, t = _random_table(rng, 3, w, 10 if w < 8 else 9, k)
        msg = rng.choice(3, size=n_sym + (n_sym % k == 0), p=qs).tolist()
        assert len(msg) % k
        _check_lane_fields(msg, t, k)


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("block", [1, 5, 16])
def test_streamed_lane_encoder_across_block_boundaries(k, block, monkeypatch):
    # the steps are coded back to front a block of at most _EMIT_BLOCK
    # fields at a time; small blocks put many boundaries in one stream,
    # and the last step is partial whenever k > 1
    monkeypatch.setattr(ans, "_EMIT_BLOCK", block)
    monkeypatch.setattr(ans, "lanes_for", lambda count: k)
    rng = np.random.default_rng(10 * k + block)
    for w, n_sym in ((1, 301), (3, 95), (8, 40)):
        qs, t = _random_table(rng, 3, w, 10 if w < 8 else 9, block)
        msg = rng.choice(3, size=n_sym + (n_sym % k == 0 and k > 1), p=qs).tolist()
        d, xs = _check_lane_fields(msg, t, k)
        blob = ans.pack_container(t, xs, d, len(msg))
        assert ans.decode_container(blob).tolist() == msg


@pytest.mark.parametrize("k", [2, 3, 7, 64])
def test_lanes_roundtrip_random_laws(k):
    rng = np.random.default_rng(100 + k)
    for trial in range(12):
        w = 1 + trial % 8
        r = int(rng.integers(3, 11 if w < 6 else 8))
        try:
            qs, t = _random_table(rng, int(rng.integers(2, 7)), w, r, trial)
        except ans.DegenerateSymbol:
            continue
        n_sym = int(rng.integers(0, 4000))
        msg = rng.choice(len(qs), size=n_sym, p=qs).tolist()
        d, xs = ans._encode_lanes(np.asarray(msg), t, k)
        assert len(xs) == k
        assert ans.ans_stream_decode(d, t, xs, n_sym).tolist() == msg


@pytest.mark.parametrize("k", [1, 7, 64])
def test_lane_detection_matches_a_sequential_decode(k):
    # corrupted streams: the numpy steps stop where a one-symbol-at-a-time
    # decode of the same lanes stops, with the same reason
    w4 = ans.forbidden_symbol_wrap([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
                                   Fraction(1, 32))
    t = ans.ans_build_table(w4, 1 << 8, 2, key=3)
    msg = sample_symbols([0.5, 0.25, 0.25], 3001, seed=k)
    d, xs = ans._encode_lanes(np.asarray(msg), t, k)
    rng = SplitMix64(k)
    seen = set()
    for _ in range(60):
        bad = d.tolist()
        for _ in range(1 + rng.randbelow(3)):
            bad[rng.randbelow(len(bad))] ^= 1
        if rng.randbelow(4) == 0:
            bad = bad[:-1 - rng.randbelow(20)]
        count = len(msg) - rng.randbelow(3)
        want, where, forbidden = _sequential_lanes_decode(bad, t, xs, count, 3)
        try:
            got = ans.ans_stream_decode(bad, t, xs, count, forbidden=3).tolist()
            assert where is None and got == want
        except ans.ErrorDetected as e:
            assert (e.position, e.forbidden) == (where, forbidden)
            seen.add(e.forbidden)
    assert seen == {True, False}


def test_container_lane_count_follows_the_symbol_count(monkeypatch):
    # K is not the writer's choice: a container with K != lanes_for(N) is
    # refused even when its lanes decode
    t = ans.ans_build_table([0.5, 0.5], 1 << 8, 2, key=4)
    msg = sample_symbols([0.5, 0.5], 300, seed=5)
    d, xs = ans._encode_lanes(np.asarray(msg), t, 3)
    with pytest.raises(ValueError, match="300 symbols code in 1 lanes, not 3"):
        ans.pack_container(t, xs, d, len(msg))
    monkeypatch.setattr(ans, "lanes_for", lambda count: 3)
    blob = ans.pack_container(t, xs, d, len(msg))
    assert ans.decode_container(blob).tolist() == msg
    monkeypatch.undo()
    with pytest.raises(ans.CorruptStream, match="300 symbols code in 1 lanes, not 3"):
        ans.unpack_container(blob)


def test_lane_container_mutations_fail_cleanly():
    t = ans.ans_build_table([0.5, 0.25, 0.25], 1 << 12, 2, key=1)
    msg = sample_symbols([0.5, 0.25, 0.25], ans.LANE_MIN_SYMBOLS + 5, seed=8)
    d, xs = ans.ans_stream_encode(msg, t)
    assert len(xs) == 64
    blob = ans.pack_container(t, xs, d, len(msg))
    assert ans.decode_container(blob).tolist() == msg
    count_at = 4 + 5 + 12 + 8
    rng = SplitMix64(9)
    cases = []
    for cut in range(1, 17):
        body = bytearray(blob[:-4])
        struct.pack_into("<Q", body, count_at, len(msg) - cut)
        cases.append(bytes(body) + zlib.crc32(body).to_bytes(4, "little"))
    for _ in range(10):
        out = bytearray(blob)
        out[rng.randbelow(len(out))] ^= 1 << rng.randbelow(8)
        cases.append(bytes(out))
    for bad in cases:
        with pytest.raises(ans.CorruptStream):
            ans.decode_container(bad)


def test_state_visit_law():
    # visit frequency correlates with 1/x (rank correlation > 0.9)
    t = ans.ans_build_table([0.2, 0.3, 0.5], 1 << 6, 2, key=1)
    qhat = [ls / t.l for ls in t.l_s]
    msg = sample_symbols(qhat, 200000, seed=2)
    # the single-lane stream: lanes interleave several states' visits
    digits, x = _reference_stream_encode(msg, t)
    st = StreamState(t, x, digits)
    visits = np.zeros(t.l)
    for _ in msg:
        visits[st.x - t.l] += 1
        st.pop()
    inv = 1.0 / np.arange(t.l, 2 * t.l)
    ra = np.argsort(np.argsort(visits))
    rb = np.argsort(np.argsort(inv))
    assert np.corrcoef(ra, rb)[0, 1] > 0.9


def test_forbidden_symbol_wrap_probs():
    eps = Fraction(1, 16)
    w = ans.forbidden_symbol_wrap([Fraction(1, 4), Fraction(3, 4)], eps)
    assert w == [Fraction(15, 64), Fraction(45, 64), Fraction(1, 16)]
    assert sum(w) == 1
    t = ans.ans_build_table(w, 1 << 12, 2, key=9)
    assert t.l_s == [960, 2880, 256]


def test_forbidden_uncorrupted_never_triggers():
    eps = Fraction(1, 16)
    w = ans.forbidden_symbol_wrap([Fraction(1, 4), Fraction(3, 4)], eps)
    t = ans.ans_build_table(w, 1 << 12, 2, key=9)
    msg = sample_symbols([0.25, 0.75], 10 ** 7, seed=21)
    d, xs = ans.ans_stream_encode(msg, t)
    out = ans.ans_stream_decode(d, t, xs, len(msg), forbidden=2)
    assert out.tolist() == msg


def test_forbidden_detection_gap():
    # single flipped digit: detected within 64 symbols in >= 95% of 1e3 trials
    eps = Fraction(1, 16)
    w = ans.forbidden_symbol_wrap([Fraction(1, 4), Fraction(3, 4)], eps)
    t = ans.ans_build_table(w, 1 << 12, 2, key=9)
    msg = sample_symbols([0.25, 0.75], 4000, seed=22)
    d, xs = ans.ans_stream_encode(msg, t)
    assert ans.ans_stream_decode(d, t, xs, len(msg), forbidden=2).tolist() == msg
    d = d.tolist()
    # per symbol, the digits the reference decoder consumed before it
    ref = StreamState(t, xs[0], d)
    consumed = []
    for _ in msg:
        consumed.append(len(d) - len(ref.digits))
        ref.pop()
    rng = SplitMix64(derive(40, 1))
    hits = 0
    for _ in range(1000):
        pos = rng.randbelow(len(d))
        bad = list(d)
        bad[pos] ^= 1
        try:
            ans.ans_stream_decode(bad, t, xs, len(msg), forbidden=2)
            continue
        except ans.ErrorDetected as e:
            found = e.position
        # first symbol that could see the corrupted digit, from the clean trace
        first = next(i for i, c in enumerate(consumed + [len(d)]) if c > pos)
        if 0 <= found - first + 1 <= 64:
            hits += 1
    assert hits >= 950


def test_forbidden_rate_overhead():
    eps = Fraction(1, 16)
    base = [Fraction(1, 4), Fraction(3, 4)]
    t0 = ans_build_table_precise(base, 1 << 12, 2)
    t1 = ans.ans_build_table(ans.forbidden_symbol_wrap(base, eps), 1 << 12, 2, key=9)
    msg = sample_symbols([0.25, 0.75], 10 ** 6, seed=23)
    d0, _ = ans.ans_stream_encode(msg, t0)
    d1, _ = ans.ans_stream_encode(msg, t1)
    overhead = (len(d1) - len(d0)) / len(msg)
    analytic = -math.log2(1 - float(eps))
    assert abs(overhead - analytic) <= 0.1 * analytic


def test_container_roundtrip():
    qs = [0.2, 0.3, 0.5]
    t = ans.ans_build_table(qs, 1 << 10, 2, key=77)
    msg = sample_symbols(qs, 5000, seed=30)
    d, xs = ans.ans_stream_encode(msg, t)
    blob = ans.pack_container(t, xs, d, len(msg))
    assert blob[:4] == b"ANS2"
    t2, xs2, n2, d2, crc_ok = ans.unpack_container(blob)
    assert (t2.l_s, t2.key, xs2, n2, d2.tolist()) == (t.l_s, t.key, xs, len(msg), d.tolist())
    assert crc_ok and np.array_equal(t2.sym_array, t.sym_array)
    assert ans.ans_stream_decode(d2, t2, xs2, n2).tolist() == msg
    assert ans.decode_container(blob).tolist() == msg
    with pytest.raises(ans.CorruptStream):
        ans.unpack_container(b"XXXX" + blob[4:])
    with pytest.raises(ans.CorruptStream):
        ans.unpack_container(blob[:-1])


def test_container_header_layout():
    t = ans.ans_build_table([0.5, 0.5], 1 << 4, 2, key=0xDEADBEEF)
    blob = ans.pack_container(t, [17], [1, 0, 1], 2)
    # 4 magic + 5 fixed + 2*4 slots + 26 counts + 4 lane state
    # + 1 payload byte + 4 crc
    assert len(blob) == 4 + 5 + 8 + 26 + 4 + 1 + 4
    assert blob[4] == 2 and blob[5] == 1 and blob[6] == 4
    assert int.from_bytes(blob[7:9], "little") == 2
    assert struct.unpack_from("<QQHQI", blob, 17) == (0xDEADBEEF, 2, 1, 3, 17)
    assert blob[-5] == 0b10100000          # digits most significant bit first
    assert blob[-4:] == zlib.crc32(blob[:-4]).to_bytes(4, "little")


def test_abs_stream_pair_roundtrip():
    # varying per-step dyadic probabilities, zero padding accounted
    rng = SplitMix64(55)
    R = 12
    bits = [rng.randbelow(2) for _ in range(500)]
    dec = ans.AbsStreamDecoder(iter(bits), R)
    ms = [rng.randbelow((1 << R) - 1) + 1 for _ in range(400)]
    drawn = [dec.draw(m) for m in ms]
    enc = ans.AbsStreamEncoder(dec.x, R)
    for s, m in zip(reversed(drawn), reversed(ms)):
        enc.absorb(s, m)
    assert enc.finish() == bytes(bits[: dec.consumed] + [0] * dec.padded)


def test_abs_stream_first_draw_unbiased():
    # the state seed makes even the very first draw follow m/2^R
    rng = SplitMix64(71)
    R = 10
    hits = 0
    trials = 20000
    for _ in range(trials):
        dec = ans.AbsStreamDecoder(iter(rng.randbelow(2) for _ in range(R)), R)
        hits += dec.draw(1 << 8)  # q = 1/4
    f = hits / trials
    assert abs(f - 0.25) < 4 * math.sqrt(0.25 * 0.75 / trials)


def test_abs_stream_biased_draws():
    # m/2^R really controls the drawn symbol distribution
    rng = SplitMix64(60)
    R = 10
    bits = [rng.randbelow(2) for _ in range(60000)]
    dec = ans.AbsStreamDecoder(iter(bits), R)
    m = 1 << 8  # q = 1/4
    draws = [dec.draw(m) for _ in range(40000)]
    f = sum(draws) / len(draws)
    assert abs(f - 0.25) < 0.01


@pytest.mark.parametrize("R", [1, 2, 16, 63, 64])
def test_fair_shift_equals_per_node_steps(R):
    # run(m, k) and absorb_run equal k per-node steps at one law m, the fair
    # 2^(R-1) (one shift) or a random one, for runs of 0-40 nodes after 0-4
    # random-law draws; payloads end anywhere from before the seed to past
    # the walk, and every third one inside the run.  run returns bytes, and
    # absorb_run reads them back
    rng = SplitMix64(2100 + R)
    l, half = 1 << R, 1 << (R - 1)
    crossed = set()  # fair or not, for runs that read past the payload's end
    for trial in range(300):
        pre = [rng.randbelow(l - 1) + 1 for _ in range(rng.randbelow(5))]
        m = half if trial % 2 else rng.randbelow(l - 1) + 1
        k = rng.randbelow(41)
        # a draw reads at most R bits, so the walk never reads past these
        bits = (rng.block(R * (1 + len(pre) + k)) & 1).tolist()
        probe = ans.AbsStreamDecoder(bits, R)
        for a in pre:
            probe.draw(a)
        start = probe.consumed
        probe.run(m, k)
        if trial % 3 == 0 and probe.consumed - start > 1:
            bits = bits[:start + 1 + rng.randbelow(probe.consumed - start - 1)]
        elif trial % 3 == 1:
            bits = bits[:rng.randbelow(probe.consumed + 8)]
        step, whole = ans.AbsStreamDecoder(bits, R), ans.AbsStreamDecoder(bits, R)
        head = [step.draw(a) for a in pre]
        assert [whole.draw(a) for a in pre] == head
        inside, padded = whole.consumed < len(bits), whole.padded
        run = [step.draw(m) for _ in range(k)]
        got = whole.run(m, k)
        assert got == bytes(run)
        assert (whole.x, whole.consumed, whole.padded) == (
            step.x, step.consumed, step.padded)
        if inside and whole.padded > padded:
            crossed.add(m == half)
        back, one = (ans.AbsStreamEncoder(step.x, R),
                     ans.AbsStreamEncoder(step.x, R))
        for s in reversed(run):
            back.absorb(s, m)
        one.absorb_run(got, m)
        assert (one.x, one._emitted) == (back.x, back._emitted)
        for s, a in zip(reversed(head), reversed(pre)):
            back.absorb(s, a)
            one.absorb(s, a)
        assert one.finish() == back.finish() == bytes(
            bits[:step.consumed] + [0] * step.padded)
    # R = 1 has no law but the fair one
    assert crossed == ({True} if R == 1 else {True, False})


def test_lane_encoder_memory_follows_its_output():
    # 10^6 symbols at the benchmark's law code to about 1.45 MB of one-byte
    # digits in 488 lanes; the lane steps hold one block of fields at a
    # time, where a whole-stream field array held 11.6 MB at its peak
    qs = ans.forbidden_symbol_wrap([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
                                   Fraction(1, 64))
    t = ans.ans_build_table(qs, 1 << 12, 2)
    msg = np.random.default_rng(24).choice(3, size=10 ** 6, p=[0.5, 0.25, 0.25])
    msg = msg.astype(np.uint8)
    tracemalloc.start()
    d, xs = ans.ans_stream_encode(msg, t)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(xs) == 488 and peak <= 6 * 10 ** 6, peak
    blob = ans.pack_container(t, xs, d, len(msg))
    assert (ans.decode_container(blob, forbidden=True) == msg).all()
