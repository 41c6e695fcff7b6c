import math
from fractions import Fraction

import numpy as np
import pytest

from latticecode import ans
from latticecode import lattice as lat
from latticecode import strip as st
from latticecode.ans import CapacityExceeded, CorruptStream
from latticecode.rng import SplitMix64


HS = lat.hard_square()
H = lat.HARD_SQUARE_ENTROPY


def test_width1_is_fibonacci():
    s = st.strip_model(HS, 1, "zero")
    assert s.columns == [(0,), (1,)]
    phi = (1 + math.sqrt(5)) / 2
    assert abs(s.eigs.value - phi) < 1e-12
    assert abs(s.capacity - math.log2(phi)) < 1e-12
    S = s.coder.transition
    assert abs(S[0, 0] - 1 / phi) < 1e-12
    assert abs(S[0, 1] - 1 / phi ** 2) < 1e-12
    assert S[1, 0] == 1.0 and S[1, 1] == 0.0
    fc = st.first_column_rule(s)
    assert abs(fc[1] - 1 / phi ** 2) < 1e-12


def test_width2_zero_boundary():
    s = st.strip_model(HS, 2, "zero")
    assert sorted(s.columns) == [(0, 0), (0, 1), (1, 0)]
    assert abs(s.eigs.value - (1 + math.sqrt(2))) < 1e-12
    assert abs(s.capacity - math.log2(1 + math.sqrt(2)) / 2) < 1e-12


def test_capacity_sandwich():
    zeros = {}
    cyclics = {}
    for n in range(3, 10):
        zeros[n] = st.strip_capacity(HS, n, "zero")
        cyclics[n] = st.strip_capacity(HS, n, "cyclic")
    # zero-boundary strips upper-bound the entropy and tighten with width
    assert all(z > H for z in zeros.values())
    assert all(zeros[n] > zeros[n + 1] for n in range(3, 9))
    # odd cyclic widths bound from below; even widths overshoot slightly
    for n in (3, 5, 7, 9):
        assert cyclics[n] < H
    for n in (4, 6, 8):
        assert 0 < cyclics[n] - H < 4e-3
    assert abs(cyclics[9] - H) < 1e-3


def test_cyclic_degenerate_widths():
    s1 = st.strip_model(HS, 1, "cyclic")
    assert s1.columns == [(0,)]
    assert s1.capacity == 0.0
    assert s1.degenerate_cyclic
    s2 = st.strip_model(HS, 2, "cyclic")
    assert s2.degenerate_cyclic
    # double vertical adjacency collapses to the zero-boundary constraints
    assert abs(s2.capacity - st.strip_capacity(HS, 2, "zero")) < 1e-12
    assert not st.strip_model(HS, 3, "cyclic").degenerate_cyclic


# three symbols; a diagonal, an anti-diagonal, a vertical pair and a
# pattern that demands a 0 (a 2 may not have a 0 to its right)
MIXED = lat.LatticeModel(2, (0, 1, 2), (
    (((0, 0), 1), ((1, 1), 1)),
    (((0, 0), 1), ((1, -1), 2)),
    (((0, 0), 2), ((1, 0), 2)),
    (((0, 0), 2), ((0, 1), 0)),
))


@pytest.mark.parametrize("case", [("hs", n, b) for n in range(1, 9)
                                  for b in ("zero", "cyclic")]
                         + [("mixed", n, "zero") for n in range(1, 5)])
def test_column_engine_against_independent_code(case):
    name, n, boundary = case
    if name == "hs":
        s = st.strip_model(HS, n, boundary)
        wrap = boundary == "cyclic"
        # product order is ascending binary with row 0 as the top bit
        masks = [m for m in range(1 << n) if not m & (m >> 1)
                 and not (wrap and m & 1 and (m >> (n - 1)) & 1)]
        assert s.columns == [tuple((m >> (n - 1 - i)) & 1 for i in range(n))
                             for m in masks]
        want = [[float((a & b) == 0) for b in masks] for a in masks]
        assert s.graph.weights.tolist() == want
    else:
        s = st.strip_model(MIXED, n, boundary)
        one = lat.count(lat.rect(n, 1), MIXED, method="backtracking")
        two = lat.count(lat.rect(n, 2), MIXED, method="backtracking")
        assert len(s.columns) == one
        assert int(np.count_nonzero(s.graph.weights)) == two


def test_state_guards(monkeypatch):
    monkeypatch.setattr(st, "MAX_STATES", 4)
    with pytest.raises(st.TooWide):
        st.strip_model(HS, 4, "zero")
    gap2 = lat.LatticeModel(2, (0, 1), ((((0, 0), 1), ((0, 2), 1)),))
    with pytest.raises(st.TooWide):
        st.strip_model(gap2, 3, "zero")
    with pytest.raises(ValueError):
        st.strip_model(lat.kmodel(1), 3, "zero")
    for n in (0, -1):
        with pytest.raises(ValueError):
            st.strip_model(HS, n, "zero")


def test_conditional_chaining():
    s = st.strip_model(HS, 4, "zero")
    S = s.coder.transition
    for u in range(len(s.columns)):
        tab = st.conditional_tables(s, u)
        for v, col in enumerate(s.columns):
            prod = 1.0
            for j in range(4):
                key = (j, col[:j])
                if key not in tab:
                    prod = 0.0
                    break
                prod *= tab[key][col[j]]
            assert abs(prod - S[u, v]) < 1e-12
        row = [q for (j, _), qs in tab.items() if j == 0 for q in [sum(qs.values())]]
        assert all(abs(r - 1) < 1e-12 for r in row)


@pytest.mark.parametrize("boundary", ["zero", "cyclic"])
def test_compiled_walk_tables_match_conditional_tables(boundary):
    # a prefix's node is its binary-heap code: a leading 1, then its bits
    for n in range(1, 9):
        s = st.strip_model(HS, n, boundary)
        for u in range(len(s.columns)):
            tab = st.conditional_tables(s, u)
            succ = [v for v in range(len(s.columns)) if s.graph.weights[u, v]]
            for R in (4, 16):
                laws, nexts = st._walk_table(s, u, R)
                want = [None] * (1 << n)
                for (j, prefix), q in tab.items():
                    code = int("1" + "".join(map(str, prefix)), 2)
                    want[code] = st._quantize(q[1], 1 << R)
                assert laws == want, (n, u, R)
                want = [None] * (1 << n)
                for v in succ:
                    col = s.columns[v]
                    want[int("".join(map(str, col)), 2)] = s.index[col]
                assert nexts == want, (n, u, R)


def test_first_column_frequencies():
    s = st.strip_model(HS, 3, "zero")
    codec = st.LatticeCodec(s)
    fc = st.first_column_rule(s)
    rng = SplitMix64(21)
    trials = 10 ** 5
    counts = np.zeros(len(s.columns))
    for _ in range(trials):
        bits = [rng.randbelow(2) for _ in range(40)]
        res = codec.encode(bits, 1, partial=True)
        counts[s.index[tuple(int(x) for x in res.grid[:, 0])]] += 1
    freq = counts / trials
    sigma = np.sqrt(fc * (1 - fc) / trials)
    assert (np.abs(freq - fc) < 3 * sigma).all()


def test_roundtrip_width8_10k_bits():
    s = st.strip_model(HS, 8, "zero")
    codec = st.LatticeCodec(s)
    rng = SplitMix64(23)
    payload = [rng.randbelow(2) for _ in range(10 ** 4)]
    cols = math.ceil((10 ** 4 + 17) / (8 * s.capacity) * 1.02)
    res = codec.encode(payload, cols)
    assert lat.scan(res.grid, HS) == []
    assert codec.decode(res.grid, res.final_state, 10 ** 4) == payload


def test_randomized_roundtrips():
    rng = SplitMix64(99)
    cache = {}
    for trial in range(1000):
        n = 1 + rng.randbelow(6)
        boundary = ("zero", "cyclic")[rng.randbelow(2)]
        cols = 1 + rng.randbelow(12)
        key = (n, boundary)
        if key not in cache:
            cache[key] = st.LatticeCodec(st.strip_model(HS, n, boundary))
        codec = cache[key]
        supply = rng.randbelow(n * cols + 32) + 1
        bits = [rng.randbelow(2) for _ in range(supply)]
        res = codec.encode(bits, cols, partial=True)
        want = bits[:res.consumed]
        assert codec.decode(res.grid, res.final_state, res.consumed) == want
        if boundary == "zero":
            assert lat.scan(res.grid, HS) == []


def test_rate_near_capacity():
    rep = st.evaluate_rate("hard-square", 8, 4096, trials=3, seed=0, verify=True)
    assert rep.mean >= rep.capacity - 0.005
    assert rep.mean <= rep.capacity + 1e-9  # never above the channel limit


def test_rate_gap_decreases_with_width():
    gaps = []
    for n in (2, 4, 6, 8):
        rep = st.evaluate_rate("hard-square", n, 2048, trials=2, seed=3)
        gaps.append(rep.mean - H)
    assert all(g > 0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_parallel_rate_matches_serial():
    a = st.evaluate_rate("hard-square", 6, 1024, trials=4, seed=1, jobs=2)
    b = st.evaluate_rate("hard-square", 6, 1024, trials=4, seed=1, jobs=1)
    assert a.rates == b.rates


def test_bulk_density_matches_stationary():
    s = st.strip_model(HS, 6, "zero")
    pi = s.coder.stationary
    target = float(pi @ np.array([sum(c) for c in s.columns])) / 6
    codec = st.LatticeCodec(s)
    rng = SplitMix64(22)
    cols = 3000
    bits = [rng.randbelow(2) for _ in range(6 * cols + 64)]
    res = codec.encode(bits, cols, partial=True)
    dens = res.grid[:, 100:].mean(axis=0)
    sem = dens.std(ddof=1) / math.sqrt(len(dens) / 8)  # generous mixing span
    assert abs(float(dens.mean()) - target) < 4 * sem


def test_decode_rejections():
    s = st.strip_model(HS, 4, "zero")
    codec = st.LatticeCodec(s)
    rng = SplitMix64(5)
    bits = [rng.randbelow(2) for _ in range(60)]
    res = codec.encode(bits, 30, partial=True)
    bad = res.grid.copy()
    bad[0, 3] = 1
    bad[1, 3] = 1
    with pytest.raises(st.InvalidLattice):
        codec.decode(bad, res.final_state, res.consumed)
    with pytest.raises(st.ConfigMismatch):
        codec.decode(res.grid[:3], res.final_state, res.consumed)
    with pytest.raises(st.ConfigMismatch):
        codec.decode(res.grid, 3, res.consumed)
    with pytest.raises(CapacityExceeded) as e:
        codec.encode([1, 0] * 400, 4)
    assert 0 < e.value.achieved_bits < 800


@pytest.mark.parametrize("case,first", [("non-binary", 7), ("column", 5),
                                        ("pair", 4)])
def test_decode_names_the_first_bad_column(case, first):
    s = st.strip_model(HS, 4, "zero")
    codec = st.LatticeCodec(s)
    res = codec.encode([1, 0, 0, 1] * 10, 20, partial=True)
    bad = res.grid.copy()
    if case == "non-binary":
        bad[2, 7] = 2
    elif case == "column":
        bad[1:3, 5] = 1  # two 1s one above the other
    else:
        # 1010 after 0000 is fine, 1010 after 1010 is not
        bad[:, 2], bad[:, 3], bad[:, 4] = 0, [1, 0, 1, 0], [1, 0, 1, 0]
    # a later defect of every kind must not be the one reported
    bad[0, 11], bad[:2, 14], bad[3, 17] = 3, 1, 2
    with pytest.raises(st.InvalidLattice,
                       match=r"^column %d breaks the constraints$" % first):
        codec.decode(bad, res.final_state, res.consumed)


def test_encoded_text_container():
    s = st.strip_model(HS, 5, "zero")
    codec = st.LatticeCodec(s)
    rng = SplitMix64(77)
    bits = [rng.randbelow(2) for _ in range(120)]
    res = codec.encode(bits, 50, partial=True)
    text = st.encode_to_text(s, res, res.consumed)
    head = text.split("\n")[0]
    assert head.startswith("strip model=hard-square n=5 boundary=zero R=16")
    assert st.decode_text(text) == bits[:res.consumed]
    with pytest.raises(st.ConfigMismatch):
        st.decode_text("nope\n" + text.split("\n", 1)[1])
    with pytest.raises(st.ConfigMismatch):
        st.decode_text(text.replace("model=hard-square", "model=unknown"))


def _random_laws(rng, R, count):
    """Dyadic one-laws m over [0, 2^R]: forced 0 and 2^R, the extremes 1
    and 2^R - 1, and uniform draws in between."""
    l = 1 << R
    pick = (0, l, 1, l - 1)
    return [pick[k] if k < 4 else rng.randbelow(l - 1) + 1
            for k in (rng.randbelow(8) for _ in range(count))]


def _reference_coding(bits, R, laws):
    """The coder pair `_write` / `_read` run, rebuilt step by step from the
    exact-fraction `abs_decode_step` / `abs_encode_step`: symbols, final
    state, consumed, padded, and every bit read back (padding included)."""
    l = 1 << R
    stream = iter(bits)
    count = {"consumed": 0, "padded": 0}

    def refill(x):
        while x < l:
            b = next(stream, None)
            count["padded" if b is None else "consumed"] += 1
            x = 2 * x + (b or 0)
        return x

    x = refill(1)
    syms = []
    for m in laws:
        if 0 < m < l:
            s, x = ans.abs_decode_step(x, Fraction(m, l))
            x = refill(x)
        else:
            s = m >> R
        syms.append(s)
    final, back = x, []
    for s, m in zip(reversed(syms), reversed(laws)):
        if 0 < m < l:
            while x >= 2 * (m if s else l - m):
                back.append(x & 1)
                x >>= 1
            x = ans.abs_encode_step(s, x, Fraction(m, l))
    assert l <= x < 2 * l
    while x > 1:
        back.append(x & 1)
        x >>= 1
    return syms, final, count["consumed"], count["padded"], back[::-1]


@pytest.mark.parametrize("R", [1, 16, 63, 64])
def test_write_read_match_reference_coder(R):
    rng = SplitMix64(1000 + R)
    for trial in range(40):
        rows, cols = 1 + rng.randbelow(5), 1 + rng.randbelow(40)
        laws = _random_laws(rng, R, rows * cols)
        # payloads from empty through shorter than the walk (zero padding)
        # to longer than it
        nbits = (0, rng.randbelow(R + 8), rng.randbelow(4 * rows * cols + 8))[trial % 3]
        bits = [rng.randbelow(2) for _ in range(nbits)]
        order = np.argsort(rng.block(rows * cols), kind="stable")
        seen = []

        def walk(placed):
            for t, m in enumerate(laws):
                yield m
                seen.append(placed[t])

        res = st._write(bits, R, np.zeros((rows, cols), dtype=np.int8),
                        order, walk, partial=True)
        syms, x, consumed, padded, back = _reference_coding(bits, R, laws)
        assert seen == syms
        assert res.grid.flat[order].tolist() == syms
        assert (res.final_state, res.consumed, res.padded) == (x, consumed, padded)
        assert back == bits[:consumed] + [0] * padded
        assert st._read(res.grid, order, lambda placed: iter(laws), x,
                        consumed, R) == back[:consumed]


def test_read_reports_the_first_bad_node():
    # laws: free, forced 0, free, forced 1 over a 2x2 grid visited
    # column-major; _read names the first bad node in visiting order
    R, l = 4, 16
    laws = [5, 0, 7, l]
    order = np.array([0, 2, 1, 3])
    grid = np.array([[0, 1], [1, 0]])
    with pytest.raises(st.InvalidLattice, match=r"forced node disagrees at \(1, 0\)"):
        st._read(grid, order, lambda placed: iter(laws), l, 0, R)
    grid[1, 0] = 2
    with pytest.raises(st.InvalidLattice, match=r"non-binary value at \(1, 0\)"):
        st._read(grid, order, lambda placed: iter(laws), l, 0, R)
    grid[1, 0], grid[0, 1] = 1, 3
    with pytest.raises(st.InvalidLattice, match=r"forced node disagrees at \(1, 0\)"):
        st._read(grid, order, lambda placed: iter(laws), l, 0, R)
    grid[1, 0] = 0
    with pytest.raises(st.InvalidLattice, match=r"non-binary value at \(0, 1\)"):
        st._read(grid, order, lambda placed: iter(laws), l, 0, R)
    grid[0, 1] = 0
    with pytest.raises(st.InvalidLattice, match=r"forced node disagrees at \(1, 1\)"):
        st._read(grid, order, lambda placed: iter(laws), l, 0, R)
