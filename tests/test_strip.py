import gc
import math
import os
import tracemalloc
import weakref
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from latticecode import ans
from latticecode import lattice as lat
from latticecode import spectral as sp
from latticecode import strip as st
from latticecode.ans import CapacityExceeded, CorruptStream, DecodeError
from latticecode.rng import SplitMix64
from latticecode.strip import StripModel


HS = lat.hard_square()
H = lat.HARD_SQUARE_ENTROPY


# Test references: the coder's laws summed in state order, and its first
# column's distribution, which the law table and the codec must match.


def conditional_tables(strip: StripModel, u: int) -> dict:
    """Per-node conditional laws q_j(b | prefix) for columns following
    state u; chaining them over a full column reproduces the transition
    row S[u, .] of the entropy-maximizing coder.  The bit-exact reference
    for `_law_table`: summed in state order over a dict suffix trie of the
    columns, each law divides by the sum of its children, as the table's do."""
    psi, W = strip.eigs.right, strip.graph.weights
    # levels[j][prefix]: psi summed over u's successors with that prefix
    levels = [dict() for _ in range(strip.n + 1)]
    for v, col in enumerate(strip.columns):
        if W[u, v] == 0:
            continue
        w = float(psi[v])
        for j in range(strip.n + 1):
            key = col[:j]
            levels[j][key] = levels[j].get(key, 0.0) + w
    out = {}
    for j in range(strip.n):
        for prefix, wp in levels[j].items():
            if wp <= 0:
                continue
            child = {b: levels[j + 1].get(prefix + (b,), 0.0)
                     for b in strip.model.alphabet}
            total = sum(child.values())
            out[(j, prefix)] = {b: w / total for b, w in child.items()}
    return out


def first_column_rule(strip: StripModel) -> np.ndarray:
    """Column distribution with a virtual all-zero previous column: row a
    of the entropy-maximizing chain, M_ab psi_b / (M psi)_a as in
    `spectral.merw_coder`."""
    M, psi, a = strip.graph.weights, strip.eigs.right, strip.zero_state
    return M[a] * psi / (M @ psi)[a]


def test_width1_is_fibonacci():
    s = st.strip_model(HS, 1, "zero")
    assert s.columns == [(0,), (1,)]
    phi = (1 + math.sqrt(5)) / 2
    assert abs(s.eigs.value - phi) < 1e-12
    assert abs(s.capacity - math.log2(phi)) < 1e-12
    S = sp.merw_coder(s.graph, s.eigs).transition
    assert abs(S[0, 0] - 1 / phi) < 1e-12
    assert abs(S[0, 1] - 1 / phi ** 2) < 1e-12
    assert S[1, 0] == 1.0 and S[1, 1] == 0.0
    fc = first_column_rule(s)
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
        one, two = (sum(lat._iter_valuations(lat.rect(n, c), MIXED, None, "free",
                                             None, True)) for c in (1, 2))
        assert len(s.columns) == one
        assert int(np.count_nonzero(s.graph.weights)) == two
        # in itertools.product order, each column checked on its own
        assert s.columns == [c for c in product(MIXED.alphabet, repeat=n)
                             if lat.count(lat.rect(n, 1), MIXED, {
                                 (i, 0): x for i, x in enumerate(c)})]


def test_state_guards(monkeypatch):
    monkeypatch.setattr(st, "MAX_STATES", 4)
    with pytest.raises(lat.TooLarge):
        st.strip_model(HS, 4, "zero")
    gap2 = lat.LatticeModel(2, (0, 1), ((((0, 0), 1), ((0, 2), 1)),))
    with pytest.raises(lat.TooLarge):
        st.strip_model(gap2, 3, "zero")
    with pytest.raises(ValueError):
        st.strip_model(lat.kmodel(1), 3, "zero")
    for n in (0, -1):
        with pytest.raises(ValueError):
            st.strip_model(HS, n, "zero")


def test_conditional_chaining():
    s = st.strip_model(HS, 4, "zero")
    S = sp.merw_coder(s.graph, s.eigs).transition
    for u in range(len(s.columns)):
        tab = conditional_tables(s, u)
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


# the diagonal model; a binary model whose second pattern asks a 0 (a 1
# may not have a 0 to its right and a 1 below that); and hard-square with
# 0s and 1s swapped, whose laws lean to 1 and force it beside a 0
DIAG = lat.LatticeModel(2, (0, 1), ((((0, 0), 1), ((1, 1), 1)),
                                    (((0, 0), 1), ((1, -1), 1))), name="diagonal")
MIXED01 = lat.LatticeModel(2, (0, 1), ((((0, 0), 1), ((1, 0), 1)),
                                       (((0, 0), 1), ((0, 1), 0), ((1, 1), 1))))
SWAPPED = lat.LatticeModel(2, (0, 1), ((((0, 0), 0), ((1, 0), 0)),
                                       (((0, 0), 0), ((0, 1), 0))))


def zero_or_free(model, n, boundary):
    """The strip; for SWAPPED and ONES_SINK, whose patterns ask only 0
    outside a zero strip, the zero strip is checked to be refused and the
    free one, which a zero strip of theirs used to compute, is built."""
    if boundary == "zero" and model in (SWAPPED, ONES_SINK):
        with pytest.raises(ValueError, match="^no zero boundary where a pattern"):
            st.strip_model(model, n, boundary)
        boundary = "free"
    return st.strip_model(model, n, boundary)


def test_zero_boundary_is_refused_where_it_is_not_free():
    # the column engine computes zero as free; where a pattern that sticks
    # out of the strip asks only 0 there, the two differ, and zero is refused
    with pytest.raises(ValueError, match="^no zero boundary where a pattern "
                                         "asks only 0 outside the strip$"):
        st.strip_model(ONES_SINK, 2, "zero")
    assert len(st.strip_model(ONES_SINK, 2, "free").columns) == 3
    assert lat.count(lat.rect(2, 1), ONES_SINK, boundary="zero") == 1
    assert lat.count(lat.rect(2, 3), ONES_SINK, boundary="zero") == 1
    assert lat.count(lat.rect(2, 3), ONES_SINK, boundary="free") == 27
    # a pattern of 0s alone is refused even at width 1, where no translate
    # reaches inside the strip from outside
    zeros = lat.LatticeModel(2, (0, 1), ((((0, 0), 0), ((0, 1), 0)),))
    with pytest.raises(ValueError, match="^no zero boundary"):
        st.check_law_size(zeros, 1, "zero")
    # where every sticking-out cell asks another symbol, zero is free
    for model in (HS, DIAG, MIXED, MIXED01, lat.unconstrained(2)):
        for n in range(1, 5):
            z, f = st.strip_model(model, n, "zero"), st.strip_model(model, n, "free")
            assert z.columns == f.columns
            assert np.array_equal(z.graph.weights, f.graph.weights)


def test_quantize_is_the_scalar_rule(quantize):
    # the law table's arrays and algo1's scalar q take one rule: at every
    # precision it equals the scalar one on forcing and nearly forcing
    # probabilities, the extremes of the floats and every half-step
    rng = np.random.default_rng(33)
    for R in (1, 2, 3, 16, 30, 52, 53, 54, 61, 62, 63, 64):
        l = 1 << R
        near = rng.random(200) * 3 / l
        p = np.concatenate([[0.0, 1.0, 5e-324, 1 - 2 ** -53, 0.5], near, 1 - near,
                            (np.arange(min(l, 1 << 10)) + 0.5) / l, rng.random(200)])
        want = [quantize(x, l) for x in p.tolist()]
        got = st._quantize(p, R)
        assert got.dtype == (np.int64 if R < 62 else object), R
        assert got.tolist() == want, R
        assert all(type(st._quantize(x, R)) is int for x in p[:5].tolist())
        assert [st._quantize(x, R) for x in p.tolist()] == want, R


@pytest.mark.parametrize("boundary", ["zero", "cyclic"])
def test_compiled_walk_tables_match_conditional_tables(boundary, quantize):
    # the law of state u's successor at row j under prefix q is
    # laws[base[q] + key[u, j]]; conditional_tables sums in state order, so
    # every law a successor of u reaches matches it bit for bit
    for model, widths in ((HS, range(1, 9)), (DIAG, range(1, 7)),
                          (MIXED01, range(1, 7)), (SWAPPED, range(1, 7))):
        for n in widths:
            s = zero_or_free(model, n, boundary)
            levels = lat._column_levels(model, n, boundary == "cyclic")
            prefixes = [(j, tuple((c >> (j - 1 - i)) & 1 for i in range(j)))
                        for j in range(n) for c in levels[j].tolist()]
            tabs = [conditional_tables(s, u) for u in range(len(s.columns))]
            for R in (1, 4, 12, 16, 64):
                laws, base, key, child, rank = st._law_table(s, R)
                assert len(base) == len(prefixes)
                for u, tab in enumerate(tabs):
                    seen = [(q, j) for q, (j, p) in enumerate(prefixes)
                            if (j, p) in tab]
                    want = [quantize(tab[prefixes[q]][1], 1 << R)
                            for q, _ in seen]
                    got = laws[[base[q] + key[u, j] for q, j in seen]].tolist()
                    assert got == want, (model.name, n, u, R)
                    assert all(type(m) is int for m in got)
            # every full column steps through its prefixes to state v
            for v, col in enumerate(s.columns):
                q = 0
                for j, b in enumerate(col):
                    assert rank[v, j] == q
                    q = child[2 * q + b]
                assert q == len(prefixes) + v, (model.name, n, v)


def dense_law_table(strip: StripModel, precision: int) -> np.ndarray:
    """The codec's laws as one (state, prefix) table: laws[u, q] is the law
    of row j after state u under flat prefix q (`_law_table`'s numbering),
    summed from the strip's dense pair weights.  The wide bit-exact
    reference for `_law_table`, which keeps one law per (prefix, key):
    each sum runs down axis 0 of a C-order (states, states) array, in
    state order, and is quantised as the table's are."""
    n, codes, l = strip.n, strip.codes, 1 << precision
    levels = lat._column_levels(strip.model, n, strip.boundary == "cyclic")
    off = np.cumsum([0] + [len(c) for c in levels]).tolist()
    WT = (strip.graph.weights * strip.eigs.right).T.copy()
    dtype = np.int64 if precision < 62 else object
    laws = np.empty((len(codes), off[n]), dtype)
    for j in range(n):
        ext = 2 * levels[j][:, None] + np.arange(3)
        cuts = np.searchsorted(codes >> (n - j - 1), ext).tolist()
        w = np.empty((2, len(cuts), len(codes)))
        for i, (a, b, c) in enumerate(cuts):
            np.add.reduce(WT[a:b], axis=0, out=w[0, i])
            np.add.reduce(WT[b:c], axis=0, out=w[1, i])
        tot = w[0] + w[1]
        p = np.divide(w[1], tot, out=np.zeros_like(tot), where=tot > 0)
        f = np.rint(p * l)
        m = f.astype(dtype) if dtype is not object else np.frompyfunc(int, 1, 1)(f)
        m[f < 1], m[f >= l], m[p == 0], m[p == 1] = 1, l - 1, 0, l
        laws[:, off[j]:off[j + 1]] = m.T
    return laws


def test_law_table_matches_the_dense_table():
    # every law the walk or the decoder reads: the prefixes of every
    # successor v of every state u
    for model, widths in ((HS, range(1, 13)), (DIAG, range(1, 7)),
                          (MIXED01, range(1, 7)), (SWAPPED, range(1, 7)),
                          (lat.unconstrained(2), range(1, 7))):
        for n in widths:
            for boundary in ("zero", "cyclic"):
                s = zero_or_free(model, n, boundary)
                u, v = np.nonzero(s.graph.weights)
                for R in (1, 16, 30, 64):
                    laws, base, key, _, rank = st._law_table(s, R)
                    want = dense_law_table(s, R)[u[:, None], rank[v]]
                    got = laws[base[rank[v]] + key[u]]
                    assert got.dtype == want.dtype, (model.name, n, boundary, R)
                    assert np.array_equal(got, want), (model.name, n, boundary, R)


def test_law_table_holds_one_law_per_prefix_and_key():
    # hard-square's key at row j is the previous column's rows j..n-1, so
    # level j holds its prefixes times the valid columns of n - j rows
    for n, entries in ((8, 511), (12, 5268), (14, 16103)):
        assert st._law_table(st.strip_model(HS, n, "zero"), 16)[0].size == entries


def test_warm_wide_reencode_holds_no_dense_rows():
    # a warm width-14 walk of 2048 columns lists its table's 16,103 laws
    # and each state's 14 keys; a (state, prefix) table's rows took 16.6 MB
    codec = st.LatticeCodec(st.codec_strip(HS, 14, "zero"))
    bits = (SplitMix64(32).block(14 * 2048) & np.uint64(1)).astype(np.uint8).tobytes()
    codec.encode(bits, 2048, partial=True)
    tracemalloc.start()
    codec.encode(bits, 2048, partial=True)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_law_table_is_refused_before_it_is_built(monkeypatch):
    s = st.strip_model(HS, 12, "zero")
    entries = len(s.columns) * sum(
        len(c) for c in lat._column_levels(HS, 12, False)[:12])
    monkeypatch.setattr(st, "MAX_LAW_ENTRIES", entries - 1)
    tracemalloc.start()
    with pytest.raises(lat.TooLarge):
        st._law_table(s, 16)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # an int32 table would take 4 bytes an entry, the float weights more
    assert peak < entries and s._law_tables == {}
    with pytest.raises(lat.TooLarge):
        st.LatticeCodec(s).encode([0, 1], 3)
    monkeypatch.setattr(st, "MAX_LAW_ENTRIES", entries)
    assert st._law_table(s, 16)[0].size == 5268


def test_strip_build_holds_one_float_matrix():
    tracemalloc.start()
    s = st.strip_model(HS, 14, "zero")
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    S = len(s.columns)
    assert S == 987
    # the float weights take S^2 * 8 bytes; a second float copy of the
    # pair matrix, or a transposed one, would push the peak past 2x
    assert peak < 1.7 * S * S * 8, peak / (S * S * 8)


def test_law_table_is_sized_before_the_strip(monkeypatch):
    # a 19-row hard-square strip has 10946 states; its dense pair matrix
    # took seconds and gigabytes before the table it feeds was refused
    def no_pairs(*args):
        raise AssertionError("the dense strip was built")

    monkeypatch.setattr(lat, "column_compat", no_pairs)
    msg = "a law table of 10946 states by 17709 prefixes exceeds 33554432 entries"
    with pytest.raises(lat.TooLarge, match="^%s$" % msg):
        st.check_law_size(HS, 19, "zero")
    text = (b"strip model=hard-square n=19 boundary=zero R=16 key=0 x=65536 "
            b"bits=0\n" + lat.save_grid(np.zeros((19, 3), dtype=np.int8)))
    with pytest.raises(lat.TooLarge, match="^%s$" % msg):
        st.decode_text(text)
    assert len(st.check_law_size(HS, 17, "zero")[17]) == 4181


def test_first_column_frequencies():
    s = st.strip_model(HS, 3, "zero")
    codec = st.LatticeCodec(s)
    fc = first_column_rule(s)
    rng = SplitMix64(21)
    trials = 10 ** 5
    counts = np.zeros(len(s.columns))
    for _ in range(trials):
        bits = [rng.randbelow(2) for _ in range(40)]
        res = codec.encode(bits, 1, partial=True)
        counts[s.columns.index(tuple(int(x) for x in res.grid[:, 0]))] += 1
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
    assert codec.decode(res.grid, res.final_state, 10 ** 4) == bytes(payload)


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
        want = bytes(bits[:res.consumed])
        assert codec.decode(res.grid, res.final_state, res.consumed) == want
        if boundary == "zero":
            assert lat.scan(res.grid, HS) == []


def test_rate_near_capacity():
    rep = st.evaluate_rate("hard-square", 8, 4096, trials=3, seed=0, verify=True)
    capacity = st.codec_strip(HS, 8, "zero").capacity
    assert rep.mean >= capacity - 0.005
    assert rep.mean <= capacity + 1e-9  # never above the channel limit


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


@pytest.fixture
def started_pools(monkeypatch):
    """The worker counts `_map_trials` asks process pools for, on a
    machine of 64 CPUs; the pools run in-process and start no process."""
    import concurrent.futures

    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    return started


def test_map_trials_starts_at_most_one_worker_per_arg(started_pools):
    assert st._map_trials(abs, [-3, 1, -2], 64) == [1, 2, 3]
    assert st._map_trials(abs, [-3, 1, -2], 2) == [1, 2, 3]
    assert st._map_trials(abs, [-5], 8) == [5]
    assert st._map_trials(abs, [-3, 1], 1) == [1, 3]
    assert started_pools == [3, 2]


def test_map_trials_starts_at_most_one_worker_per_cpu(monkeypatch, started_pools):
    # a pool forks every worker at once, so --jobs 5000 would fork 5000
    # processes; the workers are capped at the CPUs this process may use
    args = list(range(-5000, 0))
    want = sorted(abs(a) for a in args)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert st._map_trials(abs, args, 5000) == want
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {7})
    assert st._map_trials(abs, args, 5000) == want
    assert started_pools == [3]


def test_bulk_density_matches_stationary():
    s = st.strip_model(HS, 6, "zero")
    pi = sp.merw_coder(s.graph, s.eigs).stationary
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
    with pytest.raises(st.InvalidLattice) as e:
        codec.decode(bad, res.final_state, res.consumed)
    assert isinstance(e.value, DecodeError)
    with pytest.raises(st.ConfigMismatch) as e:
        codec.decode(res.grid[:3], res.final_state, res.consumed)
    assert isinstance(e.value, DecodeError)
    with pytest.raises(st.ConfigMismatch) as e:
        codec.decode(res.grid, 3, res.consumed)
    assert isinstance(e.value, DecodeError)
    with pytest.raises(CorruptStream) as e:
        codec.decode(res.grid, res.final_state, 10 ** 6)
    assert isinstance(e.value, DecodeError)
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
    head = text.split(b"\n")[0]
    assert head.startswith(b"strip model=hard-square n=5 boundary=zero R=16")
    assert st.decode_text(text) == bytes(bits[:res.consumed])
    with pytest.raises(st.ConfigMismatch):
        st.decode_text(b"nope\n" + text.split(b"\n", 1)[1])
    with pytest.raises(st.ConfigMismatch):
        st.decode_text(text.replace(b"model=hard-square", b"model=unknown"))


def _random_laws(rng, R, count):
    """Dyadic one-laws m over [0, 2^R]: forced 0 and 2^R, the extremes 1
    and 2^R - 1, and uniform draws in between."""
    l = 1 << R
    pick = (0, l, 1, l - 1)
    return [pick[k] if k < 4 else rng.randbelow(l - 1) + 1
            for k in (rng.randbelow(8) for _ in range(count))]


def _span(grid, order, laws, R, lo, hi, run):
    """`_absorb`'s span over nodes lo..hi-1 of a grid's visiting order
    `order`, flat grid indices, with `laws` one per node in visiting order;
    a run's laws are 0 or its one law, given as (free mask, law)."""
    cols = grid.shape[1]
    m = np.array(laws[lo:hi], np.int64 if R < 62 else object)
    if run:
        m = m != 0, max(laws[lo:hi], default=1)
    return (grid.flat[order[lo:hi]], m, run,
            lambda i: divmod(int(order[lo + i]), cols))


def _reference_coding(bits, R, laws):
    """The coder pair `_write` / `_absorb` run, rebuilt step by step from the
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


@pytest.mark.parametrize("R", [1, 16, 40, 63, 64])
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
        # every other walk ends in a run block: one law, the fair 2^(R-1)
        # every other time, or a forced 0; its free nodes are drawn with
        # one `run` call and absorbed with one `absorb_run`
        l, N = 1 << R, rows * cols
        tail = rng.randbelow(N + 1) if trial % 2 else 0
        run_m = 1 << (R - 1) if trial % 4 == 1 else rng.randbelow(l - 1) + 1
        for t in range(N - tail, N):
            laws[t] = run_m * rng.randbelow(2)

        def walk(dec):
            head = [dec.draw(m) if 0 < m < l else m >> R
                    for m in laws[:N - tail]]
            free = np.array([m != 0 for m in laws[N - tail:]], dtype=bool)
            block = np.zeros(tail, dtype=np.int8)
            block[free] = np.frombuffer(dec.run(run_m, int(free.sum())),
                                        dtype=np.int8)
            grid = np.zeros((rows, cols), dtype=np.int8)
            grid.flat[order] = head + block.tolist()
            return grid

        res = st._write(bits, R, walk, partial=True)
        syms, x, consumed, padded, back = _reference_coding(bits, R, laws)
        assert res.grid.flat[order].tolist() == syms
        assert (res.final_state, res.consumed, res.padded) == (x, consumed, padded)
        assert back == bits[:consumed] + [0] * padded
        spans = [_span(res.grid, order, laws, R, N - tail, N, True),
                 _span(res.grid, order, laws, R, 0, N - tail, False)]
        assert st._absorb(spans, x, consumed, R) == bytes(back[:consumed])


def test_read_reports_the_first_bad_node():
    # laws: free, forced 0, free, forced 1 over a 2x2 grid visited
    # column-major; _absorb names the first bad node in visiting order
    R, l = 4, 16
    laws = [5, 0, 7, l]
    order = np.array([0, 2, 1, 3])
    grid = np.array([[0, 1], [1, 0]])

    def absorb():
        st._absorb([_span(grid, order, laws, R, 0, 4, False)], l, 0, R)

    with pytest.raises(st.InvalidLattice,
                       match=r"forced node disagrees at \(1, 0\)") as e:
        absorb()
    assert isinstance(e.value, DecodeError)
    grid[1, 0] = 2
    with pytest.raises(st.InvalidLattice, match=r"non-binary value at \(1, 0\)") as e:
        absorb()
    assert isinstance(e.value, DecodeError)
    grid[1, 0], grid[0, 1] = 1, 3
    with pytest.raises(st.InvalidLattice, match=r"forced node disagrees at \(1, 0\)"):
        absorb()
    grid[1, 0] = 0
    with pytest.raises(st.InvalidLattice, match=r"non-binary value at \(0, 1\)"):
        absorb()
    grid[0, 1] = 0
    with pytest.raises(st.InvalidLattice, match=r"forced node disagrees at \(1, 1\)"):
        absorb()


def test_read_reports_a_disagreement_only_ahead_of_a_non_binary_node():
    # on a long walk, a forced node that disagrees before the first
    # non-binary node is the one reported, and one after it is not
    R, l = 16, 1 << 16
    rng = SplitMix64(77)
    rows, cols = 4, 9000
    laws = _random_laws(rng, R, rows * cols)
    order = np.argsort(rng.block(rows * cols), kind="stable")
    syms = [m >> R if m in (0, l) else rng.randbelow(2) for m in laws]
    forced = [t for t, m in enumerate(laws) if m in (0, l)]
    free = [t for t, m in enumerate(laws) if m not in (0, l)]
    pairs = [(forced[0], free[-1]), (forced[-1], free[0])] + [
        (forced[rng.randbelow(len(forced))], free[rng.randbelow(len(free))])
        for _ in range(8)]
    for f, p in pairs:
        grid = np.zeros((rows, cols), dtype=np.int8)
        grid.flat[order] = syms
        grid.flat[order[f]] = 1 - syms[f]
        grid.flat[order[p]] = 2
        kind, t = ("forced node disagrees", f) if f < p else ("non-binary value", p)
        where = divmod(int(order[t]), cols)
        with pytest.raises(st.InvalidLattice, match=r"^%s at \(%d, %d\)$" % ((kind,) + where)):
            st._absorb([_span(grid, order, laws, R, 0, rows * cols, False)],
                       l, 0, R)


def _gathered(codec, grid):
    """Every node's law in visiting order: the decoder's column blocks,
    which come last block first, put back in order."""
    blocks = [laws for _, laws in codec._laws(grid)][::-1]
    return np.concatenate(blocks + [np.zeros(0, dtype=np.int64)])


# a 1 may not have a 0 below it, so a column's 1s run to its foot and a
# 1 forces the rest of its column: laws of 2^R, which hard-square lacks
ONES_SINK = lat.LatticeModel(2, (0, 1), ((((0, 0), 1), ((1, 0), 0)),))


@pytest.mark.parametrize("boundary", ["zero", "free", "cyclic"])
@pytest.mark.parametrize("R", [1, 16, 40, 63, 64])
def test_gathered_laws_equal_the_walk(boundary, R, walk_oracle):
    rng = SplitMix64(500 + R)
    strips = [st.codec_strip(HS, n, boundary) for n in range(1, 9)]
    strips += [zero_or_free(ONES_SINK, n, boundary) for n in range(1, 6)]
    # wide strips, where most states of a walk are visited once
    if R == 16 and boundary != "free":
        strips += [st.strip_model(HS, n, boundary) for n in (12, 14)]
    for strip in strips:
        n, codec = strip.n, st.LatticeCodec(strip, R)
        counts = (1, 1 + rng.randbelow(60)) if n <= 8 else (1 + rng.randbelow(60),)
        for cols in counts + (0,):
            bits = [rng.randbelow(2) for _ in range(n * cols + R)]
            grid = codec.encode(bits, cols, partial=True).grid
            walk_oracle(
                lambda dec: codec._walk(cols, dec).T.ravel(), _gathered(codec, grid),
                grid.T.ravel().tolist(), R)


@pytest.mark.parametrize("block", [1, 3, 7])
def test_column_blocks_code_as_one_block(monkeypatch, block):
    # the walk lists, and the decoder gathers and absorbs, COLUMN_BLOCK
    # columns at a time, last block first; any block size gives the same
    # grid, bits and first bad column
    rng = SplitMix64(2800 + block)
    cases = []
    for n, boundary in ((3, "zero"), (5, "cyclic")):
        codec = st.LatticeCodec(st.strip_model(HS, n, boundary))
        bits = [rng.randbelow(2) for _ in range(40 * n)]
        cases.append((codec, bits, codec.encode(bits, 40, partial=True)))
    monkeypatch.setattr(st, "COLUMN_BLOCK", block)
    for codec, bits, res in cases:
        small = codec.encode(bits, 40, partial=True)
        assert np.array_equal(small.grid, res.grid)
        assert (small.final_state, small.consumed) == (res.final_state, res.consumed)
        assert codec.decode(res.grid, res.final_state, res.consumed) == bytes(
            bits[:res.consumed])
        bad = res.grid.copy()
        bad[:, 17], bad[:, 30] = 1, 2
        with pytest.raises(st.InvalidLattice, match="^column 17 breaks the constraints$"):
            codec.decode(bad, res.final_state, res.consumed)


def test_strip_codec_memory_is_bounded():
    # a width-8 strip of 2^16 columns (524,288 nodes) from bytes of bits: the
    # walk writes the grid from 4096 columns' states at a time and the
    # decoder gathers laws a column block at a time, so the traced peaks are
    # 2.35 B/node to encode and 3.69 to decode, where Python bit lists, a
    # visiting order and whole-grid law gathers took 28.2 and 22.5; the
    # bounds are about twice the figures now
    codec = st.LatticeCodec(st.codec_strip(HS, 8, "zero"))
    cols, nodes = 1 << 16, 8 << 16
    bits = (SplitMix64(28).block(nodes) & np.uint64(1)).astype(np.uint8).tobytes()
    codec.encode(bits[:100], 10, partial=True)  # the law table, built once
    tracemalloc.start()
    res = codec.encode(bits, cols, partial=True)
    encode_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    tracemalloc.start()
    got = codec.decode(res.grid, res.final_state, res.consumed)
    decode_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert got == bits[:res.consumed]
    assert encode_peak <= 5.0 * nodes, encode_peak / nodes
    assert decode_peak <= 7.5 * nodes, decode_peak / nodes


def test_strip_cache_lets_go_of_the_previous_strip():
    # rate trials reuse one strip; a session that moves on keeps only the last
    ref = weakref.ref(st.codec_strip(HS, 4, "zero"))
    st.codec_strip(HS, 5, "zero")
    gc.collect()
    assert ref() is None
