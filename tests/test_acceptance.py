"""End-to-end acceptance gate.

One test per shipped guarantee, each asserted at its stated tolerance
and reporting a single PASS/FAIL line (run with -v or -s to see them).
The k-model benefit row is a known red: the k=6 entry computes to 130
against the published 129, and the suite keeps that failure visible
instead of patching around it (the analysis is in the README's
"Acceptance status" section).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import latticecode.lattice as lat
import latticecode.spectral as sp
import latticecode.strip as st
from latticecode import ans
from latticecode import experiments as exp
from latticecode.rng import SplitMix64

H_HS = lat.HARD_SQUARE_ENTROPY


def _ok(msg):
    print("PASS: " + msg)


def test_criterion_01_capacity_sandwich():
    hs = lat.hard_square()
    zero = st.strip_capacity(hs, 12, "zero")
    cyc = st.strip_capacity(hs, 12, "cyclic")
    assert zero > H_HS
    assert abs(cyc - H_HS) < 1e-3
    assert cyc <= zero
    assert cyc - 1e-3 <= H_HS <= zero
    # independent code paths agree in trend: brute-force square counts
    # and strip bounds both decrease toward the constant from above
    brute = [lat.entropy_estimate(s, hs) for s in (4, 5, 6)]
    strips = [st.strip_capacity(hs, n, "zero") for n in (4, 6, 8)]
    assert all(b > H_HS for b in brute)
    assert all(x > H_HS for x in strips)
    assert brute[0] > brute[1] > brute[2]
    assert strips[0] > strips[1] > strips[2]
    _ok("criterion 1 - width-12 strip capacities bracket %.16g "
        "(zero %.9f above, cyclic %.9f within 1e-3) and both size trends "
        "decrease toward it" % (H_HS, zero, cyc))


def test_criterion_02_kmodel_benefit_row():
    published = (0, 39, 65, 86, 103, 117, 129, 141, 151, 160, 168, 176, 183)
    worst = max(abs(sp.kmodel_capacity(k)
                    - math.log2(sp.dominant_eigs(sp.kmodel_graph(k)).value))
                for k in range(13))
    assert worst < 1e-9
    got = tuple(sp.kmodel_benefit(k) for k in range(13))
    if got != published:
        bad = [k for k in range(13) if got[k] != published[k]]
        print("FAIL: criterion 2 - benefit row disagrees at k=%s: computed "
              "%s vs published %s; the k=6 value 129.7214 rounds to 130 and "
              "no uniform rounding reproduces the published row (flooring "
              "would break k=1: 38.85 -> 38 vs 39); analysis in the "
              "README's Acceptance status section" % (bad, [got[k] for k in bad],
                                      [published[k] for k in bad]))
        pytest.fail("k-model benefit row mismatch at k=%s "
                    "(computed %s, published %s)"
                    % (bad, [got[k] for k in bad], [published[k] for k in bad]))
    _ok("criterion 2 - k-model benefit row k=0..12 matches exactly and the "
        "closed form agrees with the automaton within 1e-9")


def test_criterion_03_abs_golden_table():
    table = ((1, 0), (0, 0), (0, 1), (1, 1), (0, 2), (0, 3), (1, 2),
             (0, 4), (0, 5), (0, 6), (1, 3), (0, 7), (0, 8), (1, 4),
             (0, 9), (0, 10), (1, 5), (0, 11), (0, 12))
    q = Fraction(3, 10)
    for x in range(19):
        assert ans.abs_decode_step(x, q) == table[x]
        s, xs = table[x]
        assert ans.abs_encode_step(s, xs, q) == x
    _ok("criterion 3 - q=0.3 decode map over states 0..18 matches the "
        "frozen table cell for cell and inverts exactly")


def test_criterion_04_stream_roundtrip_and_rate():
    l = 1 << 12
    cases = ([Fraction(1, 2), Fraction(1, 2)],
             [Fraction(1, 4), Fraction(3, 4)],
             [Fraction(1, 10), Fraction(2, 10), Fraction(3, 10),
              Fraction(4, 10)])
    start = time.time()
    coding = 0.0
    for qs in cases:
        table = ans.ans_build_table(qs, l)
        rng = SplitMix64(42)
        cum = np.cumsum([float(q) for q in qs])
        syms = [int(np.searchsorted(cum, rng.uniform(), side="right"))
                for _ in range(10 ** 6)]
        syms = [min(s, len(qs) - 1) for s in syms]
        t0 = time.time()
        digits, states = ans.ans_stream_encode(syms, table)
        back = ans.ans_stream_decode(digits, table, states, len(syms))
        coding += time.time() - t0
        assert back.tolist() == syms
        # the rate counts the final state of each of the 488 lanes
        rate = ans.stream_bits(len(digits), table, len(states)) / len(syms)
        entropy = -sum(float(q) * math.log2(q) for q in qs)
        assert rate <= entropy + 0.01
    assert coding < 10.0
    _ok("criterion 4 - three 1e6-symbol streams at l=4096 decode to "
        "identity with rate within 0.01 of entropy in %.1fs of coding "
        "(%.1fs wall)" % (coding, time.time() - start))


def _random_irreducible_graph(rng, n):
    w = np.zeros((n, n))
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randbelow(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    for i in range(n):
        w[perm[i], perm[(i + 1) % n]] = 1.0
    for a in range(n):
        for b in range(n):
            if rng.randbelow(3) == 0:
                w[a, b] = 1.0
    return sp.WeightedGraph(w)


def _all_paths(weights, length):
    paths = [[a] for a in range(len(weights))]
    for _ in range(length):
        paths = [p + [b] for p in paths
                 for b in range(len(weights)) if weights[p[-1], b] > 0]
    return paths


def test_criterion_05_merw_exactness():
    rng = SplitMix64(2024)
    checked = 0
    for _ in range(24):
        n = 3 + rng.randbelow(10)
        g = _random_irreducible_graph(rng, n)
        e = sp.dominant_eigs(g)
        c = sp.merw_coder(g, e)
        S, p = c.transition, c.stationary
        assert np.max(np.abs(S.sum(axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(p @ S - p)) < 1e-10
        assert abs(math.log2(e.value) - sp.chain_entropy_bits(c)) < 1e-9
        # every same-length path between the same endpoints is equally likely
        k = 4 if n <= 8 else 3
        groups = {}
        for path in _all_paths(g.weights, k):
            groups.setdefault((path[0], path[-1]), []).append(
                sp.path_prob(c, path))
        for probs in groups.values():
            assert max(probs) - min(probs) < 1e-12
        checked += 1
    assert checked >= 20
    _ok("criterion 5 - on %d random irreducible graphs (<= 12 nodes): "
        "rows stochastic, stationary fixed point at 1e-10, entropy equals "
        "lg lambda at 1e-9, equal-length paths uniform at 1e-12" % checked)


def test_criterion_06_checkerboard_writer():
    start = time.time()
    qstar, best = exp.algorithm1_optimum()
    assert abs(H_HS - best - 0.0217) < 5e-4
    rep = exp.algorithm1_rate(qstar, side=256, trials=4, seed=0, verify=True)
    closed_form = exp.algorithm1_entropy(qstar)
    assert abs(rep.mean - closed_form) < 0.003
    assert time.time() - start < 60.0
    _ok("criterion 6 - closed-form optimum sits 0.0217 below the capacity "
        "constant (within 5e-4) and the measured 256x256 rate %.6f matches "
        "the closed form %.6f within 0.003" % (rep.mean, closed_form))


def test_criterion_07_thermalization_uniformity():
    hs = lat.hard_square()
    states = lat.enumerate_valuations(lat.rect(2, 2), hs)
    assert len(states) == 7
    nsamp = 100_000
    grids = lat.thermalize((2, 2), hs, seed=2, samples=nsamp)
    counts = {}
    for g in grids:
        key = tuple(int(v) for v in np.asarray(g).ravel())
        counts[key] = counts.get(key, 0) + 1
    p = 1.0 / 7.0
    sigma = math.sqrt(p * (1 - p) / nsamp)
    worst = max(abs(counts.get(tuple(s[c] for c in sorted(s)), 0)
                    / nsamp - p) for s in states)
    assert worst < 4 * sigma
    chain, P = lat.thermalize_chain_matrix((2, 2), hs)
    assert len(chain) == 7
    assert np.max(np.abs(P.sum(axis=0) - 1.0)) < 1e-12
    assert np.max(np.abs(P.sum(axis=1) - 1.0)) < 1e-12
    _ok("criterion 7 - 1e5 spaced 2x2 samples within 4 sigma of uniform "
        "over all 7 valuations (worst %.2f sigma) and the explicit chain "
        "matrix is doubly stochastic" % (worst / sigma))


def test_criterion_08_strip_codec_end_to_end():
    start = time.time()
    hs = lat.hard_square()
    rng = SplitMix64(808)
    bits = [rng.randbelow(2) for _ in range(10 ** 4)]
    strip = st.strip_model(hs, 8, "zero")
    codec = st.LatticeCodec(strip)
    res = codec.encode(bits, 2400)
    assert res.consumed == len(bits)
    assert not lat.scan(res.grid, hs)
    assert codec.decode(res.grid, res.final_state, len(bits)) == bytes(bits)
    rate8 = st.evaluate_rate("hard-square", 8, 4096, trials=2, seed=1)
    assert rate8.mean >= st.codec_strip(hs, 8, "zero").capacity - 0.005
    gaps = []
    for n in (2, 4, 6, 8):
        rep = st.evaluate_rate("hard-square", n, 2048, trials=2, seed=1)
        gaps.append(rep.mean - H_HS)
    # narrow zero-boundary strips code above the plane constant (boundary
    # rows carry fewer constraints); the excess shrinks as width grows
    assert all(g > 0 for g in gaps)
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
    assert time.time() - start < 60.0
    _ok("criterion 8 - 1e4 bits survive the width-8 roundtrip through a "
        "scan-clean lattice, the rate sits within 0.005 of the strip bound, "
        "and the excess over the capacity constant falls %.4f > %.4f > "
        "%.4f > %.4f over widths 2,4,6,8" % tuple(gaps))


def test_criterion_09_random_order_writer():
    rep = exp.algorithm2_simulate(100, trials=6, seed=0)
    gap, err = rep.scalars["entropy_gap"]
    assert 0.005 < gap < 0.03
    assert rep.curves["a"][1][0] == 1.0
    _ok("criterion 9 - measured entropy deficit %.4f +- %.4f lies in "
        "[0.005, 0.03] and the availability curve starts at exactly 1"
        % (gap, err))


def test_criterion_10_description_machinery():
    hs = lat.hard_square()
    region = lat.centered_square(5)
    cross = tuple(sorted(hs.neighborhood))
    context = tuple(x for x in cross if x != (0, 0))
    desc = lat.exact_description(region, hs, [cross])
    violation = lat.check_pLOC(desc, hs, [context])
    assert violation < 1e-12
    regions = [lat.centered_square(s) for s in (3, 5, 7)]
    bounds = lat.description_bounds(regions, hs, {(0, 0): 1})
    d = [b[2] for b in bounds]
    assert d[0] >= d[1] >= d[2]
    _ok("criterion 10 - exact 5x5 description is pointwise locally optimal "
        "(violation %.1e) and the description spread narrows %.4f >= %.4f "
        ">= %.4f over nested squares 3,5,7" % (violation, d[0], d[1], d[2]))
