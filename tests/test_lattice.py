import itertools
import math
import tracemalloc

import numpy as np
import pytest

from latticecode import lattice as L
from latticecode.rng import SplitMix64


HS = L.hard_square()
DIAG = L.LatticeModel(2, (0, 1), ((((0, 0), 1), ((1, 1), 1)),
                                   (((0, 0), 1), ((1, -1), 1))), name="diagonal")
HORIZ = L.LatticeModel(2, (0, 1), ((((0, 0), 1), ((0, 1), 1)),), name="horizontal")


def _valid_columns(model, n):
    """The valid height-n columns as an (S, n) symbol array, in the order
    of their `_column_levels` codes."""
    return L._column_symbols(model, n, L._column_levels(model, n, False)[n])


def test_presets_and_neighborhood():
    assert sorted(HS.neighborhood) == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
    assert HS.constraint_range == 1
    k2 = L.model_preset("k-model:2")
    assert len(k2.forbidden) == 2
    assert k2.dimension == 1
    assert L.model_preset("no-111").constraint_range == 2
    # anchoring: shifted copies of a pattern collapse to one representative
    m = L.LatticeModel(2, (0, 1), ((((5, 5), 1), ((6, 5), 1)),
                                   (((0, 0), 1), ((1, 0), 1))))
    assert len(m.forbidden) == 1
    with pytest.raises(ValueError):
        L.model_preset("nonesuch")


def test_region_ops():
    r3 = L.rect(3, 3)
    assert L.interior(r3, HS) == frozenset({(1, 1)})
    assert L.thicken([(0, 0)], HS) == frozenset(
        {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)})
    A = L.rect(4, 5)
    assert L.thicken(L.interior(A, HS), HS) <= A
    assert A <= L.interior(L.thicken(A, HS), HS)


def backtrack(region, model, clamp=None, boundary="free", dims=None):
    """The count by backtracking alone, the reference for `count`."""
    return sum(L._iter_valuations(region, model, clamp, boundary, dims, True))


def dp(region, model):
    """The free count of a rectangle on the broken-line column transfer,
    or None where its gate refuses: `count`'s fast path alone."""
    ctx = L._resolve_context(region, model, None, "free", None)
    return L._rect_dp_count(*L._is_rect(region), model, ctx)


def test_hard_square_counts():
    expected = {1: 2, 2: 7, 3: 63, 4: 1234, 5: 55447}
    for k, n in expected.items():
        r = L.rect(k, k)
        assert backtrack(r, HS) == n
        assert dp(r, HS) == n
    # past the backtracking guard (OEIS A006506)
    for k, n in {6: 5598861, 7: 1280128950, 8: 660647962955,
                 10: 2030049051145980050}.items():
        assert dp(L.rect(k, k), HS) == n


def test_count_against_transfer_product():
    # independent transfer construction: valid row masks, adjacency by
    # empty bitwise overlap, free-boundary count = 1.T^(k-1).1
    for k in (3, 4, 5):
        masks = [m for m in range(1 << k) if not (m & (m >> 1))]
        T = np.array([[1 if (a & b) == 0 else 0 for b in masks] for a in masks],
                     dtype=object)
        v = np.array([1] * len(masks), dtype=object)
        for _ in range(k - 1):
            v = T @ v
        assert int(v.sum()) == L.count(L.rect(k, k), HS)
    # cyclic count = trace of the cyclic-mask transfer power
    cm = [m for m in range(16) if not (m & (m >> 1)) and not ((m & 1) and (m >> 3) & 1)]
    T = np.array([[1 if (a & b) == 0 else 0 for b in cm] for a in cm], dtype=object)
    tr = int(np.trace(np.linalg.matrix_power(T, 4)))
    assert tr == 743
    assert backtrack(L.rect(4, 4), HS, boundary="cyclic", dims=(4, 4)) == 743


def test_cyclic_small_degeneracies():
    # wrap-around self-overlaps resolve to consistent single-cell demands
    assert backtrack(L.rect(1, 1), HS, boundary="cyclic", dims=(1, 1)) == 1
    assert backtrack(L.rect(2, 2), HS, boundary="cyclic", dims=(2, 2)) == 7


def test_one_dimensional_counts():
    fib = [2, 3, 5, 8, 13, 21, 34]
    for n in range(1, 8):
        assert L.count(L.segment(n), L.kmodel(1)) == fib[n - 1]
    tri = [2, 4, 7, 13, 24, 44]
    for n in range(1, 7):
        assert L.count(L.segment(n), L.no111()) == tri[n - 1]


def test_zero_boundary_matches_free_for_all_ones_patterns():
    # padding with 0s can never complete a pattern made of 1s
    for k in (2, 3, 4):
        r = L.rect(k, k)
        assert L.count(r, HS, boundary="zero") == L.count(r, HS)


def test_dp_count_with_clamps_outside_the_rectangle():
    # 1s clamped next to the rectangle: the auto path must agree with
    # backtracking (these three used to miscount on the column DP)
    horiz = L.LatticeModel(2, (0, 1), ((((0, 0), 1), ((0, 1), 1)),))
    diag = L.LatticeModel(2, (0, 1), ((((0, 0), 1), ((1, 1), 1)),))
    r = L.rect(2, 2)
    for model, clamp in ((horiz, {(-1, 0): 1}),
                         (HS, {(0, 0): 1, (-1, 0): 1}),
                         (diag, {(-1, -1): 1}),
                         (HS, {(0, -1): 1, (1, 2): 1}),
                         (HS, {(5, 5): 1})):
        assert L.count(r, model, clamp) == backtrack(r, model, clamp)


def test_dp_count_matches_backtracking_on_random_clamps():
    # random 1-4 x 1-4 rectangles with clamps inside, beside, diagonal to
    # and far from them; the 3-row vertical pattern takes the fallback
    diag = L.LatticeModel(2, (0, 1), ((((0, 0), 1), ((1, 1), 1)),))
    vert3 = L.LatticeModel(2, (0, 1), ((((0, 0), 1), ((1, 0), 1), ((2, 0), 1)),))
    models = (HS, HORIZ, diag, DIAG, L.unconstrained(), vert3)
    rng = np.random.default_rng(18)
    for trial in range(240):
        model = models[trial % len(models)]
        boundary = ("free", "zero")[trial // len(models) % 2]
        rows, cols, r0, c0 = map(int, rng.integers([1, 1, -2, -2], [5, 5, 3, 3]))
        clamp = {}
        for _ in range(rng.integers(0, 4)):
            if rng.random() < 0.1:
                cell = (r0 - 9, c0 + 9)
            else:
                cell = (r0 + int(rng.integers(-2, rows + 2)),
                        c0 + int(rng.integers(-2, cols + 2)))
            clamp[cell] = int(rng.integers(0, 2))
        region = L.rect(rows, cols, (r0, c0))
        assert L.count(region, model, clamp, boundary) == backtrack(
            region, model, clamp, boundary), (model, clamp)


def test_broken_line_gate_is_built_once_per_height(monkeypatch):
    # counts call the gate once per clamp: a second count at the same
    # height builds no steps, nor does an exact sample at that height, the
    # shared arrays are read-only, every count equals the one on a freshly
    # built gate, and a refused model is refused on every call
    built = []
    cell_steps = L._cell_steps

    def counted(model, n, codes):
        built.append(n)
        return cell_steps(model, n, codes)

    monkeypatch.setattr(L, "_cell_steps", counted)
    L._broken_line.cache_clear()
    rng = np.random.default_rng(22)
    clamps = [{(int(r), int(c)): int(s) for r, c, s in
               rng.integers([0, 0, 0], [5, 5, 2], (int(k), 3))}
              for k in rng.integers(0, 4, 12)]
    cached = [L.count(L.rect(5, 5), HS, v, "zero") for v in clamps]
    assert built == [5]
    L.sample_uniform((5, 7), HS, seed=1, samples=3)
    assert built == [5]
    codes, steps, symbols = L._broken_line(HS, 5)
    with pytest.raises(ValueError, match="read-only"):
        steps[0][0][0] = 1
    assert symbols.dtype == np.int8
    assert np.array_equal(symbols, _valid_columns(HS, 5))
    shared = list(codes) + [symbols]
    for par, terms in steps:
        shared += [par] + [a for term in terms for a in term if a is not None]
    assert any(mask is not None for _, terms in steps for _, mask in terms)
    assert not any(a.flags.writeable for a in shared)
    fresh = []
    for v in clamps:
        L._broken_line.cache_clear()
        fresh.append(L.count(L.rect(5, 5), HS, v, "zero"))
    assert cached == fresh
    assert built == [5] * (1 + len(clamps))
    vert3 = L.LatticeModel(2, (0, 1), ((((0, 0), 1), ((1, 0), 1), ((2, 0), 1)),))
    for _ in range(2):
        with pytest.raises(L.Unsupported):
            L._broken_line(vert3, 5)
        with pytest.raises(L.Unsupported):
            L._broken_line(HS, L.EXACT_MAX_ROWS + 1)


def test_entropy_estimate():
    assert L.entropy_estimate(1, HS) == 1.0
    assert L.entropy_estimate(3, L.unconstrained()) == 1.0
    vals = [L.entropy_estimate(k, HS) for k in range(1, 7)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > L.HARD_SQUARE_ENTROPY for v in vals)
    assert abs(L.entropy_estimate(4, HS) - math.log2(1234) / 16) < 1e-12


def test_empty_region_has_one_valuation():
    for model in (HS, L.kmodel(2)):
        assert L.count(frozenset(), model) == backtrack(frozenset(), model) == 1
    with pytest.raises(ValueError, match="side must be positive"):
        L.entropy_estimate(0, HS)


def test_work_guard():
    with pytest.raises(L.TooLarge):
        backtrack(L.rect(6, 6), L.unconstrained())


def test_scan():
    good = np.array([[1, 0, 1], [0, 0, 0], [1, 0, 1]])
    assert L.scan(good, HS) == []
    bad = np.array([[1, 1], [0, 0]])
    v = L.scan(bad, HS)
    assert len(v) == 1 and v[0][0] == (0, 0)
    # cyclic wrap catches edge-to-edge adjacency
    wrap = np.array([[1, 0, 1], [0, 0, 0], [0, 0, 0]])
    assert L.scan(wrap, HS) == []
    assert len(L.scan(wrap, HS, boundary="cyclic")) == 1
    assert L.is_valid(np.array([1, 0, 1, 1]), L.kmodel(1)) is False
    assert L.is_valid(np.array([1, 0, 1, 0]), L.kmodel(2)) is False


def _scan_oracle(grid, model, boundary="free"):
    """The per-cell dict walk that `scan` replaced, kept as its reference."""
    arr = np.asarray(grid)
    if model.dimension == 1:
        cells = {(j,): int(arr.flat[j]) for j in range(arr.size)}
        dims = (arr.size,)
    else:
        cells = {(i, j): int(arr[i, j]) for i in range(arr.shape[0])
                 for j in range(arr.shape[1])}
        dims = arr.shape
    out = []
    for x in cells:
        for pat, base in model.pattern_placements(x):
            if base != x:
                continue  # one check per placement
            hit = True
            for off, sym in pat:
                y = tuple(b + o for b, o in zip(base, off))
                if boundary == "cyclic":
                    y = L._wrap(y, dims)
                if y in cells:
                    if cells[y] != sym:
                        hit = False
                        break
                elif boundary == "zero":
                    if sym != model.alphabet[0]:
                        hit = False
                        break
                else:
                    hit = False
                    break
            if hit:
                out.append((base, pat))
    return out


# three symbols; a diagonal pair reaching back one column, a diagonal pair
# forward, and a pattern of 0s two rows deep that the zero padding can match
DIAGONAL3 = L.LatticeModel(2, (0, 1, 2), (
    (((0, 0), 1), ((1, -1), 2)),
    (((0, 0), 2), ((1, 1), 0)),
    (((0, 0), 0), ((0, 1), 2), ((2, 0), 0))))


def test_scan_equals_the_dict_walk():
    models = (HS, L.no111(), L.kmodel(3), L.unconstrained(), DIAGONAL3)
    rng = np.random.default_rng(20)
    cases = 0
    for model in models:
        for boundary in ("free", "zero", "cyclic"):
            for side in range(1, 7):
                for _ in range(5):
                    shape = ((side,) if model.dimension == 1
                             else (side, int(rng.integers(1, 7))))
                    weights = rng.random(len(model.alphabet)) + 0.2
                    grid = rng.choice(model.alphabet, size=shape,
                                      p=weights / weights.sum())
                    assert (L.scan(grid, model, boundary)
                            == _scan_oracle(grid, model, boundary)), \
                        (model.name, boundary, grid.tolist())
                    cases += 1
    assert cases == 450


def test_enumerated_valuations_pass_scan():
    for boundary, dims in (("free", None), ("cyclic", (3, 3))):
        vals = L.enumerate_valuations(L.rect(3, 3), HS, boundary=boundary, dims=dims)
        for v in vals:
            arr = np.zeros((3, 3), dtype=np.int8)
            for (i, j), s in v.items():
                arr[i, j] = s
            assert L.scan(arr, HS, boundary=boundary) == []
    # clamp is honored and consistent with conditional counting
    vals = L.enumerate_valuations(L.rect(2, 2), HS, clamp={(0, 0): 1})
    assert len(vals) == L.count(L.rect(2, 2), HS, clamp={(0, 0): 1}) == 2
    assert all(v[(0, 0)] == 1 for v in vals)


def test_exact_description_normalization_and_symmetry():
    r5 = L.centered_square(5)
    cross = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    desc = L.exact_description(r5, HS, [cross])
    assert desc.normalization_error() < 1e-12
    assert desc.prob({}) == 1.0
    # the region and the model are symmetric under the square's symmetries
    d2 = L.exact_description(r5, HS, [[(0, 0), (1, 1), (1, -1), (-1, 1), (-1, -1)]])
    pats = [{(0, 0): 1, (1, 1): 1}, {(0, 0): 1, (1, -1): 1},
            {(0, 0): 1, (-1, 1): 1}, {(0, 0): 1, (-1, -1): 1}]
    ps = [d2.prob(p) for p in pats]
    assert max(ps) - min(ps) < 1e-12


def _scan_prob(desc, pattern):
    """Reference for `Description.prob`: rescan the smallest covering
    table and add the matching entries in stored order."""
    items = dict(pattern)
    if not items:
        return 1.0
    support = set(map(tuple, items))
    for shape in desc.shapes:
        if support <= set(shape):
            idx = [shape.index(x) for x in sorted(support)]
            want = [items[x] for x in sorted(support)]
            total = 0.0
            for assign, p in desc.tables[shape].items():
                if all(assign[i] == w for i, w in zip(idx, want)):
                    total += p
            return total
    raise KeyError("no stored shape covers the pattern support")


def _scan_normalization_error(desc):
    """Reference for `Description.normalization_error` over `_scan_prob`."""
    worst = 0.0
    for shape, probs in desc.tables.items():
        worst = max(worst, abs(sum(probs.values()) - 1.0))
        if len(shape) < 2:
            continue
        for drop in range(len(shape)):
            margin = {}
            for assign, p in probs.items():
                key = assign[:drop] + assign[drop + 1:]
                margin[key] = margin.get(key, 0.0) + p
            sub = {x for i, x in enumerate(shape) if i != drop}
            for assign, p in margin.items():
                pat = dict(zip(sorted(sub), assign))
                worst = max(worst, abs(_scan_prob(desc, pat) - p))
    return worst


def test_description_marginals_equal_the_table_scan():
    # each marginal is summed once, in stored order, so every probability
    # keeps its last bits; random float tables in shuffled order make the
    # order show
    rng = np.random.default_rng(29)
    shapes = [[(0, 0), (0, 1)], [(0, 0), (1, 0)], [(0, 0), (0, 1), (1, 0), (1, 1)],
              [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]]
    descs = [L.exact_description(L.centered_square(5), HS,
                                 [[(0, 0)], [(0, 0), (0, 1)], shapes[2]]),
             L.empirical_description(L.thermalize((9, 9), HS, seed=3, samples=20),
                                     shapes)]
    for alphabet in ((0, 1), (0, 1, 2)):
        tables = {}
        for shape in shapes:
            words = list(itertools.product(alphabet, repeat=len(shape)))
            w = rng.random(len(words))
            tables[tuple(shape)] = {words[i]: w[i] / w.sum()
                                    for i in rng.permutation(len(words))}
        descs.append(L.Description(tables, alphabet))
    for desc in descs:
        cells = sorted({x for shape in desc.shapes for x in shape})
        for k in range(4):  # larger supports: normalization_error reads them
            for support in itertools.combinations(cells, k):
                for word in itertools.product(desc.alphabet + (5,), repeat=k):
                    pat = dict(zip(support, word))
                    try:
                        want = _scan_prob(desc, pat)
                    except KeyError:
                        with pytest.raises(KeyError):
                            desc.prob(pat)
                        continue
                    assert desc.prob(pat) == want
        assert desc.normalization_error() == _scan_normalization_error(desc)


def test_local_optimality_of_exact_description():
    r5 = L.centered_square(5)
    cross = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    desc = L.exact_description(r5, HS, [cross])
    gap = L.check_pLOC(desc, HS, [[(1, 0), (-1, 0), (0, 1), (0, -1)]])
    assert gap < 1e-12


def test_uniform_completion_identity():
    # uniform law on V(B): the probability of a full valuation equals the
    # probability of its boundary ring divided by the completion count
    B = L.rect(3, 3)
    ring = B - L.interior(B, HS)
    N = L.count(B, HS)
    for v in L.enumerate_valuations(B, HS):
        rv = {x: v[x] for x in ring}
        p_ring = L.count(B, HS, rv) / N
        completions = L.count(B, HS, rv)
        assert abs(1 / N - p_ring / completions) < 1e-15


def test_description_bounds_chain():
    rows = L.description_bounds(
        [L.centered_square(3), L.centered_square(5), L.centered_square(7)],
        HS, {(0, 0): 1})
    d = [r[2] for r in rows]
    assert d[0] >= d[1] >= d[2]
    assert d[0] > d[1] > d[2]  # strictly better with more context here
    hats = [r[1] for r in rows]
    checks = [r[0] for r in rows]
    assert hats[0] >= hats[1] >= hats[2] >= checks[2] >= checks[1] >= checks[0]
    # frozen spot values from two independent code paths (see below)
    assert abs(rows[1][0] - 0.058823529411764705) < 1e-12
    assert abs(rows[1][1] - 0.5) < 1e-12
    # side 7 runs the bounds batch in several key chunks; these are the
    # old hard-square-only path's values, bit for bit
    assert rows[2] == (0.1055386693684566, 0.37155297532656023, 0.2660143059581036)


def test_description_bounds_fast_path_matches_generic():
    # rings of 8 to 16 cells keep the generic loop short
    for model, region in ((HS, L.centered_square(5)),
                          (DIAG, L.rect(3, 4, (-1, -1))),
                          (HORIZ, L.rect(4, 5, (-1, -2)))):
        inner = L.interior(region, model)
        ring = region - inner
        lo, hi = None, None
        for v in L.enumerate_valuations(ring, model):
            denom = L.count(region, model, v)
            if denom == 0:
                continue
            merged = dict(v)
            merged[(0, 0)] = 1
            p = L.count(region, model, merged) / denom
            lo = p if lo is None else min(lo, p)
            hi = p if hi is None else max(hi, p)
        fast = L._bounds_batch(region, model, {(0, 0): 1}, "free", inner, ring)
        assert fast == (lo, hi, hi - lo)


def test_description_bounds_generic_loop_streams(monkeypatch):
    # the bounds batch takes free rectangles only, so a zero boundary runs
    # the generic loop; it streams the ring valuations instead of listing them
    region = L.centered_square(5)
    inner = L.interior(region, HS)
    assert L._bounds_batch(region, HS, {(0, 0): 1}, "zero", inner,
                           region - inner) is None

    def no_list(*args, **kwargs):
        raise AssertionError("the ring valuations were listed")

    monkeypatch.setattr(L, "enumerate_valuations", no_list)
    rows = L.description_bounds([region], HS, {(0, 0): 1}, boundary="zero")
    assert rows == [(0.058823529411764705, 0.5, 0.4411764705882353)]


def test_description_bounds_unconstrained_is_tight():
    rows = L.description_bounds([L.centered_square(3)], L.unconstrained(),
                                {(0, 0): 1})
    assert rows[0] == (0.5, 0.5, 0.0)


def test_description_bounds_sizes_the_batch_first():
    # an unconstrained 1-column region has an empty ring, so the batch once
    # built a dense 2^rows-state transfer; past isqrt(EXACT_MAX_WEIGHTS)
    # states it now leaves the region to the generic loop
    U = L.unconstrained()
    tracemalloc.start()
    rows = L.description_bounds([L.rect(12, 1)], U, {(0, 0): 1})
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert rows == [(0.5, 0.5, 0.0)]
    assert peak < 4 << 20
    assert L.description_bounds([L.rect(16, 1)], U, {(0, 0): 1}) == [(0.5, 0.5, 0.0)]
    with pytest.raises(L.TooLarge):
        L.description_bounds([L.rect(40, 1)], U, {(0, 0): 1})


def test_thermalize_single_cell():
    samples = L.thermalize((1, 1), HS, seed=1, samples=20000)
    m = float(np.mean([s[0, 0] for s in samples]))
    assert abs(m - 0.5) < 0.02


def test_thermalize_2x2_uniform():
    samples = L.thermalize((2, 2), HS, seed=2, samples=100000)
    counts = {}
    for s in samples:
        k = tuple(int(x) for x in s.flat)
        counts[k] = counts.get(k, 0) + 1
    assert len(counts) == 7
    n = len(samples)
    sd = math.sqrt(n * (1 / 7) * (6 / 7))
    for c in counts.values():
        assert abs(c - n / 7) < 4 * sd


def test_thermalize_chain_matrix():
    states, P = L.thermalize_chain_matrix((2, 2), HS)
    assert len(states) == 7
    assert np.abs(P.sum(axis=1) - 1).max() < 1e-12
    assert np.abs(P.sum(axis=0) - 1).max() < 1e-12
    assert np.abs(P - P.T).max() == 0.0
    Q = np.linalg.matrix_power(np.eye(7) + P, 7)
    assert (Q > 0).all()


# "span3" forbids a 1, a 0 and a 1 down three rows: on a 2-row cyclic grid
# its first and last cells wrap onto one cell
CHAIN_MODELS = {
    "hs": HS, "no111": L.no111(), "k2": L.kmodel(2),
    "span3": L.LatticeModel(2, (0, 1),
                            ((((0, 0), 1), ((1, 0), 0), ((2, 0), 1)),)),
}


def _chain_grids(name, shape, boundary):
    return L.thermalize(shape, CHAIN_MODELS[name], seed=sum(shape) + 7,
                        samples=40, warmup_sweeps=1, spacing_moves=3,
                        boundary=boundary)


@pytest.mark.parametrize("name,shape", [("hs", (1, n)) for n in range(1, 7)]
                         + [("hs", (n, 1)) for n in range(1, 7)]
                         + [("span3", (2, n)) for n in range(1, 5)])
def test_chain_on_thin_cyclic_grids_emits_valid_grids(name, shape):
    # a pattern longer than a side wraps onto the toggled node itself
    for grid in _chain_grids(name, shape, "cyclic"):
        assert L.scan(grid, CHAIN_MODELS[name], "cyclic") == []


@pytest.mark.parametrize("boundary", ["free", "zero", "cyclic"])
@pytest.mark.parametrize("name,shape", [
    ("hs", (1, 1)), ("hs", (1, 5)), ("hs", (4, 1)), ("hs", (2, 2)),
    ("hs", (3, 3)), ("hs", (2, 4)), ("span3", (2, 3)), ("span3", (3, 3)),
    ("no111", (2,)), ("no111", (9,)), ("k2", (3,)), ("k2", (8,))])
def test_chain_grids_are_enumerated_valuations(name, shape, boundary):
    model = CHAIN_MODELS[name]
    if model.dimension == 1:
        region, cells = L.segment(shape[0]), [(j,) for j in range(shape[0])]
    else:
        region, cells = L.rect(*shape), sorted(L.rect(*shape))
    dims = shape if boundary == "cyclic" else None
    valid = {tuple(v[x] for x in cells)
             for v in L.enumerate_valuations(region, model, boundary=boundary,
                                             dims=dims)}
    for grid in _chain_grids(name, shape, boundary):
        assert tuple(grid.flat) in valid


def _avg_density_by_transfer(rows, cols):
    # weighted column transfer: counts and accumulated number of 1s
    n = 1 << rows
    valid = np.array([(m & (m >> 1)) == 0 for m in range(n)])
    ones = np.array([bin(m).count("1") for m in range(n)], dtype=float)

    def zeta(v):
        # subset sums, one bit per pass: entries with bit b set add the
        # entry without it
        f = v.copy()
        for b in range(rows):
            g = f.reshape(-1, 2, 1 << b)
            g[:, 1, :] += g[:, 0, :]
        return f

    full = n - 1
    N = np.where(valid, 1.0, 0.0)
    W = N * ones
    comp = np.arange(n) ^ full
    for _ in range(cols - 1):
        zN, zW = zeta(N), zeta(W)
        N, W = (np.where(valid, zN[comp], 0.0),
                np.where(valid, zW[comp] + ones * zN[comp], 0.0))
    return W.sum() / N.sum() / (rows * cols), N.sum()


def test_empirical_description_20x20():
    # the averaged-density oracle is itself checked against enumeration
    for k in (3, 4):
        d, n = _avg_density_by_transfer(k, k)
        vals = L.enumerate_valuations(L.rect(k, k), HS)
        brute = sum(sum(v.values()) for v in vals) / len(vals) / k ** 2
        assert int(n) == len(vals)
        assert abs(d - brute) < 1e-12
    exact_avg, _ = _avg_density_by_transfer(20, 20)

    samples = L.thermalize((20, 20), HS, seed=7, samples=100)
    desc = L.empirical_description(
        samples, [[(0, 0)], [(0, 0), (0, 1)], [(0, 0), (1, 0)]])
    assert desc.normalization_error() < 1e-12
    assert desc.prob({(0, 0): 1, (0, 1): 1}) == 0.0
    assert desc.prob({(0, 0): 1, (1, 0): 1}) == 0.0
    p1 = desc.prob({(0, 0): 1})
    per = np.array([float(s.mean()) for s in samples])
    sem = per.std(ddof=1) / math.sqrt(len(samples))
    assert abs(p1 - exact_avg) < 3.5 * sem
    # centered 5x5 exact value is a coarser proxy: agreement at the
    # single-sample scale only (free-boundary offset is systematic)
    p5 = L.exact_description(L.centered_square(5), HS, [[(0, 0)]]).prob(
        {(0, 0): 1})
    assert abs(p1 - p5) < 3 * per.std(ddof=1)


@pytest.mark.parametrize("model", [HS, L.unconstrained(), DIAG],
                         ids=lambda m: m.name)
def test_broken_line_step_equals_dense_transfer(model):
    rng = np.random.default_rng(4)
    for n in range(1, 9):
        codes = L._column_levels(model, n, False)
        cols = _valid_columns(model, n)
        assert (codes[n] == cols @ (1 << np.arange(n - 1, -1, -1))).all()
        w = rng.random(len(cols))
        dense = L.column_compat(model, n, False, cols, cols).astype(float) @ w
        got = L._column_step(w, L._cell_steps(model, n, codes))
        assert np.abs(got - dense).max() < 1e-12


@pytest.mark.parametrize("model", [HS, DIAG], ids=lambda m: m.name)
def test_broken_line_step_is_exact_over_python_ints(model):
    rng = np.random.default_rng(6)
    for n in range(1, 11):
        codes = L._column_levels(model, n, False)
        cols = _valid_columns(model, n)
        # past 2^53, so a float anywhere on the way would round
        w = np.array([int(x) << 40 | int(y) for x, y in
                      rng.integers(0, 1 << 40, (len(cols), 2))], dtype=object)
        dense = L.column_compat(model, n, False, cols, cols).astype(int) @ w
        got = L._column_step(w, L._cell_steps(model, n, codes))
        assert got.dtype == object
        assert list(got) == list(dense), n


def _reference_sample_uniform(shape, model, seed, samples):
    """The draw loop that `sample_uniform` batches: per grid and column one
    `uniform()`, a cumsum of that grid's weights and a searchsorted."""
    rows, cols = shape
    codes, steps, _ = L._broken_line(model, rows)
    states = codes[rows]
    weights = [np.ones(len(states))]
    for _ in range(cols - 1):
        w = L._column_step(weights[-1], steps)
        weights.append(w / w.max())
    weights.reverse()
    symbols = L._column_symbols(model, rows, states)
    holds, blocked = np.array(
        [[L._hits(symbols, side) for side in sides]
         for sides in L._column_translates(model, rows, False) if sides[1]],
        dtype=bool).reshape(-1, 2, len(states)).transpose(1, 0, 2)
    rng = SplitMix64(seed)
    out = []
    for _ in range(samples):
        grid = np.empty((rows, cols), dtype=np.int8)
        p = weights[0]
        for j in range(cols):
            if j:
                p = np.where(blocked[holds[:, k]].any(axis=0), 0.0, weights[j])
            cum = np.cumsum(p)
            k = int(np.searchsorted(cum, rng.uniform() * cum[-1], side="right"))
            if k == len(p):
                k = int(np.flatnonzero(p)[-1])
            grid[:, j] = symbols[k]
        out.append(grid)
    return out


@pytest.mark.parametrize("model", [HS, DIAG, L.unconstrained()],
                         ids=lambda m: m.name)
def test_sample_uniform_matches_per_grid_loop(model, monkeypatch):
    # a small batch budget keeps several batches of the short grids cheap;
    # 16x16 runs at the module's budget
    for shape in ((1, 1), (1, 7), (5, 1), (9, 11), (16, 16)):
        budget = L.SAMPLE_BATCH if shape == (16, 16) else 1 << 10
        monkeypatch.setattr(L, "SAMPLE_BATCH", budget)
        states = len(_valid_columns(model, shape[0]))
        batch = max(1, budget // max(states, shape[1]))
        # grid i takes uniforms i * cols.. of the stream, so every count
        # draws a prefix of the same grids
        counts = (1, batch, batch + 1, 3 * batch + 2)
        want = _reference_sample_uniform(shape, model, 7, max(counts))
        for samples in counts:
            for boundary in ("free", "zero"):
                got = L.sample_uniform(shape, model, seed=7, samples=samples,
                                       boundary=boundary)
                assert len(got) == samples
                for g, w in zip(got, want):
                    assert g.dtype == np.int8 and g.shape == shape
                    assert np.array_equal(g, w), (shape, samples, boundary)


def test_block_reduce_adds_rows_in_order():
    # sample_uniform's block sums rely on np.add.reduce adding the rows of
    # a (rows, lanes >= 2) array one after another, as np.cumsum does
    rng = np.random.default_rng(8)
    for rows in (9, 130, 600):
        for lanes in (2, 3, 50):
            a = rng.random((rows, lanes)) * 10.0 ** rng.integers(-9, 9, (rows, lanes))
            assert np.array_equal(np.add.reduce(a, axis=0),
                                  np.cumsum(a, axis=0)[-1])


def test_sample_uniform_memory_does_not_grow_with_samples():
    # the working memory, the peak less what the returned grids hold, is
    # one batch's whatever the sample count
    shape = (10, 10)
    batch = L.SAMPLE_BATCH // len(_valid_columns(HS, 10))
    working = []
    for samples in (batch, 8 * batch):
        tracemalloc.start()
        grids = L.sample_uniform(shape, HS, seed=2, samples=samples)
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(grids) == samples
        del grids
        working.append(peak - held)
    assert working[1] <= working[0] + (256 << 10)
    assert working[1] <= 4 * 8 * L.SAMPLE_BATCH


def test_sample_uniform_3x3_all_valuations():
    states = L.enumerate_valuations(L.rect(3, 3), HS)
    assert len(states) == 63
    nsamp = 100_000
    counts = {}
    for g in L.sample_uniform((3, 3), HS, seed=3, samples=nsamp):
        key = tuple(int(v) for v in g.ravel())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 63
    p = 1.0 / 63
    sigma = math.sqrt(p * (1 - p) / nsamp)
    worst = max(abs(counts.get(tuple(s[c] for c in sorted(s)), 0) / nsamp - p)
                for s in states)
    assert worst < 4 * sigma


def test_sample_uniform_20x20_density():
    exact_avg, _ = _avg_density_by_transfer(20, 20)
    samples = L.sample_uniform((20, 20), HS, seed=7, samples=100)
    assert all(g.shape == (20, 20) and not L.scan(g, HS) for g in samples)
    per = np.array([float(s.mean()) for s in samples])
    sem = per.std(ddof=1) / math.sqrt(len(samples))
    assert abs(per.mean() - exact_avg) < 3.5 * sem


def test_sample_uniform_grids_are_valid():
    for model in (HS, DIAG, L.unconstrained()):
        for shape in ((1, 1), (1, 7), (5, 1), (4, 6)):
            for boundary in ("free", "zero"):
                grids = L.sample_uniform(shape, model, seed=5, samples=20,
                                         boundary=boundary)
                assert len(grids) == 20
                assert all(g.shape == shape and not L.scan(g, model, boundary)
                           for g in grids)
    a = L.sample_uniform((6, 6), HS, seed=9, samples=3)
    b = L.sample_uniform((6, 6), HS, seed=9, samples=3)
    assert all((x == y).all() for x, y in zip(a, b))


def test_sample_uniform_unsupported():
    three_wide = L.LatticeModel(2, (0, 1), ((((0, 0), 1), ((0, 2), 1)),))
    wants_zero = L.LatticeModel(2, (0, 1), ((((0, 0), 1), ((0, 1), 0)),))
    for shape, model, boundary in (((8,), L.no111(), "free"),
                                   ((4, 4), HS, "cyclic"),
                                   ((L.EXACT_MAX_ROWS + 1, 4), HS, "free"),
                                   ((4, 4), three_wide, "free"),
                                   ((4, 4), wants_zero, "free"),
                                   ((20, 300), HS, "free")):
        with pytest.raises(L.Unsupported):
            L.sample_uniform(shape, model, boundary=boundary)
    with pytest.raises(ValueError):
        L.sample_uniform((0, 4), HS)


def test_sample_uniform_profile_budget(monkeypatch):
    # hard-square keeps the exact sampler at the row limit
    rows = L.EXACT_MAX_ROWS
    (grid,) = L.sample_uniform((rows, 3), HS, seed=1)
    assert grid.shape == (rows, 3) and L.is_valid(grid, HS)

    # an unconstrained column of 20 rows needs 2^21-entry profiles: refused
    # before any profile is built
    def no_profile(*args):
        raise AssertionError("the profile was built")

    monkeypatch.setattr(L, "_cell_steps", no_profile)
    assert 1 << (rows + 1) > L.EXACT_MAX_PROFILE
    with pytest.raises(L.Unsupported, match="profile budget"):
        L.sample_uniform((rows, 4), L.unconstrained())
    # the counter's fast path shares the gate: no fast path, no profile,
    # and the count falls back to backtracking, past its guard
    assert dp(L.rect(rows, 4), L.unconstrained()) is None
    with pytest.raises(L.TooLarge):
        L.count(L.rect(rows, 4), L.unconstrained())


def test_grid_io():
    arr = np.array([[1, 0, 1], [0, 0, 0]], dtype=np.int8)
    text = L.save_grid(arr)
    back, alpha = L.load_grid(text)
    assert alpha == "01"
    assert (back == arr).all()
    line = np.array([1, 0, 1, 0], dtype=np.int8)
    t1 = L.save_grid(line)
    b1, _ = L.load_grid(t1)
    assert b1.ndim == 1 and (b1 == line).all()
    with pytest.raises(ValueError):
        L.load_grid("bad header\n01\n")
    with pytest.raises(ValueError):
        L.load_grid("2 2 2 01\n01\n0\n")
    with pytest.raises(ValueError, match="row 1 column 2 holds '2'"):
        L.load_grid("2 2 3 01\n010\n012\n")


def test_grid_bytes_read_in_place_or_line_by_line():
    # save_grid writes bytes; load_grid reads them and text alike, with or
    # without the closing newline and around surrounding whitespace
    for rows, cols in ((1, 1), (1, 9), (3, 7), (8, 50)):
        arr = (np.arange(rows * cols).reshape(rows, cols) * 7 % 3 == 1).astype(np.int8)
        data = L.save_grid(arr)
        assert isinstance(data, bytearray)
        assert data == ("2 %d %d 01\n" % (rows, cols)
                        + "".join("".join(map(str, r)) + "\n" for r in arr.tolist())).encode()
        for form in (data, data.decode(), data.rstrip(b"\n"), b" \n" + data + b"\n\t"):
            back, alpha = L.load_grid(form)
            assert alpha == "01" and back.dtype == np.int8
            assert np.array_equal(back, arr)
    # an empty grid and a symbol outside the alphabet in the last cell
    assert L.load_grid(b"2 0 3 01\n")[0].shape == (0, 3)
    with pytest.raises(ValueError, match="^grid row 1 column 2 holds 'x', not in"):
        L.load_grid(b"2 2 3 01\n010\n01x")
    # a row one cell short and one long keep the size; a newline inside a
    # row makes one row too many
    with pytest.raises(ValueError, match="^column count mismatch on row 0$"):
        L.load_grid(b"2 2 3 01\n01\n0100\n")
    with pytest.raises(ValueError, match="^row count mismatch$"):
        L.load_grid(b"2 2 3 01\n0\n1\n010\n")


@pytest.mark.parametrize("alphabet", ["01", "10", "ab", "012"])
def test_grid_read_in_place_maps_any_alphabet(alphabet):
    # a two-symbol grid is read by comparing its cells with the alphabet's
    # two bytes, a larger one through a byte table: both map the alphabet's
    # i-th byte to i, and a cell outside it is named on the line-by-line path
    arr = (np.arange(24).reshape(4, 6) * 5 % len(alphabet)).astype(np.int8)
    text = "2 4 6 %s\n" % alphabet + "".join(
        "".join(alphabet[v] for v in r) + "\n" for r in arr.tolist())
    back, alpha = L.load_grid(text.encode())
    assert alpha == alphabet and back.dtype == np.int8
    assert np.array_equal(back, arr)
    line, _ = L.load_grid("1 1 6 %s\n%s\n" % (alphabet, text.split("\n")[1]))
    assert np.array_equal(line, arr[0])
    with pytest.raises(ValueError, match="^grid row 3 column 5 holds 'x', not in "
                       "alphabet '%s'$" % alphabet):
        L.load_grid(text[:-2] + "x\n")


@pytest.mark.parametrize("text, message", [
    ("7 2 3 01\n010\n001\n", "grid kind 7 is neither 1 (a line) nor 2 (a grid)"),
    ("1 2 3 01\n010\n001\n", "a kind-1 grid has one row, not 2"),
    ("2 2 3 011\n010\n001\n", "alphabet '011' repeats a symbol")],
    ids=["kind", "kind-1-rows", "alphabet"])
def test_load_grid_refuses_bad_headers(text, message):
    # a kind 7 read as 2-d, a second row of a kind-1 grid was dropped, and
    # a repeated symbol read as its first index
    for data in (text, text.encode()):
        with pytest.raises(ValueError) as e:
            L.load_grid(data)
        assert str(e.value) == message


def brute_description_tables(samples, shapes, alphabet):
    """Per-window count over the common placement window of all shapes."""
    shapes = [tuple(sorted(map(tuple, s))) for s in shapes]
    cells = [x for s in shapes for x in s]
    r0, r1 = min(x[0] for x in cells), max(x[0] for x in cells)
    c0, c1 = min(x[1] for x in cells), max(x[1] for x in cells)
    tables = {}
    for shape in shapes:
        counts, total = {}, 0
        for arr in samples:
            for i in range(-r0, arr.shape[0] - r1):
                for j in range(-c0, arr.shape[1] - c1):
                    key = tuple(int(arr[i + dr, j + dc]) for dr, dc in shape)
                    counts[key] = counts.get(key, 0) + 1
                    total += 1
        tables[shape] = {a: counts.get(a, 0) / total
                         for a in itertools.product(alphabet, repeat=len(shape))}
    return tables


def test_empirical_description_matches_window_count():
    rng = np.random.default_rng(31)
    binary = [rng.integers(0, 2, size=(rng.integers(3, 9), rng.integers(3, 9)))
              for _ in range(6)]
    ternary = [rng.integers(0, 3, size=(7, 5)) for _ in range(3)]
    foreign = [g.copy() for g in binary[:3]]
    foreign[0][1, 2] = 5
    foreign[2][0, :] = -1
    cases = [
        (binary, [[(0, 0)], [(0, 0), (0, 1)], [(0, 0), (1, 0)]], (0, 1)),
        (binary, [[(0, 0), (1, 1), (0, 1)], [(2, 0)]], (0, 1)),
        (ternary, [[(0, 0), (0, 1)], [(0, 0), (1, 0), (1, 1)]], (0, 1, 2)),
        (foreign, [[(0, 0)], [(0, 0), (1, 0)]], (0, 1)),
        (binary, [[(0, 0), (-1, 1)], [(0, -2)], [(1, -1), (0, 0)]], (0, 1)),
        # a sample too small for the shapes adds no window
        (binary + [np.zeros((1, 9), dtype=int)], [[(0, 0), (1, 0)]], (0, 1)),
    ]
    for samples, shapes, alphabet in cases:
        want = brute_description_tables(samples, shapes, alphabet)
        got = L.empirical_description(samples, shapes, alphabet).tables
        assert got == want
        assert [list(t) for t in got.values()] == [list(t) for t in want.values()]
    with pytest.raises(ValueError, match="do not fit"):
        L.empirical_description([np.zeros((2, 5), dtype=int)], [[(0, 0), (2, 0)]])
    with pytest.raises(ValueError, match="do not fit"):
        L.empirical_description(binary, [[(0, 0), (0, 9)]])
