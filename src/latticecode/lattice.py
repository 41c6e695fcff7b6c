"""Translation-invariant constrained lattice models.

A model is a dimension, a finite alphabet and a finite set of forbidden
patterns (stored as translation representatives anchored at the origin).
A valuation of a finite region is valid when no translate of a forbidden
pattern, fully contained in the known cells, matches.

The module provides the brute-force machinery everything else is checked
against: valuation enumeration and counting (with a column-DP fast path
for two-dimensional binary models), entropy estimates, exact/empirical
statistical descriptions, local-optimality and bound diagnostics, and two
uniform samplers: exact column-by-column draws (`sample_uniform`) for
binary models whose patterns are all 1s inside a 2x2 window, and the
single-site-flip chain (`thermalize`) for every model.  One resolver,
`_placement_cells`, gives the cells a forbidden-pattern placement needs,
boundary applied, to the backtracking counter, the pLOC check and the
chain, which compiles each node's placements once before its first move.
The module also owns the column transfer engine (`valid_columns`,
`column_compat`) that the strip decomposition, the rectangle DP and the
bound fast path share, and its cell-by-cell (broken-line) form that the
exact sampler runs on.

Boundary modes for finite regions:

* ``free``   - cells outside the region are unconstrained; patterns that
               stick out are ignored;
* ``zero``   - cells outside are clamped to the neutral symbol 0;
* ``cyclic`` - the region is a full rectangle and coordinates wrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .rng import SplitMix64

# bits/node of the hard-square model, the reference constant for every
# capacity comparison in this package
HARD_SQUARE_ENTROPY = 0.5878911617753406

WORK_GUARD = 1 << 28


class TooLarge(RuntimeError):
    pass


class EmptyConditioning(ValueError):
    pass


Coord = tuple


def _anchor(pattern: Mapping) -> tuple:
    """Translate a pattern so its lexicographically smallest cell is the
    origin; returns a hashable sorted item tuple."""
    cells = sorted(pattern)
    base = cells[0]
    return tuple((tuple(c - b for c, b in zip(x, base)), pattern[x]) for x in cells)


@dataclass(frozen=True)
class LatticeModel:
    dimension: int
    alphabet: tuple
    forbidden: tuple  # anchored item-tuples
    name: str = ""

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if len(set(self.alphabet)) < 2:
            raise ValueError("alphabet needs at least two symbols")
        anchored = []
        for pat in self.forbidden:
            d = dict(pat)
            if not d:
                raise ValueError("empty forbidden pattern")
            if any(len(x) != self.dimension for x in d):
                raise ValueError("pattern coordinate dimension mismatch")
            anchored.append(_anchor(d))
        object.__setattr__(self, "forbidden", tuple(sorted(set(anchored))))

    @property
    def neighborhood(self) -> frozenset:
        """N0: all difference vectors between cells of one forbidden
        pattern (contains the origin)."""
        diffs = {(0,) * self.dimension}
        for pat in self.forbidden:
            cells = [x for x, _ in pat]
            for a in cells:
                for b in cells:
                    diffs.add(tuple(i - j for i, j in zip(a, b)))
        return frozenset(diffs)

    @property
    def constraint_range(self) -> int:
        return max((max(abs(c) for c in x) for x in self.neighborhood), default=0)

    def pattern_placements(self, cell: Coord):
        """All (pattern, base) pairs whose translate covers the cell."""
        out = []
        for pat in self.forbidden:
            for d, _ in pat:
                base = tuple(c - dc for c, dc in zip(cell, d))
                out.append((pat, base))
        return out


def hard_square() -> LatticeModel:
    return LatticeModel(2, (0, 1),
                        (((((0, 0)), 1), ((1, 0), 1)),
                         ((((0, 0)), 1), ((0, 1), 1))),
                        name="hard-square")


def kmodel(k: int) -> LatticeModel:
    if k < 1:
        raise ValueError("k must be >= 1 for a constrained chain")
    pats = tuple(((((0,), 1), ((j,), 1))) for j in range(1, k + 1))
    return LatticeModel(1, (0, 1), pats, name="k-model:%d" % k)


def no111() -> LatticeModel:
    return LatticeModel(1, (0, 1), (((((0,)), 1), ((1,), 1), ((2,), 1)),), name="no-111")


def unconstrained(dimension: int = 2) -> LatticeModel:
    """Binary model with no constraints; handy as a null reference."""
    return LatticeModel(dimension, (0, 1), (), name="unconstrained")


def model_preset(name: str) -> LatticeModel:
    if name == "hard-square":
        return hard_square()
    if name == "no-111":
        return no111()
    if name.startswith("k-model:"):
        return kmodel(int(name.split(":", 1)[1]))
    if name == "unconstrained":
        return unconstrained()
    raise ValueError("unknown model preset %r" % name)


def rect(rows: int, cols: int, origin: Coord = (0, 0)) -> frozenset:
    r0, c0 = origin
    return frozenset((r0 + i, c0 + j) for i in range(rows) for j in range(cols))


def centered_square(side: int) -> frozenset:
    if side % 2 == 0:
        raise ValueError("need an odd side to center on the origin")
    h = side // 2
    return rect(side, side, (-h, -h))


def segment(n: int, origin: int = 0) -> frozenset:
    return frozenset((origin + i,) for i in range(n))


def interior(region: frozenset, model: LatticeModel) -> frozenset:
    n0 = model.neighborhood
    return frozenset(x for x in region
                     if all(tuple(c + d for c, d in zip(x, off)) in region for off in n0))


def boundary(region: frozenset, model: LatticeModel) -> frozenset:
    return frozenset(region) - interior(region, model)


def thicken(region: Iterable, model: LatticeModel) -> frozenset:
    n0 = model.neighborhood
    return frozenset(tuple(c + d for c, d in zip(x, off)) for x in region for off in n0)


def _resolve_context(region, model, clamp, boundary_mode, dims):
    """Clamped cells visible to the counting engine (region cells excluded)."""
    ctx = {}
    if clamp:
        for x, s in clamp.items():
            if s not in model.alphabet:
                raise ValueError("clamp symbol %r not in alphabet" % (s,))
            ctx[tuple(x)] = s
    if boundary_mode == "zero":
        for x in thicken(region, model) - frozenset(region):
            ctx.setdefault(x, model.alphabet[0])
    elif boundary_mode == "cyclic":
        if dims is None:
            raise ValueError("cyclic boundary needs dims")
    elif boundary_mode != "free":
        raise ValueError("unknown boundary mode %r" % boundary_mode)
    return ctx


def _wrap(cell, dims):
    return tuple(c % d for c, d in zip(cell, dims))


def _placement_cells(pat, base, index, ctx, boundary_mode, dims):
    """The (index[cell], required symbol) pairs of the placement of `pat`
    at `base` over the cells that `index` holds, cyclic coordinates wrapped
    and context cells folded in; None when the placement can never match
    (it asks two symbols of one wrapped cell, contradicts the context or
    sticks out of a free region)."""
    need = {}
    for off, sym in pat:
        y = tuple(b + o for b, o in zip(base, off))
        if boundary_mode == "cyclic":
            y = _wrap(y, dims)
        if need.setdefault(y, sym) != sym:
            return None  # self-overlapping translate, unsatisfiable
    inside = []
    for y, sym in need.items():
        if y in index:
            inside.append((index[y], sym))
        elif y in ctx:
            if ctx[y] != sym:
                return None
        else:
            if boundary_mode != "free":
                raise AssertionError("unresolved cell %r" % (y,))
            return None  # sticks outside a free region
    return inside


def _compile_checks(cells, model, ctx, boundary_mode, dims):
    """Per-cell constraint checks for the backtracking engine.

    Returns checks[i] = list of (required symbol of cell i,
    [(earlier index, required symbol), ...]) triggered when cell i is
    assigned; context cells are folded in at compile time.
    """
    index = {x: i for i, x in enumerate(cells)}
    checks = [[] for _ in cells]
    seen = set()
    for cell in cells:
        for placement in model.pattern_placements(cell):
            if placement in seen:
                continue
            seen.add(placement)
            inside = _placement_cells(*placement, index, ctx, boundary_mode, dims)
            if inside:
                inside.sort()
                last, sym_last = inside.pop()
                checks[last].append((sym_last, inside))
    return checks


def _iter_valuations(region, model, clamp, boundary_mode, dims, count_only,
                     guard=WORK_GUARD):
    cells = sorted(region)
    ctx = _resolve_context(region, model, clamp, boundary_mode, dims)
    fixed = {x: ctx[x] for x in cells if x in ctx}
    free = [x for x in cells if x not in ctx]
    if len(model.alphabet) ** max(len(free), 1) > guard:
        raise TooLarge("region of %d free cells exceeds the work guard" % len(free))
    order = [x for x in cells if x in fixed] + free
    checks = _compile_checks(order, model, {k: v for k, v in ctx.items() if k not in fixed},
                             boundary_mode, dims)
    nfixed = len(order) - len(free)
    assign = [fixed[x] for x in order[:nfixed]] + [None] * len(free)
    # fixed prefix must itself be conflict-free
    for i in range(nfixed):
        for sym, rest in checks[i]:
            if assign[i] == sym and all(assign[j] == s for j, s in rest):
                return iter(()) if not count_only else iter((0,))
    alphabet = model.alphabet
    n = len(order)

    def rec(i):
        if i == n:
            if count_only:
                yield 1
            else:
                yield dict(zip(order, assign))
            return
        for sym in alphabet:
            bad = False
            for want, rest in checks[i]:
                if sym == want and all(assign[j] == s for j, s in rest):
                    bad = True
                    break
            if bad:
                continue
            assign[i] = sym
            yield from rec(i + 1)
        assign[i] = None

    return rec(nfixed)


def enumerate_valuations(region, model, clamp=None, boundary="free", dims=None):
    """All valid valuations of the region agreeing with the clamp."""
    return list(_iter_valuations(region, model, clamp, boundary, dims, False))


def _is_rect(region):
    rows = sorted({x[0] for x in region})
    cols = sorted({x[1] for x in region})
    if rows != list(range(rows[0], rows[-1] + 1)):
        return None
    if cols != list(range(cols[0], cols[-1] + 1)):
        return None
    if len(region) != len(rows) * len(cols):
        return None
    return rows[0], cols[0], len(rows), len(cols)


def _all_ones_patterns(model):
    return (model.alphabet == (0, 1)
            and all(all(s == 1 for _, s in pat) for pat in model.forbidden))


def _column_window(model):
    """Max |column offset| inside any forbidden pattern; DP needs <= 1."""
    w = 0
    for pat in model.forbidden:
        cs = [x[1] for x, _ in pat]
        w = max(w, max(cs) - min(cs))
    return w


def _column_translates(model, n, cyclic):
    """Every translate of a forbidden pattern over a width-n column pair,
    as (cells in the left column, cells in the right column), each a
    row -> symbol dict; single-column patterns fill the left side only.
    Cyclic widths wrap the row index; a translate that demands two
    symbols of one cell can never match and is dropped."""
    if _column_window(model) > 1:
        raise ValueError("patterns span more than two columns")
    out = []
    for pat in model.forbidden:
        c0 = min(x[1] for x, _ in pat)
        span = max(x[0] for x, _ in pat)  # anchored: rows start at 0
        for base in range(n if cyclic else n - span):
            sides = ({}, {})
            if all(sides[c - c0].setdefault((base + r) % n, s) == s
                   for (r, c), s in pat):
                out.append(sides)
    return out


def _hits(columns, cells):
    """Rows of the (S, n) column array that match every row -> symbol cell."""
    hit = np.ones(len(columns), dtype=bool)
    for r, s in cells.items():
        hit &= columns[:, r] == s
    return hit


def valid_columns(model, n, cyclic, limit: Optional[int] = None) -> np.ndarray:
    """Width-n columns free of single-column forbidden translates, as an
    (S, n) symbol array in itertools.product order.  Columns grow one row
    at a time and a translate is checked once its last row is placed, so
    memory follows the valid prefixes, not |alphabet|^n.

    More than `limit` columns is TooLarge.  When every pattern forbids only
    1s, as in every 2-d preset, each valid prefix extends by 0s to a valid
    column, so a prefix level over the limit is refused at once, before
    the next row doubles it; other models are refused on their full count."""
    alphabet = np.array(model.alphabet)
    single = [left for left, right in _column_translates(model, n, cyclic)
              if not right]
    early = _all_ones_patterns(model)
    columns = np.empty((1, 0), dtype=alphabet.dtype)
    for row in range(n):
        columns = np.column_stack((np.repeat(columns, len(alphabet), axis=0),
                                   np.tile(alphabet, len(columns))))
        for cells in single:
            if max(cells) == row:
                columns = columns[~_hits(columns, cells)]
        if limit is not None and len(columns) > limit and (early or row == n - 1):
            raise TooLarge("%s%d column states exceed the limit %d"
                           % ("" if row == n - 1 else "at least ",
                              len(columns), limit))
    return columns


def column_compat(model, n, cyclic, left, right) -> np.ndarray:
    """ok[a, b]: column right[b] may follow column left[a] (no two-column
    forbidden translate matches across them)."""
    bad = np.zeros((len(left), len(right)), dtype=bool)
    for lcells, rcells in _column_translates(model, n, cyclic):
        if rcells:
            bad |= _hits(left, lcells)[:, None] & _hits(right, rcells)[None, :]
    return ~bad


def _rect_dp_count(row0, col0, rows, cols, model, ctx) -> Optional[int]:
    """Column-by-column transfer count for 2D binary models whose patterns
    span at most two adjacent columns and demand only 1s.  ctx holds
    clamped symbols (inside or near the rectangle); returns None when the
    configuration is outside this fast path."""
    if model.dimension != 2 or not _all_ones_patterns(model):
        return None
    if _column_window(model) > 1 or rows > 20:
        return None
    vr = model.constraint_range
    # clamps inside pin column entries; the columns directly left and right
    # act through the pair constraint; any other 1 within reach of the
    # rectangle is outside this fast path
    force = [dict() for _ in range(cols)]
    side = {-1: np.zeros((1, rows), dtype=int), cols: np.zeros((1, rows), dtype=int)}
    for (r, c), s in ctx.items():
        i, j = r - row0, c - col0
        if 0 <= i < rows and 0 <= j < cols:
            force[j][i] = s
        elif 0 <= i < rows and j in side:
            side[j][0, i] = s
        elif s == 1 and -vr <= i < rows + vr and -vr <= j < cols + vr:
            return None
    states = valid_columns(model, rows, False)
    compat = column_compat(model, rows, False, states, states)
    pred = [np.flatnonzero(col).tolist() for col in compat.T]
    counts = (_hits(states, force[0])
              & column_compat(model, rows, False, side[-1], states)[0]).tolist()
    for j in range(1, cols):
        ok = _hits(states, force[j]).tolist()
        counts = [sum(counts[a] for a in pred[b]) if ok[b] else 0
                  for b in range(len(states))]
    last = column_compat(model, rows, False, states, side[cols])[:, 0]
    return sum(c for c, ok in zip(counts, last.tolist()) if ok)


def count(region, model, clamp=None, boundary="free", dims=None, method="auto") -> int:
    """N(A, u): valid valuations of the region extending the clamp."""
    if method not in ("auto", "backtracking", "dp"):
        raise ValueError("unknown method %r" % method)
    if method != "backtracking" and model.dimension == 2 and boundary in ("free", "zero"):
        shape = _is_rect(region)
        if shape is not None:
            ctx = _resolve_context(region, model, clamp, boundary, dims)
            ctx = {x: s for x, s in ctx.items() if x not in region}
            if clamp:
                for x, s in clamp.items():
                    ctx[tuple(x)] = s
            n = _rect_dp_count(shape[0], shape[1], shape[2], shape[3], model, ctx)
            if n is not None:
                return n
    if method == "dp":
        raise TooLarge("no DP fast path for this configuration")
    return sum(_iter_valuations(region, model, clamp, boundary, dims, True))


def lg(n: int) -> float:
    """Exact-ish lg for big integers."""
    if n <= 0:
        raise ValueError("lg of nonpositive count")
    bl = n.bit_length()
    if bl <= 512:
        return math.log2(n)
    shift = bl - 512
    return shift + math.log2(n >> shift)


def entropy_estimate(side: int, model: LatticeModel, boundary: str = "free") -> float:
    """lg N(side-hypercube) / side^m."""
    if model.dimension == 1:
        region = segment(side)
    elif model.dimension == 2:
        region = rect(side, side)
    else:
        raise NotImplementedError("only 1D and 2D lattices here")
    dims = (side,) * model.dimension if boundary == "cyclic" else None
    n = count(region, model, boundary=boundary, dims=dims)
    return lg(n) / side ** model.dimension


def scan(grid: np.ndarray, model: LatticeModel, boundary: str = "free") -> list:
    """All violated forbidden-pattern placements; empty means valid.

    Each violation is (base cell, pattern), listed by base cell in
    row-major order, then by the pattern's index in `model.forbidden`.  A
    1-d model reads the grid flattened.  ``free`` counts only placements
    inside the grid, ``zero`` reads outside cells as alphabet[0] and
    ``cyclic`` wraps every axis.
    """
    arr = np.asarray(grid)
    if model.dimension == 1:
        arr = arr.reshape(-1)
    if arr.ndim != model.dimension:
        raise ValueError("a %d-d model cannot scan a %d-d grid"
                         % (model.dimension, arr.ndim))
    if not model.forbidden or not arr.size:
        return []
    hits = np.ones((len(model.forbidden),) + arr.shape, dtype=bool)
    for hit, pat in zip(hits, model.forbidden):
        for off, sym in pat:
            hit &= _translate(arr == sym, off, boundary == "cyclic",
                              boundary == "zero" and sym == model.alphabet[0])
    found = np.argwhere(np.moveaxis(hits, 0, -1)).tolist()
    return [(tuple(x[:-1]), model.forbidden[x[-1]]) for x in found]


def _translate(a: np.ndarray, off, cyclic: bool, fill: bool) -> np.ndarray:
    """b[x] = a[x + off], wrapped when cyclic, else `fill` where x + off
    leaves the array."""
    if cyclic:
        return np.roll(a, [-o for o in off], axis=tuple(range(a.ndim)))
    out = np.full(a.shape, fill)
    if all(abs(o) < n for o, n in zip(off, a.shape)):
        dst = tuple(slice(max(-o, 0), n - max(o, 0)) for o, n in zip(off, a.shape))
        src = tuple(slice(max(o, 0), n + min(o, 0)) for o, n in zip(off, a.shape))
        out[dst] = a[src]
    return out


def is_valid(grid, model, boundary="free") -> bool:
    return not scan(grid, model, boundary)


class Description:
    """Pattern probabilities backed by per-shape joint tables.

    Probabilities of sub-patterns come from marginalizing the smallest
    stored shape containing them, so the one-node extension rule (summing
    children reproduces the parent) holds exactly by construction.
    """

    def __init__(self, tables: Mapping, alphabet=(0, 1)):
        self.alphabet = tuple(alphabet)
        self.tables = {}
        for shape, probs in tables.items():
            shape = tuple(sorted(map(tuple, shape)))
            self.tables[shape] = dict(probs)
        self.shapes = sorted(self.tables, key=len)

    def prob(self, pattern) -> float:
        items = dict(pattern)
        if not items:
            return 1.0
        support = set(map(tuple, items))
        for shape in self.shapes:
            if support <= set(shape):
                idx = [shape.index(x) for x in sorted(support)]
                want = [items[x] for x in sorted(support)]
                total = 0.0
                for assign, p in self.tables[shape].items():
                    if all(assign[i] == w for i, w in zip(idx, want)):
                        total += p
                return total
        raise KeyError("no stored shape covers the pattern support")

    def normalization_error(self) -> float:
        """Largest defect of total mass 1 and of the extension rule
        inside each stored shape."""
        worst = 0.0
        for shape, probs in self.tables.items():
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
                    worst = max(worst, abs(self.prob(pat) - p))
        return worst


def exact_description(region, model, shapes, clamp=None, boundary="free") -> Description:
    """Counting-based description: p(f) = N(A, clamp+f)/N(A, clamp)."""
    base = dict(clamp) if clamp else {}
    denom = count(region, model, base, boundary)
    if denom == 0:
        raise EmptyConditioning("clamp admits no valid valuation")
    tables = {}
    for shape in shapes:
        shape = tuple(sorted(map(tuple, shape)))
        if not set(shape) <= set(region):
            raise ValueError("shape must lie inside the region")
        probs = {}
        for assign in product(model.alphabet, repeat=len(shape)):
            merged = dict(base)
            merged.update(zip(shape, assign))
            probs[assign] = count(region, model, merged, boundary) / denom
        tables[shape] = probs
    return Description(tables, model.alphabet)


def empirical_description(samples: Sequence[np.ndarray], shapes, alphabet=(0, 1)) -> Description:
    """Translation-averaged pattern frequencies over 2D sample grids.

    All shapes are counted over one common placement window (where the
    union bounding box fits), so marginalizing any stored table down to a
    smaller stored shape is exact by construction.
    """
    shapes = [tuple(sorted(map(tuple, s))) for s in shapes]
    allcells = [x for s in shapes for x in s]
    r0 = min(x[0] for x in allcells)
    r1 = max(x[0] for x in allcells)
    c0 = min(x[1] for x in allcells)
    c1 = max(x[1] for x in allcells)
    tables = {}
    for shape in shapes:
        counts = {}
        total = 0
        for arr in samples:
            arr = np.asarray(arr)
            for i in range(-r0, arr.shape[0] - r1):
                for j in range(-c0, arr.shape[1] - c1):
                    key = tuple(int(arr[i + dr, j + dc]) for dr, dc in shape)
                    counts[key] = counts.get(key, 0) + 1
                    total += 1
        if total == 0:
            raise ValueError("shapes do not fit inside the samples")
        tables[shape] = {a: counts.get(a, 0) / total
                         for a in product(alphabet, repeat=len(shape))}
    return Description(tables, alphabet)


def _locally_valid(pattern: Mapping, model: LatticeModel) -> bool:
    # the resolver reads each cell's symbol where the counter reads its index
    cells = {tuple(x): s for x, s in pattern.items()}
    for x in cells:
        for placement in model.pattern_placements(x):
            need = _placement_cells(*placement, cells, {}, "free", None)
            if need is not None and all(v == s for v, s in need):
                return False
    return True


def check_pLOC(description: Description, model: LatticeModel, context_shapes) -> float:
    """Largest probability gap between valid symbols at the origin over
    all stored context valuations; 0 certifies local optimality."""
    origin = (0,) * model.dimension
    worst = 0.0
    for shape in context_shapes:
        shape = tuple(sorted(map(tuple, shape)))
        if origin in shape:
            raise ValueError("context shape must exclude the origin")
        for assign in product(description.alphabet, repeat=len(shape)):
            ctx = dict(zip(shape, assign))
            if description.prob(ctx) <= 0:
                continue
            ps = []
            for a in model.alphabet:
                ext = dict(ctx)
                ext[origin] = a
                if _locally_valid(ext, model):
                    ps.append(description.prob(ext))
            if len(ps) >= 2:
                worst = max(worst, max(ps) - min(ps))
    return worst


def description_bounds(regions, model, pattern, boundary="free"):
    """(p-check, p-hat, d) over a nested region chain: extremes of the
    conditional pattern probability over valid boundary valuations.

    The spread d is checked non-increasing along the chain (proved
    monotone for nested regions); violation raises AssertionError.
    """
    pattern = {tuple(x): s for x, s in dict(pattern).items()}
    need = thicken(pattern, model)
    rows = []
    prev_d = None
    prev = None
    for region in regions:
        region = frozenset(region)
        if not need <= region:
            raise ValueError("region must contain the thickened pattern support")
        if prev is not None and not prev < region:
            raise ValueError("regions must be strictly nested")
        prev = region
        res = _bounds_one_region(region, model, pattern, boundary)
        if prev_d is not None:
            assert res[2] <= prev_d + 1e-12, "bound spread grew on a larger region"
        prev_d = res[2]
        rows.append(res)
    return rows


def _bounds_one_region(region, model, pattern, boundary):
    inner = interior(region, model)
    ring = frozenset(region) - inner
    if not set(pattern) <= inner:
        raise ValueError("pattern must sit in the interior")
    fast = _bounds_fast_hs(region, model, pattern, boundary)
    if fast is not None:
        return fast
    lo, hi = None, None
    for v in enumerate_valuations(ring, model, boundary=boundary):
        denom = count(region, model, v, boundary)
        if denom == 0:
            continue
        merged = dict(v)
        merged.update(pattern)
        p = count(region, model, merged, boundary) / denom
        lo = p if lo is None else min(lo, p)
        hi = p if hi is None else max(hi, p)
    if lo is None:
        raise EmptyConditioning("no boundary valuation admits a completion")
    return lo, hi, hi - lo


def _bounds_fast_hs(region, model, pattern, boundary):
    """Batched column-DP for the hard-square shape on centered squares.

    Only the ring cells orthogonally adjacent to the interior influence
    the conditional, so valid ring valuations are grouped by that contact
    key; each group costs one 13-ish-state transfer product, vectorized
    over all keys at once."""
    if boundary != "free" or model.name != "hard-square":
        return None
    shape = _is_rect(region)
    if shape is None or shape[2] != shape[3] or shape[2] < 5:
        return None
    row0, col0, side, _ = shape
    inner_side = side - 2
    inner = rect(inner_side, inner_side, (row0 + 1, col0 + 1))
    if not set(pattern) <= inner:
        return None
    ring = sorted(frozenset(region) - inner)
    # contact cells: ring cells adjacent to the interior (non-corner)
    contact = [x for x in ring
               if any(tuple(c + d for c, d in zip(x, off)) in inner
                      for off in ((1, 0), (-1, 0), (0, 1), (0, -1)))]
    cidx = {x: i for i, x in enumerate(contact)}
    keys = set()
    for v in enumerate_valuations(frozenset(ring), model):
        key = 0
        for x, i in cidx.items():
            if v[x]:
                key |= 1 << i
        keys.add(key)
    keys = sorted(keys)
    K = len(keys)
    states = valid_columns(model, inner_side, False)
    M = len(states)
    T = column_compat(model, inner_side, False, states, states).astype(float)
    # contact bits per key: key_bits[k, cidx[x]] is the symbol at ring cell x
    key_bits = (np.array(keys, dtype=np.int64)[:, None] >> np.arange(len(contact))) & 1
    # per-key, per-column allowed states: a 1 above or below the interior
    # forbids a 1 in the adjacent row
    allow = np.ones((K, inner_side, M), dtype=bool)
    for j in range(inner_side):
        top = key_bits[:, cidx[(row0, col0 + 1 + j)]]
        bot = key_bits[:, cidx[(row0 + side - 1, col0 + 1 + j)]]
        allow[:, j, :] &= ~(top[:, None] & states[None, :, 0]).astype(bool)
        allow[:, j, :] &= ~(bot[:, None] & states[None, :, -1]).astype(bool)
    left = key_bits[:, [cidx[(row0 + 1 + i, col0)] for i in range(inner_side)]]
    right = key_bits[:, [cidx[(row0 + 1 + i, col0 + side - 1)] for i in range(inner_side)]]
    lcompat = column_compat(model, inner_side, False, left, states)
    rcompat = column_compat(model, inner_side, False, states, right).T

    def run(filtered):
        V = (allow[:, 0, :] & lcompat & filtered[0][None, :]).astype(float)
        for j in range(1, inner_side):
            V = V @ T
            V *= allow[:, j, :] * filtered[j][None, :]
        return (V * rcompat).sum(axis=1)

    free_f = [np.ones(M, dtype=bool) for _ in range(inner_side)]
    denom = run(free_f)
    pat_f = [np.ones(M, dtype=bool) for _ in range(inner_side)]
    for (r, c), s in pattern.items():
        pat_f[c - (col0 + 1)] &= states[:, r - (row0 + 1)] == s
    numer = run(pat_f)
    good = denom > 0
    ps = numer[good] / denom[good]
    return float(ps.min()), float(ps.max()), float(ps.max() - ps.min())


# flip-chain site picks taken from the generator per block
_MOVE_CHUNK = 1 << 16


def thermalize(shape, model=None, seed=0, samples=1, warmup_sweeps=5,
               spacing_moves=None, boundary="free"):
    """Single-site-flip sampler over an all-zeros start.

    One move: pick a uniform node; toggle it between 0 and 1 when the
    toggled value stays locally valid.  The proposal is symmetric and
    acceptance depends only on validity, so the chain is doubly stochastic
    over valid valuations and converges to the uniform law.  Emits
    `samples` grids, the first after warmup_sweeps*|A|^2 moves
    (|A| = rows*cols), then every spacing_moves (default |A|) moves.

    Each node's placements go through `_placement_cells` once, before the
    first move: per toggle value, the other cells (flat offset, symbol) of
    each placement it would complete.  Equal lists are shared, and a cyclic
    coordinate that wraps onto the node reads as the node.
    """
    if model is None:
        model = hard_square()
    if model.dimension == 2:
        rows, cols = shape
    else:
        rows, cols = 1, shape if isinstance(shape, int) else shape[0]
    area = rows * cols
    spacing = area if spacing_moves is None else spacing_moves
    dims = (rows, cols)[2 - model.dimension:]
    coords = list(product(*map(range, dims)))
    index = {x: k for k, x in enumerate(coords)}
    ctx = _resolve_context(coords, model, None, boundary, dims)
    shared = {}
    blocks = []  # blocks[k][v]: what a toggle of node k to v would complete
    for k, x in enumerate(coords):
        by_value = ([], [])
        for placement in model.pattern_placements(x):
            need = dict(_placement_cells(*placement, index, ctx, boundary, dims) or ())
            if need.get(k) in (0, 1):
                by_value[need.pop(k)].append(tuple((i - k, s) for i, s in need.items()))
        key = tuple(map(tuple, by_value))
        blocks.append(shared.setdefault(key, key))
    rng = SplitMix64(seed)
    cells = bytearray(area)

    def moves(count):
        # one draw per move, as `randbelow(area)` would take it
        for start in range(0, count, _MOVE_CHUNK):
            picks = rng.block(min(_MOVE_CHUNK, count - start)) % np.uint64(area)
            for k in picks.tolist():
                new = cells[k] ^ 1
                for need in blocks[k][new]:
                    for i, s in need:
                        if cells[k + i] != s:
                            break
                    else:
                        break  # the toggle completes this placement
                else:
                    cells[k] = new

    moves(warmup_sweeps * area * area)
    out = []
    for k in range(samples):
        if k:
            moves(spacing)
        out.append(np.frombuffer(cells, dtype=np.int8).reshape(rows, cols).copy())
    return out


def thermalize_chain_matrix(shape, model=None, boundary="free"):
    """Explicit single-site-flip transition matrix over all valid
    valuations of a small rectangle; states returned alongside."""
    if model is None:
        model = hard_square()
    rows, cols = shape
    region = rect(rows, cols)
    states = enumerate_valuations(region, model, boundary=boundary)
    if len(states) > 10 ** 4:
        raise TooLarge("state space too big for an explicit matrix")
    keys = [tuple(sorted(s.items())) for s in states]
    index = {k: i for i, k in enumerate(keys)}
    n = len(states)
    area = rows * cols
    P = np.zeros((n, n))
    for i, st in enumerate(states):
        for x in sorted(region):
            nxt = dict(st)
            nxt[x] = 1 - nxt[x]
            arr = np.zeros((rows, cols), dtype=np.int8)
            for (r, c), v in nxt.items():
                arr[r, c] = v
            if is_valid(arr, model, boundary):
                j = index[tuple(sorted(nxt.items()))]
                P[i, j] += 1.0 / area
            else:
                P[i, i] += 1.0 / area
    return states, P


EXACT_MAX_ROWS = 20
# float64 column weights the exact sampler may keep (32 MB)
EXACT_MAX_WEIGHTS = 1 << 22
# float64 entries of one broken-line profile (4 MB); a column step holds
# about three profiles at once
EXACT_MAX_PROFILE = 1 << 19


class Unsupported(ValueError):
    """The exact sampler does not cover this model, boundary or grid."""


def _column_codes(model, n) -> list:
    """Valid columns of heights 0..n as bitmasks, row 0 the most significant
    bit, so each array is sorted and in `valid_columns` order.  Patterns
    demand only 1s and span at most two rows.  One int64 per column where
    `valid_columns` holds n: at 20 rows unconstrained, 8 MB against 168 MB."""
    single = [left for left, right in _column_translates(model, n, False)
              if not right]
    out = [np.zeros(1, dtype=np.int64)]
    for row in range(n):
        codes = np.stack((out[-1] << 1, (out[-1] << 1) | 1), axis=1).ravel()
        for cells in single:
            if max(cells) == row:
                mask = sum(1 << (row - r) for r in cells)
                codes = codes[(codes & mask) != mask]
        out.append(codes)
    return out


def _cell_steps(model, n, codes) -> list:
    """The column transfer of a 2x2-window model as n cell steps over a
    broken-line profile; codes is `_column_codes(model, n)`.

    Before step t (1..n) the profile holds rows 0..t-1 of the left column
    L and rows t-1..n-1 of the right column R, as a 2-d array indexed by
    the valid prefix of L and the valid suffix of R.  Step t adds L[t]
    (none at t = n), applies every two-column translate whose top row is
    t-1 and sums R[t-1] out.  A step is (par, terms): par maps each new
    prefix to the prefix it extends (at t = n: itself), and each term
    (at, mask) gathers the old suffixes with R[t-1] = 0 or 1 and zeroes
    the blocked entries (mask None: none blocked)."""
    # ok[k][L[k], L[k+1], R[k], R[k+1]]
    ok = np.ones((n, 2, 2, 2, 2), dtype=bool)
    for left, right in _column_translates(model, n, False):
        if right:
            k = min(min(left), min(right))
            at = [k] + [slice(None)] * 4
            for r in left:
                at[1 + r - k] = 1
            for r in right:
                at[3 + r - k] = 1
            ok[tuple(at)] = False
    steps = []
    for t in range(1, n + 1):
        if t < n:
            pre = codes[t + 1]
            par = np.searchsorted(codes[t], pre >> 1)
            low, new = (pre >> 1) & 1, pre & 1
            below = (codes[n - t] >> (n - t - 1)) & 1
        else:
            pre = codes[n]
            par = np.arange(len(pre))
            low, new = pre & 1, np.zeros_like(pre)
            below = codes[0]
        old = codes[n - t + 1]
        terms = []
        for r in (0, 1):
            want = (r << (n - t)) | codes[n - t]
            at = np.minimum(np.searchsorted(old, want), len(old) - 1)
            mask = (ok[t - 1][low[:, None], new[:, None], r, below[None, :]]
                    & (old[at] == want)[None, :])
            if mask.any():
                terms.append((at.astype(np.int32), None if mask.all() else mask))
        steps.append((par.astype(np.int32)[:, None], terms))
    return steps


def _column_step(w, steps) -> np.ndarray:
    """y[c] = sum of w[d] over the columns d that may follow column c, both
    indexed like `valid_columns`, without forming the column-pair matrix."""
    # before step 1 the profile has one row per value of L[0], each equal to w
    h = np.broadcast_to(w, (2, len(w)))
    for par, terms in steps:
        out = None
        for at, mask in terms:
            x = h[par, at]
            if mask is not None:
                x *= mask
            if out is None:
                out = x
            else:
                out += x
        h = out
    return h[:, 0]


def sample_uniform(shape, model=None, seed=0, samples=1, boundary="free"):
    """Exactly uniform valid grids, drawn column by column.

    A backward pass over the broken-line column transfer gives, per
    column j, weights W_j (float64, scaled to max 1) proportional to the
    number of valid completions of columns j+1.. given column j.  Each
    grid then takes column j with probability proportional to
    compat(previous column, .) * W_j, one `SplitMix64.uniform()` per
    column.  Covers 2-d binary models whose forbidden patterns are all 1s
    inside a 2x2 window, with free or zero boundary (the same thing for
    such patterns) and at most EXACT_MAX_ROWS rows; anything else, or
    weights past EXACT_MAX_WEIGHTS floats, or a broken-line profile past
    EXACT_MAX_PROFILE floats, raises Unsupported.
    """
    if model is None:
        model = hard_square()
    if model.dimension != 2 or not _all_ones_patterns(model) or any(
            max(x[i] for x, _ in pat) - min(x[i] for x, _ in pat) > 1
            for pat in model.forbidden for i in (0, 1)):
        raise Unsupported("the exact sampler needs a 2-d binary model whose "
                          "patterns are all 1s inside a 2x2 window")
    if boundary not in ("free", "zero"):
        raise Unsupported("the exact sampler needs a free or zero boundary")
    rows, cols = shape
    if rows < 1 or cols < 1 or samples < 0:
        raise ValueError("grid sides must be positive and samples >= 0")
    if rows > EXACT_MAX_ROWS:
        raise Unsupported("the exact sampler takes at most %d rows"
                          % EXACT_MAX_ROWS)
    codes = _column_codes(model, rows)
    states = codes[rows]
    if len(states) * cols > EXACT_MAX_WEIGHTS:
        raise Unsupported("%d columns of %d states exceed the exact sampler's "
                          "weight budget" % (cols, len(states)))
    # after cell step t the profile is |codes[t+1]| x |codes[rows-t]| (t = 0:
    # the input, which also bounds the last step's |states| x 1)
    profile = max(len(codes[t + 1]) * len(codes[rows - t]) for t in range(rows))
    if profile > EXACT_MAX_PROFILE:
        raise Unsupported("%d-row profiles of %d entries exceed the exact "
                          "sampler's profile budget" % (rows, profile))
    steps = _cell_steps(model, rows, codes)
    del codes  # only the full-height columns are needed from here on
    weights = [np.ones(len(states))]
    for _ in range(cols - 1):
        w = _column_step(weights[-1], steps)
        weights.append(w / w.max())
    weights.reverse()
    # blocked[i]: columns that translate i forbids after a column holding
    # all of its left cells
    pairs = [(left, right) for left, right in _column_translates(model, rows, False)
             if right]
    need = np.array([sum(1 << (rows - 1 - r) for r in left) for left, _ in pairs],
                    dtype=np.int64)
    blocked = np.zeros((len(pairs), len(states)), dtype=bool)
    for i, (_, right) in enumerate(pairs):
        m = sum(1 << (rows - 1 - r) for r in right)
        blocked[i] = (states & m) == m
    shifts = np.arange(rows - 1, -1, -1)
    rng = SplitMix64(seed)
    out = []
    for _ in range(samples):
        grid = np.empty((rows, cols), dtype=np.int8)
        p = weights[0]
        for j in range(cols):
            if j:
                prev = states[k]
                p = np.where(blocked[(prev & need) == need].any(axis=0),
                             0.0, weights[j])
            cum = np.cumsum(p)
            k = int(np.searchsorted(cum, rng.uniform() * cum[-1], side="right"))
            if k == len(p):  # u * total rounded up to total
                k = int(np.flatnonzero(p)[-1])
            grid[:, j] = (states[k] >> shifts) & 1
        out.append(grid)
    return out


def save_grid(arr: np.ndarray, alphabet: str = "01") -> str:
    arr = np.asarray(arr)
    if arr.ndim == 1:
        arr = arr[None, :]
        m = 1
    else:
        m = 2
    rows, cols = arr.shape
    # one code point per cell and a newline closing each row, as UTF-32
    chars = np.full((rows, cols + 1), ord("\n"), dtype="<u4")
    chars[:, :cols] = np.take(np.array([ord(c) for c in alphabet], dtype="<u4"),
                              arr)
    return ("%d %d %d %s\n" % (m, rows, cols, alphabet)
            + chars.tobytes().decode("utf-32-le"))


def load_grid(text: str):
    lines = text.strip().split("\n")
    head = lines[0].split()
    if len(head) != 4:
        raise ValueError("bad grid header")
    m, rows, cols = int(head[0]), int(head[1]), int(head[2])
    alphabet = head[3]
    if len(lines) != rows + 1:
        raise ValueError("row count mismatch")
    body = lines[1:]
    for i, row in enumerate(body):
        if len(row) != cols:
            raise ValueError("column count mismatch on row %d" % i)
    chars = np.frombuffer("".join(body).encode("utf-32-le"), dtype=np.uint32)
    arr = np.full(chars.shape, -1, dtype=np.int8)
    for k in range(len(alphabet) - 1, -1, -1):  # the first match wins
        arr[chars == ord(alphabet[k])] = k
    arr = arr.reshape(rows, cols)
    if (arr < 0).any():
        i, j = np.argwhere(arr < 0)[0]
        raise ValueError("grid row %d column %d holds %r, not in alphabet %r"
                         % (i, j, body[i][j], alphabet))
    if m == 1:
        return arr[0], alphabet
    return arr, alphabet
