"""Translation-invariant constrained lattice models.

A model is a dimension, a finite alphabet and a finite set of forbidden
patterns (stored as translation representatives anchored at the origin).
A valuation of a finite region is valid when no translate of a forbidden
pattern, fully contained in the known cells, matches.

The module provides the brute-force machinery everything else is checked
against: valuation enumeration and counting (with a transfer fast path for
rectangles), entropy estimates, exact/empirical statistical descriptions,
local-optimality and bound diagnostics, and two uniform samplers: exact
column-by-column draws (`sample_uniform`) for binary models whose patterns
are all 1s inside a 2x2 window, and the single-site-flip chain
(`thermalize`), uniform in the limit when every forbidden pattern asks
only 1s, as in every preset, and refused (TooLarge) past WORK_GUARD moves.
One resolver, `_placement_cells`, gives the cells a forbidden-pattern
placement needs, boundary applied, to the backtracking counter, the pLOC
check and the chain, which compiles each node's placements once before its
first move.  The module also owns the column transfer engine
(`_column_levels`, one integer code per valid column; `column_compat`)
that the strip decomposition, the bounds batch and the rectangle
counter's ends share; the exact sampler derives its pair rule from the
same translates (`_column_translates`).  Read on single columns it
gives a 1-d model's window graph (`window_graph`).  Its cell-by-cell
broken-line form (`_cell_steps`, `_column_step`) sits behind one cached
gate (`_broken_line`): binary models whose patterns are all 1s inside a
2x2 window, at most EXACT_MAX_ROWS rows and a bounded profile.  Rectangle counts, the exact
sampler and the bounds batch (on free rectangles) all read the one result
it keeps per model and height.

Boundary modes for finite regions:

* ``free``   - cells outside the region are unconstrained; patterns that
               stick out are ignored;
* ``zero``   - cells outside are clamped to the neutral symbol 0;
* ``cyclic`` - the region is a full rectangle and coordinates wrap.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .rng import SplitMix64
from .spectral import EmptyModel

# bits/node of the hard-square model, the reference constant for every
# capacity comparison in this package
HARD_SQUARE_ENTROPY = 0.5878911617753406

WORK_GUARD = 1 << 28
# largest K of a k-model, refused before its K patterns are listed
MAX_KMODEL = 1 << 12


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
    if k > MAX_KMODEL:
        raise ValueError("k-model:%d exceeds the largest preset K, %d" % (k, MAX_KMODEL))
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
    if not region:
        return None
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
    """Max |column offset| inside any forbidden pattern; column pairs need <= 1."""
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


def _column_levels(model, n, cyclic, limit: Optional[int] = None) -> list:
    """Sorted int64 codes of the valid height-h prefixes of width-n
    columns (free of single-column forbidden translates), for h = 0..n.  A
    code has one base-|alphabet| digit per row, the symbol's alphabet
    index, row 0 the most significant, so code order is itertools.product
    order.  A translate is checked once its last row is placed, so memory
    follows the valid prefixes, not |alphabet|^n; without a cyclic wrap,
    level h is the valid columns of height h.

    More than `limit` columns is TooLarge.  When every pattern forbids only
    1s, as in every 2-d preset, each valid prefix extends by 0s to a valid
    column, so a prefix level over the limit is refused at once, before
    the next row doubles it; other models are refused on their full count."""
    a = len(model.alphabet)
    if a ** n >> 63:
        raise TooLarge("%d-row codes over %d symbols overflow int64" % (n, a))
    # per translate: (last row, [(digit weight, digit)]); a translate that
    # asks a symbol outside the alphabet never matches
    single = [(max(left), [(a ** (max(left) - r), model.alphabet.index(s))
                           for r, s in left.items()])
              for left, right in _column_translates(model, n, cyclic)
              if not right and all(s in model.alphabet for s in left.values())]
    early = _all_ones_patterns(model)
    levels = [np.zeros(1, dtype=np.int64)]
    for row in range(n):
        codes = (levels[-1][:, None] * a + np.arange(a)).ravel()
        for last, digits in single:
            if last == row:
                codes = codes[~np.all([codes // w % a == d for w, d in digits], axis=0)]
        if limit is not None and len(codes) > limit and (early or row == n - 1):
            raise TooLarge("%s%d column states exceed the limit %d"
                           % ("" if row == n - 1 else "at least ",
                              len(codes), limit))
        levels.append(codes)
    return levels


def _column_symbols(model, n, codes) -> np.ndarray:
    """The (S, n) symbol array of width-n column codes."""
    a = len(model.alphabet)
    return np.array(model.alphabet)[codes[:, None] // a ** np.arange(n - 1, -1, -1) % a]


def column_compat(model, n, cyclic, left, right) -> np.ndarray:
    """ok[a, b]: column right[b] may follow column left[a] (no two-column
    forbidden translate matches across them)."""
    bad = np.zeros((len(left), len(right)), dtype=bool)
    for lcells, rcells in _column_translates(model, n, cyclic):
        if rcells:
            bad |= _hits(left, lcells)[:, None] & _hits(right, rcells)[None, :]
    return ~bad


def window_graph(model) -> np.ndarray:
    """Boolean transfer graph of a 1-d model over its valid l-windows,
    l = max(1, constraint range), trimmed of windows with no live
    predecessor or successor.  Read as single columns (`_column_levels`),
    each valid (l+1)-window code c is the edge c // |A| -> c mod |A|^l."""
    if model.dimension != 1:
        raise ValueError("window graphs need a 1-d model")
    l = max(1, model.constraint_range)
    column = LatticeModel(2, model.alphabet, tuple(
        {(i, 0): s for (i,), s in pat} for pat in model.forbidden))
    levels = _column_levels(column, l + 1, False)
    nodes, a = levels[l], len(model.alphabet)
    if not len(nodes):
        raise EmptyModel("no valid window of length %d" % l)
    adj = np.zeros((len(nodes), len(nodes)), dtype=bool)
    adj[np.searchsorted(nodes, levels[l + 1] // a),
        np.searchsorted(nodes, levels[l + 1] % a ** l)] = True
    alive = np.ones(len(nodes), dtype=bool)
    while True:
        live = adj[alive][:, alive]
        keep = live.any(axis=0) & live.any(axis=1)
        if keep.all():
            return live
        alive[alive] = keep
        if not alive.any():
            raise EmptyModel("every window is transient")


def _rect_dp_count(row0, col0, rows, cols, model, ctx) -> Optional[int]:
    """Exact count of a rectangle on the broken-line column transfer, run
    from the last column to the first over Python ints, with the states and
    steps of the cached gate (`_broken_line`).  ctx holds clamped symbols
    (inside or near the rectangle); returns None when a clamp is outside
    this fast path or the gate refuses the model or the height."""
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
    try:
        _, steps, states = _broken_line(model, rows)
    except Unsupported:
        return None
    # w[c]: completions of the columns from j on, given column j = c
    w = (column_compat(model, rows, False, states, side[cols])[:, 0]
         & _hits(states, force[-1])).astype(int).astype(object)
    for j in range(cols - 2, -1, -1):
        w = _column_step(w, steps) * _hits(states, force[j])
    return int(w @ column_compat(model, rows, False, side[-1], states)[0])


def count(region, model, clamp=None, boundary="free", dims=None) -> int:
    """N(A, u): valid valuations of the region extending the clamp.

    A free or zero rectangle is counted on the broken-line column transfer
    when its cached gate (`_broken_line`, shared with the exact sampler and
    the bounds batch) takes the model and height, and every clamped 1
    within reach lies in a column of the rectangle or beside it; the rest
    backtracks."""
    if model.dimension == 2 and boundary in ("free", "zero"):
        shape = _is_rect(region)
        if shape is not None:
            ctx = _resolve_context(region, model, clamp, boundary, dims)
            n = _rect_dp_count(shape[0], shape[1], shape[2], shape[3], model, ctx)
            if n is not None:
                return n
    return sum(_iter_valuations(region, model, clamp, boundary, dims, True))


def lg(n: int) -> float:
    """lg of a positive count (`math.log2` takes ints of any size)."""
    if n <= 0:
        raise ValueError("lg of nonpositive count")
    return math.log2(n)


def entropy_estimate(side: int, model: LatticeModel, boundary: str = "free") -> float:
    """lg N(side-hypercube) / side^m."""
    if side < 1:
        raise ValueError("side must be positive")
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
        self._marginals = {}

    def _marginal(self, shape: tuple, idx: tuple) -> dict:
        """Mass of each assignment of cells idx of a stored shape, summed
        over its table in stored order, once per (shape, idx)."""
        if (shape, idx) not in self._marginals:
            margin = self._marginals[shape, idx] = {}
            for assign, p in self.tables[shape].items():
                sub = tuple(assign[i] for i in idx)
                margin[sub] = margin.get(sub, 0.0) + p
        return self._marginals[shape, idx]

    def prob(self, pattern) -> float:
        items = dict(pattern)
        if not items:
            return 1.0
        support = set(map(tuple, items))
        for shape in self.shapes:
            if support <= set(shape):
                idx = tuple(shape.index(x) for x in sorted(support))
                want = tuple(items[x] for x in sorted(support))
                return self._marginal(shape, idx).get(want, 0.0)
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
                idx = tuple(i for i in range(len(shape)) if i != drop)
                sub = [shape[i] for i in idx]
                for assign, p in self._marginal(shape, idx).items():
                    worst = max(worst, abs(self.prob(zip(sub, assign)) - p))
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
    m = len(alphabet)
    grids = []
    for arr in samples:
        arr = np.asarray(arr, dtype=np.int64)
        rows, cols = arr.shape[0] - (r1 - r0), arr.shape[1] - (c1 - c0)
        if rows > 0 and cols > 0:
            # alphabet index of each cell, -1 where the symbol is foreign
            idx = np.full(arr.shape, -1, dtype=np.int64)
            for a, sym in enumerate(alphabet):
                idx[arr == sym] = a
            grids.append((idx, rows, cols))
    if not grids:
        raise ValueError("shapes do not fit inside the samples")
    total = sum(rows * cols for _, rows, cols in grids)
    tables = {}
    for shape in shapes:
        # a window's base-m code, first cell most significant: its index
        # in product(alphabet); a window holding a foreign symbol counts
        # in the total only
        counts = np.zeros(m ** len(shape), dtype=np.int64)
        for idx, rows, cols in grids:
            code = np.zeros((rows, cols), dtype=np.int64)
            foreign = np.zeros((rows, cols), dtype=bool)
            for dr, dc in shape:
                cell = idx[dr - r0:dr - r0 + rows, dc - c0:dc - c0 + cols]
                code = code * m + cell
                foreign |= cell < 0
            counts += np.bincount(code[~foreign], minlength=len(counts))
        tables[shape] = {a: c / total for a, c in
                         zip(product(alphabet, repeat=len(shape)), counts.tolist())}
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
    fast = _bounds_batch(region, model, pattern, boundary, inner, ring)
    if fast is not None:
        return fast
    lo, hi = None, None
    for v in _iter_valuations(ring, model, None, boundary, None, False):
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


def _bounds_batch(region, model, pattern, boundary, inner, ring):
    """`_bounds_one_region` as dense float transfers over the rectangle,
    one per group of ring valuations; None off its path: a free rectangle
    of at most 52 interior cells, so every count (at most 2^52) and partial
    sum is an exact float, a model and height that the gate (`_broken_line`)
    takes, and at most isqrt(EXACT_MAX_WEIGHTS) of its column states, so
    the transfer fits that budget.

    Only the contact cells, ring cells within the neighbourhood of the
    interior, reach the conditional.  So valid ring valuations are grouped
    by their contact symbols, and each group is counted with its contact
    cells clamped and the other ring cells 0, which changes no count when
    every pattern asks only 1s."""
    shape = _is_rect(region)
    if boundary != "free" or shape is None or len(inner) > 52:
        return None
    row0, col0, rows, cols = shape
    try:
        states = _broken_line(model, rows)[2]
    except Unsupported:
        return None
    if len(states) > math.isqrt(EXACT_MAX_WEIGHTS):
        return None
    contact = sorted(thicken(inner, model) & ring)
    keys = np.array(list({tuple(map(v.__getitem__, contact)) for v in
                          _iter_valuations(ring, model, None, "free", None, False)}))
    # column j's ring rows read as one binary code: kc[j] per key (0 off
    # the contact cells), sc[j] per state
    in_ring = np.zeros((rows, cols), dtype=bool)
    in_ring[[r - row0 for r, _ in ring], [c - col0 for _, c in ring]] = True
    kc = np.zeros((cols, len(keys)), dtype=np.int64)
    for (r, c), sym in zip(contact, keys.T):
        kc[c - col0] |= sym << (r - row0)
    sc = (states[None] * in_ring.T[:, None]) @ (1 << np.arange(rows))
    hits = [_hits(states, {r - row0: s for (r, c), s in pattern.items()
                           if c == col0 + j}) for j in range(cols)]
    T = column_compat(model, rows, False, states, states).astype(float)
    chunk = max(1, (1 << 16) // len(states))  # keys per pass: 1 MB of V
    ps = []
    for lo in range(0, len(keys), chunk):
        for j in range(cols):
            ok = kc[j, lo:lo + chunk, None] == sc[j]
            # V[0] counts each key's completions, V[1] those holding the pattern
            mask = np.stack([ok, ok & hits[j]])
            V = mask.astype(float) if j == 0 else (V @ T) * mask
        denom, numer = V.sum(axis=2)
        ps.append(numer[denom > 0] / denom[denom > 0])
    ps = np.concatenate(ps)
    return float(ps.min()), float(ps.max()), float(ps.max() - ps.min())


# flip-chain site picks taken from the generator per block
_MOVE_CHUNK = 1 << 16


def thermalize(shape, model=None, seed=0, samples=1, warmup_sweeps=5,
               spacing_moves=None, boundary="free"):
    """Single-site-flip sampler over an all-zeros start.

    One move: pick a uniform node; toggle it between 0 and 1 when the
    toggled value stays locally valid.  The proposal is symmetric and
    acceptance depends only on validity, so the chain is doubly stochastic
    over valid valuations.  It converges to the uniform law when every
    forbidden pattern asks only 1s, as in every preset: clearing 1s one at
    a time joins every valid valuation to the zero grid.  A pattern that
    asks a 0 can leave the chain stuck at the zero grid.  Emits
    `samples` grids, the first after warmup_sweeps*|A|^2 moves
    (|A| = rows*cols), then every spacing_moves (default |A|) moves; more
    than WORK_GUARD moves in all is TooLarge, before any node is compiled.

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
    total = warmup_sweeps * area * area + max(samples - 1, 0) * spacing
    if total > WORK_GUARD:
        raise TooLarge("%d flip moves exceed the work guard %d" % (total, WORK_GUARD))
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
# entries of the exact sampler's per-batch arrays (2 MB of float64): a
# batch of m grids keeps about three states x m arrays and m x cols uniforms
SAMPLE_BATCH = 1 << 18


class Unsupported(ValueError):
    """The broken-line transfer (the exact sampler, rectangle counts) does
    not cover this model, boundary or grid."""


def _check_window_model(model):
    """Refuse (Unsupported) all but the models the broken-line transfer
    covers: 2-d binary models whose patterns are all 1s inside a 2x2
    window."""
    if model.dimension != 2 or not _all_ones_patterns(model) or any(
            max(x[i] for x, _ in pat) - min(x[i] for x, _ in pat) > 1
            for pat in model.forbidden for i in (0, 1)):
        raise Unsupported("the exact sampler needs a 2-d binary model whose "
                          "patterns are all 1s inside a 2x2 window")


@functools.lru_cache(maxsize=8)
def _broken_line(model, rows):
    """The one gate of the broken-line transfer, for rectangle counts, the
    exact sampler and the bounds batch: (codes, steps, symbols), the
    `_column_levels` codes, `_cell_steps` steps and int8 `_column_symbols`
    states of rows-high columns.  Unsupported unless `_check_window_model`
    takes the model, rows <= EXACT_MAX_ROWS and, sized before any is built,
    the largest profile fits EXACT_MAX_PROFILE floats.  Kept per (model,
    rows) and shared, so its arrays are read-only; Unsupported is raised
    again on every call."""
    _check_window_model(model)
    if rows > EXACT_MAX_ROWS:
        raise Unsupported("the exact sampler takes at most %d rows"
                          % EXACT_MAX_ROWS)
    codes = tuple(_column_levels(model, rows, False))
    # after cell step t the profile is |codes[t+1]| x |codes[rows-t]| (t = 0:
    # the input, which also bounds the last step's |states| x 1)
    profile = max(len(codes[t + 1]) * len(codes[rows - t]) for t in range(rows))
    if profile > EXACT_MAX_PROFILE:
        raise Unsupported("%d-row profiles of %d entries exceed the exact "
                          "sampler's profile budget" % (rows, profile))
    steps = _cell_steps(model, rows, codes)
    symbols = _column_symbols(model, rows, codes[rows]).astype(np.int8)
    arrays = [*codes, symbols]
    for par, terms in steps:
        arrays += [par] + [a for term in terms for a in term if a is not None]
    for a in arrays:
        a.flags.writeable = False
    return codes, steps, symbols


def _cell_steps(model, n, codes) -> tuple:
    """The column transfer of a 2x2-window model as n cell steps over a
    broken-line profile; codes is `_column_levels(model, n, False)`.

    Before step t (1..n) the profile holds rows 0..t-1 of the left column
    L and rows t-1..n-1 of the right column R, as a 2-d array indexed by
    the valid prefix of L and the valid suffix of R.  Step t adds L[t]
    (none at t = n), applies every two-column translate whose top row is
    t-1 and sums R[t-1] out.  A step is (par, terms): par, a 1-d intp
    array, maps each new prefix to the prefix it extends (at t = n:
    itself), and each term (at, mask) holds the intp indices of the old
    suffixes with R[t-1] = 0 or 1 and a mask that zeroes the blocked
    entries (None: none blocked)."""
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
            par = np.arange(len(pre), dtype=np.intp)
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
                terms.append((at, None if mask.all() else mask))
        steps.append((par, tuple(terms)))
    return tuple(steps)


def _column_step(w, steps) -> np.ndarray:
    """y[c] = sum of w[d] over the columns d that may follow column c, both
    indexed like the gate's states, without forming the column-pair matrix.
    Each cell step gathers the profile's rows with one `take` over par and
    each term's columns with one `take` over at; the sums run in the same
    order for any dtype, so a Python-int (object) w gives exact counts."""
    # before step 1 the profile has one row per value of L[0], each equal to w
    h = np.broadcast_to(w, (2, len(w)))
    for par, terms in steps:
        hp = h.take(par, 0)
        out = None
        for at, mask in terms:
            x = hp.take(at, 1)
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
    compat(previous column, .) * W_j.  Grids are drawn in batches of up
    to SAMPLE_BATCH // max(states, cols) (at least 1), column j of every
    grid in the batch at once, from one `SplitMix64.uniforms` block per
    batch in sample-major order: the same stream, and the same grids, as
    one `uniform()` per column, sample after sample.  Covers 2-d binary
    models whose forbidden patterns are all 1s inside a 2x2 window, with
    free or zero boundary (the same thing for such patterns) and at most
    EXACT_MAX_ROWS rows; anything else, or weights past EXACT_MAX_WEIGHTS
    floats, or a broken-line profile past EXACT_MAX_PROFILE floats, raises
    Unsupported; the transfer and its states come from `_broken_line`.
    """
    if model is None:
        model = hard_square()
    _check_window_model(model)  # before the shape is read
    if boundary not in ("free", "zero"):
        raise Unsupported("the exact sampler needs a free or zero boundary")
    rows, cols = shape
    if rows < 1 or cols < 1 or samples < 0:
        raise ValueError("grid sides must be positive and samples >= 0")
    _, steps, symbols = _broken_line(model, rows)
    S = len(symbols)
    if S * cols > EXACT_MAX_WEIGHTS:
        raise Unsupported("%d columns of %d states exceed the exact sampler's "
                          "weight budget" % (cols, S))
    # the states in nb blocks of B, the last padded with weight-0 columns:
    # about sqrt(S / 8) blocks balance one numpy call per block against
    # each grid's rescan of one block
    nb = max(1, math.isqrt(S // 8))
    B = -(-S // nb)
    weights = np.zeros((cols, nb * B))
    weights[-1, :S] = 1.0
    for j in range(cols - 2, -1, -1):
        w = _column_step(weights[j + 1, :S], steps)
        weights[j, :S] = w / w.max()
    # after a column k with holds[i, k], two-column translate i forbids the
    # columns c with blocked[i, c]; as 0/1 floats blocked.T @ holds counts
    # the forbidding translates exactly
    holds, blocked = np.array(
        [[_hits(symbols, side) for side in sides]
         for sides in _column_translates(model, rows, False) if sides[1]],
        dtype=bool).reshape(-1, 2, S).transpose(1, 0, 2)
    blocked = np.pad(blocked, ((0, 0), (0, nb * B - S))).astype(np.float32)
    rng = SplitMix64(seed)
    out = np.empty((samples, rows, cols), dtype=np.int8)
    batch = max(1, SAMPLE_BATCH // max(S, cols))
    for lo in range(0, samples, batch):
        m = min(batch, samples - lo)
        u = rng.uniforms(m * cols).reshape(m, cols)
        # p[b, 1 + r, i]: the weight of column b * B + r for grid i, 0 where
        # blocked; p[b, 0, i]: grid i's running sum over blocks 0..b-1.  With
        # at least two lanes i (a lone grid gets an idle one beside it) the
        # rows of a block are not its fast axis, so np.add.reduce adds them
        # one after another, in the order of a 1-d np.cumsum (it sums
        # pairwise only along the fast axis)
        p = np.zeros((nb + 1, B + 1, max(m, 2)))
        for j in range(cols):
            good = (blocked.T @ holds[:, k] == 0).reshape(nb, B, m) if j else True
            np.multiply(weights[j].reshape(nb, B, 1), good, out=p[:nb, 1:, :m])
            for b in range(nb):
                np.add.reduce(p[b], axis=0, out=p[b + 1, 0])
            # k counts the running sums <= u * total, as searchsorted(side=
            # "right") on one grid's cumsum does: B for each block that ends
            # <= u * total, then the rows of the next block, summed again
            # from its carried-in sum (full < nb: u < 1 keeps u * total < total)
            x = u[:, j] * p[nb, 0, :m]
            full = np.count_nonzero(p[1:, 0, :m] <= x, axis=0)
            run = np.cumsum(p[full, :, np.arange(m)], axis=1)
            k = full * B + np.count_nonzero(run[:, 1:] <= x[:, None], axis=1)
            out[lo:lo + m, :, j] = symbols[k]
    return list(out)


def save_grid(arr: np.ndarray, head: bytes = b"") -> bytearray:
    """`head`, then a binary grid block, in one buffer: the header `kind
    rows cols 01` (kind 1 for a 1-d array, 2 for a grid), then one line per
    row, one byte '0' or '1' per cell.  `load_grid` reads it back."""
    kind = np.ndim(arr)
    arr = np.atleast_2d(arr)
    rows, cols = arr.shape
    head += b"%d %d %d 01\n" % (kind, rows, cols)
    out = bytearray(len(head) + rows * (cols + 1))
    out[:len(head)] = head
    body = np.frombuffer(out, dtype=np.uint8, offset=len(head)).reshape(rows, cols + 1)
    body[:, cols] = ord("\n")
    # the cells go straight into the buffer: no gathered copy of them
    np.add(arr, ord("0"), out=body[:, :cols], casting="unsafe")
    return out


def _grid_header(data: bytes, start: int, end: int) -> tuple:
    """(line end, kind, rows, cols, alphabet) of data[start:end]'s header."""
    nl = data.find(b"\n", start, end)
    nl = end if nl < 0 else nl
    head = data[start:nl].decode("latin-1").split()
    if len(head) != 4:
        raise ValueError("bad grid header")
    m, rows, cols = int(head[0]), int(head[1]), int(head[2])
    alphabet = head[3]
    if m not in (1, 2):
        raise ValueError("grid kind %d is neither 1 (a line) nor 2 (a grid)" % m)
    if m == 1 and rows != 1:
        raise ValueError("a kind-1 grid has one row, not %d" % rows)
    if len(set(alphabet)) < len(alphabet):
        raise ValueError("alphabet %r repeats a symbol" % alphabet)
    return nl, m, rows, cols, alphabet


def load_grids(data: bytes) -> list:
    """The 2-d grids of consecutive grid blocks (`load_grid`) in `data`, with
    whitespace around each: a block is its header and its count of rows."""
    grids, stop = [], 0
    while (head := re.compile(rb"\S").search(data, stop)) is not None:
        stop, _, rows, _, _ = _grid_header(data, head.start(), len(data))
        while rows > 0 and stop < len(data):
            nl = data.find(b"\n", stop + 1)
            stop, rows = len(data) if nl < 0 else nl, rows - 1
        grids.append(np.atleast_2d(load_grid(data[head.start():stop])[0]))
    if not grids:
        raise ValueError("no grids in input")
    return grids


def load_grid(text):
    """(grid, alphabet) of a grid block (`save_grid`), as bytes or as text
    of one byte per character, with surrounding whitespace.  A kind other
    than 1 or 2, a kind-1 grid of more than one row and an alphabet that
    repeats a symbol are refused."""
    data = text.encode("latin-1") if isinstance(text, str) else text
    # the block's bounds without whitespace, found in place: strip() would
    # copy a grid's bytes
    start, end = 0, len(data)
    while start < end and data[start] in b" \t\n\r\x0b\x0c":
        start += 1
    while end > start and data[end - 1] in b" \t\n\r\x0b\x0c":
        end -= 1
    nl, m, rows, cols, alphabet = _grid_header(data, start, end)
    symbol = np.full(256, -1, dtype=np.int8)  # byte -> symbol index
    symbol[list(alphabet.encode("latin-1"))] = np.arange(len(alphabet))
    # rows of cols cells, each row closed by a newline (the last by any
    # whitespace, or by none): read in place when the size fits
    size = rows * (cols + 1)
    if rows > 0 and cols > 0 and end - nl == size:
        body = np.frombuffer(data, dtype=np.uint8, count=min(size, len(data) - nl - 1),
                             offset=nl + 1)
        body = np.append(body, 0) if len(body) < size else body
        body = body.reshape(rows, cols + 1)
        if (body[:-1, cols] == ord("\n")).all():
            cells = body[:, :cols]
            if len(alphabet) == 2:
                # two comparisons, several times faster than the table
                # gather, the second about 2^20 cells at a time
                one = cells == ord(alphabet[1])
                step = max(1, (1 << 20) // cols)
                ok = all(np.logical_or(cells[i:i + step] == ord(alphabet[0]),
                                       one[i:i + step]).all()
                         for i in range(0, rows, step))
                arr = one.view(np.int8) if ok else None
            else:
                arr = symbol[cells]
                arr = arr if arr.min() >= 0 else None
            if arr is not None:
                return (arr[0] if m == 1 else arr), alphabet
    # line by line, to name the first fault
    lines = data[nl + 1:end].split(b"\n") if nl < end else []
    if len(lines) != rows:
        raise ValueError("row count mismatch")
    for i, row in enumerate(lines):
        if len(row) != cols:
            raise ValueError("column count mismatch on row %d" % i)
    arr = symbol[np.frombuffer(b"".join(lines), dtype=np.uint8)].reshape(rows, cols)
    if (arr < 0).any():
        i, j = np.argwhere(arr < 0)[0]
        raise ValueError("grid row %d column %d holds %r, not in alphabet %r"
                         % (i, j, chr(lines[i][j]), alphabet))
    return (arr[0] if m == 1 else arr), alphabet
