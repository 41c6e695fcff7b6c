"""Strip decomposition of 2D constrained models and the lattice codec.

A width-n strip of a 2D model becomes a 1D constrained chain whose symbols
are valid single columns and whose transfer matrix marks horizontally
compatible column pairs.  The dominant eigenpair gives the strip capacity
(bits per lattice node); zero and cyclic vertical boundaries give the
standard two-sided capacity estimates.

The codec turns payload bits into a valid lattice valuation by walking the
grid column-major and drawing each free node from the entropy-maximizing
conditional law with a binary stream coder (one coder state threaded
through the whole lattice, so the rate loss stays bounded by the per-node
quantization, not per-node rounding to whole bits).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

import numpy as np

from . import lattice as lat
from . import spectral as spec
from .ans import AbsStreamDecoder, AbsStreamEncoder, CapacityExceeded, CorruptStream
from .rng import SplitMix64


class TooWide(RuntimeError):
    pass


class InvalidLattice(ValueError):
    pass


class ConfigMismatch(ValueError):
    pass


MAX_STATES = 1 << 14
# Coder precision R: a float law holds 53 bits, and p * 2^R must stay finite.
MAX_PRECISION = 64


@dataclass
class StripModel:
    model: lat.LatticeModel
    n: int
    boundary: str
    columns: list
    graph: spec.WeightedGraph
    eigs: spec.EigenSystem
    coder: spec.MarkovCoder
    index: dict = field(repr=False, default=None)
    _tables: dict = field(repr=False, default=None)

    @property
    def capacity(self) -> float:
        """Bits per lattice node."""
        return math.log2(self.eigs.value) / self.n

    @property
    def zero_state(self) -> int:
        return self.index[(self.model.alphabet[0],) * self.n]

    @property
    def degenerate_cyclic(self) -> bool:
        """Width 1 and 2 cyclic strips self-overlap or double adjacency
        constraints; their capacity is not a valid lower bound."""
        return self.boundary == "cyclic" and self.n <= 2


def strip_model(model: lat.LatticeModel, n: int, boundary: str = "zero") -> StripModel:
    if model.dimension != 2:
        raise ValueError("strip decomposition needs a 2D model")
    if boundary not in ("zero", "free", "cyclic"):
        raise ValueError("unknown boundary mode %r" % boundary)
    if n < 1:
        raise ValueError("strip width must be positive")
    cyclic = boundary == "cyclic"
    if len(model.alphabet) ** n > (1 << 24):
        raise TooWide("column alphabet enumeration too large")
    if lat._column_window(model) > 1:
        raise TooWide("patterns spanning more than two columns "
                      "need a blocked alphabet")
    try:
        states = lat.valid_columns(model, n, cyclic, MAX_STATES)
    except lat.TooLarge as e:
        raise TooWide(str(e)) from None
    if not len(states):
        raise spec.EmptyModel("no valid columns")
    graph = spec.build_from_constraints(
        lat.column_compat(model, n, cyclic, states, states))
    cols = [tuple(c) for c in states.tolist()]
    eigs = spec.dominant_eigs(graph)
    coder = spec.merw_coder(graph, eigs)
    return StripModel(model, n, boundary, cols, graph, eigs, coder,
                      index={c: i for i, c in enumerate(cols)}, _tables={})


def strip_capacity(model: lat.LatticeModel, n: int, boundary: str = "zero") -> float:
    return strip_model(model, n, boundary).capacity


def _suffix_trie(strip: StripModel, u: int):
    """W[j][prefix] = total eigenvector weight of columns compatible with
    the previous column u whose first j entries equal the prefix."""
    psi = strip.eigs.right
    W = strip.graph.weights
    levels = [dict() for _ in range(strip.n + 1)]
    for v, col in enumerate(strip.columns):
        if W[u, v] == 0:
            continue
        w = float(psi[v])
        for j in range(strip.n + 1):
            key = col[:j]
            levels[j][key] = levels[j].get(key, 0.0) + w
    return levels


def _walk_table(strip: StripModel, u: int, precision: int) -> tuple:
    """(laws, nexts) of the column after state u, compiled once per
    (state, precision).  A prefix's node is its binary-heap code (root 1,
    child 2·node + b): laws[node] is its quantised one-law m, and
    nexts[node - 2^n] is the state of a full column.  Unreachable entries
    are None."""
    table = strip._tables.get((u, precision))
    if table is None:
        levels, n, l = _suffix_trie(strip, u), strip.n, 1 << precision
        laws, nexts = [None] * (1 << n), [None] * (1 << n)
        for j in range(n):
            for prefix in levels[j]:
                w0 = levels[j + 1].get(prefix + (0,), 0.0)
                w1 = levels[j + 1].get(prefix + (1,), 0.0)
                laws[_heap_code(prefix)] = _quantize(w1 / (w0 + w1), l)
        for col in levels[n]:
            nexts[_heap_code(col) - (1 << n)] = strip.index[col]
        table = strip._tables[(u, precision)] = laws, nexts
    return table


def _heap_code(prefix: tuple) -> int:
    node = 1
    for b in prefix:
        node = 2 * node + b
    return node


def conditional_tables(strip: StripModel, u: int) -> dict:
    """Per-node conditional laws q_j(b | prefix) for columns following
    state u; chaining them over a full column reproduces the transition
    row S[u, .] of the entropy-maximizing coder."""
    levels = _suffix_trie(strip, u)
    out = {}
    for j in range(strip.n):
        for prefix, wp in levels[j].items():
            if wp <= 0:
                continue
            out[(j, prefix)] = {
                b: levels[j + 1].get(prefix + (b,), 0.0) / wp
                for b in strip.model.alphabet}
    return out


def first_column_rule(strip: StripModel) -> np.ndarray:
    """Column distribution with a virtual all-zero previous column."""
    return strip.coder.transition[strip.zero_state].copy()


@dataclass
class EncodeResult:
    grid: np.ndarray
    final_state: int
    consumed: int
    padded: int


# A codec is a visiting order plus a walk, run by this one pair of loops.
# The order lists the grid's nodes as flat indices.  The walk is a function
# of a shared list `placed`; it returns a generator that yields the law of
# each node in visiting order and, once resumed, finds that node's symbol
# in placed[t].  The law is the numerator m of the dyadic one-probability
# m/2^R; m = 0 and m = 2^R force a 0 or a 1 and cost no payload.  `_write`
# and `_read` run the binary coder step (`AbsStreamDecoder.draw` and
# `AbsStreamEncoder.absorb`) on every free node.


def _quantize(p: float, l: int) -> int:
    """Law of a node whose one-probability is p: 0 or l when p forces a
    symbol, else the nearest m/l clamped so both symbols stay codable."""
    if p == 0.0:
        return 0
    if p == 1.0:
        return l
    return min(max(round(p * l), 1), l - 1)


def _check_precision(precision: int) -> None:
    if precision < 1:
        raise ValueError("precision must be positive")
    if precision > MAX_PRECISION:
        raise ValueError("precision must be at most %d" % MAX_PRECISION)


def _write(bits: Sequence[int], precision: int, grid: np.ndarray, order,
           walk, partial: bool) -> EncodeResult:
    """Draw every free node of the walk from the payload into the grid."""
    _check_precision(precision)
    dec = AbsStreamDecoder(bits, precision)
    draw, l = dec.draw, dec.l
    placed = []
    place = placed.append
    for m in walk(placed):
        place(draw(m) if 0 < m < l else m >> precision)
    grid.flat[order] = placed
    if not partial and dec.consumed < len(bits):
        raise CapacityExceeded(dec.consumed, len(bits))
    return EncodeResult(grid, dec.x, dec.consumed, dec.padded)


def _read(grid: np.ndarray, order, walk, final_state: int, nbits: int,
          precision: int) -> list:
    """Replay the walk over a written grid and run the coder backwards."""
    _check_precision(precision)
    if nbits < 0:
        raise ConfigMismatch("declared bit count %d is negative" % nbits)
    l = 1 << precision
    if not l <= final_state < 2 * l:
        raise ConfigMismatch("final coder state out of range")
    cols = grid.shape[1]
    vals = grid.flat[order]
    binary = (vals == 0) | (vals == 1)
    # the walk runs only up to the first non-binary node
    n = len(vals) if binary.all() else int(np.argmin(binary))
    placed = vals.tolist()
    laws = list(islice(walk(placed), n))
    bad = n < len(placed)
    enc = AbsStreamEncoder(final_state, precision)
    absorb = enc.absorb
    if not bad:
        for s, m in zip(reversed(placed), reversed(laws)):
            if 0 < m < l:
                absorb(s, m)
            elif s != m >> precision:
                bad = True
                break
    if bad:
        for t, (s, m) in enumerate(zip(placed, laws)):
            if not 0 < m < l and s != m >> precision:
                raise InvalidLattice("forced node disagrees at (%d, %d)"
                                     % divmod(int(order[t]), cols))
        raise InvalidLattice("non-binary value at (%d, %d)"
                             % divmod(int(order[n]), cols))
    out = enc.finish()
    if len(out) < nbits:
        raise CorruptStream("stream holds fewer bits than declared")
    return out[:nbits]


def _check_height(grid: np.ndarray, n: int) -> None:
    if grid.ndim != 2 or grid.shape[0] != n:
        raise ConfigMismatch("grid height does not match the strip width")


class LatticeCodec:
    """Bits-to-lattice coder over a strip model (binary alphabets).

    The walk visits the grid column-major and gives each node the
    entropy-maximizing conditional one-probability, quantized to m/2^R and
    read from the previous column's compiled table.  Encoding draws
    the free nodes from the payload; decoding replays the walk to recover
    every (symbol, m) pair and runs the coder backwards from the stored
    final state.
    """

    def __init__(self, strip: StripModel, precision: int = 16):
        if len(strip.model.alphabet) != 2:
            raise ValueError("the codec draws binary symbols")
        self.strip = strip
        self.precision = precision

    def _walk(self, cols: int, placed: list):
        strip, precision = self.strip, self.precision
        n = strip.n
        leaf = 1 << n
        u = strip.zero_state
        for c in range(0, n * cols, n):
            laws, nexts = _walk_table(strip, u, precision)
            node = 1
            for t in range(c, c + n):
                yield laws[node]
                node = 2 * node + placed[t]
            u = nexts[node - leaf]

    def _order(self, cols: int) -> np.ndarray:
        """Column-major visiting order as flat indices of the grid."""
        return np.arange(self.strip.n * cols).reshape(self.strip.n, cols).T.ravel()

    def encode(self, bits: Sequence[int], cols: int, partial: bool = False) -> EncodeResult:
        grid = np.zeros((self.strip.n, cols), dtype=np.int8)
        return _write(bits, self.precision, grid, self._order(cols),
                      lambda placed: self._walk(cols, placed), partial)

    def decode(self, grid: np.ndarray, final_state: int, nbits: int) -> list:
        strip = self.strip
        grid = np.asarray(grid)
        _check_height(grid, strip.n)
        # each column's state by its binary code, then every column pair
        bit = 1 << np.arange(strip.n - 1, -1, -1, dtype=np.int64)
        codes = np.array(strip.columns, dtype=np.int64) @ bit
        by_code = np.argsort(codes)
        got = bit @ (grid == 1)
        v = by_code[np.searchsorted(codes[by_code], got).clip(max=len(codes) - 1)]
        ok = ((grid == 0) | (grid == 1)).all(axis=0) & (codes[v] == got)
        ok &= strip.graph.weights[np.append(strip.zero_state, v[:-1]), v] != 0
        if not ok.all():
            raise InvalidLattice("column %d breaks the constraints" % np.argmin(ok))
        cols = grid.shape[1]
        return _read(grid, self._order(cols),
                     lambda placed: self._walk(cols, placed), final_state,
                     nbits, self.precision)


def encode_to_text(strip: StripModel, res: EncodeResult, nbits: int,
                   precision: int = 16) -> str:
    """Self-describing encoded-lattice file: config header, then the grid."""
    name = strip.model.name or "custom"
    head = ("strip model=%s n=%d boundary=%s R=%d key=0 x=%d bits=%d"
            % (name, strip.n, strip.boundary, precision, res.final_state, nbits))
    return head + "\n" + lat.save_grid(res.grid)


def parse_encoded(text: str, kind: str = "strip",
                  fields: Sequence[str] = ("model", "n", "boundary", "R", "x",
                                           "bits")):
    """(header fields, grid) of an encoded-lattice file whose first line is
    `kind` followed by key=value tokens that hold every name in `fields`."""
    lines = text.split("\n", 1)
    head = lines[0].split()
    if not head or head[0] != kind or len(lines) < 2:
        raise ConfigMismatch("missing %s header" % kind)
    meta = {}
    for tok in head[1:]:
        if "=" not in tok:
            raise ConfigMismatch("bad header field %r" % tok)
        k, v = tok.split("=", 1)
        meta[k] = v
    for want in fields:
        if want not in meta:
            raise ConfigMismatch("header misses %r" % want)
    grid, _ = lat.load_grid(lines[1])
    return meta, np.atleast_2d(grid)


def decode_text(text: str) -> list:
    meta, grid = parse_encoded(text)
    try:
        model = lat.model_preset(meta["model"])
    except ValueError as e:
        raise ConfigMismatch(str(e))
    n = int(meta["n"])
    # the grid in the file, not the header, decides how large a strip to build
    _check_height(grid, n)
    strip = strip_model(model, n, meta["boundary"])
    codec = LatticeCodec(strip, int(meta["R"]))
    return codec.decode(grid, int(meta["x"]), int(meta["bits"]))


@dataclass
class RateReport:
    rates: list
    mean: float
    stderr: float
    capacity: float
    trials: int
    nodes: int


_strip_cache: dict = {}


def _cached_strip(name: str, n: int, boundary: str) -> StripModel:
    key = (name, n, boundary)
    if key not in _strip_cache:
        _strip_cache[key] = strip_model(lat.model_preset(name), n, boundary)
    return _strip_cache[key]


def _strip_trial_codec(precision, name, n, boundary, cols):
    codec = LatticeCodec(_cached_strip(name, n, boundary), precision)
    # decode already enforces column validity and pair compatibility (which
    # is the vertical-cyclic check); the flat scan double-checks the
    # non-wrapping modes against the base model directly
    model = None if boundary == "cyclic" else codec.strip.model
    return (lambda bits: codec.encode(bits, cols, partial=True),
            lambda res: codec.decode(res.grid, res.final_state, res.consumed),
            model, n * cols)


def _rate_trial(args):
    """Trial t of a codec on random bits: (t, net payload bits per node).

    `make(precision, *params)` builds the codec as (encode, decode, model
    to scan or None, nodes) inside the worker, so only its name travels.
    """
    make, precision, params, seed, t, verify = args
    encode, decode, model, nodes = make(precision, *params)
    rng = SplitMix64(seed).spawn(t)
    bits = (rng.block(nodes + 64) & np.uint64(1)).tolist()  # randbelow(2)
    res = encode(bits)
    if verify:
        if decode(res) != bits[:res.consumed]:
            raise CorruptStream("roundtrip mismatch in rate trial %d" % t)
        if model is not None and lat.scan(res.grid, model):
            raise InvalidLattice("rate trial emitted an invalid grid")
    # the final state is ancillary information: charge precision+1 bits
    return t, (res.consumed - (precision + 1)) / nodes


def _map_trials(fn, args, jobs: int) -> list:
    """fn over args, in `jobs` worker processes when jobs > 1, sorted."""
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return sorted(pool.map(fn, args))
    return sorted(map(fn, args))


def _mean_stderr(x) -> tuple[float, float]:
    """Mean over trials and its ddof=1 standard error (0 for one trial)."""
    err = float(np.std(x, ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0
    return float(np.mean(x)), err


def evaluate_rate(model_name: str, n: int, cols: int, trials: int = 3,
                  boundary: str = "zero", precision: int = 16, seed: int = 0,
                  jobs: int = 1, verify: bool = False) -> RateReport:
    """Realized payload bits per lattice node over randomized trials."""
    strip = _cached_strip(model_name, n, boundary)
    args = [(_strip_trial_codec, precision, (model_name, n, boundary, cols),
             seed, t, verify) for t in range(trials)]
    rates = [r for _, r in _map_trials(_rate_trial, args, jobs)]
    mean, err = _mean_stderr(rates)
    return RateReport(rates, mean, err, strip.capacity, trials, n * cols)
