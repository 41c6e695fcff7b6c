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
quantization, not per-node rounding to whole bits).  The law table holds
each law once, by the rows of the previous column it reads.  Each law
depends only on nodes visited before it, so the decoder, which sees the
whole grid, gathers the laws of a block of columns at a time, last block
first, and runs the coder backwards over their free nodes.

A walk of 8192 columns or more, at R <= 31 and where the zero column may
follow every column, runs in K = min(1024, cols >> 6) interleaved coder
lanes (`LatticeCodec.lanes`; Giesen, arXiv:1402.3392), one numpy step
per row of every lane at once: lane j walks a contiguous stretch of
columns from the zero state, and a zero separator column ends each lane
but the last.  A separator and a stored lane state cost about 5 payload
bits a lane at hard-square width 8, and the file stores the K final
states as x=a,b,..., lane 0 first.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from itertools import repeat, starmap
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import lattice as lat
from . import spectral as spec
from .ans import (ABS_LANE_MAX_PRECISION, MAX_LANES, AbsStreamDecoder,
                  AbsStreamEncoder, CapacityExceeded, CorruptStream,
                  DecodeError, LaneDraws)
from .rng import SplitMix64


class InvalidLattice(DecodeError):
    pass


class ConfigMismatch(DecodeError):
    pass


MAX_STATES = 1 << 14
# states x prefixes (`check_law_size`): hard-square to 17 rows, unconstrained to 12
MAX_LAW_ENTRIES = 1 << 25
# Coder precision R: a float law holds 53 bits, and p * 2^R must stay finite.
MAX_PRECISION = 64
# columns whose states the strip walk lists, and whose laws and symbols the
# decoder gathers and turns into Python lists, at a time: a list of them
# all would hold a distinct int object per free node
COLUMN_BLOCK = 1 << 12
# A walk of cols columns runs in K = min(MAX_LANES, cols >> 6) lanes, about
# 64 columns a lane, one of them its separator, when K is at least
# MIN_LANES (`LatticeCodec.lanes`); a shorter walk, where the lane steps
# save less than they cost, runs as one
LANE_COLUMNS_LOG = 6
MIN_LANES = 128
# nodes whose laws and symbols the lane decoder gathers at a time
LANE_BLOCK = 1 << 13


@dataclass
class StripModel:
    model: lat.LatticeModel
    n: int
    boundary: str
    columns: list
    graph: spec.WeightedGraph
    eigs: spec.EigenSystem
    # the columns' sorted integer codes (`lat._column_levels`)
    codes: np.ndarray = field(repr=False)
    # precision -> the codec's (laws, base, key, child, rank) (`_law_table`)
    _law_tables: dict = field(repr=False, default=None)

    @property
    def capacity(self) -> float:
        """Bits per lattice node."""
        return math.log2(self.eigs.value) / self.n

    @property
    def zero_state(self) -> int:
        """The all-alphabet[0] column: code 0, first in code order."""
        if self.codes[0]:
            raise ValueError("the all-zero column is not valid")
        return 0

    @property
    def degenerate_cyclic(self) -> bool:
        """Width 1 and 2 cyclic strips self-overlap or double adjacency
        constraints; their capacity is not a valid lower bound."""
        return self.boundary == "cyclic" and self.n <= 2


def _strip_levels(model: lat.LatticeModel, n: int, boundary: str) -> list:
    """The column prefix levels of a width-n strip (`lat._column_levels`),
    its last level the states, once the strip is known to be buildable."""
    if model.dimension != 2:
        raise ValueError("strip decomposition needs a 2D model")
    if boundary not in ("zero", "free", "cyclic"):
        raise ValueError("unknown boundary mode %r" % boundary)
    if n < 1:
        raise ValueError("strip width must be positive")
    # the column engine knows cyclic or free: zero is free only while each
    # translate that sticks out of the strip asks a non-0 symbol outside it
    if boundary == "zero" and any(
            {s for (r, _), s in pat if not 0 <= b + r < n} == {model.alphabet[0]}
            for pat in model.forbidden
            for b in range(-1 - max(r for (r, _), _ in pat), n + 1)):
        raise ValueError("no zero boundary where a pattern asks only %r "
                         "outside the strip" % (model.alphabet[0],))
    if len(model.alphabet) ** n > (1 << 24):
        raise lat.TooLarge("column alphabet enumeration too large")
    if lat._column_window(model) > 1:
        raise lat.TooLarge("patterns spanning more than two columns "
                           "need a blocked alphabet")
    return lat._column_levels(model, n, boundary == "cyclic", MAX_STATES)


def check_law_size(model: lat.LatticeModel, n: int, boundary: str) -> list:
    """The strip's levels (`_strip_levels`), once S states by the P
    prefixes of rows 0..n-1 fit MAX_LAW_ENTRIES: the law table holds far
    fewer (`_law_table`), but S * P, at least S^2 / 2 on two symbols, bounds
    the S x S weights of the strip and of the table's row-0 sums.  Counting
    takes milliseconds, the strip seconds and gigabytes."""
    levels = _strip_levels(model, n, boundary)
    S, P = len(levels[n]), sum(len(c) for c in levels[:n])
    if S * P > MAX_LAW_ENTRIES:
        raise lat.TooLarge("a law table of %d states by %d prefixes exceeds "
                           "%d entries" % (S, P, MAX_LAW_ENTRIES))
    return levels


def strip_model(model: lat.LatticeModel, n: int, boundary: str = "zero") -> StripModel:
    codes = _strip_levels(model, n, boundary)[n]
    if not len(codes):
        raise spec.EmptyModel("no valid columns")
    states = lat._column_symbols(model, n, codes)
    graph = spec.build_from_constraints(
        lat.column_compat(model, n, boundary == "cyclic", states, states))
    cols = [tuple(c) for c in states.tolist()]
    return StripModel(model, n, boundary, cols, graph,
                      spec.dominant_eigs(graph), codes, _law_tables={})


def strip_capacity(model: lat.LatticeModel, n: int, boundary: str = "zero") -> float:
    return strip_model(model, n, boundary).capacity


# the last strip only: a width-16 one holds about 96 MB once evaluated
@functools.lru_cache(maxsize=1)
def codec_strip(model: lat.LatticeModel, n: int, boundary: str) -> StripModel:
    """The strip a codec runs on, built once its law table is known to fit
    (`check_law_size`).  The last one is kept with its law tables, so a
    reread, a decode or rate trials after it in one process reuse them."""
    check_law_size(model, n, boundary)
    return strip_model(model, n, boundary)


@dataclass
class EncodeResult:
    grid: np.ndarray
    final_state: int
    consumed: int
    padded: int
    # the final states of lanes 1..K-1 of a run or a strip walk drawn in
    # lanes (`AbsStreamDecoder.lanes`); the file stores them after final_state
    lane_states: tuple = ()


# A codec is a walk plus a law rule, run by this one pair of coders, and
# its rate is measured by `_measure_rate`.  The law of a node is the
# numerator m of its dyadic one-probability m/2^R, quantized by `_quantize`;
# m = 0 and m = 2^R force a 0 or a 1 and cost no payload.  Payload bits
# travel as bytes, one byte of 0 or 1 a bit, from the file to the coder
# and back.  The encoder walks: a walk is a function of the coder that
# returns the grid.  It draws each free node with `AbsStreamDecoder.draw`
# at the law the nodes before it give, or, for a run of nodes whose one
# law is known before the run starts, draws the run with one
# `AbsStreamDecoder.run` call: a run at one law is one coder call, and the
# fair law 2^(R-1) is its shift.  A long run at another law is drawn in
# K interleaved lanes (`ans.abs_run_lanes`), whose K - 1 extra final
# states travel in `EncodeResult.lane_states` to the file and back to
# `_absorb`; each stored state is charged R + 1 bits.  The strip walk
# visits the grid column by column and steps prefix to prefix, reading
# each law by the prefix and the previous column's key (`_law_table`); it
# lists the states of a block of columns and writes the block's rows from
# the states' code bits, so no visiting order is ever built.  A long strip
# walk runs in K interleaved lanes of contiguous columns, each lane after
# the zero state and all but the last ending in a zero separator column
# (`LatticeCodec.lanes`); its steps go through `ans.LaneDraws`, the lane
# step of the laned runs, and back through `AbsStreamEncoder.absorb_lanes`,
# and its K - 1 extra final states travel as a laned run's do.  The
# decoder gathers: a law depends only on nodes visited before it, so the codec
# reads the laws off the written grid and `_absorb` checks the forced
# nodes and absorbs the free ones in exact reverse visiting order, a span
# at a time: each run that the walk drew with one `run` call with one
# `AbsStreamEncoder.absorb_run`, every other free node with
# `AbsStreamEncoder.absorb`.  So the nodes that go through `draw` are
# exactly those that go through `absorb`.  The one-lane strip decoder
# checks every column first, then gathers and absorbs one block of columns
# at a time, last block first: a block's laws need only its own states and
# the state of the column before it.  The checkerboard writer is two runs over the
# grid's two checkerboard sublattices, and its decoder hands
# `_absorb` one span for each.


def _quantize(p, precision: int):
    """Laws of a float or an array of one-probabilities p: 0 or 2^R where p
    forces a symbol, else the nearest m/2^R (half to even) clamped so both
    symbols stay codable; int64 below R = 62, else (and for a float) ints."""
    l = 1 << precision
    a = np.atleast_1d(p)  # a 0-d object array is a bare int: no masks
    f = np.rint(a * l)
    m = f.astype(np.int64) if precision < 62 else np.frompyfunc(int, 1, 1)(f)
    m[f < 1], m[f >= l], m[a == 0], m[a == 1] = 1, l - 1, 0, l
    return m if np.ndim(p) else m.item()


def _check_precision(precision: int) -> None:
    if precision < 1:
        raise ValueError("precision must be positive")
    if precision > MAX_PRECISION:
        raise ValueError("precision must be at most %d" % MAX_PRECISION)


def _law_table(strip: StripModel, precision: int) -> tuple:
    """(laws, base, key, child, rank) of the codec at precision R, cached
    on the strip.  Flat prefix q = off[j] + r is the r-th valid j-row
    column prefix (level j of `lat._column_levels`), and flat prefix
    off[n] + v is state v.  The law of row j after state u under prefix q
    reads u only on the rows that the translates with a right cell at row
    j or below read; key[u, j] numbers u's values there.  laws[base[q] +
    key[u, j]]: that law, int64 while 2^R fits with room, else a Python
    int (0 if no successor of u has q); child[2q + b]: q extended by bit
    b, where valid; rank[v, j]: state v's j-row prefix."""
    if precision in strip._law_tables:
        return strip._law_tables[precision]
    n, codes = strip.n, strip.codes
    levels = check_law_size(strip.model, n, strip.boundary)
    off = np.cumsum([0] + [len(c) for c in levels]).tolist()
    cols = lat._column_symbols(strip.model, n, codes)
    # per translate: its left rows' code bits, last right row and hit states
    sides = [(sum(1 << (n - 1 - r) for r in left), max(right),
              lat._hits(cols, left), lat._hits(cols, right))
             for left, right in lat._column_translates(
                 strip.model, n, strip.boundary == "cyclic") if right]
    laws, base = [], []
    child = np.empty(2 * off[n], dtype=np.intp)
    rank, key = np.empty((2, len(codes), n), dtype=np.intp)
    for j in range(n):
        ext = 2 * levels[j][:, None] + np.arange(3)
        child[2 * off[j]:2 * off[j + 1]] = off[j + 1] + np.searchsorted(
            levels[j + 1], ext[:, :2]).ravel()
        rank[:, j] = off[j] + np.searchsorted(levels[j], codes >> (n - j))
        live = [t for t in sides if t[1] >= j]
        reads = np.bitwise_or.reduce([t[0] for t in live] + [0])
        _, first, key[:, j] = np.unique(codes & reads, return_index=True,
                                        return_inverse=True)
        # W[v, k]: psi of v if v may follow key k's states; C order with two
        # lanes at least, so np.add.reduce down axis 0 adds in state order
        K = len(first)
        ok = np.ones((len(codes), max(K, 2)), dtype=bool)
        for _, _, hit_left, hit_right in live:
            ok[hit_right, :K] &= ~hit_left[first]
        W = strip.eigs.right[:, None] * ok
        cuts = np.searchsorted(codes >> (n - j - 1), ext).tolist()
        w = np.empty((2, len(cuts), W.shape[1]))  # each prefix's bit-0, bit-1 weights
        for i, (a, b, c) in enumerate(cuts):
            np.add.reduce(W[a:b], axis=0, out=w[0, i])
            np.add.reduce(W[b:c], axis=0, out=w[1, i])
        del W  # so that the next level's weights are not built beside it
        tot = w[0] + w[1]
        m = _quantize(np.divide(w[1], tot, out=np.zeros_like(tot), where=tot > 0),
                      precision)
        base.append(sum(map(len, laws)) + K * np.arange(len(cuts)))
        laws.append(m[:, :K].ravel())
    strip._law_tables[precision] = (np.concatenate(laws), np.concatenate(base),
                                    key, child, rank)
    return strip._law_tables[precision]


def _write(bits: Sequence[int], precision: int, walk,
           partial: bool) -> EncodeResult:
    """Draw every free node of the walk from the payload, any 0/1 sequence
    (`ans._bit_bytes`), into the grid that the walk returns."""
    _check_precision(precision)
    dec = AbsStreamDecoder(bits, precision)
    grid = walk(dec)
    if not partial and dec.consumed < len(bits):
        raise CapacityExceeded(dec.consumed, len(bits))
    return EncodeResult(grid, dec.x, dec.consumed, dec.padded, tuple(dec.lanes))


def _absorb_span(enc: AbsStreamEncoder, vals, laws, run: bool, at):
    """One span of `_absorb`, checked and absorbed: its fault, or None."""
    l = enc.l
    ones = vals == 1
    binary = vals == 0
    binary |= ones
    n = len(vals) if binary.all() else int(np.argmin(binary))
    del binary
    if not run:
        f = (laws != 0) & (laws != l)
        wrong = ~f[:n] & (ones[:n] != (laws[:n] == l))
    elif isinstance(laws, tuple):  # a run's free mask and law: the rest are 0
        f, laws = laws
        wrong = ones[:n] > f[:n]  # a 1 where the rule forces a 0
    elif 0 < laws < l:  # a run's one law: no node is forced
        f, wrong = slice(None), ones[:0]
    else:  # or every node is
        f, wrong = slice(0), ones[:n] != (laws == l)
    free = ones[f]
    if not run:
        # deque(map(...), 0) runs the absorb calls without a Python loop
        deque(map(enc.absorb, free[::-1].tolist(), laws[f][::-1].tolist()), 0)
    elif len(free):  # the run's free nodes share one law
        enc.absorb_run(free.tobytes(), int(laws))
    if wrong.any():
        return "forced node disagrees at (%d, %d)" % at(int(np.argmax(wrong)))
    return "non-binary value at (%d, %d)" % at(n) if n < len(vals) else None


def _absorb(spans, final_state: int, nbits: int, precision: int,
            lane_states: Sequence[int] = ()) -> bytes:
    """Check a written grid against its laws and run the coder backwards
    over the free nodes; the payload bits, one byte each.  `spans` covers
    the visiting order back to front, each span as (symbols, laws, run,
    at): its nodes' symbols and laws in visiting order, whether it was
    drawn as one run (its free nodes share one law, were drawn with one
    `run` call, none if it has no free node, and are absorbed with one
    `absorb_run`; otherwise each free node is absorbed by itself), and
    at(i), the (row, column) of its i-th node.  A run gives its laws as
    its one law, or as (free, law): the mask of its free nodes, the rest
    forced to 0, and their law.  Each span is let go before the next is
    taken.  A forced node that disagrees ahead of the first non-binary one
    is reported first; the fault earliest in visiting order is raised once
    every span is read.  `lane_states` are `EncodeResult.lane_states`."""
    enc = _absorber(final_state, nbits, precision, lane_states)
    # starmap drops each span once its call returns
    faults = [f for f in starmap(functools.partial(_absorb_span, enc), spans) if f]
    if faults:
        raise InvalidLattice(faults[-1])
    return _payload(enc, nbits)


def _absorber(final_state: int, nbits: int, precision: int,
              lane_states: Sequence[int]) -> AbsStreamEncoder:
    """The coder that runs backwards from a written grid's final states,
    once they, R and the declared bit count are checked."""
    _check_precision(precision)
    if nbits < 0:
        raise ConfigMismatch("declared bit count %d is negative" % nbits)
    l = 1 << precision
    if not all(l <= x < 2 * l for x in (final_state, *lane_states)):
        raise ConfigMismatch("final coder state out of range")
    return AbsStreamEncoder(final_state, precision, lane_states)


def _payload(enc: AbsStreamEncoder, nbits: int) -> bytes:
    """The first `nbits` payload bits that `enc` absorbed, one byte each."""
    out = enc.finish()
    if len(out) < nbits:
        raise CorruptStream("stream holds fewer bits than declared")
    return out[:nbits]


def _check_height(grid: np.ndarray, n: int) -> None:
    if grid.ndim != 2 or grid.shape[0] != n:
        raise ConfigMismatch("grid height does not match the strip width")


def _code_bits(strip: StripModel) -> np.ndarray:
    """code_bits[j, v]: row j of state v, in int8."""
    n = strip.n
    return ((strip.codes >> np.arange(n - 1, -1, -1)[:, None]) & 1).astype(np.int8)


def _lane_layout(cols: int, lanes: int) -> tuple:
    """(steps, live, starts) of a walk of `cols` columns in K = `lanes`
    lanes: lane j draws the columns from starts[j] on, `steps` of them in
    the first `live` lanes and steps - 1 in the rest, and the column after
    those of lanes 0..K-2 is a separator, the zero column, drawn by none."""
    drawn = cols - (lanes - 1)
    steps = -(-drawn // lanes)
    live = drawn - (steps - 1) * lanes
    width = np.full(lanes, steps + 1, dtype=np.intp)
    width[live:] -= 1
    starts = np.zeros(lanes, dtype=np.intp)
    np.cumsum(width[:-1], out=starts[1:])
    return steps, live, starts


class LatticeCodec:
    """Bits-to-lattice coder over a strip model (binary alphabets).

    The walk visits the grid column-major and gives each node the
    entropy-maximizing conditional one-probability, quantized to m/2^R and
    read from the strip's law table (`_law_table`) by the new column's
    prefix and the previous column's key.  Encoding draws the free nodes from
    the payload and writes the grid a block of columns at a time; decoding
    checks every column, then gathers a block of columns' laws from that
    table at a time, last block first, and runs the coder backwards over
    it from the stored final state.

    A long walk runs in K interleaved lanes (`lanes`; `ans.LaneDraws`):
    lane j draws a contiguous stretch of columns, from the zero state as
    column 0 does, and lanes 0..K-2 end in a separator, the zero column,
    which costs no payload and lets the next lane start from the zero
    state.  The lanes step in lockstep, one node of every lane at a time;
    the file stores all K final states (`EncodeResult.lane_states`), and
    the decoder gathers the laws of a block of steps of every lane at a
    time, last block first, and absorbs them lane by lane
    (`AbsStreamEncoder.absorb_lanes`).
    """

    def __init__(self, strip: StripModel, precision: int = 16):
        if len(strip.model.alphabet) != 2:
            raise ValueError("the codec draws binary symbols")
        self.strip = strip
        self.precision = precision

    def lanes(self, cols: int) -> int:
        """K, the lanes of a walk of `cols` columns: min(MAX_LANES, cols >>
        6) when that is at least MIN_LANES, R <= 31 and the zero column may
        follow every state, so that it can end a lane; else 1."""
        k = min(MAX_LANES, cols >> LANE_COLUMNS_LOG)
        strip = self.strip
        if (k < MIN_LANES or self.precision > ABS_LANE_MAX_PRECISION
                or strip.codes[0] or not strip.graph.weights[:, 0].all()):
            return 1
        return k

    def _walk(self, cols: int, dec) -> np.ndarray:
        """The grid of `cols` columns, each free node drawn by the coder
        `dec` at its law.  The walk steps prefix to prefix by the previous
        state's keys and keeps each column's state; it lists COLUMN_BLOCK
        states at a time and writes their columns from their code bits.  A
        walk of K > 1 lanes runs in `_walk_lanes`."""
        lanes = self.lanes(cols)
        if lanes > 1:
            return self._walk_lanes(cols, dec, lanes)
        strip, R = self.strip, self.precision
        laws, base, key, child, _ = _law_table(strip, R)
        P = len(base)  # state v is flat prefix P + v
        draw, l = dec.draw, 1 << R
        child = child.tolist()
        kids = list(zip(child[0::2], child[1::2]))
        row = [r.tolist() for r in np.split(laws, base[1:])]  # row[q][k]
        keys = key.tolist()  # keys[u][j]: state u's key at row j
        code_bits = _code_bits(strip)
        grid = np.empty((strip.n, cols), dtype=np.int8)
        u = strip.zero_state
        for a in range(0, cols, COLUMN_BLOCK):
            states = []
            put = states.append
            for _ in repeat(None, min(COLUMN_BLOCK, cols - a)):
                q = 0
                for k in keys[u]:
                    m = row[q][k]
                    q = kids[q][draw(m) if 0 < m < l else m >> R]
                u = q - P
                put(u)
            grid[:, a:a + len(states)] = code_bits[:, states]
        return grid

    def _walk_lanes(self, cols: int, dec, lanes: int) -> np.ndarray:
        """`_walk` in K = `lanes` lanes (`_lane_layout`): each row of a
        column step gathers the live lanes' laws by their prefixes and the
        keys of their previous states and draws them as one lane step
        (`ans.LaneDraws`); the columns are written from their states once
        the walk is done, the separators left at the zero state."""
        strip, R = self.strip, self.precision
        laws, base, key, child, _ = _law_table(strip, R)
        P = len(base)
        steps, live, starts = _lane_layout(cols, lanes)
        keys = np.ascontiguousarray(key.T)  # keys[j, u]
        states = np.full(cols, strip.zero_state, dtype=np.uint16)
        u = np.full(lanes, strip.zero_state, dtype=np.intp)
        s = np.empty(lanes, dtype=bool)
        draws = LaneDraws(dec, lanes)
        for c in range(steps):
            k = lanes if c < steps - 1 else live
            ku, sk = keys[:, u[:k]], s[:k]
            q = np.zeros(k, dtype=np.intp)
            for kj in ku:
                draws.step(laws[base[q] + kj], sk)
                q = child[2 * q + sk]
            u[:k] = q - P
            states[starts[:k] + c] = u[:k]
        draws.close()
        code_bits = _code_bits(strip)
        grid = np.empty((strip.n, cols), dtype=np.int8)
        for a in range(0, cols, COLUMN_BLOCK):
            grid[:, a:a + COLUMN_BLOCK] = code_bits[:, states[a:a + COLUMN_BLOCK]]
        return grid

    def encode(self, bits: Sequence[int], cols: int, partial: bool = False) -> EncodeResult:
        return _write(bits, self.precision, lambda dec: self._walk(cols, dec),
                      partial)

    def _states(self, grid: np.ndarray) -> np.ndarray:
        """Each column's state, once every column is checked: binary, a
        valid column, and a successor of the column before it.  The states
        are found row by row, COLUMN_BLOCK columns at a time."""
        strip = self.strip
        n, codes = strip.n, strip.codes
        _check_height(grid, n)
        states = np.empty(grid.shape[1], dtype=np.uint16)  # < MAX_STATES
        u = strip.zero_state
        for a in range(0, grid.shape[1], COLUMN_BLOCK):
            block = grid[:, a:a + COLUMN_BLOCK]
            got = np.zeros(block.shape[1], dtype=codes.dtype)
            ok = np.ones(block.shape[1], dtype=bool)
            for row in block:
                got <<= 1
                got |= row == 1
                ok &= (row == 0) | (row == 1)
            v = np.searchsorted(codes, got).clip(max=len(codes) - 1)
            ok &= codes[v] == got
            ok &= strip.graph.weights[np.append(u, v[:-1]), v] != 0
            if not ok.all():
                raise InvalidLattice("column %d breaks the constraints"
                                     % (a + np.argmin(ok)))
            states[a:a + len(v)] = v
            u = v[-1]
        return states

    def _laws(self, grid: np.ndarray):
        """The laws of each block of COLUMN_BLOCK columns in visiting
        order, last block first, as (first column, laws): each gathered
        by its states' prefixes and the keys of the state before each,
        once every column is checked (`_states`)."""
        states = self._states(grid)
        _check_precision(self.precision)
        laws, base, key, _, rank = _law_table(self.strip, self.precision)
        zero = np.array([self.strip.zero_state], dtype=np.intp)

        def blocks():
            for a in range(0, len(states), COLUMN_BLOCK)[::-1]:
                v = states[a:a + COLUMN_BLOCK].astype(np.intp)
                u = np.append(states[a - 1] if a else zero, v[:-1])
                yield a, laws[base[rank[v]] + key[u]].ravel()

        return blocks()

    def decode(self, grid: np.ndarray, final_state: int, nbits: int,
               lane_states: Sequence[int] = ()) -> bytes:
        """The payload bits, one byte each, of a written grid, its final
        state and its declared bit count.  `lane_states` are the final
        states of lanes 1..K-1 (`EncodeResult.lane_states`), K from the
        grid (`lanes`); none reads a grid written before lanes as one lane,
        and any other count is refused first."""
        grid = np.asarray(grid)
        n = self.strip.n
        _check_height(grid, n)
        lanes = self.lanes(grid.shape[1])
        if len(lane_states) not in (0, lanes - 1):
            raise ConfigMismatch("%d coder states for a grid that codes in %d "
                                 "lanes" % (1 + len(lane_states), lanes))
        if lane_states:
            return self._decode_lanes(grid, final_state, nbits, lane_states)
        spans = ((grid[:, a:a + len(m) // n].T.ravel(), m, False,
                  lambda i, a=a: (i % n, a + i // n))
                 for a, m in self._laws(grid))
        return _absorb(spans, final_state, nbits, self.precision)

    def _decode_lanes(self, grid: np.ndarray, final_state: int, nbits: int,
                      lane_states: Sequence[int]) -> bytes:
        """`decode` of a walk drawn in K = len(lane_states) + 1 lanes: every
        column is checked (`_states`), then the states, then every
        separator, before any lane array is built; then the steps
        of every lane are gathered and absorbed back to front, LANE_BLOCK
        nodes at a time.  A forced node that disagrees, which a checked
        grid meets only if the table forces a 0 under a valid column, is
        refused where it is found."""
        states = self._states(grid)
        strip, R = self.strip, self.precision
        enc = _absorber(final_state, nbits, R, lane_states)
        n, cols = grid.shape
        lanes = len(lane_states) + 1
        steps, live, starts = _lane_layout(cols, lanes)
        sep = starts[1:] - 1
        bad = np.flatnonzero(states[sep] != strip.zero_state)
        if len(bad):
            c = int(sep[bad[0]])
            raise InvalidLattice("separator column holds a 1 at (%d, %d)"
                                 % (int(np.argmax(grid[:, c] != 0)), c))
        laws, base, key, _, rank = _law_table(strip, R)
        l = 1 << R
        per = max(1, LANE_BLOCK // (lanes * n))  # column steps a block

        def blocks():
            for end in range(steps, 0, -per):
                start = max(end - per, 0)
                # (column step, lane) -> column; at the last step the short
                # lanes' columns are their separators (the last lane's, the
                # last column), checked but never absorbed
                col = starts + np.arange(start, end)[:, None]
                np.minimum(col, cols - 1, out=col)
                v = states[col]
                u = np.where(col > 0, states[col - 1], strip.zero_state)
                # rows (step, row), columns lanes
                m = laws[base[rank[v]] + key[u]].transpose(0, 2, 1).reshape(-1, lanes)
                s = (grid[:, col] == 1).transpose(1, 0, 2).reshape(-1, lanes)
                counts = [lanes] * len(s)
                if end == steps:
                    counts[-n:] = [live] * n
                wrong = np.where(s, m == 0, m == l)
                if wrong.any():
                    t, j = divmod(int(np.argmax(wrong)), lanes)
                    raise InvalidLattice("forced node disagrees at (%d, %d)"
                                         % (t % n, starts[j] + start + t // n))
                yield s, m, counts

        enc.absorb_lanes(blocks(), lanes)
        return _payload(enc, nbits)


def format_encoded(kind: str, grid, **fields) -> bytearray:
    """The bytes of an encoded-lattice file, in one buffer: a header line
    of `kind` and each of `fields`, in order, as name=value, then the grid;
    `parse_encoded` reads it back."""
    head = " ".join([kind] + ["%s=%s" % f for f in fields.items()])
    return lat.save_grid(grid, head=head.encode() + b"\n")


def encode_to_text(strip: StripModel, res: EncodeResult, nbits: int,
                   precision: int = 16) -> bytearray:
    """Self-describing encoded-lattice file: config header, then the grid.
    x= lists the K final lane states, lane 0 first: one when K = 1."""
    states = (res.final_state,) + res.lane_states
    return format_encoded("strip", res.grid, model=strip.model.name or "custom",
                          n=strip.n, boundary=strip.boundary, R=precision,
                          key=0, x=",".join(map(str, states)), bits=nbits)


def parse_encoded(data: bytes, kind: str = "strip",
                  fields: Sequence[str] = ("model", "n", "boundary", "R", "x",
                                           "bits")):
    """(header fields, grid) of the bytes of an encoded-lattice file whose
    first line is `kind` followed by key=value tokens that hold every name
    in `fields`."""
    nl = data.find(b"\n")
    head = data[:max(nl, 0)].decode("latin-1").split()
    if nl < 0 or not head or head[0] != kind:
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
    grid, _ = lat.load_grid(data[nl + 1:])
    return meta, np.atleast_2d(grid)


def header_ints(meta: dict, name: str, *counts: int) -> list:
    """The comma-separated integers of header field `name`, one of
    `counts` (default 1) of them, each ASCII digits after an optional '-',
    as '%d' writes them.  Another count is refused before any item is
    read, and so is any other item (a '+', an '_' or a non-ASCII digit,
    all of which int() takes)."""
    text, counts = meta[name], counts or (1,)
    if text.count(",") + 1 not in counts:
        raise ConfigMismatch("header field %s holds %d values, not %s"
                             % (name, text.count(",") + 1,
                                " or ".join(map(str, sorted(set(counts))))))
    out = []
    for item in text.split(","):
        digits = item[1:] if item[:1] == "-" else item
        if not (digits.isascii() and digits.isdigit()):
            raise ConfigMismatch("header field %s holds %r, not a decimal "
                                 "integer" % (name, item))
        out.append(int(item))
    return out


def decode_text(data: bytes) -> bytes:
    """Payload bits, one byte each, of the bytes of an encoded-lattice file,
    decoded with the strip its header names (`codec_strip`).  Its x= lists
    the K final lane states, K from the grid and R (`LatticeCodec.lanes`),
    or one state, as files were written before lanes; a list of another
    length is refused unread."""
    meta, grid = parse_encoded(data)
    try:
        model = lat.model_preset(meta["model"])
    except ValueError as e:
        raise ConfigMismatch(str(e))
    (n,), (R,), (nbits,) = map(functools.partial(header_ints, meta),
                               ("n", "R", "bits"))
    # the grid in the file, not the header, decides how large a strip to
    # build, and its law table is sized before the strip is
    _check_height(grid, n)
    codec = LatticeCodec(codec_strip(model, n, meta["boundary"]), R)
    x = header_ints(meta, "x", 1, codec.lanes(grid.shape[1]))
    return codec.decode(grid, x[0], nbits, x[1:])


@dataclass
class RateReport:
    rates: list
    mean: float
    stderr: float


def _strip_trial_codec(precision, name, n, boundary, cols):
    codec = LatticeCodec(codec_strip(lat.model_preset(name), n, boundary),
                         precision)
    # decode already enforces column validity and pair compatibility (which
    # is the vertical-cyclic check); the flat scan double-checks the
    # non-wrapping modes against the base model directly
    model = None if boundary == "cyclic" else codec.strip.model
    return (lambda bits: codec.encode(bits, cols, partial=True),
            lambda res: codec.decode(res.grid, res.final_state, res.consumed,
                                     res.lane_states),
            model, n * cols)


def _rate_trial(args):
    """Trial t of a codec on random bits: (t, net payload bits per node).

    `make(precision, *params)` builds the codec as (encode, decode, model
    to scan or None, nodes) inside the worker, so only its name travels.
    """
    make, precision, params, seed, t, verify = args
    encode, decode, model, nodes = make(precision, *params)
    rng = SplitMix64(seed).spawn(t)
    bits = (rng.block(nodes + 64) & np.uint64(1)).astype(np.uint8).tobytes()  # randbelow(2)
    res = encode(bits)
    if verify:
        if decode(res) != bits[:res.consumed]:
            raise CorruptStream("roundtrip mismatch in rate trial %d" % t)
        if model is not None and lat.scan(res.grid, model):
            raise InvalidLattice("rate trial emitted an invalid grid")
    # each stored coder state is ancillary information: charge precision+1
    # bits for it
    stored = 1 + len(res.lane_states)
    return t, (res.consumed - stored * (precision + 1)) / nodes


def _map_trials(fn, args, jobs: int) -> list:
    """fn over args, sorted; with jobs > 1, in a process pool of at most one
    worker per arg and per CPU this process may run on, since the pool
    starts every worker at once."""
    jobs = min(jobs, len(args), len(os.sched_getaffinity(0)))
    if jobs > 1:
        # imported here: it pulls in multiprocessing, which only jobs > 1 needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return sorted(pool.map(fn, args))
    return sorted(map(fn, args))


def _mean_stderr(x) -> tuple[float, float]:
    """Mean over trials and its ddof=1 standard error (0 for one trial)."""
    err = float(np.std(x, ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0
    return float(np.mean(x)), err


def _measure_rate(make, params, precision: int, trials: int, seed: int,
                  jobs: int, verify: bool) -> RateReport:
    """The net rates of `trials` trials of the codec that `make` builds
    (`_rate_trial`), in trial order, with their mean and standard error."""
    args = [(make, precision, params, seed, t, verify) for t in range(trials)]
    rates = [r for _, r in _map_trials(_rate_trial, args, jobs)]
    return RateReport(rates, *_mean_stderr(rates))


def evaluate_rate(model_name: str, n: int, cols: int, trials: int = 3,
                  boundary: str = "zero", precision: int = 16, seed: int = 0,
                  jobs: int = 1, verify: bool = False) -> RateReport:
    """Realized payload bits per lattice node over randomized trials."""
    return _measure_rate(_strip_trial_codec, (model_name, n, boundary, cols),
                         precision, trials, seed, jobs, verify)
