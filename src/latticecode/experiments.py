"""Heuristic hard-square writers and the numeric reproduction report.

Two Monte-Carlo lattice writers live here.  The first is a two-pass
checkerboard scheme with a closed-form rate: the even sublattice is
written as independent Bernoulli(q) draws, then every odd node whose four
neighbours are 0 carries one fair payload bit.  It is two runs over the
two checkerboard sublattices (`_sublattice`, strided slices), run by the
same coders as the strip codec (`strip._write` / `strip._absorb`), one
coder call each (`AbsStreamDecoder.run`): the encoder draws the even
nodes, row by row, at the law q gives, then finds the free odd nodes from
those symbols and draws them, row by row, at the fair law, which is one
shift.  An even pass of 2^16 nodes or more at R <= 31 is drawn in K
interleaved lanes (`algorithm1_lanes`); the odd pass goes on from lane 0,
and the file stores all K final states, lane 0 first.  The decoder reads
the laws off the written grid with the same odd-pass rule and absorbs the
two runs back to front (`AbsStreamEncoder.absorb_run`), the odd one
first.  Both codecs quantize with `strip._quantize` and measure their
rates with `strip._measure_rate`, which charges R + 1 bits for each
stored coder state.
The second visits nodes in a random time order and writes a 1 with a
time-dependent probability (a "charging profile"); it is a measurement
device, not a codec.

`reproduce_tables` recomputes every frozen reference value shipped with
the package and reports pass/fail per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import lattice as lat
from .ans import abs_decode_step, abs_run_lanes
from .rng import SplitMix64
from .spectral import (WeightedGraph, _benefit, binary_entropy, dominant_eigs,
                       kmodel_capacity, kmodel_graph)
from .strip import (ConfigMismatch, EncodeResult, RateReport, _absorb,
                    _check_precision, _map_trials, _mean_stderr, _measure_rate,
                    _quantize, _write, strip_capacity)

HARD_SQUARE_ENTROPY = lat.HARD_SQUARE_ENTROPY


# ---------------------------------------------------------------------------
# checkerboard writer


def algorithm1_entropy(q: float) -> float:
    """Closed-form rate of the checkerboard writer, bits per node.

    Half the nodes carry h(q) bits each.  A second-pass node is writable
    only when its four first-pass neighbours are all 0, which happens
    with probability (1-q)^4, and then carries one full bit.
    """
    _check_q(q)
    return 0.5 * binary_entropy(q) + 0.5 * (1.0 - q) ** 4


def _algorithm1_slope(q: float) -> float:
    return 0.5 * math.log2((1.0 - q) / q) - 2.0 * (1.0 - q) ** 3


def algorithm1_optimum(lo: float = 0.0, hi: float = 1.0,
                       tol: float = 1e-14) -> tuple[float, float]:
    """(argmax, max) of the closed-form checkerboard rate over [lo, hi].

    The rate is strictly concave in q, so the maximizer is the root of
    the slope; bisection pins it to machine precision where a pure
    comparison search would wobble at the sqrt(eps) noise floor.
    """
    a = max(lo, 1e-12)
    b = min(hi, 1.0 - 1e-12)
    if _algorithm1_slope(a) <= 0.0:
        return a, algorithm1_entropy(a)
    if _algorithm1_slope(b) >= 0.0:
        return b, algorithm1_entropy(b)
    while b - a > tol:
        mid = 0.5 * (a + b)
        if _algorithm1_slope(mid) > 0.0:
            a = mid
        else:
            b = mid
    x = 0.5 * (a + b)
    return x, algorithm1_entropy(x)


def _dims(dims) -> tuple[int, int]:
    if isinstance(dims, int):
        dims = (dims, dims)
    rows, cols = int(dims[0]), int(dims[1])
    if rows < 1 or cols < 1:
        raise ValueError("dimensions must be positive")
    return rows, cols


def _sublattice(grid: np.ndarray, odd: bool, values=None) -> np.ndarray:
    """The nodes of the odd (or even) checkerboard sublattice of `grid`,
    node (0, 0) even, row by row as one array; with `values`, that array,
    written into the grid instead.  Each pair of rows 2i, 2i+1 is row i of
    a (rows // 2, cols) array, the first row's nodes first, then comes a
    last odd row: strided slices, where a mask gather is about 25 times
    slower."""
    rows, cols = grid.shape
    p, pairs = int(odd), rows // 2
    first = (cols + 1 - p) // 2  # nodes in row 0
    out = np.empty((rows * cols + 1 - p) // 2, grid.dtype) if values is None else values
    both = out[:pairs * cols].reshape(pairs, cols)
    for g, o in ((grid[0:2 * pairs:2, p::2], both[:, :first]),
                 (grid[1:2 * pairs:2, 1 - p::2], both[:, first:]),
                 (grid[2 * pairs:, p::2], out[pairs * cols:].reshape(rows % 2, first))):
        if values is None:
            o[...] = g
        else:
            g[...] = o
    return out


def _sublattice_node(shape, odd: bool, i: int) -> tuple:
    """(row, column) of node i of `_sublattice`."""
    first = (shape[1] + 1 - odd) // 2
    pair, r = divmod(i, shape[1])
    if r < first:
        return 2 * pair, int(odd) + 2 * r
    return 2 * pair + 1, 1 - odd + 2 * (r - first)


def _around(op, pad):
    """op over the four neighbours of each cell inside the border of pad."""
    out = op(pad[:-2, 1:-1], pad[2:, 1:-1])
    op(out, pad[1:-1, :-2], out=out)
    return op(out, pad[1:-1, 2:], out=out)


def _check_q(q: float) -> None:
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")


def _algorithm1_odd_free(grid: np.ndarray) -> np.ndarray:
    """The odd-pass rule: which odd nodes carry one fair bit given the
    even symbols in `grid`, over `_sublattice(grid, True)`.  Those whose
    four neighbours, all even, are 0 (zero boundary: nodes outside the
    grid never block); every other odd node is forced to 0."""
    free = _sublattice(_around(np.logical_or, np.pad(grid == 1, 1)), True)
    return np.logical_not(free, out=free)


def _algorithm1_walk(rows: int, cols: int, q: float, precision: int,
                     dec) -> np.ndarray:
    """The grid of the two-pass writer, drawn by the coder `dec` as two
    runs: the even sublattice at the law of Bernoulli(q) (none when q
    forces the symbol), then the free nodes of the odd-pass rule over
    those symbols at the fair law."""
    _check_q(q)
    l = 1 << precision
    m = _quantize(q, precision)
    grid = np.zeros((rows, cols), dtype=np.int8)
    count = (rows * cols + 1) // 2
    if 0 < m < l:
        _sublattice(grid, False, np.frombuffer(dec.run(m, count), dtype=np.int8))
    else:
        _sublattice(grid, False, np.full(count, m >> precision, dtype=np.int8))
    free = _algorithm1_odd_free(grid)
    odd = np.zeros(len(free), dtype=np.int8)
    odd[free] = np.frombuffer(dec.run(l >> 1, int(np.count_nonzero(free))),
                              dtype=np.int8)
    _sublattice(grid, True, odd)
    return grid


def algorithm1_encode(dims, q: float, bits, precision: int = 16,
                      partial: bool = False) -> EncodeResult:
    """Fill a hard-square lattice with payload bits via the two-pass writer.

    Pass one writes the even checkerboard sublattice as Bernoulli(q)
    draws, with q quantized to m/2^R identically at encode and decode.
    Pass two visits the odd sublattice: a node with all four neighbours 0
    (zero boundary) carries one fair payload bit, anything else is forced
    to 0 and consumes nothing.  Raises CapacityExceeded when the lattice
    cannot absorb every payload bit unless `partial` is set.
    """
    rows, cols = _dims(dims)
    return _write(bits, precision,
                  lambda dec: _algorithm1_walk(rows, cols, q, precision, dec),
                  partial)


def algorithm1_lanes(shape, q: float, precision: int) -> int:
    """K, the lanes of the even pass of a grid of `shape` (`ans.
    abs_run_lanes`): a run of its (rows * cols + 1) // 2 even nodes at q's
    law.  Its file stores K coder states."""
    _check_precision(precision)
    _check_q(q)
    return abs_run_lanes((shape[0] * shape[1] + 1) // 2, _quantize(q, precision),
                         precision)


def algorithm1_decode(grid, q: float, final_state: int, nbits: int,
                      precision: int = 16, lane_states=()) -> bytes:
    """Invert the two-pass writer; exact inverse of `algorithm1_encode`.
    Returns the payload bits, one byte each.  The laws are read off the
    grid: q's for every even node, as one scalar, and the fair law for
    the odd nodes that the odd-pass rule frees, as their mask, the rest
    forced to 0.  The two runs are absorbed odd pass first, each built
    only once the one before is absorbed.  `lane_states` are the final
    states of the even pass's lanes 1..K-1 (`EncodeResult.lane_states`),
    K from the grid (`algorithm1_lanes`); none reads a grid written before
    lanes as one lane, and any other count is refused first."""
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise ConfigMismatch("expected a 2-d grid")
    lanes = algorithm1_lanes(grid.shape, q, precision)
    if len(lane_states) not in (0, lanes - 1):
        raise ConfigMismatch("%d coder states for a grid whose even pass "
                             "codes in %d lanes" % (1 + len(lane_states), lanes))

    def span(odd):
        laws = _quantize(q, precision)
        if odd:
            laws = _algorithm1_odd_free(grid), 1 << (precision - 1)
        return (_sublattice(grid, odd), laws, True,
                lambda i: _sublattice_node(grid.shape, odd, i))

    return _absorb(map(span, (True, False)), final_state, nbits, precision,
                   lane_states)


def _algorithm1_trial_codec(precision, q, side):
    return (lambda bits: algorithm1_encode((side, side), q, bits, precision,
                                           partial=True),
            lambda res: algorithm1_decode(res.grid, q, res.final_state,
                                          res.consumed, precision, res.lane_states),
            lat.hard_square(), side * side)


def algorithm1_rate(q: float, side: int = 256, trials: int = 4, seed: int = 0,
                    precision: int = 16, jobs: int = 1,
                    verify: bool = False) -> RateReport:
    """Measured payload rate of the checkerboard writer on random bits.

    Each stored coder state, one per lane of the even pass
    (`algorithm1_lanes`), is charged as precision+1 bits, so the rate is
    net payload per node.  Trials run on independent seed streams; the
    reduction is deterministic for a fixed seed.
    """
    return _measure_rate(_algorithm1_trial_codec, (q, side), precision, trials,
                         seed, jobs, verify)


# ---------------------------------------------------------------------------
# random-order writer


@dataclass(frozen=True)
class ChargingProfile:
    """Write-probability schedule q(t): a quartic in t, clamped to [0, 1]."""

    coeffs: tuple

    def __post_init__(self):
        c = tuple(float(x) for x in self.coeffs)
        if len(c) > 5 or not all(map(math.isfinite, c)):
            raise ValueError("at most five finite coefficients (degree 4)")
        object.__setattr__(self, "coeffs", c + (0.0,) * (5 - len(c)))

    def __call__(self, t):
        c = self.coeffs
        v = c[0] + t * (c[1] + t * (c[2] + t * (c[3] + t * c[4])))
        return np.clip(v, 0.0, 1.0)

    @classmethod
    def linear(cls, a: float, b: float) -> "ChargingProfile":
        return cls((a, b))


# calibrated so the measured entropy sits just under the hard-square
# constant; see the shipped report for the realized gap
DEFAULT_PROFILE = ChargingProfile.linear(0.2266, 0.2734)


@dataclass(frozen=True)
class ExperimentReport:
    """Named measurements with uncertainties plus the sampled curves."""

    name: str
    scalars: dict
    curves: dict
    samples: dict
    seed: int


def _h_array(p):
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    inside = (p > 0.0) & (p < 1.0)
    pi = p[inside]
    out[inside] = -pi * np.log2(pi) - (1.0 - pi) * np.log2(1.0 - pi)
    return out


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _random_order_visit(t, write, side: int):
    """Stable time order of the nodes, whether each was free (no neighbour
    written 1 before it) and tau, the least time of a written neighbour
    (inf for none).  The written nodes are the greedy maximal independent
    set of the coin-1 nodes in visit order, built in whole-grid rounds
    (Blelloch, Fineman and Shun, SPAA 2012) that each write every undecided
    node ranked before its undecided neighbours and decide its neighbours.
    The order comes from numpy's default (unstable, SIMD) sort, redone
    stably when two times tie, which 53-bit uniforms almost never do: it
    is the stable order either way."""
    n = side * side
    order = np.argsort(t)
    ts = t[order]
    if (ts[1:] == ts[:-1]).any():  # the fast sort may not break ties by index
        order = np.argsort(t, kind="stable")
    del ts  # kept through the rounds, it would raise their peak memory
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.arange(n, dtype=np.int32)
    rank = rank.reshape(side, side)
    pad = np.full((side + 2, side + 2), n, dtype=np.int32)  # n ranks last
    hit = np.zeros((side + 2, side + 2), dtype=bool)
    written = hit[1:-1, 1:-1]
    undecided = write.reshape(side, side).copy()
    while undecided.any():
        pad[1:-1, 1:-1] = np.where(undecided, rank, n)
        written |= undecided & (rank < _around(np.minimum, pad))
        undecided &= ~(written | _around(np.logical_or, hit))
    pad[1:-1, 1:-1] = np.where(written, rank, n)
    low = _around(np.minimum, pad).ravel()
    # rank, not time, decides freedom: an equal-time neighbour visited
    # first blocks.  Times ascend with rank, so tau is a lookup by rank
    return order, rank.ravel() < low, np.append(t[order], math.inf)[low]


def _algo2_trial(args):
    side, coeffs, seed, t_index, bins = args
    profile = ChargingProfile(coeffs)
    rng = SplitMix64(seed).spawn(t_index)
    n = side * side
    t = rng.uniforms(n)
    q = np.asarray(profile(t), dtype=float)
    hq = _h_array(q)
    write = rng.uniforms(n) < q
    order, free, tau = _random_order_visit(t, write, side)
    slot = np.minimum((t * bins).astype(int), bins - 1)
    visits = np.bincount(slot, minlength=bins).astype(float)
    frees = np.bincount(slot[free], minlength=bins).astype(float)
    # a running total in visit order: np.sum's pairwise order would move
    # the last digits of the reported entropy
    h_sum = float(np.cumsum(hq[order[free[order]]])[-1])
    edges = np.linspace(0.0, 1.0, bins + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    a_block = 1.0 - np.searchsorted(np.sort(tau), edges, side="right") / n
    a_visit = np.where(visits > 0, frees / np.maximum(visits, 1.0), 1.0)
    h_visit = float(np.sum(a_visit * _h_array(profile(mids))) / bins)
    h_block = float(_trapezoid(a_block * _h_array(profile(edges)), edges))
    return t_index, h_sum / n, h_visit, h_block, a_block, a_visit, frees.sum() / n


# smallest writer grid side whose edge effects stay negligible
ALGO2_MIN_SIDE = 50


def algorithm2_simulate(side: int, trials: int = 4,
                        profile: ChargingProfile = DEFAULT_PROFILE,
                        seed: int = 0, bins: int = 50,
                        jobs: int = 1) -> ExperimentReport:
    """Measure the entropy of the random-order writer.

    Every node gets an independent uniform timestamp; nodes are visited
    in time order and a still-free node (no neighbour written to 1 yet)
    is set to 1 with probability q(t).

    Three entropy estimates come back.  `entropy_direct` sums h(q(t))
    over the Bernoulli choices the writer actually faced and is the
    authoritative number.  `entropy_integral` integrates h(q(t)) against
    the per-visit availability curve (fraction of nodes free at their
    own visit time, binned by timestamp); it agrees with the direct sum
    up to binning and sampling error.  `entropy_integral_blocking` uses
    the blocking-time curve a(t) = fraction of nodes with no 1-neighbour
    by time t instead; it is biased high because a node that has not yet
    been visited cannot have shielded its neighbours, and is reported as
    the diagnostic for exactly that mismatch.
    """
    if side < ALGO2_MIN_SIDE:
        raise ValueError("side must be at least %d to suppress edge effects"
                         % ALGO2_MIN_SIDE)
    if trials < 1:
        raise ValueError("need at least one trial")
    args = [(side, profile.coeffs, seed, t, bins) for t in range(trials)]
    got = _map_trials(_algo2_trial, args, jobs)
    _, direct, visit, block, curves_block, curves_visit, free = map(
        np.array, zip(*got))

    edges = np.linspace(0.0, 1.0, bins + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    scalars = {
        "entropy_direct": _mean_stderr(direct),
        "entropy_integral": _mean_stderr(visit),
        "entropy_integral_blocking": _mean_stderr(block),
        "entropy_gap": (HARD_SQUARE_ENTROPY - float(np.mean(direct)),
                        _mean_stderr(direct)[1]),
        "free_fraction": _mean_stderr(free),
        "a_at_1": _mean_stderr(curves_block[:, -1]),
        "q_at_0": (float(profile(0.0)), 0.0),
    }
    curves = {
        "q": (tuple(edges), tuple(float(x) for x in profile(edges))),
        "a": (tuple(edges),
              tuple(float(x) for x in curves_block.mean(axis=0))),
        "a_visit": (tuple(mids),
                    tuple(float(x) for x in curves_visit.mean(axis=0))),
    }
    return ExperimentReport(name="random-order writer",
                            scalars=scalars,
                            curves=curves,
                            samples={"trials": trials, "nodes": side * side},
                            seed=seed)


# ---------------------------------------------------------------------------
# reproduction report

KMODEL_BENEFITS = (0, 39, 65, 86, 103, 117, 129, 141, 151, 160, 168, 176, 183)

# decode map for q = 3/10 over states 0..18, cells as (symbol, reduced state)
ABS_Q3_TABLE = ((1, 0), (0, 0), (0, 1), (1, 1), (0, 2), (0, 3), (1, 2),
                (0, 4), (0, 5), (0, 6), (1, 3), (0, 7), (0, 8), (1, 4),
                (0, 9), (0, 10), (1, 5), (0, 11), (0, 12))

ALGORITHM1_GAP = 0.0217


@dataclass(frozen=True)
class TableRow:
    name: str
    computed: str
    reference: str
    tolerance: str
    passed: bool


def _automaton_capacity(k: int) -> float:
    """lg lambda of the k-model automaton M from a certified eigen-solve of
    M^64.  Six squarings, each rescaled to max entry 1 with lg of the
    scale carried, raise the spectral gap to the 64th power, so the power
    iteration converges in a few steps instead of over a hundred."""
    w = kmodel_graph(k).weights
    lg_scale = 0.0
    for _ in range(6):
        w = w @ w
        top = w.max()
        w /= top
        lg_scale = 2.0 * lg_scale + math.log2(top)
    return (math.log2(dominant_eigs(WeightedGraph(w)).value) + lg_scale) / 64


def reproduce_tables() -> tuple[list, bool]:
    """Recompute every frozen reference value and compare row by row.

    Returns (rows, all_passed).  The verdict is honest: a row that does
    not reproduce stays red instead of being patched around.
    """
    rows = []
    caps = [kmodel_capacity(k) for k in range(13)]
    for k, cap in enumerate(caps):
        got = _benefit(k, cap)
        rows.append(TableRow("k-model benefit k=%d" % k, "%d" % got,
                             "%d" % KMODEL_BENEFITS[k], "exact",
                             got == KMODEL_BENEFITS[k]))
    worst = max(abs(cap - _automaton_capacity(k)) for k, cap in enumerate(caps))
    rows.append(TableRow("k-model closed form vs automaton", "%.3e" % worst,
                         "0", "1e-9", worst < 1e-9))
    for x in range(19):
        got = abs_decode_step(x, Fraction(3, 10))
        ref = ABS_Q3_TABLE[x]
        rows.append(TableRow("abs q=0.3 decode x=%d" % x, "%d:%d" % got,
                             "%d:%d" % ref, "exact", got == ref))
    _, best = algorithm1_optimum()
    gap = HARD_SQUARE_ENTROPY - best
    rows.append(TableRow("checkerboard writer entropy gap", "%.6f" % gap,
                         "%.4f" % ALGORITHM1_GAP, "5e-4",
                         abs(gap - ALGORITHM1_GAP) < 5e-4))
    cap = strip_capacity(lat.hard_square(), 12, "cyclic")
    rows.append(TableRow("hard-square entropy, cyclic strip n=12",
                         "%.9f" % cap, "%.16f" % HARD_SQUARE_ENTROPY, "1e-3",
                         abs(cap - HARD_SQUARE_ENTROPY) < 1e-3))
    return rows, all(r.passed for r in rows)
