"""Dominant-eigenpair machinery for constrained channels.

A constraint on sequences over a finite alphabet is represented by a
nonnegative irreducible weight matrix M whose (a, b) entry counts (or
weights) the allowed transitions a -> b.  The capacity of the constraint
is lg of the dominant eigenvalue, and the entropy-maximizing Markov chain
on the graph is built from the dominant left/right eigenvectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class ReducibleGraph(ValueError):
    """Raised when a weight matrix is not strongly connected."""

    def __init__(self, nodes):
        self.nodes = nodes
        super().__init__(
            "graph is reducible; nodes %r are not on a cycle through node 0" % (nodes,)
        )


class NoConvergence(RuntimeError):
    pass


class EmptyModel(ValueError):
    pass


class ForbiddenPath(ValueError):
    pass


def _reached(adj: np.ndarray) -> np.ndarray:
    """Nodes reachable from node 0 along the edges of boolean `adj`."""
    seen = np.zeros(len(adj), dtype=bool)
    seen[0] = True
    frontier = seen
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    return seen


@dataclass(frozen=True)
class WeightedGraph:
    """Nonnegative irreducible weight matrix."""

    weights: np.ndarray

    def __init__(self, weights):
        w = np.array(weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight matrix must be square")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if not np.any(w > 0):
            raise ValueError("weight matrix has no edges")
        # irreducible iff node 0 reaches every node and every node reaches it
        adj = w > 0
        unreached = ~(_reached(adj) & _reached(adj.T))
        if unreached.any():
            raise ReducibleGraph(np.flatnonzero(unreached).tolist())
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return len(self.weights)


def build_from_constraints(allowed) -> WeightedGraph:
    """0/1 graph with an edge a -> b wherever the (n, n) boolean matrix
    `allowed` holds True."""
    return WeightedGraph(allowed)


@dataclass(frozen=True)
class EigenSystem:
    """Dominant eigenvalue with left/right eigenvectors.

    `right` has unit max norm, `left` is scaled so left . right == 1.
    `residual` is the max eigen-equation residual achieved on the
    max-norm-normalized vectors.
    """

    value: float
    left: np.ndarray
    right: np.ndarray
    residual: float
    iterations: int


# residual checks in a row that set no new minimum before the solver
# stops: the iterate has reached its rounding floor
_STALL_CHECKS = 16


def dominant_eigs(graph: WeightedGraph) -> EigenSystem:
    """Power iteration on M and its transpose, run simultaneously.

    Periodic graphs make plain iteration oscillate; that is detected from
    the two-step change and handled by averaging each iterate with its
    predecessor (kills the equal-modulus rotated components).

    The right iterate v and the left iterate u are the rows of one (2, n)
    array Z, so a step normalizes both and measures their change with one
    call each; every entry sees the arithmetic it would see alone.  When
    M is symmetric the two rows stay equal bit for bit, so M^T u is taken
    as a copy of M v and a step makes one product.

    A converged iterate is accepted once its residual is below 10 * tol.
    The residual at the rounding floor grows with lambda, so the solver
    also stops after _STALL_CHECKS checks in a row set no new minimum,
    and returns the iterate with the smallest residual it saw.
    """
    tol, max_iter = 1e-12, 10 ** 6
    M = graph.weights
    MT = None if np.array_equal(M, M.T) else M.T.copy()
    n = graph.size
    Z = Z_prev = np.full((2, n), 1.0 / n)
    v, u = Z
    P = np.empty((2, n))  # rows M @ v and M^T @ u before normalizing
    Mv, MTu = P
    np.matmul(M, v, out=Mv)  # each step's quotient product is the next step's M @ v
    lam = float(u @ Mv / (u @ v))
    averaged = False
    best = (math.inf,)  # smallest residual seen, with its lam, u and psi
    stalled = 0
    it = 0
    while it < max_iter:
        it += 1
        if MT is None:
            MTu[:] = Mv
        else:
            np.matmul(MT, u, out=MTu)
        if averaged:
            P += lam * Z
        s = P.sum(axis=1)
        if s.min() <= 0:
            raise NoConvergence("iterate collapsed to zero")
        Z2 = P / s[:, None]
        v, u = Z2
        np.matmul(M, v, out=Mv)
        lam = float(u @ Mv / (u @ v))
        delta = abs(Z2 - Z).max()
        if delta < tol:
            psi = v / np.max(v)
            res = _residual(M, lam, u, psi)
            if res < best[0]:
                best, stalled = (res, lam, u, psi), 0
            else:
                stalled += 1
            if res < 10 * tol or stalled == _STALL_CHECKS:
                res, lam, u, psi = best
                return EigenSystem(lam, u / float(u @ psi), psi, res, it)
        elif not averaged and it >= 4 and abs(Z2 - Z_prev).max() < 1e-3 * delta:
            # the two-step change is near zero while delta stays large: a
            # period-2 oscillation from equal-modulus eigenvalues
            averaged = True
        Z_prev, Z = Z, Z2
    raise NoConvergence("no convergence after %d iterations" % max_iter)


def _residual(M, lam, phi, psi) -> float:
    p = psi / np.max(np.abs(psi))
    q = phi / np.max(np.abs(phi))
    r1 = float(np.max(np.abs(M @ p - lam * p)))
    r2 = float(np.max(np.abs(q @ M - lam * q)))
    return max(r1, r2)


@dataclass(frozen=True)
class MarkovCoder:
    """Row-stochastic transition matrix with its stationary distribution."""

    transition: np.ndarray
    stationary: np.ndarray
    entropy_bits: float


def merw_coder(graph: WeightedGraph, eigs: EigenSystem) -> MarkovCoder:
    """Entropy-maximizing chain S_ab = M_ab psi_b / (lambda psi_a).

    The row divisor is evaluated as (M psi)_a, which equals lambda psi_a at
    the fixed point but keeps the rows summing to one at machine precision
    instead of at the eigensolver residual.
    """
    M = graph.weights
    psi = eigs.right
    phi = eigs.left
    S = M * psi[None, :] / (M @ psi)[:, None]
    p = phi * psi
    p = p / p.sum()
    return MarkovCoder(S, p, math.log(eigs.value, 2))


def chain_entropy_bits(coder: MarkovCoder) -> float:
    """Entropy rate -sum_a p_a sum_b S_ab lg S_ab of the chain itself."""
    S = coder.transition
    p = coder.stationary
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(S > 0, S * np.log2(np.where(S > 0, S, 1.0)), 0.0)
    return float(-(p @ t.sum(axis=1)))


def path_prob(coder: MarkovCoder, path: Sequence[int]) -> float:
    """Probability of following `path` (node indices) from its first node."""
    S = coder.transition
    for v in path:
        if not 0 <= v < len(S):
            raise ValueError("path node %d outside 0..%d" % (v, len(S) - 1))
    p = 1.0
    for a, b in zip(path[:-1], path[1:]):
        s = S[a, b]
        if s == 0.0:
            raise ForbiddenPath("transition %d -> %d has zero weight" % (a, b))
        p *= s
    return p


def binary_entropy(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def kmodel_graph(k: int) -> WeightedGraph:
    """State machine for the run-length constraint: a 1 is followed by >= k zeros.

    State i > 0 owes i more zeros; state 0 is unconstrained.  Weights count
    symbol choices, so k = 0 gets a doubled self-loop.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    n = k + 1
    w = np.zeros((n, n))
    w[0, 0] = 2.0 if k == 0 else 1.0
    if k > 0:
        w[0, k] = 1.0
        for i in range(1, n):
            w[i, i - 1] = 1.0
    return WeightedGraph(w)


def kmodel_capacity(k: int) -> float:
    """max over q of h(q) / (1 + k q), bits per node, by ternary search:
    the ratio is unimodal in q."""
    if k < 0:
        raise ValueError("k must be >= 0")

    def rate(q):
        return binary_entropy(q) / (1.0 + k * q)

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if rate(m1) < rate(m2):
            lo = m1
        else:
            hi = m2
    return rate(0.5 * (lo + hi))


def kmodel_benefit(k: int) -> int:
    """Percent gain of coding k+1 nodes jointly over one bit per group."""
    return _benefit(k, kmodel_capacity(k))


def _benefit(k: int, capacity: float) -> int:
    return round(100.0 * ((k + 1) * capacity - 1.0))


def load_graph(text: str) -> WeightedGraph:
    """Parse the plain text matrix format: first line n, then n weight rows."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph file")
    try:
        n = int(lines[0].split()[0])
    except ValueError as e:
        raise ValueError("first line must be the matrix size") from e
    if len(lines) < n + 1:
        raise ValueError("expected %d weight rows" % n)
    rows = []
    for ln in lines[1 : n + 1]:
        parts = ln.split()
        if len(parts) != n:
            raise ValueError("expected %d weights per row" % n)
        row = []
        for p in parts:
            x = float(p)
            if not math.isfinite(x):
                raise ValueError("weights must be finite, got %r" % p)
            row.append(x)
        rows.append(row)
    return WeightedGraph(np.array(rows))


def _fmt(x: float) -> str:
    return "%.15g" % x


def report_text(graph: WeightedGraph, eigs: EigenSystem, coder: MarkovCoder) -> str:
    """Flat key-value summary used by the command line tools."""
    lines = [
        "nodes = %d" % graph.size,
        "lambda = %s" % _fmt(eigs.value),
        "entropy_bits = %s" % _fmt(coder.entropy_bits),
        "psi = %s" % " ".join(_fmt(x) for x in eigs.right),
        "phi = %s" % " ".join(_fmt(x) for x in eigs.left),
        "stationary = %s" % " ".join(_fmt(x) for x in coder.stationary),
    ]
    return "\n".join(lines) + "\n"
