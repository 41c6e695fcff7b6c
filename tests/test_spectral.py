import math
from itertools import product

import numpy as np
import pytest

from latticecode import lattice as L
from latticecode import spectral as sp
from latticecode.rng import SplitMix64
from latticecode.spectral import EigenSystem, WeightedGraph

GOLDEN = (1 + 5 ** 0.5) / 2


# Test reference: the chain's stationary pair law, from the eigenpair alone.
def pair_probs(graph: WeightedGraph, eigs: EigenSystem) -> np.ndarray:
    """Stationary edge probabilities p_ab = phi_a M_ab psi_b / (lambda phi.psi)."""
    phi, psi = eigs.left, eigs.right
    P = phi[:, None] * graph.weights * psi[None, :]
    return P / (eigs.value * float(phi @ psi))


def brute_growth(allowed_pair, length, alphabet=(0, 1)):
    """Count strings with every adjacent pair allowed; independent oracle."""
    counts = {a: 1 for a in alphabet}
    for _ in range(length - 1):
        nxt = {a: 0 for a in alphabet}
        for a, c in counts.items():
            for b in alphabet:
                if allowed_pair(a, b):
                    nxt[b] += c
        counts = nxt
    return sum(counts.values())


def fib_graph():
    return sp.build_from_constraints(np.array([[True, True], [True, False]]))


def test_fibonacci_eigensystem():
    g = fib_graph()
    e = sp.dominant_eigs(g)
    assert abs(e.value - GOLDEN) < 1e-12
    # brute-force growth rate agrees
    n40 = brute_growth(lambda a, b: not (a == 1 and b == 1), 40)
    n41 = brute_growth(lambda a, b: not (a == 1 and b == 1), 41)
    assert abs(n41 / n40 - e.value) < 1e-6
    # psi proportional to (phi, 1)
    assert abs(e.right[0] / e.right[1] - GOLDEN) < 1e-10


def test_fibonacci_coder_closed_form():
    g = fib_graph()
    e = sp.dominant_eigs(g)
    c = sp.merw_coder(g, e)
    S = c.transition
    assert abs(S[0, 0] - 1 / GOLDEN) < 1e-12
    assert abs(S[0, 1] - 1 / GOLDEN ** 2) < 1e-12
    assert abs(S[1, 0] - 1.0) < 1e-12
    assert S[1, 1] == 0.0
    # stationary distribution proportional to (phi^2, 1)
    assert abs(c.stationary[0] / c.stationary[1] - GOLDEN ** 2) < 1e-10
    assert abs(c.entropy_bits - math.log2(GOLDEN)) < 1e-12


def test_alternating_chain_zero_capacity():
    g = sp.WeightedGraph([[0, 1], [1, 0]])
    e = sp.dominant_eigs(g)
    assert abs(e.value - 1.0) < 1e-12
    # oracle: N_k is constant 2, so lg N_k / k -> 0
    for k in (10, 20):
        assert brute_growth(lambda a, b: a != b, k) == 2


def test_weighted_periodic_graph():
    # period-2 structure with unequal weights; plain iteration oscillates
    g = sp.WeightedGraph([[0, 2], [8, 0]])
    e = sp.dominant_eigs(g)
    assert abs(e.value - 4.0) < 1e-10
    assert abs(e.right[1] / e.right[0] - 2.0) < 1e-8


def test_reducible_rejected_and_decomposed():
    w = [[1, 1, 0], [0, 1, 0], [0, 1, 1]]
    with pytest.raises(sp.ReducibleGraph):
        sp.WeightedGraph(w)


def test_all_zero_rejected():
    with pytest.raises(ValueError):
        sp.WeightedGraph(np.zeros((2, 2)))


def test_build_from_constraints_rejects_dead_symbol():
    # symbol 1 allows nothing incoming: reducible
    with pytest.raises(sp.ReducibleGraph):
        sp.build_from_constraints(np.array([[True, False], [True, False]]))


def test_reducible_exactly_when_oracle_says_so():
    # oracle: A is irreducible iff (I + A)^(n-1) has no zero entry
    rng = np.random.default_rng(77)
    seen = {True: 0, False: 0}
    for n in range(1, 13):
        for density in (0.1, 0.25, 0.5):
            for _ in range(10):
                a = (rng.random((n, n)) < density).astype(np.int64)
                if not a.any():
                    continue
                reach = np.linalg.matrix_power(np.eye(n, dtype=np.int64) + a,
                                               n - 1)
                reducible = bool((reach == 0).any())
                seen[reducible] += 1
                try:
                    sp.WeightedGraph(a)
                except sp.ReducibleGraph as e:
                    assert reducible, (n, a)
                    # the named nodes are those off every cycle through 0
                    cut = ~((reach[0] > 0) & (reach[:, 0] > 0))
                    assert e.nodes == np.flatnonzero(cut).tolist()
                else:
                    assert not reducible, (n, a)
    assert min(seen.values()) >= 50


def test_window_graph_no111():
    g = sp.build_from_constraints(L.window_graph(L.no111()))
    assert g.size == 4
    e = sp.dominant_eigs(g)
    # oracle: tribonacci growth x^3 = x^2 + x + 1
    root = np.roots([1, -1, -1, -1])
    lam = max(r.real for r in root if abs(r.imag) < 1e-12)
    assert abs(e.value - lam) < 1e-10
    assert abs(math.log2(e.value) - 0.8791) < 1e-4


def test_window_graph_matches_direct_kmodel():
    k = 2
    blocked = sp.build_from_constraints(L.window_graph(L.kmodel(k)))
    assert blocked.size == 3
    direct = sp.kmodel_graph(k)
    lb = sp.dominant_eigs(blocked).value
    ld = sp.dominant_eigs(direct).value
    assert abs(lb - ld) < 1e-10


def test_window_graph_empty_model():
    model = L.LatticeModel(1, (0, 1), [{(0,): 0}, {(0,): 1}])
    with pytest.raises(sp.EmptyModel):
        L.window_graph(model)


def brute_window_graph(model):
    """Window graph by itertools.product, a scan per window and trimming
    of windows with no live predecessor or successor."""
    l = max(1, model.constraint_range)

    def ok(w):
        return not L.scan(np.array(w, dtype=int), model)

    nodes = [w for w in product(model.alphabet, repeat=l) if ok(w)]
    adj = np.array([[v[1:] == w[:-1] and ok(v + w[-1:]) for w in nodes]
                    for v in nodes], dtype=bool)
    alive = list(range(len(nodes)))
    while True:
        keep = [i for i in alive
                if any(adj[j, i] for j in alive) and any(adj[i, j] for j in alive)]
        if keep == alive:
            return adj[np.ix_(alive, alive)], len(nodes)
        alive = keep


def test_window_graph_matches_brute_force():
    M = L.LatticeModel
    models = [L.no111(), L.unconstrained(1)] + [L.kmodel(k) for k in range(1, 7)]
    models += [
        M(1, (0, 1, 2), [{(0,): 0, (1,): 1, (2,): 2}, {(0,): 1, (2,): 0},
                         {(0,): 2, (1,): 2}]),
        # no window may end in 2 after another symbol: 2 is transient
        M(1, (0, 1, 2), [{(0,): s, (1,): 2} for s in (0, 1, 2)]),
    ]
    trimmed = 0
    for model in models:
        want, windows = brute_window_graph(model)
        got = L.window_graph(model)
        assert got.dtype == bool and np.array_equal(got, want), model.name
        trimmed += len(want) < windows
    assert trimmed == 1
    # forbidding 10 leaves 0 -> 1 one way only
    with pytest.raises(sp.ReducibleGraph):
        sp.build_from_constraints(L.window_graph(M(1, (0, 1), [{(0,): 1, (1,): 0}])))


def test_kmodel_capacity_closed_forms():
    assert abs(sp.kmodel_capacity(0) - 1.0) < 1e-12
    assert abs(sp.kmodel_capacity(1) - math.log2(GOLDEN)) < 1e-11
    # real root of x^3 = x^2 + 1
    root = max(r.real for r in np.roots([1, -1, 0, -1]) if abs(r.imag) < 1e-12)
    assert abs(sp.kmodel_capacity(2) - math.log2(root)) < 1e-11


def test_kmodel_capacity_matches_automaton():
    for k in range(0, 13):
        cap = sp.kmodel_capacity(k)
        lam = sp.dominant_eigs(sp.kmodel_graph(k)).value
        assert abs(cap - math.log2(lam)) < 1e-9


def test_kmodel_capacity_monotone():
    caps = [sp.kmodel_capacity(k) for k in range(9)]
    assert all(a > b for a, b in zip(caps, caps[1:]))
    # group rate (k+1)*capacity grows with k
    rates = [(k + 1) * c for k, c in enumerate(caps)]
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_kmodel_benefit_values():
    assert sp.kmodel_benefit(1) == 39
    assert sp.kmodel_benefit(4) == 103


def random_irreducible_graph(rng, n):
    """Random 0/1 digraph, forced irreducible by a random Hamiltonian cycle."""
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


def all_paths(weights, length):
    n = len(weights)
    paths = [[a] for a in range(n)]
    for _ in range(length):
        nxt = []
        for p in paths:
            for b in range(n):
                if weights[p[-1], b] > 0:
                    nxt.append(p + [b])
        paths = nxt
    return paths


def test_merw_identities_random_graphs():
    rng = SplitMix64(2024)
    checked = 0
    for trial in range(24):
        n = 2 + rng.randbelow(11)
        g = random_irreducible_graph(rng, n)
        e = sp.dominant_eigs(g)
        c = sp.merw_coder(g, e)
        S, p = c.transition, c.stationary
        assert np.max(np.abs(S.sum(axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(p @ S - p)) < 1e-10
        assert abs(c.entropy_bits - sp.chain_entropy_bits(c)) < 1e-9
        # pair probabilities consistent both ways
        P = pair_probs(g, e)
        assert abs(P.sum() - 1.0) < 1e-10
        assert np.max(np.abs(P - p[:, None] * S)) < 1e-12
        checked += 1
    assert checked >= 20


def test_fibonacci_digram_frequencies():
    # pair probabilities against a simulated walk, each cell within 3 sigma
    g = fib_graph()
    e = sp.dominant_eigs(g)
    c = sp.merw_coder(g, e)
    P = pair_probs(g, e)
    rng = SplitMix64(5150)
    n = 1_000_000
    state = 0
    counts = np.zeros((2, 2))
    for _ in range(n):
        nxt = 0 if rng.uniform() < c.transition[state, 0] else 1
        counts[state, nxt] += 1
        state = nxt
    for a in range(2):
        for b in range(2):
            p = P[a, b]
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(counts[a, b] / n - p) < 3 * sigma
    assert counts[1, 1] == 0


def test_path_probability_uniformity():
    # all equal-length paths between fixed endpoints are equally likely
    rng = SplitMix64(7)
    for trial in range(6):
        n = 3 + rng.randbelow(4)
        g = random_irreducible_graph(rng, n)
        e = sp.dominant_eigs(g)
        c = sp.merw_coder(g, e)
        k = 5
        lam = e.value
        psi = e.right
        for path in all_paths(g.weights, k)[:400]:
            pr = sp.path_prob(c, path)
            expect = lam ** (-k) * psi[path[-1]] / psi[path[0]]
            assert abs(pr - expect) < 1e-12


def test_forbidden_path():
    g = fib_graph()
    c = sp.merw_coder(g, sp.dominant_eigs(g))
    with pytest.raises(sp.ForbiddenPath):
        sp.path_prob(c, [1, 1])


def test_load_graph_roundtrip_and_errors():
    g = sp.load_graph("2\n0 1\n1 0\n")
    assert g.size == 2
    with pytest.raises(ValueError):
        sp.load_graph("2\n0 inf\n1 0\n")
    with pytest.raises(ValueError):
        sp.load_graph("")
    with pytest.raises(ValueError):
        sp.load_graph("2\n0 1\n")


def test_report_text_format():
    g = fib_graph()
    e = sp.dominant_eigs(g)
    c = sp.merw_coder(g, e)
    out = sp.report_text(g, e, c)
    lines = dict(ln.split(" = ", 1) for ln in out.strip().splitlines())
    assert float(lines["lambda"]) == pytest.approx(GOLDEN, abs=1e-12)
    assert float(lines["entropy_bits"]) == pytest.approx(math.log2(GOLDEN), abs=1e-12)
    assert len(lines["stationary"].split()) == 2


def test_eigen_residual_invariant():
    for mat in ([[1, 1], [1, 0]], [[0, 2], [8, 0]], [[1, 2, 0], [0, 1, 3], [4, 0, 1]]):
        g = sp.WeightedGraph(mat)
        e = sp.dominant_eigs(g)
        assert e.residual < 1e-11
        assert np.all(e.right > 0) and np.all(e.left > 0)
        assert abs(float(e.left @ e.right) - 1.0) < 1e-12


def reference_residual(M, lam, phi, psi):
    """Both eigen-equation residuals, computed whatever the symmetry of M."""
    p = psi / np.max(np.abs(psi))
    q = phi / np.max(np.abs(phi))
    r1 = float(np.max(np.abs(M @ p - lam * p)))
    r2 = float(np.max(np.abs(q @ M - lam * q)))
    return max(r1, r2)


def reference_dominant_eigs(graph, tol=1e-12, max_iter=10 ** 6):
    """The power iteration with separate right and left iterates, two
    products a step on any matrix, kept as the oracle of `dominant_eigs`;
    also says whether it averaged."""
    M = graph.weights
    MT = M.T.copy()
    n = graph.size
    v = np.full(n, 1.0 / n)
    u = np.full(n, 1.0 / n)
    v_prev = v.copy()
    u_prev = u.copy()
    mv = M @ v  # each step's quotient product is the next step's M @ v
    lam = float(u @ mv / (u @ v))
    averaged = False
    it = 0
    while it < max_iter:
        it += 1
        mu = MT @ u
        if averaged:
            mv = mv + lam * v
            mu = mu + lam * u
        sv = mv.sum()
        su = mu.sum()
        if sv <= 0 or su <= 0:
            raise sp.NoConvergence("iterate collapsed to zero")
        v2 = mv / sv
        u2 = mu / su
        mv2 = M @ v2
        lam = float(u2 @ mv2 / (u2 @ v2))
        delta = max(float(np.max(np.abs(v2 - v))), float(np.max(np.abs(u2 - u))))
        # two-step change; near zero while delta stays large means a
        # period-2 oscillation from equal-modulus eigenvalues
        delta2 = max(float(np.max(np.abs(v2 - v_prev))), float(np.max(np.abs(u2 - u_prev))))
        v_prev, u_prev = v, u
        v, u, mv = v2, u2, mv2
        if delta < tol:
            psi = v / np.max(v)
            res = reference_residual(M, lam, u, psi)
            if res < 10 * tol:
                phi = u / float(u @ psi)
                return sp.EigenSystem(lam, phi, psi, res, it), averaged
        elif not averaged and it >= 4 and delta2 < 1e-3 * delta:
            averaged = True
    raise sp.NoConvergence("no convergence after %d iterations" % max_iter)


PERIODIC = ([[0, 2], [1, 0]], [[0, 3, 1], [1, 0, 0], [2, 0, 0]],
            [[0, 2], [8, 0]], [[0, 0, 1, 1], [0, 0, 1, 0], [1, 2, 0, 0],
                               [3, 1, 0, 0]])


def solver_cases():
    from latticecode import strip as st
    for k in range(13):
        yield "k-model %d" % k, sp.kmodel_graph(k)
    hs = L.hard_square()
    for n in range(1, 17):
        for boundary in ("zero", "cyclic"):
            cyclic = boundary == "cyclic"
            codes = L._column_levels(hs, n, cyclic, st.MAX_STATES)[n]
            cols = L._column_symbols(hs, n, codes)
            yield ("hard square %d %s" % (n, boundary),
                   sp.build_from_constraints(L.column_compat(hs, n, cyclic, cols, cols)))
    yield "merw 3-node", sp.WeightedGraph([[0, 1, 1], [1, 0, 1], [1, 1, 2]])
    yield "no-111", sp.build_from_constraints(L.window_graph(L.no111()))
    for w in PERIODIC:
        yield "periodic %r" % (w,), sp.WeightedGraph(w)


def test_dominant_eigs_bit_identical_to_reference():
    averaged, symmetric = set(), set()
    for name, g in solver_cases():
        want, avg = reference_dominant_eigs(g)
        got = sp.dominant_eigs(g)
        assert got.value == want.value, name
        assert got.residual == want.residual, name
        assert got.iterations == want.iterations, name
        assert np.array_equal(got.left, want.left), name
        assert np.array_equal(got.right, want.right), name
        if avg:
            averaged.add(name)
        if np.array_equal(g.weights, g.weights.T):
            symmetric.add(name)
    assert {"periodic %r" % (w,) for w in PERIODIC} <= averaged
    # every strip takes the one-product step; k-model 5 the general one
    assert {"hard square %d %s" % (n, b) for n in range(1, 17)
            for b in ("zero", "cyclic")} <= symmetric
    assert "k-model 5" not in symmetric


def test_stalled_solve_stops_at_the_rounding_floor():
    # lambda = 1e6 * golden ratio: the residual at the rounding floor is
    # about 1e-10, so it never drops below 10 * tol
    g = sp.WeightedGraph([[1e6, 1e6], [1e6, 0.0]])
    e = sp.dominant_eigs(g)
    assert e.iterations < 100
    assert abs(e.value / (1e6 * GOLDEN) - 1.0) < 1e-12
    assert 10 * 1e-12 <= e.residual < 1e-9
