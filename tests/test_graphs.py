import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import LinearOperator, eigsh

from mflangevin import graphs as gr
from mflangevin.errors import InfeasibleDegree, NoConvergence


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 40), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_rrg_always_simple_and_regular(n, d, seed):
    if d >= n or (n * d) % 2 == 1:
        with pytest.raises(InfeasibleDegree):
            gr.gen_rrg(n, d, seed)
        return
    g = gr.gen_rrg(n, d, seed)
    assert len(g.edges) == n * d // 2
    assert np.all(g.degrees() == d)
    assert np.all(g.edges[:, 0] < g.edges[:, 1])
    assert len({tuple(e) for e in g.edges}) == len(g.edges)


def test_rrg_handshake_and_degrees():
    g = gr.gen_rrg(10, 3, 1)
    assert len(g.edges) == 15
    assert np.all(g.degrees() == 3)


def test_rrg_k4_unique():
    g = gr.gen_rrg(4, 3, 5)
    assert sorted(map(tuple, g.edges)) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_rrg_infeasible():
    with pytest.raises(InfeasibleDegree):
        gr.gen_rrg(5, 3, 1)  # n*d odd
    with pytest.raises(InfeasibleDegree):
        gr.gen_rrg(4, 4, 1)  # d >= n


def _gen_rrg_loop(n, d, seed):
    """Reference pairing model, one pair at a time; gen_rrg must match it byte for byte."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, d]))
    while True:
        stubs = np.repeat(np.arange(n), d)
        edges = set()
        while len(stubs):
            rng.shuffle(stubs)
            leftovers = []
            for u, v in zip(stubs[0::2], stubs[1::2]):
                e = (u, v) if u < v else (v, u)
                if u == v or e in edges:
                    leftovers += [u, v]
                else:
                    edges.add(e)
            if len(leftovers) == len(stubs):
                break
            stubs = np.array(leftovers, dtype=int)
        else:
            return np.array(sorted(edges), dtype=int)


@pytest.mark.parametrize("n,d,seed", [
    (2000, 50, 0), (2000, 50, 19), (500, 20, 77), (120, 6, 17), (200, 8, 42),
    (60, 20, 0), (60, 20, 7), (60, 20, 13), (12, 9, 3), (4, 3, 5), (2, 1, 0),
])
def test_rrg_matches_loop_oracle(n, d, seed):
    ref = _gen_rrg_loop(n, d, seed)
    edges = gr.gen_rrg(n, d, seed).edges
    assert edges.dtype == ref.dtype and np.array_equal(edges, ref)


# sha256 of the little-endian int64 edges of criterion 6's regular graphs, in
# order: gen_rrg(2000, 50, seed) for seed 0..19, then gen_rrg(500, 20, 77)
CRITERION_6_RRG_SHA256 = "4c2de5f1bcf1e72a1e3c0a53601de6a0a92f5a290823873f983d54d836cb71a9"


def test_rrg_criterion_6_edges_pinned():
    h = hashlib.sha256()
    for n, d, seed in [(2000, 50, s) for s in range(20)] + [(500, 20, 77)]:
        h.update(gr.gen_rrg(n, d, seed).edges.astype("<i8").tobytes())
    assert h.hexdigest() == CRITERION_6_RRG_SHA256


@pytest.mark.parametrize("n,d,seed", [(500, 20, 77), (60, 20, 7), (12, 9, 3), (4, 3, 5)])
def test_rrg_first_pair_without_packing(n, d, seed, monkeypatch):
    # past int64, the head of each key's run is found by np.unique instead
    packed = gr.gen_rrg(n, d, seed).edges
    monkeypatch.setattr(gr, "_PACKED_MAX", 0)
    assert np.array_equal(gr.gen_rrg(n, d, seed).edges, packed)


def test_rrg_seed_determinism():
    a = gr.gen_rrg(200, 8, 42)
    b = gr.gen_rrg(200, 8, 42)
    c = gr.gen_rrg(200, 8, 43)
    assert np.array_equal(a.edges, b.edges)
    assert not np.array_equal(a.edges, c.edges)


def test_er_empty_and_mean():
    g0 = gr.gen_er(100, 0.0, 1)
    assert len(g0.edges) == 0
    g = gr.gen_er(1000, 60.0, 2)
    # binomial count within 4 standard deviations of n*d/2
    mean, sd = 30000.0, np.sqrt(30000.0 * (1 - 60.0 / 999.0))
    assert abs(len(g.edges) - mean) < 4.0 * sd


def _gen_er_triu(n, d_mean, seed):
    """Reference ER draw over all n(n-1)/2 pairs at once; gen_er must match it byte for byte."""
    p = d_mean / (n - 1) if n > 1 else 0.0
    rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    return np.column_stack([iu[mask], ju[mask]]).astype(int)


@pytest.mark.parametrize("n,d,seed", [(2000, 60.0, s) for s in range(20)] + [
    (500, 25.0, 78), (3000, 4.0, 5), (2, 0.5, 1), (2, 0.0, 0), (1, 0.0, 0),
])
def test_er_matches_triu_oracle(n, d, seed):
    ref = _gen_er_triu(n, d, seed)
    edges = gr.gen_er(n, d, seed).edges
    assert edges.shape == ref.shape and edges.dtype == ref.dtype
    assert np.array_equal(edges, ref)


def test_er_seed_determinism():
    a = gr.gen_er(500, 10.0, 7)
    b = gr.gen_er(500, 10.0, 7)
    assert np.array_equal(a.edges, b.edges)


def test_no_self_loops_or_multi_edges():
    for g in (gr.gen_rrg(300, 10, 3), gr.gen_er(300, 12.0, 3)):
        assert np.all(g.edges[:, 0] < g.edges[:, 1])
        assert len({tuple(e) for e in g.edges}) == len(g.edges)


# -- spectral report -------------------------------------------------------------

def _complete(n):
    iu, ju = np.triu_indices(n, k=1)
    return gr.GraphInstance(n=n, edges=np.column_stack([iu, ju]), kind="regular",
                            d_eff=float(n - 1), seed=0)


def test_complete_graph_epsilon():
    # A = J - I, so A - (n-1)P = J/n - I with spectrum {0, -1}: top singular 1
    n = 40
    rep = gr.spectral_report(_complete(n))
    assert abs(rep.top_singular - 1.0) < 1e-9
    assert abs(rep.epsilon - 1.0 / (n - 1)) < 1e-10


def test_regular_graph_centred_kernel():
    g = gr.gen_rrg(500, 12, 9)
    a = g.adjacency()
    assert np.max(np.abs(gr.centered_matvec(g, a, np.ones(g.n)))) < 1e-12


def test_matvec_symmetry():
    g = gr.gen_er(300, 15.0, 4)
    a = g.adjacency()
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, y = rng.standard_normal(g.n), rng.standard_normal(g.n)
        lhs = float(np.dot(a @ x, y))
        rhs = float(np.dot(x, a @ y))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("maker", [
    lambda: gr.gen_rrg(500, 20, 11),
    lambda: gr.gen_er(400, 25.0, 13),
    lambda: gr.gen_rrg(120, 6, 17),
    *[lambda n=n: _complete(n) for n in range(2, 6)],
    lambda: gr.gen_rrg(4, 1, 0),
    lambda: gr.gen_rrg(4, 2, 1),
    lambda: gr.gen_rrg(5, 2, 2),
    lambda: gr.gen_er(5, 1.5, 3),
])
def test_power_iteration_matches_dense(maker):
    g = maker()
    rep = gr.spectral_report(g)
    dense = g.adjacency().toarray() - g.d_eff * np.ones((g.n, g.n)) / g.n
    top = float(np.max(np.abs(np.linalg.eigvalsh(dense))))
    assert abs(rep.top_singular - top) < 1e-13 * top
    assert rep.residual < 1e-8 * rep.top_singular


def _top_at_machine_precision(g):
    """|lambda| from eigsh run to machine precision (tol=0), on spectral_report's
    operator from its start vector."""
    a = g.adjacency()
    op = LinearOperator((g.n, g.n), matvec=lambda x: gr.centered_matvec(g, a, x), dtype=float)
    v0 = np.random.default_rng(np.random.SeedSequence([g.seed, 0xB])).standard_normal(g.n)
    (lam,), _ = eigsh(op, k=1, which="LM", tol=0, v0=v0, maxiter=gr._MAX_ITER)
    return abs(float(lam))


@pytest.mark.parametrize("kind,seed", [(k, s) for k in ("rrg", "er") for s in range(3)])
def test_lanczos_stopping_rule_keeps_the_eigenvalue(kind, seed):
    # criterion 6's graphs: stopping at residual 1e-9 |lambda| leaves lambda's
    # error near residual^2/gap, far below rounding
    g = gr.gen_rrg(2000, 50, seed) if kind == "rrg" else gr.gen_er(2000, 60.0, seed)
    rep = gr.spectral_report(g)
    want = _top_at_machine_precision(g)
    assert abs(rep.top_singular - want) <= 1e-14 * want
    assert rep.residual < 1e-8 * rep.top_singular


def test_spectral_report_deterministic():
    g = gr.gen_rrg(1000, 20, 5)
    assert gr.spectral_report(g) == gr.spectral_report(g)


@pytest.mark.parametrize("kind,n,d,seed", [
    ("rrg", 4, 2, 0), ("rrg", 4, 2, 1), ("rrg", 4, 3, 2), ("rrg", 6, 3, 0), ("rrg", 6, 4, 0),
    ("rrg", 6, 4, 2), ("er", 8, 1.5, 0), ("rrg", 10, 8, 2), ("rrg", 12, 10, 0),
    ("rrg", 12, 10, 2), ("rrg", 20, 18, 1), ("er", 20, 1.5, 2)])
def test_spectral_report_reruns_to_the_same_report_on_small_graphs(kind, n, d, seed):
    # graphs whose Krylov space closes after a few steps, where ARPACK restarts
    # from a random vector: six Lanczos solves in one process can disagree
    g = gr.gen_rrg(n, d, seed) if kind == "rrg" else gr.gen_er(n, d, seed)
    reports = [gr.spectral_report(g) for _ in range(6)]
    assert all(r == reports[0] for r in reports) and reports[0].iterations == 0


def test_spectral_no_convergence(monkeypatch):
    monkeypatch.setattr(gr, "_MAX_ITER", 1)
    with pytest.raises(NoConvergence):
        gr.spectral_report(gr.gen_rrg(1000, 20, 5))


def test_rrg_epsilon_scale():
    g = gr.gen_rrg(1000, 50, 23)
    rep = gr.spectral_report(g)
    # bulk edge is near 2 sqrt(d-1)/d; generous window
    assert 0.15 < rep.epsilon < 0.45


def test_edge_list_round_trip(tmp_path):
    path = tmp_path / "g.edges"
    for g in (gr.gen_er(50, 6.0, 3), gr.gen_er(50, 0.0, 3)):
        gr.write_edge_list(g, path)
        back = gr.read_edge_list(path)
        assert back.n == g.n and back.kind == g.kind and back.seed == g.seed
        assert back.d_eff == g.d_eff
        assert np.array_equal(back.edges, g.edges)
        first = path.read_text().splitlines()[0].split()
        assert first[2] == "erdos_renyi"


def test_edge_list_text_matches_line_oracle(tmp_path):
    # 5000 edges: two 4096-edge blocks, the second one shorter
    g = gr.gen_rrg(500, 20, 77)
    path = tmp_path / "g.edges"
    gr.write_edge_list(g, path)
    want = "500 20 regular 77\n" + "".join(f"{i} {j}\n" for i, j in g.edges.tolist())
    assert path.read_bytes() == want.encode()
