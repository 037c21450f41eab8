"""Random graphs and the spectral deviation of their adjacency matrices.

The quantity of interest is epsilon = ||A - d P|| / d where P projects on the
constant vector: small epsilon means the top adjacency eigenvalue is isolated
and the graph behaves like the complete graph after rescaling by its degree.
The top singular value is the largest-magnitude eigenvalue of the centred
matrix, found by Lanczos (ARPACK via `scipy.sparse.linalg.eigsh`) on the
matvec y = A x - d * mean(x) * 1 without ever materialising the dense matrix.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InfeasibleDegree, NoConvergence, PreconditionError, RestartBudgetExceeded

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "GraphInstance",
    "SpectralReport",
    "gen_rrg",
    "gen_er",
    "spectral_report",
    "write_edge_list",
    "read_edge_list",
]

_RESTART_BUDGET = 10_000
_MAX_ITER = 100_000
_ER_BLOCK = 1 << 20  # candidate pairs per block of rows in gen_er
_PACKED_MAX = np.iinfo(np.int64).max  # largest key*F + position gen_rrg sorts as one int64


@dataclass(frozen=True)
class GraphInstance:
    """A simple undirected graph with its generation metadata.

    d_eff is the exact degree for regular graphs and the target mean degree
    for Erdos-Renyi graphs (the deterministic normalisation, not the realised
    mean).
    """

    n: int
    edges: np.ndarray          # (m, 2) int array, i < j, no duplicates
    kind: str                  # "regular" | "erdos_renyi"
    d_eff: float
    seed: int

    def adjacency(self) -> sparse.csr_matrix:
        from scipy import sparse

        rows, cols = np.concatenate([self.edges, self.edges[:, ::-1]]).T
        return sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(self.n, self.n))

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)


@dataclass(frozen=True)
class SpectralReport:
    """Measured spectral deviation of the centred adjacency matrix."""

    epsilon: float
    top_singular: float
    iterations: int
    residual: float


def gen_rrg(n: int, d: int, seed: int) -> GraphInstance:
    """Uniform-ish d-regular simple graph via the stub-pairing model.

    Each round shuffles the unmatched stubs and keeps collision-free pairs;
    colliding stubs re-enter the pool.  A round that makes no progress
    triggers a full restart (never edge switching, which would bias the
    distribution); the restart budget bounds the attempt count.
    """
    if d >= n or d < 0:
        raise InfeasibleDegree(f"degree {d} impossible on {n} vertices")
    if (n * d) % 2 != 0:
        raise InfeasibleDegree("n*d must be even")
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, d]))
    for _ in range(_RESTART_BUDGET):
        stubs = np.repeat(np.arange(n), d)
        keys = np.empty(0, dtype=np.int64)      # sorted accepted edges i*n + j, i < j
        while len(stubs):
            rng.shuffle(stubs)
            a, b = stubs[0::2], stubs[1::2]
            round_keys = np.minimum(a, b) * n + np.maximum(a, b)
            pos = np.searchsorted(keys, round_keys)
            taken = pos < len(keys)
            taken[taken] = keys[pos[taken]] == round_keys[taken]
            fresh = np.flatnonzero((a != b) & ~taken)
            # within a round the first pair with a given key wins: sorting key*F +
            # position puts it at the head of its key's run
            width = len(fresh)
            if int(n) ** 2 * width <= _PACKED_MAX:
                packed = np.sort(round_keys[fresh] * width + np.arange(width))
                head = np.ones(width, dtype=bool)
                head[1:] = packed[1:] // width != packed[:-1] // width
                first = packed[head] % width
            else:  # key*F would overflow int64
                _, first = np.unique(round_keys[fresh], return_index=True)
            accept = np.zeros(len(a), dtype=bool)
            accept[fresh[first]] = True
            if not accept.any():
                break
            keys = np.sort(np.concatenate([keys, round_keys[accept]]))
            stubs = np.column_stack([a[~accept], b[~accept]]).ravel()
        else:  # every stub paired
            arr = np.column_stack([keys // n, keys % n])
            return GraphInstance(n=n, edges=arr, kind="regular", d_eff=float(d), seed=seed)
    raise RestartBudgetExceeded(f"pairing model failed {_RESTART_BUDGET} restarts at n={n}, d={d}")


def gen_er(n: int, d_mean: float, seed: int) -> GraphInstance:
    """Erdos-Renyi graph: each pair present independently with d_mean/(n-1)."""
    if not (0 <= d_mean < n - 1 or (d_mean == 0)):
        raise ValueError("need 0 <= d_mean < n-1")
    p = d_mean / (n - 1) if n > 1 else 0.0
    rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
    # Pairs i < j in row-major order, one uniform each, drawn in blocks of
    # whole rows (at most _ER_BLOCK pairs unless one row is longer): the
    # blocks' draws concatenate to the stream of a single draw.
    rows = max(1, _ER_BLOCK // max(n - 1, 1))
    parts = [np.empty((0, 2), dtype=int)]
    for first in range(0, n - 1, rows):
        i = np.arange(first, min(first + rows, n - 1))
        starts = np.concatenate([[0], np.cumsum(n - 1 - i)])  # offset of each row's first pair
        hit = np.flatnonzero(rng.random(starts[-1]) < p)
        row = np.searchsorted(starts, hit, side="right") - 1
        parts.append(np.column_stack([i[row], hit - starts[row] + i[row] + 1]))
    edges = np.concatenate(parts).astype(int)
    return GraphInstance(n=n, edges=edges, kind="erdos_renyi", d_eff=float(d_mean), seed=seed)


def centered_matvec(g: GraphInstance, a: sparse.csr_matrix, x: np.ndarray) -> np.ndarray:
    """y = A x - d_eff * mean(x) * 1, the matvec of the centred matrix."""
    return a @ x - g.d_eff * float(np.mean(x))


def spectral_report(g: GraphInstance) -> SpectralReport:
    """Top singular value of the symmetric centred matrix B: its largest |eigenvalue|.

    Lanczos runs to machine precision (tol=0) from a start vector drawn from the
    graph's seed.  `iterations` counts the matvecs by B; `residual` is ||B v - lambda v||.
    """
    if g.d_eff <= 0:
        return SpectralReport(epsilon=0.0, top_singular=0.0, iterations=0, residual=0.0)
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    a = g.adjacency()
    matvecs = 0

    def matvec(x):
        nonlocal matvecs
        matvecs += 1
        return centered_matvec(g, a, x)

    op = LinearOperator((g.n, g.n), matvec=matvec, dtype=float)
    v0 = np.random.default_rng(np.random.SeedSequence([g.seed, 0xB])).standard_normal(g.n)
    try:
        (lam,), vecs = eigsh(op, k=1, which="LM", tol=0, v0=v0, maxiter=_MAX_ITER)
    except ArpackNoConvergence as exc:
        raise NoConvergence(f"Lanczos did not converge in {_MAX_ITER} restarts") from exc
    v = vecs[:, 0]
    s = abs(float(lam))
    residual = float(np.linalg.norm(centered_matvec(g, a, v) - lam * v))
    return SpectralReport(epsilon=s / g.d_eff, top_singular=s, iterations=matvecs,
                          residual=residual)


def write_edge_list(g: GraphInstance, path) -> None:
    """First line `n d_eff kind seed`, then one 0-indexed `i j` pair per line."""
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.d_eff:.17g} {g.kind} {g.seed}\n")
        for k in range(0, len(g.edges), 4096):  # blocks bound the text held in memory
            block = g.edges[k:k + 4096]
            fh.write("%d %d\n" * len(block) % tuple(block.ravel().tolist()))


def read_edge_list(path) -> GraphInstance:
    """Inverse of `write_edge_list`.

    Raises PreconditionError on a malformed header or line, an unknown kind,
    d_eff outside [0, n-1], edges that are not distinct pairs 0 <= i < j < n,
    or a regular graph with a vertex whose degree is not d_eff.
    """
    with open(path) as fh:
        header, _, body = fh.read().partition("\n")
    try:
        n, d_eff, kind, seed = header.split()
        n, d_eff, seed = int(n), float(d_eff), int(seed)
        if kind not in ("regular", "erdos_renyi"):
            raise ValueError(f"unknown graph kind {kind!r}")
        if not 0 <= d_eff <= n - 1:
            raise ValueError(f"d_eff = {d_eff} outside [0, n-1] for n = {n}")
        edges = (np.loadtxt(io.StringIO(body), dtype=np.int64, ndmin=2, comments=None)
                 if body.strip() else np.empty((0, 2), dtype=np.int64))
        if edges.shape[1] != 2:
            raise ValueError("every edge line must hold exactly two vertices `i j`")
        i, j = edges[:, 0], edges[:, 1]
        if np.any(i < 0) or np.any(i >= j) or np.any(j >= n):
            raise ValueError(f"every edge `i j` needs 0 <= i < j < {n}")
        keys = np.sort(i * n + j)
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicated edge")
        if kind == "regular" and np.any(np.bincount(edges.ravel(), minlength=n) != d_eff):
            raise ValueError(f"a vertex of the regular graph has degree other than {d_eff:g}")
    except ValueError as exc:
        raise PreconditionError(f"malformed edge list {path}: {exc}") from None
    return GraphInstance(n=n, edges=edges, kind=kind, d_eff=d_eff, seed=seed)
