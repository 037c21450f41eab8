"""Euler-Maruyama simulation of the interacting Langevin system with
magnetisation, susceptibility, and spectral-gap estimators.

The integrator is explicit:

    x <- x + dt * drift(x) + sqrt(2 dt) * g,   g ~ N(0, 1) per coordinate,

with the drift assembled from the confinement potential and the interaction
(complete graph, sparse graph, or circle mode interaction).  Replicas evolve
in lockstep as one (replicas, n) state array, and a single replica as an (n,)
vector, but consume independent deterministic RNG streams, so a run is
reproducible bit for bit from (config, seed) and adding replicas never
perturbs existing ones.  The noise is drawn in blocks of steps into one
buffer that a run reuses, capped at 512 steps and 4 MiB.
"""
from __future__ import annotations

import io
import os
import stat
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InsufficientSamples,
    NumericalBlowup,
    SingleWellOnly,
)
from .graphs import GraphInstance
from .modes import ModeDecomposition
from .quad1d import CIRCLE, PotentialSpec

__all__ = [
    "SimConfig",
    "EstimatorReport",
    "Susceptibility",
    "PlateauBound",
    "CovarianceCheckReport",
    "drift",
    "simulate",
    "susceptibility",
    "estimate",
    "symmetrize",
    "plateau_gap_bound",
    "covariance_bound_check",
    "covariance_ratio",
    "write_samples",
    "read_samples",
]

_BLOWUP_LIMIT = 1e6
_BATCHES = 20  # batch count of every batch-means standard error
_NOISE_BLOCK = 512  # steps per noise block at most
_NOISE_BYTES = 1 << 22  # bytes per noise block at most
_MAGIC = b"MFLSAMP1"


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one Euler-Maruyama run.  Its interaction is ``modes`` on the
    complete graph (``ModeDecomposition()`` for none) if given, else ``topology``."""

    n_particles: int
    temperature: float
    dt: float
    n_steps: int
    burn_in: int
    seed: int
    thinning: int = 10
    replicas: int = 1
    topology: GraphInstance | str = "complete"
    potential: PotentialSpec = field(default_factory=lambda: PotentialSpec.gaussian(1.0))
    modes: ModeDecomposition | None = None

    def __post_init__(self):
        if not (self.temperature > 0 and self.dt > 0):
            raise ValueError("temperature and dt must be positive")
        if not (0 <= self.burn_in < self.n_steps):
            raise ValueError("need 0 <= burn_in < n_steps")
        if self.thinning < 1 or self.replicas < 1 or self.n_particles < 1:
            raise ValueError("thinning, replicas, n_particles must be >= 1")
        graph = isinstance(self.topology, GraphInstance)
        if not (graph or self.topology == "complete"):
            raise ValueError(f"topology must be 'complete' or a graph, got {self.topology!r}")
        if graph and self.topology.n != self.n_particles:
            raise ValueError("graph size must match n_particles")
        if graph and self.modes is not None:
            raise ValueError("mode interactions run on the complete graph only, not on a graph")
        if self.potential.domain == CIRCLE and self.modes is None:
            raise ValueError("circle runs need a mode decomposition (the empty one for none)")
        stiffness = self._stiffness_estimate()
        if self.dt * stiffness >= 0.5:
            warnings.warn(
                f"dt*stiffness = {self.dt * stiffness:.3g} >= 0.5; "
                "the explicit scheme may be unstable", RuntimeWarning)

    def _stiffness_estimate(self) -> float:
        if self.potential.domain == CIRCLE:
            xs = np.linspace(0.0, 2.0 * np.pi, 257)
        else:
            xs = np.linspace(-4.0, 4.0, 257)
        dstep = xs[1] - xs[0]
        vpp = np.max(np.abs(np.diff(self.potential.derivative(xs)) / dstep))
        inter = (1.0 if self.modes is None else self.modes.l_bound**2) / self.temperature
        return float(vpp) + inter

    @property
    def n_kept(self) -> int:
        return int(np.ceil((self.n_steps - self.burn_in) / self.thinning))


@dataclass(frozen=True)
class Susceptibility:
    chi: float
    stderr: float
    samples_used: int
    degenerate: bool


@dataclass(frozen=True)
class PlateauBound:
    """Rayleigh-quotient upper bound on the spectral gap from the two-plateau
    test function of the empirical mean.  The quotient is invariant under the
    plateau height scale, so it is computed with unit plateaus."""

    bound: float
    stderr: float
    n_window: int
    n_plus: int
    n_minus: int
    flag: str | None = None


@dataclass(frozen=True)
class EstimatorReport:
    chi: float
    chi_stderr: float
    mean_magnetisation: float
    abs_magnetisation: float
    gap_upper_chi: float
    samples_used: int


@dataclass(frozen=True)
class CovarianceCheckReport:
    n: int
    samples: int
    worst_ratio: float
    worst_ratio_stderr: float
    ratios: tuple[float, ...]
    stderrs: tuple[float, ...]


# -- drift / integrator -----------------------------------------------------------

def _adjacency_operator(g: GraphInstance):
    """Matvec-ready adjacency; dense below a size cutoff where sparse
    dispatch overhead dominates."""
    a = g.adjacency()
    return a.toarray() if g.n <= 512 else a


def _drift_fn(config: SimConfig):
    """Build the drift ``x -> -V'(x) + interaction(x)`` for one run.

    Everything fixed for the run is resolved here: the adjacency operator, the
    constants n*T and T*d_eff, and the mode decomposition, whose terms share
    one cos/sin pair per distinct frequency.  The interaction terms are added
    to -V'(x) one by one in a fixed order, and the first addition is written
    ``term - V'(x)``: IEEE subtraction adds the negation, so the bits equal
    those of ``-V'(x) + term`` without a separate negation.  The mean-field
    sums keep their axis only for a (replicas, n) state, so a single (n,)
    state gets scalars; on a graph, ``(adj @ x.T).T`` is then a matvec.
    """
    grad_v = config.potential.derivative
    reduce = np.add.reduce
    nt = config.n_particles * config.temperature
    dec = config.modes
    if dec is None:
        if isinstance(config.topology, GraphInstance):
            adj = _adjacency_operator(config.topology)
            td = config.temperature * config.topology.d_eff
            return lambda x: (adj @ x.T).T / td - grad_v(x)
        return lambda x: reduce(x, axis=-1, keepdims=x.ndim > 1) / nt - grad_v(x)
    if dec == ModeDecomposition():  # no terms, so no interaction
        return lambda x: -grad_v(x)
    alpha = dec.alpha

    def modes_drift(x):
        keep = x.ndim > 1
        parts = [coef * grad * reduce(value, axis=-1, keepdims=keep) / nt
                 for coef, value, grad in dec.signed_terms(x)]
        if alpha > 0:
            parts.append(alpha * reduce(x, axis=-1, keepdims=keep) / nt)
        out = parts[0] - grad_v(x)
        for term in parts[1:]:
            out += term
        return out

    return modes_drift


def drift(state: np.ndarray, config: SimConfig) -> np.ndarray:
    """Drift field of the system; accepts (n,) or (replicas, n) states."""
    return _drift_fn(config)(np.asarray(state, dtype=float))


def _initial_state(config: SimConfig, gens) -> np.ndarray:
    shape = (config.replicas, config.n_particles)
    if config.potential.domain == CIRCLE:
        return np.stack([g.uniform(0.0, 2.0 * np.pi, config.n_particles) for g in gens])
    return np.zeros(shape)


def simulate(config: SimConfig) -> np.ndarray:
    """Run the scheme and return thinned post-burn-in states with shape
    (replicas, n_kept, n_particles).  Raises NumericalBlowup if any
    coordinate exceeds 1e6 on the real line.

    A single replica steps as an (n,) vector, so its mean-field sums are
    scalars rather than (1, 1) arrays broadcast on every step.  The noise of
    up to 512 steps is drawn at a time, into one buffer of at most 4 MiB
    that the run refills; the divergence check runs at each block start and
    on the kept states.
    """
    ss = np.random.SeedSequence(config.seed)
    gens = [np.random.default_rng(c) for c in ss.spawn(config.replicas)]
    x = _initial_state(config, gens)
    r, n = config.replicas, config.n_particles
    rows = min(_NOISE_BLOCK, max(1, _NOISE_BYTES // (8 * r * n)))
    # row j holds the noise of step start+j: (rows, n) for one replica, else
    # (rows, replicas, n), so each step reads one contiguous row.  A replica's
    # generator fills the reused (rows, n) slab from its own stream, whose
    # values do not depend on how its draws are split into calls.
    if r == 1:
        x = x[0]
        noise, slab = np.empty((rows, n)), None
    else:
        noise, slab = np.empty((rows, r, n)), np.empty((rows, n))
    kept = np.empty((r, config.n_kept, n))
    scale = np.sqrt(2.0 * config.dt)
    circle = config.potential.domain == CIRCLE
    f = _drift_fn(config)
    dt = config.dt
    two_pi = 2.0 * np.pi
    k = 0
    keep = config.burn_in  # next step whose state is kept
    with np.errstate(over="ignore", invalid="ignore"):  # divergence caught below
        for start in range(0, config.n_steps, rows):
            block = noise[:min(rows, config.n_steps - start)]
            if slab is None:
                gens[0].standard_normal(out=block)
            else:
                part = slab[:len(block)]
                for i, g in enumerate(gens):
                    g.standard_normal(out=part)
                    block[:, i] = part
            block *= scale
            if not circle and not np.all(np.abs(x) <= _BLOWUP_LIMIT):
                raise NumericalBlowup(f"|x| exceeded {_BLOWUP_LIMIT:g} at step {start}")
            for step, z in enumerate(block, start):
                x = x + dt * f(x) + z
                if circle:
                    x %= two_pi
                if step == keep:
                    kept[:, k, :] = x
                    k += 1
                    keep += config.thinning
    # a NaN fails both comparisons
    if not circle and not (kept.max() <= _BLOWUP_LIMIT and kept.min() >= -_BLOWUP_LIMIT):
        raise NumericalBlowup("trajectory left the admissible region")
    return kept


# -- estimators ---------------------------------------------------------------------

def _as_replica_array(samples: np.ndarray) -> np.ndarray:
    s = np.asarray(samples, dtype=float)
    if s.ndim == 2:
        s = s[None, :, :]
    if s.ndim != 3:
        raise ValueError("samples must have shape (n_kept, n) or (replicas, n_kept, n)")
    return s


def _batch_stderr(values: np.ndarray) -> float:
    """Batch-means standard error over the time axis of (replicas, n_kept)."""
    r, n = values.shape
    size = n // _BATCHES
    trimmed = values[:, : size * _BATCHES].reshape(r, _BATCHES, size)
    return _stderr_of_means(trimmed.mean(axis=2).ravel())


def _stderr_of_means(means: np.ndarray) -> float:
    """Standard error of the grand mean of equal batches, from their means."""
    return float(np.std(means, ddof=1) / np.sqrt(len(means)))


def susceptibility(samples: np.ndarray, subtract_mean: bool = False) -> Susceptibility:
    """Empirical mean of (sum_i x_i / sqrt(n))^2 with batch-means stderr.

    The default keeps the raw second moment (the correct form for even
    potentials); ``subtract_mean`` switches to the centred variant for
    broken-symmetry runs.
    """
    s = _as_replica_array(samples)
    if s.shape[1] < 100:
        raise InsufficientSamples("need at least 100 thinned samples")
    m = s.sum(axis=2) / np.sqrt(s.shape[2])
    if subtract_mean:
        m = m - m.mean()
    sq = m**2
    chi = float(sq.mean())
    return Susceptibility(chi=chi, stderr=_batch_stderr(sq),
                          samples_used=s.shape[0] * s.shape[1],
                          degenerate=bool(chi < 1e-300))


def estimate(samples: np.ndarray, subtract_mean: bool = False) -> EstimatorReport:
    """Assemble the standard estimator report from a sample array."""
    s = _as_replica_array(samples)
    sus = susceptibility(s, subtract_mean=subtract_mean)
    mbar = s.mean(axis=2)
    return EstimatorReport(
        chi=sus.chi, chi_stderr=sus.stderr,
        mean_magnetisation=float(mbar.mean()),
        abs_magnetisation=float(np.abs(mbar.mean(axis=1)).mean()),
        gap_upper_chi=1.0 / sus.chi if not sus.degenerate else np.inf,
        samples_used=sus.samples_used)


def symmetrize(samples: np.ndarray) -> np.ndarray:
    """Pool samples with their global sign flip (exact symmetry for even V).

    Below the critical temperature single trajectories do not cross wells at
    feasible run lengths; pooling each replica with its mirror image makes the
    two-plateau variance estimable without metastable crossing times.
    """
    s = _as_replica_array(samples)
    return np.concatenate([s, -s], axis=0)


def plateau_gap_bound(samples: np.ndarray, m_plus: float, delta: float) -> PlateauBound:
    """Rayleigh-quotient gap bound from the two-plateau test function.

    The test function depends on the empirical mean u: constant on
    u >= m_plus - delta and u <= -(m_plus - delta), linear between; its
    squared gradient is (slope^2 / n) inside the linear window and zero on
    the plateaus.  Samples must visit both plateaus (SingleWellOnly
    otherwise); an empty window with both plateaus visited reports bound 0
    with a flag rather than failing.
    """
    if not (m_plus > 0 and delta > 0):
        raise ValueError("need m_plus > 0, delta > 0")
    if 3.0 * delta > 2.0 * m_plus + 1e-12:
        raise ValueError("well separation requires 3*delta <= 2*m_plus")
    s = _as_replica_array(samples)
    n = s.shape[2]
    mbar = s.mean(axis=2)
    edge = m_plus - delta

    window = np.abs(mbar) < edge
    n_plus = int(np.sum(mbar >= edge))
    n_minus = int(np.sum(mbar <= -edge))
    n_window = int(np.sum(window))
    if n_plus == 0 or n_minus == 0:
        raise SingleWellOnly(
            f"samples visit plateaus (+:{n_plus}, -:{n_minus}); variance under-resolved")

    f = np.clip(mbar / edge, -1.0, 1.0)
    grad_sq = np.where(window, 1.0 / (edge**2 * n), 0.0)
    den = float(np.mean(f**2) - np.mean(f) ** 2)
    if n_window == 0:
        return PlateauBound(bound=0.0, stderr=0.0, n_window=0, n_plus=n_plus,
                            n_minus=n_minus, flag="no_window_visits")
    num = float(np.mean(grad_sq))
    stderr = _batch_stderr(grad_sq) / den
    return PlateauBound(bound=num / den, stderr=stderr, n_window=n_window,
                        n_plus=n_plus, n_minus=n_minus)


# -- covariance inequality check -----------------------------------------------------

def covariance_ratio(f_fn, h_pair, n: int, rng: np.random.Generator, n_samples: int):
    """Empirical check of cov(F^2, H)^2 <= 4 sup|grad H|^2 E[F^2] E[|grad F|^2]
    under the standard Gaussian product measure (log-Sobolev constant 1).

    ``f_fn(x)`` takes a (samples, n) array and returns the pair
    (F(x), |grad F(x)|^2), one value of each per row, so F and its gradient
    can share their work; h_pair = (H, sup_grad_sq) with H vectorised the
    same way.  Returns (ratio, stderr) where ratio is the left side over the
    right side, pooled over equal batches and with their batch-means error.
    """
    if n_samples < _BATCHES:
        raise ValueError(f"need at least {_BATCHES} samples, one per batch, got {n_samples}")
    h_fn, sup_grad_sq = h_pair
    per = n_samples // _BATCHES
    stats = np.zeros((_BATCHES, 4))  # E[F^2], E[|grad F|^2], E[F^2 H], E[H]
    for b in range(_BATCHES):
        x = rng.standard_normal((per, n))
        f, g2 = f_fn(x)
        f2 = f ** 2
        h = h_fn(x)
        stats[b] = [f2.mean(), g2.mean(), (f2 * h).mean(), h.mean()]

    def ratio_of(row):
        ef2, eg2, ef2h, eh = row
        cov = ef2h - ef2 * eh
        rhs = 4.0 * sup_grad_sq * ef2 * eg2
        return cov**2 / rhs if rhs > 0 else 0.0

    pooled = ratio_of(stats.mean(axis=0))
    per_batch = np.array([ratio_of(row) for row in stats])
    return pooled, _stderr_of_means(per_batch)


def _coord_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the first axis of an (n, samples) array, in the order numpy
    sums each row of the (samples, n) transpose, so that for n <= 128 the
    bits equal those of ``np.sum(a.T, axis=1)``: 0.0 plus numpy's pairwise
    sum, which adds fewer than 8 terms left to right and up to 128 in eight
    strided lanes, combined pairwise, then the remaining terms left to right.
    (numpy splits longer rows in two; the only caller has n <= 20.)"""
    n = len(a)
    if n < 8:
        out = a[0] + 0.0
        for row in a[1:]:
            out += row
        return out
    tail = n - n % 8
    r = a[:8].copy()
    for i in range(8, tail, 8):
        r += a[i:i + 8]
    out = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for row in a[tail:]:
        out += row
    out += 0.0
    return out


def _window_poly(n: int, rng: np.random.Generator):
    """Random smooth compactly-supported surrogate: a low-degree polynomial in
    the first coordinates under a Gaussian window.  Returns the callable
    x -> (F(x), |grad F(x)|^2) with the exact gradient.

    The window and the gradient run coordinate-major, on a contiguous x.T,
    where every coordinate is one long row; the sums over coordinates keep
    numpy's row-sum order (``_coord_sum``).  The matmuls stay on the
    C-ordered x, since BLAS rounds differently on the transposed layout.
    """
    k = min(n, 3)
    c0 = rng.uniform(-1.0, 1.0)
    lin = rng.uniform(-1.0, 1.0, k)
    quad = rng.uniform(-0.5, 0.5, k)
    s2 = rng.uniform(1.5, 3.0) ** 2

    def f_and_grad_sq(x):
        # squaring all of x costs less than squaring the strided k-column view
        q = c0 + x[:, :k] @ lin + (x * x)[:, :k] @ quad
        xt = np.ascontiguousarray(x.T)
        # g holds x^2, then the gradient, then its square, in place: every
        # fresh (n, samples) temporary pays its page faults again
        g = xt * xt
        w = np.exp(-_coord_sum(g) / (2.0 * s2))
        np.negative(xt, out=g)
        g *= q / s2
        poly = 2.0 * quad[:, None] * xt[:k]
        poly += lin[:, None]
        g[:k] += poly
        g *= w
        g *= g
        return q * w, _coord_sum(g)

    return f_and_grad_sq


def _lipschitz_pair(n: int, rng: np.random.Generator, clipped: bool):
    if clipped:
        a = rng.uniform(-1.0, 1.0, n)
        c = rng.uniform(0.5, 2.0, n)
        return (lambda x: np.clip(x, -c, c) @ a), float(np.sum(a**2))
    return (lambda x: np.sum(x, axis=1)), float(n)


def covariance_bound_check(n: int, seed: int, n_samples: int = 1_000_000,
                           n_pairs: int = 10) -> CovarianceCheckReport:
    """Monte-Carlo check of the covariance inequality on the Gaussian product
    measure for a family of random windowed polynomials F and Lipschitz H."""
    if not 1 <= n <= 20:
        raise ValueError(f"check supports 1 <= n <= 20, got n = {n}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
    ratios, stderrs = [], []
    for i in range(n_pairs):
        f_fn = _window_poly(n, rng)
        h_pair = _lipschitz_pair(n, rng, clipped=bool(i % 2))
        ratio, se = covariance_ratio(f_fn, h_pair, n, rng, n_samples)
        ratios.append(ratio)
        stderrs.append(se)
    worst = int(np.argmax(ratios))
    return CovarianceCheckReport(n=n, samples=n_samples,
                                 worst_ratio=ratios[worst],
                                 worst_ratio_stderr=stderrs[worst],
                                 ratios=tuple(ratios), stderrs=tuple(stderrs))


# -- sample I/O -----------------------------------------------------------------------

_HEADER = struct.Struct("<8sQddQQQ")


def write_samples(samples: np.ndarray, path, *, temperature: float, dt: float,
                  seed: int) -> None:
    """Binary frames: a fixed header (n, T, dt, seed, replicas, frames) then
    little-endian float64 states, frame-major per replica."""
    s = np.ascontiguousarray(_as_replica_array(samples), dtype="<f8")
    r, frames, n = s.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, n, float(temperature), float(dt), seed, r, frames))
        fh.write(s.data)


def read_samples(path):
    """Inverse of write_samples; returns (samples, meta dict).

    The file's size is checked against the one its header implies before the
    states are allocated, and they are read straight into the result.  A
    pipe has no size until it is read, so it is read whole first.
    """
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode):
            size, stream = st.st_size, fh
        else:
            raw = fh.read()
            size, stream = len(raw), io.BytesIO(raw)
        if size < _HEADER.size:
            raise OSError(f"{path}: {size} bytes, shorter than the {_HEADER.size}-byte header")
        magic, n, temperature, dt, seed, r, frames = _HEADER.unpack(stream.read(_HEADER.size))
        if magic != _MAGIC:
            raise OSError(f"{path}: {size} bytes, but no sample-file magic number {_MAGIC!r}")
        expected = _HEADER.size + 8 * r * frames * n
        if size != expected:
            raise OSError(f"{path}: {size} bytes, but its header (replicas={r}, "
                          f"frames={frames}, n={n}) implies {expected}")
        data = np.empty((r, frames, n), dtype="<f8")
        if stream.readinto(data) != data.nbytes:
            raise OSError(f"{path}: shorter than its {size} bytes when read")
    return data, {"n": n, "temperature": temperature, "dt": dt,
                  "seed": seed, "replicas": r, "frames": frames}
