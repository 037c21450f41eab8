"""Mode decomposition of periodic interactions and the multi-mode effective
potential.

An interaction kernel w on the circle splits into Fourier modes

    w(x - y) = sum_k c_k [cos(kx)cos(ky) + sin(kx)sin(ky)],

and the sign of each coefficient decides which side of the split it lands on:
alignment-favouring terms (c_k > 0, the ones that can drive a phase
transition) build the mode part, the rest build the flat-convex part.  Each
negative-part mode is a bounded function n_k with weight w_k; the collection
defines a weighted inner product

    (psi, psi')_H = alpha*phi*phi' + sum_k w_k psi_k psi'_k.

Internally all fields are stored in orthonormal coordinates zeta_k =
sqrt(w_k) psi_k, which turns weighted strong convexity into plain spectral
positivity of the Hessian.  The potentials are minus log-partition functions
against the base measure (its N-fold product for u_N), so consumers compare
differences; only u_limit without a flat-convex part vanishes at psi = 0.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConsistencyCheckFailed,
    FixedPointDiverged,
    GridExplosion,
    TooManyModes,
    TruncationTooCoarse,
    Unsupported,
)
from .quad1d import LineMeasure, PotentialSpec, _tilted_masses, build_measure, tilted_weights

__all__ = [
    "Mode",
    "ModeDecomposition",
    "ModeField",
    "ScanResult",
    "XYReport",
    "fourier_decompose",
    "xy_decomposition",
    "u_limit",
    "bracket_value",
    "self_consistent_density",
    "v_renorm",
    "hessian_v_renorm",
    "strong_convexity_scan",
    "un_small_n",
    "xy_check",
]

_FIXED_POINT_TOL = 1e-10
_FIXED_POINT_MAX_ITER = 500
# entries of the largest un_small_n array (256 MiB of float64) for N <= 3; for
# N = 4, of the factor tensor it processes, _PAIR_BLOCK entries at a time
_TENSOR_BUDGET = 2**25
_PAIR_BLOCK = 2**18  # entries of the N = 4 factor tensor built at a time: 2 MiB of float64
_UNDERFLOW_REL = 1e-14  # relative error that underflow may put on a finite-N pair sum
_EXACT_TERMS = 2**28  # terms _log_pair_sum may add to sum underflowed inner sums again
_ARGMIN_TIE = 1e-12  # relative tolerance for grid points tying with the minimum
# the circle grid on which kernels, mode ranges and the bound M are checked,
# and the probe of the real line on which mode ranges and sup|n'| are
_CIRCLE_GRID = np.linspace(0.0, 2.0 * np.pi, 101, endpoint=False)
_CIRCLE_GRID.flags.writeable = False
_PROBE = np.linspace(-30.0, 30.0, 4001)
_PROBE.flags.writeable = False


@dataclass(frozen=True)
class Mode:
    """One bounded mode function with its weight.

    kind "cos"/"sin" with frequency k are the serialisable Fourier modes
    ("cos" with k=0 is the constant mode); "custom" wraps arbitrary callables
    and cannot be serialised.
    """

    weight: float
    kind: str
    k: int = 0
    fn: Callable[[np.ndarray], np.ndarray] | None = None
    dfn: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "cos":
            return np.cos(self.k * np.asarray(x, dtype=float))
        if self.kind == "sin":
            return np.sin(self.k * np.asarray(x, dtype=float))
        return self.fn(np.asarray(x, dtype=float))

    def grad(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind in ("cos", "sin"):
            return self.value_grad(x)[1]
        if self.dfn is not None:
            return self.dfn(x)
        eps = 1e-6
        return (self.fn(x + eps) - self.fn(x - eps)) / (2.0 * eps)

    def value_grad(self, x: np.ndarray, trig: dict | None = None):
        """Value and gradient at x.  ``trig`` maps a frequency k to the pair
        (cos(kx), sin(kx)) and is filled on first use, so Fourier modes of one
        frequency share a single pair of trig evaluations."""
        x = np.asarray(x, dtype=float)
        if self.kind not in ("cos", "sin"):
            return self(x), self.grad(x)
        if trig is None:
            trig = {}
        if self.k not in trig:
            kx = self.k * x
            trig[self.k] = (np.cos(kx), np.sin(kx))
        c, s = trig[self.k]
        if self.kind == "cos":
            return c, -self.k * s
        return s, self.k * c

    def sup_grad(self) -> float:
        if self.kind in ("cos", "sin"):
            return float(self.k)
        return float(np.max(np.abs(self.grad(_PROBE))))


@dataclass(frozen=True)
class ModeDecomposition:
    """Split of an interaction into a quadratic part, bounded modes, and a
    flat-convex remainder, checked on construction; the sup bound M and the
    Lipschitz bound L that certify it are derived from the modes on first use."""

    alpha: float = 0.0
    neg_modes: tuple[Mode, ...] = ()
    pos_modes: tuple[Mode, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError("quadratic coefficient must be finite and nonnegative, "
                             f"got {self.alpha!r}")
        for m in self.neg_modes + self.pos_modes:
            if not 0.0 <= m.weight < math.inf:
                raise ValueError("mode weights must be finite and nonnegative, "
                                 f"got {m.weight!r}")
        for m in self.neg_modes:
            sup = float(np.max(np.abs(np.concatenate((m(_CIRCLE_GRID), m(_PROBE))))))
            if not sup <= 1.0 + 1e-9:  # np.max keeps a NaN, and NaN fails this
                raise ValueError(f"mode functions must map into [-1, 1]; got sup {sup:.3g}")

    @functools.cached_property
    def m_bound(self) -> float:
        """Sup bound M: sqrt of the larger grid sup of |sum_k w_k n_k(x) n_k(y)| of the parts."""
        def part_sup(modes):
            if not modes:
                return 0.0
            acc = np.zeros((len(_CIRCLE_GRID), len(_CIRCLE_GRID)))
            for m in modes:
                acc += m.weight * np.multiply.outer(m(_CIRCLE_GRID), m(_CIRCLE_GRID))
            return float(np.max(np.abs(acc)))

        return math.sqrt(max(part_sup(self.neg_modes), part_sup(self.pos_modes)))

    @functools.cached_property
    def l_bound(self) -> float:
        """Lipschitz bound L = sqrt(alpha + sum over the mode part of w_k sup|n_k'|^2)."""
        return math.sqrt(self.alpha + sum(m.weight * m.sup_grad() ** 2 for m in self.neg_modes))

    @property
    def dim(self) -> int:
        """Dimension of the field space in orthonormal coordinates."""
        return (1 if self.alpha > 0 else 0) + len(self.neg_modes)

    def weighted_modes(self, x: np.ndarray) -> np.ndarray:
        """Rows sqrt(w_k) n_k(x); first row sqrt(alpha)*x when alpha > 0."""
        x = np.asarray(x, dtype=float)
        rows = []
        if self.alpha > 0:
            rows.append(math.sqrt(self.alpha) * x)
        for m in self.neg_modes:
            rows.append(math.sqrt(m.weight) * m(x))
        return np.vstack(rows) if rows else np.empty((0, len(x)))

    def signed_terms(self, x: np.ndarray) -> list:
        """(c, n(x), n'(x)) for every mode, c = +w on the negative part and
        -w on the positive part, negative part first; modes of one frequency
        share one cos/sin evaluation."""
        trig = {}
        return [(sign * m.weight, *m.value_grad(x, trig))
                for sign, group in ((1.0, self.neg_modes), (-1.0, self.pos_modes))
                for m in group]

    def reconstruction(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Kernel value sum_neg w n(x)n(y) - sum_pos w p(x)p(y) (+ alpha x y)."""
        out = self.alpha * np.multiply.outer(x, y)
        for m in self.neg_modes:
            out += m.weight * np.multiply.outer(m(x), m(y))
        for m in self.pos_modes:
            out -= m.weight * np.multiply.outer(m(x), m(y))
        return out

    def to_json(self) -> str:
        def enc(modes):
            out = []
            for m in modes:
                if m.kind == "custom":
                    raise ValueError("custom modes are not serialisable")
                out.append({"w": m.weight, "kind": m.kind, "k": m.k})
            return out
        return json.dumps({"alpha": self.alpha, "neg": enc(self.neg_modes),
                           "pos": enc(self.pos_modes)}, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModeDecomposition":
        """Inverse of ``to_json``; a missing key or a wrongly shaped entry
        raises ValueError naming it.  The bounds M and L that older files
        carry are not read: they are derived from the modes."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("a decomposition must be a JSON object {alpha, neg, pos}")

        def number(where: str, value, kind=float):
            allowed = int if kind is int else (int, float)
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValueError(f"decomposition entry {where} must be "
                                 f"{'an integer' if kind is int else 'a number'}, got {value!r}")
            return kind(value)

        def dec(part: str):
            if not isinstance(raw[part], list):
                raise ValueError(f"decomposition entry {part} must be a list of modes")
            modes = []
            for i, it in enumerate(raw[part]):
                where = f"{part}[{i}]"
                if not (isinstance(it, dict) and {"w", "kind", "k"} <= it.keys()):
                    raise ValueError(f"decomposition entry {where} must be {{w, kind, k}}, "
                                     f"got {it!r}")
                if it["kind"] not in ("cos", "sin"):
                    raise ValueError(f"cannot deserialise mode kind {it['kind']!r} at {where}")
                modes.append(Mode(weight=number(f"{where}.w", it["w"]), kind=it["kind"],
                                  k=number(f"{where}.k", it["k"], int)))
            return tuple(modes)

        missing = [key for key in ("alpha", "neg", "pos") if key not in raw]
        if missing:
            raise ValueError(f"decomposition lacks {', '.join(missing)}")
        return cls(alpha=number("alpha", raw["alpha"]), neg_modes=dec("neg"),
                   pos_modes=dec("pos"))


@dataclass(frozen=True)
class ModeField:
    """A point of the field space: the quadratic coordinate (when the
    decomposition has one) plus orthonormal mode coordinates zeta_k."""

    coords: np.ndarray
    quad_part: float | None = None

    @classmethod
    def from_vector(cls, vec: Sequence[float], decomp: ModeDecomposition) -> "ModeField":
        vec = np.asarray(vec, dtype=float)
        if len(vec) != decomp.dim:
            raise ValueError(f"field needs {decomp.dim} coordinates, got {len(vec)}")
        if decomp.alpha > 0:
            return cls(coords=vec[1:].copy(), quad_part=float(vec[0] / math.sqrt(decomp.alpha)))
        return cls(coords=vec.copy(), quad_part=None)

    def as_vector(self, decomp: ModeDecomposition) -> np.ndarray:
        if decomp.alpha > 0:
            if self.quad_part is None:
                raise ValueError("decomposition has a quadratic part; field must set it")
            return np.concatenate(([math.sqrt(decomp.alpha) * self.quad_part], self.coords))
        return np.asarray(self.coords, dtype=float)

    def norm_sq(self, decomp: ModeDecomposition) -> float:
        v = self.as_vector(decomp)
        return float(v @ v)


@dataclass(frozen=True)
class ScanResult:
    """Grid scan of the smallest Hessian eigenvalue."""

    lambda_hat: float
    argmin: np.ndarray
    grid_points: np.ndarray   # (n_points, dim)
    min_eigs: np.ndarray      # (n_points,)


@dataclass(frozen=True)
class XYReport:
    bound: float
    measured_min_eig: float
    convex: bool


# -- decomposition builders -----------------------------------------------------

def fourier_decompose(kernel, max_frequency: int, tol: float = 1e-10) -> ModeDecomposition:
    """Decompose an even periodic kernel into cosine/sine mode pairs.

    ``kernel`` is either a vectorised callable w(theta) or a sequence of
    cosine coefficients (entry j multiplies cos((j+1)*theta)).  Coefficients
    with alignment-favouring sign (c_k > 0) go to the mode part, the others
    to the flat-convex part with weight |c_k|.  The truncation residual
    (sup over a 2-D grid of |w(x-y) - reconstruction|) must stay below tol.
    """
    if max_frequency < 1:
        raise ValueError("max_frequency must be >= 1")
    if callable(kernel):
        samples = max(4096, 8 * max_frequency)
        theta = 2.0 * np.pi * np.arange(samples) / samples
        vals = np.asarray(kernel(theta), dtype=float)
        c0 = float(np.mean(vals))
        coeffs = [2.0 * float(np.mean(vals * np.cos(k * theta)))
                  for k in range(1, max_frequency + 1)]
        kernel_fn = kernel
    else:
        seq = [float(c) for c in kernel]
        c0 = 0.0
        coeffs = seq[:max_frequency] + [0.0] * max(0, max_frequency - len(seq))

        def kernel_fn(theta, _seq=tuple(seq)):
            out = np.zeros_like(np.asarray(theta, dtype=float))
            for j, c in enumerate(_seq, start=1):
                out += c * np.cos(j * theta)
            return out

    tiny = 1e-14 * max(1.0, max((abs(c) for c in coeffs + [c0]), default=1.0))
    neg, pos = [], []
    if abs(c0) > tiny:
        (neg if c0 > 0 else pos).append(Mode(weight=abs(c0), kind="cos", k=0))
    for k, c in enumerate(coeffs, start=1):
        if abs(c) <= tiny:
            continue
        side = neg if c > 0 else pos
        side.append(Mode(weight=abs(c), kind="cos", k=k))
        side.append(Mode(weight=abs(c), kind="sin", k=k))

    decomp = ModeDecomposition(neg_modes=tuple(neg), pos_modes=tuple(pos))
    target = np.asarray(kernel_fn(np.subtract.outer(_CIRCLE_GRID, _CIRCLE_GRID)), dtype=float)
    residual = float(np.max(np.abs(target - decomp.reconstruction(_CIRCLE_GRID, _CIRCLE_GRID))))
    if residual >= tol:
        raise TruncationTooCoarse(
            f"truncation at frequency {max_frequency} leaves residual {residual:.3e} >= {tol:.3e}")
    return decomp


@functools.cache
def xy_decomposition() -> ModeDecomposition:
    """The rotor-model interaction cos(x - y) as a cos/sin mode pair, built
    once; the decomposition is immutable, so every caller shares it."""
    return fourier_decompose(np.cos, max_frequency=1, tol=1e-12)


# -- effective potential ----------------------------------------------------------

def _base_masses(measure: LineMeasure) -> np.ndarray:
    """Normalised quadrature masses of the untilted base measure."""
    return tilted_weights([[0.0]], measure.nodes[None, :],
                          measure.weights, measure.log_density)[1][0]


def bracket_value(dens: np.ndarray, psi: ModeField, T: float,
                  decomp: ModeDecomposition, measure: LineMeasure) -> float:
    """Constrained free-energy bracket at a density given w.r.t. the base
    measure: entropy + flat-convex interaction - field drive.  The
    self-consistent density minimises this over all densities."""
    zeta = psi.as_vector(decomp)
    nm = decomp.weighted_modes(measure.nodes)
    p = _base_masses(measure) * dens
    entropy = float(np.sum(p[dens > 0] * np.log(dens[dens > 0])))
    interaction = 0.0
    for m in decomp.pos_modes:
        interaction += m.weight * float(np.sum(p * m(measure.nodes))) ** 2
    interaction /= 2.0 * T
    drive = float(zeta @ (nm @ p)) / T if decomp.dim else 0.0
    return entropy + interaction - drive


def self_consistent_density(psi: ModeField, T: float, decomp: ModeDecomposition,
                            measure: LineMeasure) -> np.ndarray:
    """Density (w.r.t. the base measure) minimising the free-energy bracket,
    by damped fixed-point iteration on the Gibbs update: L1 tolerance 1e-10,
    at most 500 iterations, step 0.5 halved whenever the residual grows."""
    zeta = psi.as_vector(decomp)
    pos_vals = np.vstack([p(measure.nodes) for p in decomp.pos_modes])
    pos_w = np.array([p.weight for p in decomp.pos_modes])
    features = np.vstack([decomp.weighted_modes(measure.nodes), pos_vals])

    def gibbs(p):
        """Normalised masses of the Gibbs update at current masses p."""
        fields = np.concatenate([zeta, -pos_w * (pos_vals @ p)]) / T
        return tilted_weights(fields[None, :], features, measure.weights,
                              measure.log_density)[1][0]

    p = gibbs(np.zeros(len(measure.nodes)))  # the tilt alone, no flat-convex field
    step_size = 0.5
    residual = math.inf
    for _ in range(_FIXED_POINT_MAX_ITER):
        new = gibbs(p)
        new_residual = float(np.sum(np.abs(new - p)))
        if new_residual < _FIXED_POINT_TOL:
            return new / _base_masses(measure)
        if new_residual > residual:
            step_size = max(step_size / 2.0, 1.0 / 64.0)
        residual = new_residual
        p = (1.0 - step_size) * p + step_size * new
        p /= float(np.sum(p))
    raise FixedPointDiverged(
        f"self-consistency iteration stalled at L1 residual {residual:.3e}")


def u_limit(psi: ModeField, T: float, decomp: ModeDecomposition,
            measure: LineMeasure) -> float:
    """Limiting non-quadratic part of the effective potential.

    Without a flat-convex part this is the closed form
    -log integral exp((psi, n(x))_H / T) alpha(dx), which vanishes at
    psi = 0; with one it is the bracket value at the self-consistent
    density, which in general does not.
    """
    if not T > 0:
        raise ValueError("temperature must be positive")
    if not decomp.pos_modes:
        fields = np.vstack([np.zeros(decomp.dim), psi.as_vector(decomp) / T])
        log_z, _, _ = _tilted_masses(fields, decomp.weighted_modes(measure.nodes),
                                     measure.weights, measure.log_density)
        return -float(log_z[1] - log_z[0])

    dens = self_consistent_density(psi, T, decomp, measure)
    return bracket_value(dens, psi, T, decomp, measure)


def v_renorm(psi: ModeField, T: float, decomp: ModeDecomposition,
             measure: LineMeasure) -> float:
    """Full effective potential: |psi|_H^2/(2T) plus the non-quadratic part."""
    return psi.norm_sq(decomp) / (2.0 * T) + u_limit(psi, T, decomp, measure)


# Hessians are built this many grid points at a time, which bounds the
# scan's memory whatever the number of coordinates.
_HESSIAN_CHUNK = 512


def _hessians(zetas: np.ndarray, T: float, decomp: ModeDecomposition,
              measure: LineMeasure) -> np.ndarray:
    """Hessians (B, dim, dim) of the effective potential at the rows of zetas."""
    if decomp.pos_modes:
        raise Unsupported("Hessian closed form requires an empty flat-convex part")
    nm = decomp.weighted_modes(measure.nodes)                    # (dim, n)
    _, p = tilted_weights(zetas / T, nm, measure.weights, measure.log_density)
    centred = nm[None, :, :] - np.einsum("bn,dn->bd", p, nm)[:, :, None]  # (B, dim, n)
    cov = (centred * p[:, None, :]) @ centred.transpose(0, 2, 1)
    hess = np.eye(decomp.dim) / T - cov / T**2
    asym = float(np.max(np.abs(hess - hess.transpose(0, 2, 1))))
    if asym > 1e-12:
        raise ConsistencyCheckFailed(f"Hessian asymmetry {asym:.3e}")
    return (hess + hess.transpose(0, 2, 1)) / 2.0


def hessian_v_renorm(psi: ModeField, T: float, decomp: ModeDecomposition,
                     measure: LineMeasure) -> np.ndarray:
    """Hessian of the effective potential in orthonormal coordinates:

        (1/T) Id - (1/T^2) Cov[ sqrt(w_k) n_k(x) ]

    under the tilted single-particle measure.  Only available without a
    flat-convex part (Unsupported otherwise).
    """
    if decomp.dim == 0:
        raise ValueError("decomposition has no modes")
    return _hessians(psi.as_vector(decomp)[None, :], T, decomp, measure)[0]


def _min_eigs(points: np.ndarray, T: float, decomp: ModeDecomposition,
              measure: LineMeasure) -> np.ndarray:
    """Smallest Hessian eigenvalue at each row of points."""
    return np.concatenate([
        np.linalg.eigvalsh(_hessians(points[i:i + _HESSIAN_CHUNK], T, decomp, measure))[:, 0]
        for i in range(0, len(points), _HESSIAN_CHUNK)])


def strong_convexity_scan(T: float, decomp: ModeDecomposition, measure: LineMeasure,
                          region: Sequence[tuple[float, float]],
                          grid: int) -> ScanResult:
    """Minimum Hessian eigenvalue over a box grid in orthonormal coordinates.

    The scan is exponential in the mode count; decompositions with more than
    three modes (plus the optional quadratic coordinate) are refused.
    ``lambda_hat`` is the exact minimum; ``argmin`` is the first grid point (in
    product order, the last coordinate fastest) whose eigenvalue is within
    1e-12*max(1, |lambda_hat|) of it, so symmetric points that tie up to
    rounding always report the same one.
    """
    if decomp.dim == 0:
        raise ValueError("decomposition has no modes to scan")
    if len(decomp.neg_modes) > 3:
        raise TooManyModes("scan supports at most 3 modes plus the quadratic part")
    if len(region) != decomp.dim:
        raise ValueError(f"region must give {decomp.dim} axis bounds")
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    axes = [np.linspace(lo, hi, grid) for lo, hi in region]
    # rows in itertools.product order: the last coordinate varies fastest
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, decomp.dim)
    eigs = _min_eigs(points, T, decomp, measure)
    lam = float(eigs.min())
    best = int(np.argmax(eigs <= lam + _ARGMIN_TIE * max(1.0, abs(lam))))
    return ScanResult(lambda_hat=lam, argmin=points[best],
                      grid_points=points, min_eigs=eigs)


@dataclass(frozen=True)
class SmallNResult:
    """Finite-N effective potential against the N-fold product measure."""

    n: int
    u_n: float
    u_limiting: float

    @property
    def gap(self) -> float:
        return self.u_n - self.u_limiting


def _log_sum_exp(x: np.ndarray) -> float:
    """log of the sum of exp(x) over all entries, by the one tilted-measure normaliser."""
    return float(_tilted_masses([[1.0]], x.reshape(1, -1), 1.0, 0.0)[0][0])


def _log_pair_sum(lw: np.ndarray, n: int) -> float:
    """log sum over node n-tuples (n = 2, 3, 4) of exp(lw summed over the tuple's
    pairs), for a symmetric lw.  n = 3, 4 sum an outer pair in the log domain
    over inner sums of products of factors <= 1, the rows scaled by their maxima
    r; n = 4 builds its (m, m, m) factor tensor _PAIR_BLOCK entries at a time,
    so it never holds the whole tensor.  Underflow moves an inner sum by at most
    `floor`; the inner sums below floor/_UNDERFLOW_REL whose loss could matter
    are summed again in the log domain, _PAIR_BLOCK terms at a time, and more
    than _EXACT_TERMS such terms are refused."""
    if n == 2:
        return _log_sum_exp(lw)
    m_pts, r = len(lw), lw.max(axis=1)
    if n == 3:  # inner_ac = sum_b G_ab G_cb, G_ab = exp(lw_ab - r_a), in outer's buffer
        outer = np.exp(lw - r[:, None])
        inner = outer @ outer.T
        np.add(lw, r[:, None], out=outer)
        outer += r
    else:  # inner_ab = sum_cd A_c K_cd A_d, A_(ab),c = exp(lw_ac + lw_bc + r_c/2 - s_ab)
        half, k = lw + 0.5 * r, np.exp(lw - 0.5 * (r[:, None] + r))
        inner, outer = np.empty_like(lw), np.empty_like(lw)
        step = max(1, _PAIR_BLOCK // m_pts**2)
        for i in range(0, m_pts, step):
            a = lw[i:i + step, None, :] + half  # entries with first index in [i, i + step)
            s = a.max(axis=2)
            np.add(lw[i:i + step], 2.0 * s, out=outer[i:i + step])
            a -= s[:, :, None]
            a = np.exp(a, out=a).reshape(-1, m_pts)
            inner[i:i + step] = np.einsum("ij,ij->i", a @ k, a).reshape(-1, m_pts)
    floor = 4.0 * m_pts ** (n - 2) * np.finfo(float).smallest_subnormal
    low = np.nonzero(inner < floor / _UNDERFLOW_REL)  # the larger ones are accurate
    with np.errstate(divide="ignore"):
        np.log(inner, out=inner)
    inner += outer
    lost = outer[low] + math.log(floor)  # the most underflow can take from each low sum
    del outer
    log_e = _log_sum_exp(inner)
    log_tol = log_e + math.log(_UNDERFLOW_REL)
    if len(lost) and _log_sum_exp(lost) >= log_tol:
        # redo each low sum whose loss could exceed its share of the tolerance
        rows, cols = (ix[lost >= log_tol - math.log(len(lost))] for ix in low)
        terms = len(rows) * m_pts ** (n - 2)
        if terms > _EXACT_TERMS:
            raise ConsistencyCheckFailed(
                f"N={n} pair sum needs {terms} exact terms > _EXACT_TERMS = {_EXACT_TERMS}")
        step = max(1, _PAIR_BLOCK // m_pts ** (n - 2))
        for i in range(0, len(rows), step):
            a, b = rows[i:i + step], cols[i:i + step]
            t = lw[a] + lw[b]  # n = 3: the terms lw_ac + lw_bc of entry (a, b)
            if n == 4:  # the terms t_c + t_d + lw_cd
                t = (lw + t[:, :, None] + t[:, None, :]).reshape(len(a), -1)
            top = t.max(axis=1)
            t -= top[:, None]
            inner[a, b] = lw[a, b] + top + np.log(np.sum(np.exp(t, out=t), axis=1))
        log_e = _log_sum_exp(inner)
    return log_e


def un_small_n(psi: ModeField, T: float, decomp: ModeDecomposition,
               measure: LineMeasure, n: int) -> SmallNResult:
    """Finite-N counterpart of the limiting potential:

        -(1/N) log E[ exp( (psi, S)_H/T - |S|_H^2/(2TN) - W+ sum/(2TN) ) ],

    with S = sum_i n(x_i) and the expectation over the N-fold product of the
    base measure; it does not vanish at psi = 0 (see the module docstring).
    Expanding |S|^2 gives a pair model: site masses h tilted by zeta.f/T -
    |f|^2/(2TN) and pair weights exp(-f_a.f_b/(TN)), so log Z_N = N log Z_h +
    log E(product of pair weights), with E over h^N, to about 1e-14 relative.
    Raises ConsistencyCheckFailed only past _log_pair_sum's work limit.
    """
    if not (1 <= n <= 4):
        raise ValueError("the pair contraction supports 1 <= N <= 4")
    if len(decomp.pos_modes) > 1:
        raise Unsupported("at most one flat-convex mode is supported")
    m_pts = len(measure.nodes)
    # entries of the largest array allocated below, or for N = 4 of the factor
    # tensor that _log_pair_sum processes in blocks
    size = m_pts ** (1, 2, 2, 3)[n - 1]
    if size > _TENSOR_BUDGET:
        raise GridExplosion(f"N={n} on {m_pts} nodes needs {size} entries > {_TENSOR_BUDGET}")

    # the flat-convex mode is one more feature row, with no field on it
    feats = np.vstack([decomp.weighted_modes(measure.nodes)]
                      + [math.sqrt(m.weight) * m(measure.nodes) for m in decomp.pos_modes])
    zeta = np.concatenate([psi.as_vector(decomp), np.zeros(len(decomp.pos_modes))])
    # row 0: the base measure; row 1: the site tilt zeta.f/T - |f|^2/(2Tn)
    fields = np.array([np.zeros(len(zeta) + 1), np.append(zeta / T, -0.5 / (T * n))])
    rows = np.vstack([feats, np.einsum("ij,ij->j", feats, feats)])
    log_z, _, _ = _tilted_masses(fields, rows, measure.weights, measure.log_density)
    u_n = -(log_z[1] - log_z[0])
    if n > 1:  # log h in closed form: the masses themselves underflow at far nodes
        share = (fields[1] @ rows + measure.log_density + np.log(measure.weights)
                 - log_z[1]) / (n - 1)
        # lw_ab = -f_a.f_b/(Tn) + (log h_a + log h_b)/(n - 1), as one product: each
        # node's log h is shared among its n - 1 pairs
        one = np.ones(m_pts)
        lw = np.vstack([feats, share, one]).T @ np.vstack([feats / (-T * n), one, share])
        u_n -= _log_pair_sum(lw, n) / n
    return SmallNResult(n=n, u_n=u_n, u_limiting=u_limit(psi, T, decomp, measure))


@functools.cache
def _xy_measure() -> LineMeasure:
    return build_measure(PotentialSpec.periodic_fourier([]), 1e-10)


def xy_check(T: float, radius: float = 6.0, grid: int = 41) -> XYReport:
    """Convexity scan for the rotor model against its closed-form floor
    1/T - 1/(2 T^2); the scan must never fall below the floor."""
    if not T > 0:
        raise ValueError("temperature must be positive")
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    # V = 0 on the circle, and its 64*2^k nodes (a multiple of 4) are mapped onto
    # nodes by theta -> -theta, pi - theta and pi/2 - theta, which act on zeta as
    # sign flips and the swap of zeta_1 and zeta_2: the part 0 <= zeta_2 <= zeta_1
    # of the box grid holds every spectrum of the whole grid
    half = np.linspace(-radius, radius, grid)[grid // 2:]
    i, j = np.tril_indices(len(half))
    lam = float(_min_eigs(np.column_stack([half[i], half[j]]), T,
                          xy_decomposition(), _xy_measure()).min())
    bound = 1.0 / T - 1.0 / (2.0 * T**2)
    if lam < bound - 1e-6:
        raise ConsistencyCheckFailed(
            f"scan minimum {lam:.9f} fell below the closed-form floor {bound:.9f}")
    return XYReport(bound=bound, measured_min_eig=lam, convex=bool(lam > 0.0))
