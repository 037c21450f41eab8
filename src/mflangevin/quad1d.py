"""One-dimensional measure engine.

Represents probability measures proportional to exp(-V) on the real line or
the circle, together with their exponential tilts exp(h*x - V), and answers
moment queries to a controlled tolerance, all through one kernel that computes
each tilt on its own (its bits do not depend on the batch) and its moments
from unnormalised masses with one division per row.

Quadrature scheme: composite Gauss-Legendre panels on the real line with
automatic domain widening (tilts move the mode, so static bounds are unsafe);
uniform trapezoid grid on the circle (spectrally accurate for smooth periodic
integrands).  Every constructed measure is verified by grid doubling: the
returned grid and a grid at double resolution must agree on low moments to
the requested relative tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

import numpy as np
from numpy.polynomial import legendre

from .errors import GridFailure, NonNormalizable

__all__ = [
    "PotentialSpec",
    "LineMeasure",
    "TiltMoments",
    "GhsReport",
    "build_measure",
    "tilted_weights",
    "tilt_table",
    "tilt_moments",
    "check_ghs",
]

REAL_LINE = "real_line"
CIRCLE = "circle"
_KINDS = ("quartic", "gaussian", "periodic_fourier", "tabulated")

# exp(-40) < 1e-17: a potential gap of TAIL_GAP above the interior minimum
# makes the truncated tail negligible at the 1e-16 level.
_TAIL_GAP = 40.0
_MAX_WIDENINGS = 60
_MAX_REFINEMENTS = 12
_ORDER = 16  # Gauss-Legendre nodes per real-line panel
_GHS_GRID = 512  # test points of the class check on [0, half width] and on the domain


@dataclass(frozen=True)
class PotentialSpec:
    """A confinement potential with metadata.

    quartic:  V(x) = x^4/4 - lam*x^2/2            (real line)
    gaussian: V(x) = curvature*x^2/2              (real line)
    periodic_fourier: V(t) = sum_k c[k-1]*cos(k*t) (circle, k = 1..len(c))
    tabulated: cubic spline through (nodes, values); outside the table the
        potential continues quadratically with matching value, slope and
        one-sided curvature, and evaluations there set the extrapolation flag
        on any measure built from it.
    """

    kind: str
    lam: float | None = None
    curvature: float | None = None
    coefficients: tuple[float, ...] | None = None
    table_nodes: tuple[float, ...] | None = None
    table_values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "quartic" and not (self.lam is not None and math.isfinite(self.lam)):
            raise ValueError(f"quartic potential needs lam, a finite number, got {self.lam}")
        if self.kind == "gaussian" and not (self.curvature is not None
                                            and 0 < self.curvature < math.inf):
            raise ValueError(
                f"gaussian potential needs a finite curvature > 0, got {self.curvature}")
        if self.kind == "periodic_fourier" and not np.all(np.isfinite(self.coefficients or ())):
            raise ValueError(
                f"periodic_fourier coefficients must be finite, got {self.coefficients}")
        if self.kind == "tabulated":
            nodes = np.asarray(self.table_nodes, dtype=float)
            values = np.asarray(self.table_values, dtype=float)
            if nodes.ndim != 1 or nodes.shape != values.shape or len(nodes) < 4:
                raise ValueError("tabulated potential needs matching 1-D nodes/values, >= 4 points")
            if not np.all(np.diff(nodes) > 0):
                raise ValueError("tabulated nodes must be strictly increasing")
            if not np.all(np.isfinite(values)):
                raise ValueError("tabulated values must be finite")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def quartic(cls, lam: float) -> "PotentialSpec":
        return cls(kind="quartic", lam=float(lam))

    @classmethod
    def gaussian(cls, curvature: float) -> "PotentialSpec":
        return cls(kind="gaussian", curvature=float(curvature))

    @classmethod
    def periodic_fourier(cls, coefficients: Sequence[float]) -> "PotentialSpec":
        return cls(kind="periodic_fourier", coefficients=tuple(float(c) for c in coefficients))

    @classmethod
    def tabulated(cls, nodes: Sequence[float], values: Sequence[float]) -> "PotentialSpec":
        return cls(kind="tabulated", table_nodes=tuple(float(x) for x in nodes),
                   table_values=tuple(float(v) for v in values))

    @property
    def domain(self) -> str:
        """The circle for a periodic potential, the real line for every other kind."""
        return CIRCLE if self.kind == "periodic_fourier" else REAL_LINE

    # -- evaluation -----------------------------------------------------------

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "quartic":
            sq = x * x
            return sq * sq / 4.0 - self.lam * sq / 2.0
        if self.kind == "gaussian":
            return self.curvature * x**2 / 2.0
        if self.kind == "periodic_fourier":
            out = np.zeros_like(x)
            for k, c in enumerate(self.coefficients or (), start=1):
                out += c * np.cos(k * x)
            return out
        return self._eval_tabulated(x, deriv=0)

    def derivative(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "quartic":
            return x * x * x - self.lam * x
        if self.kind == "gaussian":
            return self.curvature * x
        if self.kind == "periodic_fourier":
            out = np.zeros_like(x)
            for k, c in enumerate(self.coefficients or (), start=1):
                out -= c * k * np.sin(k * x)
            return out
        return self._eval_tabulated(x, deriv=1)

    @cached_property
    def _pieces(self) -> tuple:
        """(breakpoints, coefficients, ends) of the tabulated spline, built on
        first use and kept: a spec's table never changes.

        The spline is scipy's not-a-knot ``CubicSpline`` bit for bit.  Its
        slopes solve the same tridiagonal system in the operation order of
        LAPACK ``dgtsv`` (what ``solve_banded((1, 1))`` calls), row
        interchanges included; ``CubicHermiteSpline``'s formulas then give
        coefficients[k, i] of (x - x_i)^(3-k) on interval i.  ``ends`` holds
        (bound, V, V', V'') at both ends of the table.
        """
        x = np.asarray(self.table_nodes)
        y = np.asarray(self.table_values)
        n, dx = len(x), np.diff(x)
        slope = np.diff(y) / dx
        d_lo, d_hi = x[2] - x[0], x[-1] - x[-3]
        rhs = np.empty(n)
        rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        rhs[0] = ((dx[0] + 2 * d_lo) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d_lo
        rhs[-1] = (dx[-1]**2 * slope[-2] + (2 * d_hi + dx[-1]) * dx[-2] * slope[-1]) / d_hi
        diag = [float(dx[1]), *(2 * (dx[:-1] + dx[1:])).tolist(), float(dx[-2])]
        upper = [float(d_lo), *dx[:-1].tolist()]
        lower = [*dx[1:].tolist(), float(d_hi)]
        dydx = _dgtsv(lower, diag, upper, rhs.tolist())
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
        coef = np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]))
        ends = ((x[0], 0, 0.0), (x[-1], n - 2, dx[-1]))
        return x, coef, tuple((float(b), *(float(_power_sum(coef, i, h, nu)) for nu in range(3)))
                              for b, i, h in ends)

    def _eval_tabulated(self, x: np.ndarray, deriv: int) -> np.ndarray:
        knots, coef, ends = self._pieces
        # the interval of each point; a point on the last node stays in the last one
        i = np.searchsorted(knots[1:-1], x, side="right")
        inside, masks = x, ()
        if not (x.size and knots[0] <= x.min() and x.max() <= knots[-1]):
            # past the ends the continuation below replaces the cubic, which is
            # evaluated at the nearest end so that no power of a huge offset overflows
            inside = np.clip(x, knots[0], knots[-1])
            masks = zip(ends, (x < knots[0], x > knots[-1]))
        out = np.asarray(_power_sum(coef, i, inside - knots[i], deriv))
        for (bound, v0, v1, v2), mask in masks:
            if np.any(mask):
                t = x[mask] - bound
                if deriv == 0:
                    out[mask] = v0 + v1 * t + 0.5 * v2 * t**2
                else:
                    out[mask] = v1 + v2 * t
        return out

    @property
    def tail_curvature(self) -> float | None:
        """V'' of quadratic tails: the Gaussian's curvature or the smaller of a
        table's two continuations'; None for the quartic and the circle."""
        if self.kind == "gaussian":
            return self.curvature
        if self.kind == "tabulated":
            return min(end[3] for end in self._pieces[2])
        return None

    @cached_property
    def _ghs(self) -> "GhsReport":
        """``check_ghs``'s report, computed on first use and kept."""
        return _ghs_report(self)

    def uses_extrapolation(self, lo: float, hi: float) -> bool:
        if self.kind != "tabulated":
            return False
        return lo < self.table_nodes[0] or hi > self.table_nodes[-1]


@dataclass(frozen=True)
class LineMeasure:
    """Quadrature representation of a measure proportional to exp(-V), built by ``_grid``.

    nodes/weights form a rule of ``panels`` panels on domain_bounds that passed
    grid doubling at target_tol; on the real line the density at the endpoints
    is below 1e-16 of its maximum.  Derived, not stored: ``base`` (log Z_0 and the
    normalised masses, every tilt's denominator) and ``extrapolated`` (past a table).
    Values are immutable after construction and safe to share across threads."""

    potential: PotentialSpec
    nodes: np.ndarray
    weights: np.ndarray
    log_density: np.ndarray
    domain_bounds: tuple[float, float]
    target_tol: float
    panels: int

    @property
    def extrapolated(self) -> bool:
        return self.potential.uses_extrapolation(*self.domain_bounds)

    @cached_property
    def base(self) -> tuple[float, np.ndarray]:
        """(log Z_0, normalised masses) of exp(-V) on these nodes, kept from first use."""
        log_z, p = tilted_weights([[0.0]], self.nodes[None, :], self.weights, self.log_density)
        return float(log_z[0]), p[0]


@dataclass(frozen=True)
class TiltMoments:
    """Moments of the tilted measure: exp(h*x) d(alpha)."""

    h: float
    log_z: float          # log of the unnormalised partition function
    mean: float
    variance: float       # > 0


@dataclass(frozen=True)
class GhsReport:
    """Result of the even/convex-derivative class check."""

    passed: bool
    is_even: bool
    derivative_convex: bool
    confining: bool
    first_violation: float | None
    detail: str

    def __bool__(self) -> bool:
        return self.passed


# -- tabulated spline ------------------------------------------------------------

def _dgtsv(lower: list, diag: list, upper: list, rhs: list) -> np.ndarray:
    """Solve a tridiagonal system as LAPACK ``dgtsv`` does for one right-hand
    side: Gaussian elimination with a row interchange wherever the
    subdiagonal entry is larger in magnitude, then back substitution, in its
    operation order.  The lists are overwritten."""
    n = len(diag)
    fill = [0.0] * n  # second superdiagonal created by interchanges
    for i in range(n - 1):
        if abs(diag[i]) >= abs(lower[i]):
            fact = lower[i] / diag[i]
            diag[i + 1] = diag[i + 1] - fact * upper[i]
            rhs[i + 1] = rhs[i + 1] - fact * rhs[i]
        else:
            fact = diag[i] / lower[i]
            diag[i], below = lower[i], diag[i + 1]
            diag[i + 1] = upper[i] - fact * below
            if i < n - 2:
                fill[i] = upper[i + 1]
                upper[i + 1] = -fact * fill[i]
            upper[i] = below
            rhs[i], rhs[i + 1] = rhs[i + 1], rhs[i] - fact * rhs[i + 1]
    rhs[n - 1] = rhs[n - 1] / diag[n - 1]
    rhs[n - 2] = (rhs[n - 2] - upper[n - 2] * rhs[n - 1]) / diag[n - 2]
    for i in range(n - 3, -1, -1):
        rhs[i] = (rhs[i] - upper[i] * rhs[i + 1] - fill[i] * rhs[i + 2]) / diag[i]
    return np.array(rhs)


def _power_sum(coef: np.ndarray, i, s, nu: int):
    """The nu-th derivative of sum_k coef[k, i] s^(3-k), summed as scipy's
    PPoly does: from the lowest surviving power up, each term formed as
    (coef * s^p) * k!/(k-nu)!, after a first 0.0 + that turns -0.0 into 0.0."""
    res = coef[3 - nu][i]  # the k = nu term: s^0 * nu!
    if nu > 1:
        res = res * math.factorial(nu)
    res += 0.0
    z = s
    for k in range(nu + 1, 4):
        term = coef[3 - k][i]
        term *= z
        if nu:
            term *= math.perm(k, nu)
        res += term
        if k < 3:
            z = z * s
    return res


# -- quadrature grids ----------------------------------------------------------

@cache
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's Gauss-Legendre rule of one order, built once and shared
    read-only by every caller."""
    rule = legendre.leggauss(order)
    for a in rule:
        a.flags.writeable = False
    return rule


def _grid(spec: PotentialSpec, lo: float, hi: float, panels: int, tol: float) -> LineMeasure:
    """exp(-V) on [lo, hi], every LineMeasure: ``panels`` trapezoid points or _ORDER-node panels."""
    if spec.domain == CIRCLE:
        nodes = (hi - lo) * np.arange(panels) / panels + lo
        weights = np.full(panels, (hi - lo) / panels)
    else:
        base_x, base_w = _leggauss(_ORDER)
        edges = np.linspace(lo, hi, panels + 1)
        half = np.diff(edges) / 2.0
        mid = (edges[:-1] + edges[1:]) / 2.0
        nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
        weights = (half[:, None] * base_w[None, :]).ravel()
    return LineMeasure(spec, nodes, weights, -spec.value(nodes), (lo, hi), tol, panels)


def _circle_modes(nodes: np.ndarray) -> np.ndarray:
    """Rows cos(k x), sin(k x) for k = 1, 2, 3: the circle's doubling check."""
    return np.vstack([f(k * nodes) for k in (1, 2, 3) for f in (np.cos, np.sin)])


def _tilted_masses(fields, features, weights, log_density):
    """``tilted_weights`` before its division: log Z, the unnormalised masses
    q = exp(g - row max) * weights and their row sums z."""
    g = np.einsum("bd,dn->bn", np.asarray(fields, dtype=float), np.asarray(features, dtype=float))
    g += log_density
    m = np.max(g, axis=-1)
    g -= m[:, None]
    np.exp(g, out=g)
    g *= weights
    z = np.sum(g, axis=-1)
    return m + np.log(z), g, z


def tilted_weights(fields: np.ndarray, features: np.ndarray, weights: np.ndarray,
                   log_density: np.ndarray):
    """Normalise the tilted measures exp(<field, feature(x)>) alpha(dx) on a grid.

    ``fields`` holds one field per row (B, d); ``features`` holds the d feature
    functions evaluated at the quadrature nodes (d, n); ``weights`` and
    ``log_density`` describe alpha on those nodes.  Returns log Z (B,) and the
    normalised quadrature masses p (B, n).  The exponent, an ``einsum`` in
    numpy's own loops (not BLAS), is shifted by its row maximum, so no row
    overflows and no row's bits depend on the other rows; for one feature
    they are those of the ``fields @ features`` product.
    """
    log_z, q, z = _tilted_masses(fields, features, weights, log_density)
    q /= z[:, None]
    return log_z, q


def _moments(p: np.ndarray, nodes: np.ndarray):
    """(mean, centred moments of order 0 to 4) from normalised quadrature
    masses p: build_measure's grid-doubling certificate."""
    mean = float(np.sum(p * nodes))
    d = nodes - mean
    centred = np.zeros(5)
    centred[0] = 1.0
    for k in range(2, 5):
        centred[k] = float(np.sum(p * d**k))
    return mean, centred


def _moment_distance(a, b) -> float:
    """Relative disagreement between two (log_z, mean, centred moments) triples."""
    la, ma, ca = a
    lb, mb, cb = b
    scale = math.sqrt(max(ca[2], cb[2], 1e-300))
    err = abs(la - lb) / max(1.0, abs(la), abs(lb))
    err = max(err, abs(ma - mb) / scale)
    for k in range(2, len(ca)):
        err = max(err, abs(ca[k] - cb[k]) / max(abs(ca[k]), abs(cb[k]), scale**k))
    return err


# -- domain selection -----------------------------------------------------------

def _heavy_ends(spec: PotentialSpec, bounds, tilt, xs: np.ndarray,
                log_density: np.ndarray) -> tuple[bool, bool]:
    """The one truncation test: whether tilt(x) - V(x) at each end of ``bounds`` comes within
    _TAIL_GAP of its peak over xs (-V there is ``log_density``), cutting the tilt off."""
    ends = np.array(bounds, dtype=float)
    heavy = tilt(ends) - spec.value(ends) > np.max(tilt(xs) + log_density) - _TAIL_GAP
    return tuple(heavy.tolist())


def _find_bounds(spec: PotentialSpec, h_lo: float = 0.0, h_hi: float = 0.0,
                 lo: float = -4.0, hi: float = 4.0):
    """[-4, 4] widened 1.5x per heavy end until ``_heavy_ends`` passes both on a probe for
    x -> max(h_lo x, h_hi x), united with [lo, hi].  Widened from [lo, hi] instead, the
    probe's peak can stop one end early (an asymmetric table, tilts of both signs)."""
    a, b = -4.0, 4.0
    probe = np.linspace(a, b, 1025)
    for _ in range(_MAX_WIDENINGS):
        grow_lo, grow_hi = _heavy_ends(spec, (a, b), lambda x: np.maximum(h_lo * x, h_hi * x),
                                       probe, -spec.value(probe))
        if not (grow_lo or grow_hi):
            return min(a, lo), max(b, hi)
        new_a = a * 1.5 if grow_lo else a
        new_b = b * 1.5 if grow_hi else b
        # a potential that keeps decreasing outward can never be truncated
        if grow_lo and float(spec.value(new_a)) < float(spec.value(a)) - _TAIL_GAP:
            raise NonNormalizable("potential decreases towards -inf; exp(-V) not integrable")
        if grow_hi and float(spec.value(new_b)) < float(spec.value(b)) - _TAIL_GAP:
            raise NonNormalizable("potential decreases towards +inf; exp(-V) not integrable")
        a, b = new_a, new_b
        probe = np.linspace(a, b, 2049)
    raise NonNormalizable("domain widening did not terminate; exp(h*x - V) looks non-integrable")


# -- public operations ------------------------------------------------------------

def build_measure(spec: PotentialSpec, tol: float = 1e-10) -> LineMeasure:
    """Build a verified quadrature representation of exp(-V).

    Moment queries on the result are accurate to ``tol`` relative error,
    certified by one loop that doubles a ``_grid``'s panels until two agree on
    log Z_0 and Fourier moments (max-abs) on the circle, or ``_moments``
    (``_moment_distance``) on the real line.  Raises NonNormalizable when exp(-V)
    is not integrable and GridFailure when refinement does not converge.
    """
    if not (0.0 < tol <= 1e-4):
        raise ValueError("tol must lie in (0, 1e-4]")
    circle = spec.domain == CIRCLE
    lo, hi = (0.0, 2.0 * np.pi) if circle else _find_bounds(spec)
    panels = 64 if circle else max(8, int(math.ceil(hi - lo)))
    prev = None
    for _ in range(_MAX_REFINEMENTS):
        cand = _grid(spec, lo, hi, panels, tol)
        log_z, p = cand.base  # an angle's polynomial moments are not periodic; Fourier's are
        cur = (np.concatenate([[log_z], _circle_modes(cand.nodes) @ p]) if circle
               else (log_z, *_moments(p, cand.nodes)))
        if prev is not None and (float(np.max(np.abs(cur - prev))) if circle
                                 else _moment_distance(prev, cur)) < tol:
            return cand
        prev, panels = cur, panels * 2
    raise GridFailure("circle grid doubling did not converge" if circle
                      else "grid doubling did not converge within the refinement budget")


def _rebuild_for_tilts(measure: LineMeasure, h_lo: float, h_hi: float) -> LineMeasure:
    """Return a measure whose domain safely contains the tilted densities for
    every h in [h_lo, h_hi]: the input measure when ``_heavy_ends`` passes on its
    nodes, else a ``_grid`` at its panel density on the ``_find_bounds`` holding its own."""
    spec, (lo, hi) = measure.potential, measure.domain_bounds
    if spec.domain == CIRCLE or not any(_heavy_ends(
            spec, (lo, hi), lambda x: np.maximum(h_lo * x, h_hi * x), measure.nodes,
            measure.log_density)):
        return measure
    new_lo, new_hi = _find_bounds(spec, h_lo, h_hi, lo, hi)
    density = measure.panels / (hi - lo)
    panels = max(8, int(math.ceil(density * (new_hi - new_lo))))
    if panels > 2_000_000:
        raise GridFailure(
            f"tilt [{h_lo:.3g}, {h_hi:.3g}] needs {panels} panels; domain too wide to resolve")
    return _grid(spec, new_lo, new_hi, panels, measure.target_tol)


def tilt_table(measure: LineMeasure, hs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log Z, mean and variance (each (B,)) of exp(h*x) d(alpha) for the B
    tilts hs: the one query for moments of tilts.

    All tilts share one grid.  On the real line it is the measure's own,
    widened when the tilts push mass towards its ends; GridFailure is raised
    if widening fails.  Means and variances are row sums over the unnormalised
    masses, divided once by their total, so no tilt's bits depend on the others.
    """
    hs = np.asarray(hs, dtype=float)
    work = _rebuild_for_tilts(measure, float(np.min(hs, initial=0.0)),
                              float(np.max(hs, initial=0.0)))
    log_z, q, z = _tilted_masses(hs[:, None], work.nodes[None, :], work.weights, work.log_density)
    mean = np.einsum("bn,n->b", q, work.nodes) / z
    d = work.nodes - mean[:, None]
    d *= d
    return log_z, mean, np.einsum("bn,bn->b", q, d) / z


def tilt_moments(measure: LineMeasure, h: float) -> TiltMoments:
    """``tilt_table`` at the one tilt h.  GridFailure is raised also when the
    tilted variance collapses to zero: the grid cannot resolve the tilt."""
    h = float(h)
    (log_z,), (mean,), (variance,) = tilt_table(measure, [h])
    if variance <= 0.0:
        raise GridFailure("tilted variance collapsed; grid cannot resolve the tilt")
    return TiltMoments(h=h, log_z=float(log_z), mean=float(mean), variance=float(variance))


def check_ghs(spec: PotentialSpec) -> GhsReport:
    """Check membership in the even, convex-derivative potential class.

    Passes iff (a) V is even to 1e-10 on the test grid, (b) the finite
    difference second derivative is nondecreasing on [0, inf) within 1e-8
    relative tolerance, and (c) V is confining at the domain ends.  The
    report carries the first violating grid point otherwise.  It is computed
    once per spec and the same report is returned on every later call.
    """
    if spec.domain != REAL_LINE:
        raise ValueError("class check applies to real-line potentials only")
    return spec._ghs


def _ghs_report(spec: PotentialSpec) -> GhsReport:
    lo, hi = _find_bounds(spec)
    half = max(abs(lo), abs(hi))
    xs = np.linspace(0.0, half, _GHS_GRID)

    even_gap = np.abs(spec.value(xs) - spec.value(-xs))
    is_even = bool(np.max(even_gap) < 1e-10 * max(1.0, float(np.max(np.abs(spec.value(xs))))))
    first_violation = None
    if not is_even:
        first_violation = float(xs[int(np.argmax(even_gap > 1e-10))])

    # finite-difference V'' on [0, half]; step fixed by the class definition.
    # The tolerance is 1e-8 relative plus the cancellation noise floor of the
    # second difference (without it, exact class members with large |V| fail).
    step = (hi - lo) / 2**14
    inner = xs[(xs >= step) & (xs <= half - step)]
    vpp = (spec.value(inner + step) - 2.0 * spec.value(inner) + spec.value(inner - step)) / step**2
    noise = 64.0 * np.finfo(float).eps * float(np.max(np.abs(spec.value(inner)))) / step**2
    tol = 1e-8 * max(1.0, float(np.max(np.abs(vpp)))) + noise
    running_max = np.maximum.accumulate(vpp)
    drops = vpp[1:] < running_max[:-1] - tol
    derivative_convex = not bool(np.any(drops))
    if not derivative_convex and first_violation is None:
        first_violation = float(inner[1:][int(np.argmax(drops))])

    v_all = spec.value(np.linspace(lo, hi, _GHS_GRID))
    confining = bool(float(spec.value(np.array([hi]))[0]) > float(np.min(v_all)) + 10.0
                     and float(spec.value(np.array([lo]))[0]) > float(np.min(v_all)) + 10.0)
    if not confining and first_violation is None:
        first_violation = float(hi)

    passed = is_even and derivative_convex and confining
    detail = "ok" if passed else (
        f"even={is_even} derivative_convex={derivative_convex} confining={confining}")
    return GhsReport(passed=passed, is_even=is_even, derivative_convex=derivative_convex,
                     confining=confining, first_violation=first_violation, detail=detail)
