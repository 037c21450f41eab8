"""Effective potential of the auxiliary field for quadratic interactions.

For a single-particle measure alpha proportional to exp(-V) and temperature T,
the auxiliary-field potential is

    v(phi) = phi^2/(2T) - log integral exp(x*phi/T) alpha(dx),

stored up to a global additive constant.  Its derivatives follow from tilted
means and variances:

    v'(phi)  = phi/T - mean(phi/T)/T,
    v''(phi) = 1/T - var(phi/T)/T^2.

This module computes the tabulated potential, its minimisers, the curvature
floor, the critical temperature (tilted variance at zero field for the
even/convex-derivative class), the coarse-grained free energy obtained by
inverting the magnetisation map, gradient-dominance (PL) constants, and the
resulting quadratic log-Sobolev bound.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GridFailure,
    GridTooNarrow,
    MultipleMinima,
    NonNormalizable,
    NonPositiveCurvature,
    NotGHS,
    OutOfRange,
)
from .quad1d import (CIRCLE, LineMeasure, _find_bounds, _rebuild_for_tilts, check_ghs,
                     tilt_moments, tilt_table)

__all__ = [
    "RenormTable",
    "FreeEnergyTable",
    "renorm_potential",
    "auto_phi_grid",
    "critical_temperature",
    "magnetization_map",
    "coarse_free_energy",
    "pl_constant",
    "lsi_bound_quadratic",
]

_ROOT_TOL = 1e-12  # two digits below the 1e-10 contract for downstream slack
_ROOT_RTOL = 8.0 * np.finfo(float).eps


@dataclass(frozen=True)
class RenormTable:
    """Tabulated auxiliary-field potential and its first two derivatives."""

    temperature: float
    phi_grid: np.ndarray
    v: np.ndarray
    dv: np.ndarray
    ddv: np.ndarray
    t_critical: float | None
    curvature_floor: float
    minimizers: np.ndarray


@dataclass(frozen=True)
class FreeEnergyTable:
    """Coarse-grained free energy on a magnetisation grid (additive constant free)."""

    temperature: float
    m_grid: np.ndarray
    values: np.ndarray


def auto_phi_grid(measure: LineMeasure, T: float, points: int = 801) -> np.ndarray:
    """Symmetric grid [-W, W], from W = 2 widened until |v'| increases outward
    at both ends, which guarantees every stationary point is interior.  Past
    quadratic tails of curvature c (``tail_curvature``: the Gaussian's, a
    table's continuations) v'(phi) = phi (1 - 1/(c T))/T + O(1), so v has no
    minimiser at c T <= 1; that is refused before any tilt."""
    if not T > 0:
        raise ValueError("temperature must be positive")
    spec = measure.potential
    c = spec.tail_curvature
    if c is not None and c * T <= 1.0:
        what = "the Gaussian" if spec.kind == "gaussian" else "the table's quadratic tails"
        bound = f" <= 1/curvature = {1.0 / c:.6g}" if c > 0 else f": their curvature is {c:.6g}"
        raise GridTooNarrow(f"v(phi) of {what} has no minimiser at T = {T:.6g}{bound}")
    w = 2.0
    for _ in range(40):
        probe = np.linspace(-w, w, 9)
        _, mean, _ = tilt_table(measure, probe / T)
        dv = probe / T - mean / T
        if dv[0] < 0.0 < dv[-1] and abs(dv[0]) > abs(dv[1]) and abs(dv[-1]) > abs(dv[-2]):
            return np.linspace(-w, w, points)
        w *= 1.5
    raise GridTooNarrow("could not find a grid with outward-increasing |v'|")


def renorm_potential(measure: LineMeasure, T: float, phi_grid: np.ndarray) -> RenormTable:
    """Tabulate the auxiliary-field potential on phi_grid.

    Minimisers are the ascending roots of v', refined by bracketed Newton
    steps (all crossings at once, as in ``coarse_free_energy``) to 1e-10; the
    curvature floor is the grid minimum of v''.  Raises
    GridTooNarrow when v' shows no ascending sign change inside the grid.
    """
    if not T > 0:
        raise ValueError("temperature must be positive")
    phi = np.asarray(phi_grid, dtype=float)
    if phi.ndim != 1 or len(phi) < 5 or not np.all(np.diff(phi) > 0):
        raise ValueError("phi_grid must be a strictly increasing 1-D grid")

    log_z, mean, var = tilt_table(measure, phi / T)
    v = phi**2 / (2.0 * T) - log_z
    dv = phi / T - mean / T
    ddv = 1.0 / T - var / T**2

    # grid values within rounding noise of zero are exact roots (symmetry
    # pins them to nodes); genuine crossings are refined by bracketing
    scale = float(np.max(np.abs(dv))) or 1.0
    tiny = 1e-13 * scale
    minimizers = [float(phi[i]) for i in np.flatnonzero(np.abs(dv) <= tiny)
                  if ddv[i] > 0.0]
    crossings = np.flatnonzero((dv[:-1] < -tiny) & (dv[1:] > tiny))
    if len(crossings):
        # T v' = phi - mean(phi/T) rises through each root with slope (T - var)/T
        roots = _bracketed_newton(measure, T, phi[crossings], phi[crossings + 1],
                                  lambda _, p, mean, var: (p - mean, T - var))
        minimizers.extend(roots.tolist())
    if not minimizers:
        if dv[0] < -tiny and dv[-1] > tiny:
            # ends enclose roots but the wells are shallower than grid noise
            # (near-critical flat landscape): settle for the potential argmin
            minimizers = [float(phi[int(np.argmin(v))])]
        else:
            raise GridTooNarrow(
                "v' has no ascending zero inside the grid "
                f"(dv ends: {dv[0]:.3g}, {dv[-1]:.3g})")
    minimizers = np.array(sorted(set(minimizers)))

    try:
        t_critical = critical_temperature(measure)
    except NotGHS:
        t_critical = None

    return RenormTable(
        temperature=float(T), phi_grid=phi, v=v, dv=dv, ddv=ddv,
        t_critical=t_critical, curvature_floor=float(np.min(ddv)),
        minimizers=minimizers)


def critical_temperature(measure: LineMeasure) -> float:
    """Tilted variance at zero field; valid for the even/convex-derivative class.

    Raises NotGHS when the potential is outside that class (the variance
    formula is proven only there).
    """
    report = check_ghs(measure.potential)
    if not report.passed:
        raise NotGHS(f"potential failed the class check: {report.detail}")
    return float(tilt_moments(measure, 0.0).variance)


def magnetization_map(measure: LineMeasure, T: float, phi: float) -> float:
    """Mean of the tilted measure exp(x*phi/T) d(alpha)."""
    if not T > 0:
        raise ValueError("temperature must be positive")
    return float(tilt_moments(measure, phi / T).mean)


_MAX_FIELD_BRACKET = 1e6
_MAX_NEWTON_STEPS = 200


def _bracketed_newton(measure: LineMeasure, T: float, lo: np.ndarray, hi: np.ndarray,
                      residual) -> np.ndarray:
    """Fields where increasing functions of the field cross zero, one in each
    bracket [lo, hi], all solved at once on one grid: the measure's, widened
    once for every tilt from lo.min()/T to hi.max()/T.

    ``residual(idx, phi, mean, var)`` gives two arrays for the entries
    ``idx`` at fields ``phi``, whose tilts phi/T have tilted means ``mean``
    and variances ``var``: the function values f and T times their slopes,
    d.  Each entry starts at the middle of its bracket and takes Newton
    steps phi - T f / d, bisecting the bracket (updated in place) wherever
    a step would leave it or d vanishes.  It stops once a step moves it by
    at most 1e-12 + 8 eps |phi|.
    """
    work = _rebuild_for_tilts(measure, min(lo.min() / T, 0.0), max(hi.max() / T, 0.0))
    phis = 0.5 * (lo + hi)
    active = np.arange(len(phis))
    for _ in range(_MAX_NEWTON_STEPS):
        phi = phis[active]
        _, mean, var = tilt_table(work, phi / T)
        f, d = residual(active, phi, mean, var)
        lo[active] = np.where(f < 0.0, phi, lo[active])
        hi[active] = np.where(f > 0.0, phi, hi[active])
        with np.errstate(divide="ignore", invalid="ignore"):  # such steps bisect below
            new = phi - T * f / d
        new = np.where((lo[active] < new) & (new < hi[active]), new,
                       0.5 * (lo[active] + hi[active]))
        phis[active] = new
        active = active[np.abs(new - phi) > _ROOT_TOL + _ROOT_RTOL * np.abs(phi)]
        if active.size == 0:
            return phis
    raise GridFailure(f"bracketed Newton did not converge for {active.size} field(s)")


def coarse_free_energy(measure: LineMeasure, T: float, m_grid: np.ndarray) -> FreeEnergyTable:
    """Coarse-grained free energy on a magnetisation grid, up to a constant.

    The conjugate field phi_m with tilted mean m inverts the magnetisation
    map, which increases strictly with derivative var/T.  A field bracket
    [-w, w] holding every m is found by doubling; then all m are solved at
    once by ``_bracketed_newton``.  Then

        fhat(m) = v(phi_m) - (phi_m - m)^2 / (2T).
    """
    if not T > 0:
        raise ValueError("temperature must be positive")
    m_grid = np.asarray(m_grid, dtype=float)
    start = max(4.0 * T, 4.0)
    w, inside = start, np.zeros(m_grid.shape, dtype=bool)
    while w <= _MAX_FIELD_BRACKET:
        try:
            _, ends, var = tilt_table(measure, np.array([-w, w]) / T)
        except GridFailure:
            break  # the tilt needed is beyond what the representation resolves
        if not np.all(var > 0.0):
            break  # so is a tilt whose variance collapsed
        inside = (ends[0] < m_grid) & (m_grid < ends[1])
        if np.all(inside):
            break
        if w == start:  # before widening: no mean lies outside what the largest tilts need
            (m_lo, m_hi), big = measure.domain_bounds, _MAX_FIELD_BRACKET / T
            if measure.potential.domain != CIRCLE:
                try:
                    m_lo, m_hi = _find_bounds(measure.potential, -big, big, m_lo, m_hi)
                except NonNormalizable:  # smaller tilts may still resolve: the search decides
                    m_lo, m_hi = -np.inf, np.inf
            beyond = (m_grid <= m_lo) | (m_grid >= m_hi)
            if np.any(beyond):
                raise OutOfRange(
                    f"magnetisation {m_grid[beyond][0]} is outside the attainable range")
        w *= 2.0
    if not np.all(inside):
        raise OutOfRange(f"magnetisation {m_grid[~inside][0]} is outside the attainable range")

    phis = _bracketed_newton(measure, T, np.full(m_grid.shape, -w), np.full(m_grid.shape, w),
                             lambda idx, _, mean, var: (mean - m_grid[idx], var))
    log_z, _, _ = tilt_table(measure, phis / T)
    v = phis**2 / (2.0 * T) - log_z
    values = v - (phis - m_grid) ** 2 / (2.0 * T)
    return FreeEnergyTable(temperature=float(T), m_grid=m_grid, values=values)


def pl_constant(table: FreeEnergyTable) -> float:
    """Gradient-dominance constant of the tabulated free energy.

    Returns the grid infimum of |fhat'(m)|^2 / (2 (fhat(m) - fhat(m*)));
    at the minimiser the 0/0 ratio is replaced by the local second derivative
    from second differences (the exact limit for a smooth minimum).  Raises
    MultipleMinima when a point off the minimiser ties with it to 1e-12 max(1, |fhat*|).
    """
    m, f = table.m_grid, table.values
    if len(m) < 5:
        raise ValueError("free-energy table too short")
    i_star = int(np.argmin(f))
    step = float(np.max(np.diff(m)))
    near = np.flatnonzero(f - f[i_star] <= 1e-12 * max(1.0, abs(f[i_star])))
    if np.any(np.abs(m[near] - m[i_star]) > step * 1.5):
        raise MultipleMinima("free energy has two global grid minima")

    grad = np.gradient(f, m, edge_order=2)
    ratios = np.full_like(f, np.inf)
    mask = np.arange(len(m)) != i_star
    gap = f[mask] - f[i_star]
    ratios[mask] = np.where(gap > 0, grad[mask] ** 2 / (2.0 * gap), np.inf)
    if 0 < i_star < len(m) - 1:
        h1, h2 = m[i_star] - m[i_star - 1], m[i_star + 1] - m[i_star]
        curv = 2.0 * (h1 * f[i_star + 1] + h2 * f[i_star - 1] - (h1 + h2) * f[i_star]) \
            / (h1 * h2 * (h1 + h2))
        ratios[i_star] = curv
    return float(np.min(ratios))


def lsi_bound_quadratic(T: float, curvature_floor: float, gamma_v: float) -> float:
    """Upper bound on the inverse log-Sobolev constant:

        1/gamma <= 1/gamma_v + 1/(gamma_v^2 * T^2 * curvature_floor).

    Raises ValueError unless T > 0 and 0 < gamma_v < inf, and
    NonPositiveCurvature unless the floor is positive (the bound does not
    apply there); NaN is refused everywhere.
    """
    if not T > 0:
        raise ValueError("temperature must be positive")
    if not curvature_floor > 0:
        raise NonPositiveCurvature("curvature floor must be positive for the quadratic bound")
    if not 0 < gamma_v < np.inf:
        raise ValueError(f"gamma_v must be positive and finite, got {gamma_v}")
    return 1.0 / gamma_v + 1.0 / (gamma_v**2 * T**2 * curvature_floor)

