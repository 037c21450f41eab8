import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mflangevin import quad1d, renormalized as rn
from mflangevin.errors import (
    GridTooNarrow,
    MultipleMinima,
    NonPositiveCurvature,
    NotGHS,
    OutOfRange,
)
from mflangevin.quad1d import PotentialSpec, build_measure, tilt_moments, tilt_table

from test_quad1d import QUARTIC0_VARIANCE


def table_for(measure, T, points=801):
    return rn.renorm_potential(measure, T, rn.auto_phi_grid(measure, T, points))


# -- renorm_potential -----------------------------------------------------------

def test_gaussian_constant_curvature(gaussian_measure):
    t = table_for(gaussian_measure, 2.0)
    assert np.max(np.abs(t.ddv - 0.25)) < 1e-10
    assert len(t.minimizers) == 1 and abs(t.minimizers[0]) < 1e-10


def test_curvature_floor_formula(quartic1_measure, quartic1_tc):
    T = 1.5 * quartic1_tc
    t = table_for(quartic1_measure, T)
    assert abs(t.curvature_floor - (T - quartic1_tc) / T**2) < 1e-6
    assert abs(t.phi_grid[int(np.argmin(t.ddv))]) < 1e-12


def test_subcritical_two_minimizers(quartic1_measure, quartic1_tc):
    T = 0.5 * quartic1_tc
    t = table_for(quartic1_measure, T)
    assert len(t.minimizers) == 2
    m_plus = t.minimizers[-1]
    assert m_plus > 0
    assert abs(t.minimizers[0] + m_plus) < 1e-9
    # oracle: m+ solves the self-consistency m = mean under tilt m/T,
    # found here by plain damped fixed-point iteration
    m = 2.0
    for _ in range(400):
        m = 0.5 * m + 0.5 * tilt_moments(quartic1_measure, m / T).mean
    assert abs(m - m_plus) < 1e-8


def test_grid_too_narrow(quartic1_measure):
    with pytest.raises(GridTooNarrow):
        # entirely inside the left well: v' has no ascending crossing
        rn.renorm_potential(quartic1_measure, 0.5, np.linspace(-0.2, -0.1, 11))


# -- critical temperature ----------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda m, T: rn.renorm_potential(m, T, np.linspace(-1.0, 1.0, 5)),
    lambda m, T: rn.magnetization_map(m, T, 0.5),
    lambda m, T: rn.coarse_free_energy(m, T, np.linspace(-0.5, 0.5, 5)),
    lambda m, T: rn.auto_phi_grid(m, T, 11),
], ids=["renorm_potential", "magnetization_map", "coarse_free_energy", "auto_phi_grid"])
@pytest.mark.parametrize("T", [0.0, float("nan"), -1.0])
def test_temperature_must_be_positive(quartic1_measure, call, T, monkeypatch):
    def no_tilt(*args, **kwargs):
        raise AssertionError("a tilt was computed before the temperature was checked")

    monkeypatch.setattr(rn, "tilt_table", no_tilt)
    monkeypatch.setattr(rn, "tilt_moments", no_tilt)
    with pytest.raises(ValueError, match="temperature must be positive"):
        call(quartic1_measure, T)


def test_tc_gaussian(gaussian_measure):
    assert abs(rn.critical_temperature(gaussian_measure) - 1.0) < 1e-10


def test_tc_quartic0(quartic0_measure):
    assert abs(rn.critical_temperature(quartic0_measure) - QUARTIC0_VARIANCE) < 1e-10


def test_tc_not_ghs():
    xs = np.linspace(-6.0, 6.0, 2401)
    m = build_measure(PotentialSpec.tabulated(xs, xs**2 - np.cos(5.0 * xs)), 1e-8)
    with pytest.raises(NotGHS):
        rn.critical_temperature(m)


def test_tc_matches_floor_crossing(quartic1_measure, quartic1_tc):
    # self-consistency oracle: bisect the temperature where the floor crosses 0
    def floor(T):
        return table_for(quartic1_measure, T, points=201).curvature_floor
    lo, hi = 0.8 * quartic1_tc, 1.3 * quartic1_tc
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if floor(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-8:
            break
    assert abs((lo + hi) / 2.0 - quartic1_tc) < 1e-6


# -- magnetisation map ---------------------------------------------------------------

def test_magnetization_zero_field(quartic1_measure):
    assert abs(rn.magnetization_map(quartic1_measure, 1.0, 0.0)) < 1e-12


def test_magnetization_gaussian(gaussian_measure):
    assert abs(rn.magnetization_map(gaussian_measure, 2.0, 1.0) - 0.5) < 1e-10


def test_magnetization_consistent_with_dv(quartic1_measure):
    T, phi = 1.0, 0.8
    grid = rn.auto_phi_grid(quartic1_measure, T, 801)
    t = rn.renorm_potential(quartic1_measure, T, grid)
    dv_at = np.interp(phi, t.phi_grid, t.dv)
    assert abs(rn.magnetization_map(quartic1_measure, T, phi) - (phi - T * dv_at)) < 1e-8


# -- coarse free energy ----------------------------------------------------------------

def test_gaussian_free_energy_closed_form(gaussian_measure):
    ms = np.linspace(-1.5, 1.5, 61)
    fe = rn.coarse_free_energy(gaussian_measure, 2.0, ms)
    ref = ms**2 / 4.0
    gap = (fe.values - fe.values[30]) - (ref - ref[30])
    assert np.max(np.abs(gap)) < 1e-8


def test_supercritical_free_energy_convex(quartic1_measure, quartic1_tc):
    ms = np.linspace(-1.0, 1.0, 101)
    fe = rn.coarse_free_energy(quartic1_measure, 1.2 * quartic1_tc, ms)
    assert np.all(np.diff(fe.values, 2) > 0)


def test_subcritical_free_energy_minima_match(quartic1_measure, quartic1_tc):
    T = 0.6 * quartic1_tc
    t = table_for(quartic1_measure, T)
    m_plus = float(t.minimizers[-1])

    # refine the continuous minimiser of fhat by bisecting its derivative
    def dfhat(m, eps=1e-6):
        vals = rn.coarse_free_energy(quartic1_measure, T,
                                     np.array([m - eps, m + eps])).values
        return (vals[1] - vals[0]) / (2.0 * eps)

    lo, hi = m_plus - 0.05, m_plus + 0.05
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if dfhat(mid) > 0:
            hi = mid
        else:
            lo = mid
    assert abs((lo + hi) / 2.0 - m_plus) < 1e-6


def test_minimizer_correspondence(quartic1_measure, quartic1_tc):
    for factor, expected in ((1.3, 1), (0.6, 2)):
        T = factor * quartic1_tc
        t = table_for(quartic1_measure, T)
        span = max(1.0, 1.3 * float(np.max(np.abs(t.minimizers))))
        fe = rn.coarse_free_energy(quartic1_measure, T, np.linspace(-span, span, 301))
        v = fe.values
        interior_minima = np.sum((v[1:-1] < v[:-2]) & (v[1:-1] <= v[2:]))
        assert len(t.minimizers) == expected == interior_minima


def _brentq_inversion(measure, T, m_grid):
    """The per-point inversion: bracket by doubling, then brentq on the
    magnetisation map, one domain widening per evaluation (test oracle)."""
    from scipy.optimize import brentq
    phis = []
    for m in m_grid:
        w = max(4.0 * T, 4.0)
        while not (rn.magnetization_map(measure, T, -w) < m < rn.magnetization_map(measure, T, w)):
            w *= 2.0
        phis.append(brentq(lambda p: rn.magnetization_map(measure, T, p) - m, -w, w,
                           xtol=1e-12, rtol=8.0 * np.finfo(float).eps))
    return np.array(phis)


def _brentq_minimizers(measure, T, table):
    """brentq on v' across each ascending sign change of the tabulated v',
    one domain widening per evaluation (test oracle)."""
    from scipy.optimize import brentq

    def dv(phi):
        return phi / T - rn.magnetization_map(measure, T, phi) / T

    grid, dvs = table.phi_grid, table.dv
    return np.array([brentq(dv, grid[i], grid[i + 1], xtol=1e-12)
                     for i in np.flatnonzero((dvs[:-1] < 0.0) & (dvs[1:] > 0.0))])


@pytest.mark.parametrize("case", ["lam=0.5", "lam=1", "lam=2", "tabulated"])
def test_minimizers_match_brentq_oracle(case):
    xs = np.linspace(-3.0, 3.0, 61)
    spec = (PotentialSpec.tabulated(xs, xs**4 / 4.0 - xs**2 / 2.0) if case == "tabulated"
            else PotentialSpec.quartic(float(case.split("=")[1])))
    measure = build_measure(spec, 1e-10)
    t_c = rn.critical_temperature(measure)
    for factor in np.linspace(0.3, 0.98, 15):
        T = factor * t_c
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            table = table_for(measure, T)
        ref = _brentq_minimizers(measure, T, table)
        assert len(ref) == len(table.minimizers) == 2
        assert np.max(np.abs(table.minimizers - ref)) <= 1e-10


def test_symmetric_minimizers_written_symmetric():
    # the two roots lie 4e-16 apart in magnitude, on either side of a 12-digit
    # rounding boundary: rounding would write them 1e-12 apart
    m0, m1 = table_for(build_measure(PotentialSpec.quartic(2.0), 1e-10),
                       0.877158579775227).minimizers
    assert abs(m0 + m1) <= 4.0 * np.finfo(float).eps * abs(m1)


def test_newton_bisects_where_the_slope_vanishes(gaussian_measure):
    # with every slope 0 each Newton step divides by zero: it must bisect, without a warning
    lo, hi = np.full(3, -4.0), np.full(3, 4.0)
    targets = np.array([-0.7, 0.0, 1.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        phis = rn._bracketed_newton(gaussian_measure, 1.0, lo, hi,
                                    lambda idx, _, mean, var: (mean - targets[idx], 0.0 * var))
    # the tilted Gaussian's mean is its tilt, phi/T with T = 1
    assert np.max(np.abs(phis - targets)) <= 1e-11


@pytest.mark.parametrize("case", ["gaussian", "quartic"])
def test_inversion_matches_brentq_oracle(case, gaussian_measure, quartic1_measure,
                                         quartic1_tc, monkeypatch):
    if case == "gaussian":
        measure, T, ms = gaussian_measure, 2.0, np.linspace(-2.0, 2.0, 201)
    else:
        measure, T = quartic1_measure, 1.3 * quartic1_tc
        grid = rn.auto_phi_grid(measure, T, 801)
        ms = np.linspace(rn.magnetization_map(measure, T, grid[0]),
                         rn.magnetization_map(measure, T, grid[-1]), 801)
    tilts = []

    def spy(measure, hs):
        tilts.append(np.array(hs))
        return tilt_table(measure, hs)

    monkeypatch.setattr(rn, "tilt_table", spy)
    fe = rn.coarse_free_energy(measure, T, ms)
    phis = tilts[-1] * T
    ref = _brentq_inversion(measure, T, ms)
    assert np.all(np.abs(phis - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))
    log_z, _, _ = tilt_table(measure, ref / T)
    values = ref**2 / (2.0 * T) - log_z - (ref - ms) ** 2 / (2.0 * T)
    mid = len(ms) // 2
    assert np.max(np.abs((fe.values - fe.values[mid]) - (values - values[mid]))) < 1e-10


_TABLE_X = np.linspace(-3.0, 3.0, 61)


@pytest.mark.parametrize("spec", [
    PotentialSpec.quartic(1.0), PotentialSpec.quartic(2.0), PotentialSpec.quartic(-1.0),
    PotentialSpec.gaussian(1.0),
    PotentialSpec.tabulated(_TABLE_X, _TABLE_X**4 / 4 - _TABLE_X**2 / 2),
], ids=["quartic1", "quartic2", "quartic-1", "gaussian", "tabulated"])
def test_bracketed_newton_widens_once(spec, monkeypatch):
    """The Newton solver widens its grid once, for its whole bracket; every
    iterate's tilts then fit that grid, which tilt_table keeps."""
    measure = build_measure(spec)
    t_c = rn.critical_temperature(measure)
    original, solve = quad1d._rebuild_for_tilts, rn._bracketed_newton
    solving, kept = [], []

    def rebuild(measure, h_lo, h_hi):
        out = original(measure, h_lo, h_hi)
        if solving:
            kept.append(out is measure)
        return out

    def newton(*args):
        solving.append(True)
        try:
            return solve(*args)
        finally:
            solving.pop()

    # only tilt_table's calls are seen: the solver's own widening goes
    # through the name renormalized imported
    monkeypatch.setattr(quad1d, "_rebuild_for_tilts", rebuild)
    monkeypatch.setattr(rn, "_bracketed_newton", newton)
    for factor in (0.6, 0.9, 1.2, 2.0):
        T = factor * t_c
        rn.coarse_free_energy(measure, T, np.linspace(-0.95, 0.95, 41))
        if factor < 1.0 and spec.kind != "gaussian":
            table_for(measure, T, 201)  # minimisers off zero: a Newton solve
    assert kept and all(kept)


def test_out_of_range(gaussian_measure):
    # confining potentials reach any finite mean eventually, so the error
    # surfaces when the requested value lies past what the largest bracket
    # of the search can reach; it comes before any wide grid is built
    # (numpy reports its buffers to tracemalloc; the widest grid takes > 1 GB)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(OutOfRange):
            rn.coarse_free_energy(gaussian_measure, 1.0, np.array([1e30]))
        seconds, peak_bytes = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 1.0
    assert peak_bytes < 100e6


def test_free_energy_where_large_tilts_are_unresolvable():
    # past the table the barrier's quadratic continuation turns downward, so
    # the largest bracket's tilts have no domain; small attainable m still solve
    xs = np.linspace(-3.0, 3.0, 61)
    measure = build_measure(PotentialSpec.tabulated(xs, 200.0 * (1.0 - np.exp(-xs**2))), 1e-10)
    fe = rn.coarse_free_energy(measure, 1.0, np.linspace(-0.005, 0.005, 7))
    assert np.all(np.isfinite(fe.values))
    assert np.max(np.abs(fe.values - fe.values[::-1])) < 1e-10


# -- PL constant ------------------------------------------------------------------------

def test_pl_gaussian(gaussian_measure):
    fe = rn.coarse_free_energy(gaussian_measure, 2.0, np.linspace(-2.0, 2.0, 201))
    assert abs(rn.pl_constant(fe) - 0.5) < 1e-6


def test_pl_strongly_convex_table():
    ms = np.linspace(-2.0, 2.0, 401)
    fe = rn.FreeEnergyTable(temperature=1.0, m_grid=ms, values=0.3 * ms**2 + 0.05 * ms**4)
    assert rn.pl_constant(fe) >= 0.6 - 1e-3


def test_pl_positive_near_critical(quartic1_measure, quartic1_tc):
    T = 1.1 * quartic1_tc
    ms = np.linspace(-0.8, 0.8, 201)
    coarse = rn.pl_constant(rn.coarse_free_energy(quartic1_measure, T, ms))
    fine = rn.pl_constant(rn.coarse_free_energy(
        quartic1_measure, T, np.linspace(-0.8, 0.8, 801)))
    assert coarse > 0 and fine > 0
    assert fine <= coarse * 1.05 + 1e-9  # finer scan can only lower the infimum


@pytest.mark.parametrize("ratio", [1.02, 1.1, 1.5, 3.0])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0])
def test_pl_constant_is_the_curvature_at_zero(lam, ratio):
    # fhat = I - m^2/(2T), I the Legendre transform of log Z, so fhat''(m) =
    # 1/var(h_m) - 1/T, least at m = 0 in the class check_ghs certifies: the
    # PL constant is kappa = 1/T_c - 1/T.  The table gives it as the second
    # difference at m = 0, which exceeds kappa by h^2 I''''(0)/12 + O(h^4), with
    # I''''(0) = -k4/T_c^4 and k4 < 0 the fourth cumulant of the base measure
    measure = build_measure(PotentialSpec.quartic(lam), 1e-10)
    p = quad1d.tilted_weights([[0.0]], measure.nodes[None, :], measure.weights,
                              measure.log_density)[1][0]
    t_c = float(np.sum(p * measure.nodes**2))
    assert abs(t_c - rn.critical_temperature(measure)) <= 1e-12
    k4 = float(np.sum(p * measure.nodes**4)) - 3.0 * t_c**2
    assert k4 < 0.0
    T = ratio * t_c
    kappa = 1.0 / t_c - 1.0 / T
    for points in (201, 801):
        h = 1.6 / (points - 1)
        lead = -k4 / t_c**4 * h**2 / 12.0
        pl = rn.pl_constant(rn.coarse_free_energy(measure, T, np.linspace(-0.8, 0.8, points)))
        assert abs(pl - kappa - lead) <= 0.01 * lead  # so 0 < pl - kappa <= 1.01 lead
        assert abs(pl / kappa - 1.0) <= (3.3e-4 if points == 201 else 2.1e-5)


def test_pl_multiple_minima():
    ms = np.linspace(-2.0, 2.0, 401)
    fe = rn.FreeEnergyTable(temperature=1.0, m_grid=ms, values=(ms**2 - 1.0) ** 2)
    with pytest.raises(MultipleMinima):
        rn.pl_constant(fe)


# -- quadratic LSI bound ------------------------------------------------------------------

def test_lsi_bound_substitution():
    assert abs(rn.lsi_bound_quadratic(1.0, 1.0, 1.0) - 2.0) < 1e-15
    assert abs(rn.lsi_bound_quadratic(2.0, 0.25, 1.0) - 2.0) < 1e-15


@settings(max_examples=50, deadline=None)
@given(T=st.floats(0.1, 10.0), floor=st.floats(1e-3, 10.0),
       gamma_v=st.floats(1e-2, 10.0))
def test_lsi_bound_exact_formula(T, floor, gamma_v):
    bound = rn.lsi_bound_quadratic(T, floor, gamma_v)
    assert bound == pytest.approx(1.0 / gamma_v + 1.0 / (gamma_v**2 * T**2 * floor))
    # monotone: more curvature can only improve the bound
    assert rn.lsi_bound_quadratic(T, 2.0 * floor, gamma_v) <= bound


def test_lsi_bound_rejects_flat():
    with pytest.raises(NonPositiveCurvature):
        rn.lsi_bound_quadratic(1.0, 0.0, 1.0)


def test_lsi_bound_diverges_linearly(quartic1_measure, quartic1_tc):
    # (T - T_c) * bound approaches a constant as T decreases to T_c
    products = []
    for eps in (0.04, 0.02, 0.01):
        T = (1.0 + eps) * quartic1_tc
        floor = table_for(quartic1_measure, T, points=401).curvature_floor
        products.append((T - quartic1_tc) * rn.lsi_bound_quadratic(T, floor, 1.0))
    assert abs(products[2] / products[1] - 1.0) < 0.1
    assert abs(products[1] / products[0] - 1.0) < 0.1


# -- derivative identities / invariances -----------------------------------------------------

def test_dv_matches_fd_of_v(quartic1_measure, quartic1_tc):
    T = 1.3 * quartic1_tc
    t = table_for(quartic1_measure, T)
    step = 1e-5

    def v_at(phi):
        lz = tilt_moments(quartic1_measure, phi / T).log_z
        return phi**2 / (2.0 * T) - lz

    for i in range(100, 701, 100):
        phi = float(t.phi_grid[i])
        fd = (v_at(phi + step) - v_at(phi - step)) / (2.0 * step)
        assert abs(fd - t.dv[i]) < 1e-6


def test_ddv_matches_fd_of_dv(quartic1_measure, quartic1_tc):
    T = 1.3 * quartic1_tc
    t = table_for(quartic1_measure, T)
    step = 1e-5

    def dv_at(phi):
        return phi / T - rn.magnetization_map(quartic1_measure, T, phi) / T

    for i in range(100, 701, 100):
        phi = float(t.phi_grid[i])
        fd = (dv_at(phi + step) - dv_at(phi - step)) / (2.0 * step)
        assert abs(fd - t.ddv[i]) < 1e-5


def test_ddv_is_curvature_identity(quartic1_measure, quartic1_tc):
    # floor equals (T - var)/T^2 computed directly from quadrature
    T = 1.5 * quartic1_tc
    t = table_for(quartic1_measure, T)
    var0 = tilt_moments(quartic1_measure, 0.0).variance
    assert abs(t.curvature_floor - (T - var0) / T**2) < 1e-8


def test_legendre_round_trip(quartic1_measure, quartic1_tc):
    T = 1.3 * quartic1_tc
    grid = rn.auto_phi_grid(quartic1_measure, T, 401)
    t = rn.renorm_potential(quartic1_measure, T, grid)
    m_lo = rn.magnetization_map(quartic1_measure, T, grid[0])
    m_hi = rn.magnetization_map(quartic1_measure, T, grid[-1])
    fe = rn.coarse_free_energy(quartic1_measure, T, np.linspace(m_lo, m_hi, 401))
    recon = np.min(fe.values[None, :] + (grid[:, None] - fe.m_grid[None, :]) ** 2
                   / (2.0 * T), axis=1)
    mid = len(grid) // 2
    dev = (recon - recon[mid]) - (t.v - t.v[mid])
    assert np.max(np.abs(dev)) < 1e-4


def test_constant_shift_invariance(quartic1_tc):
    xs = np.linspace(-9.0, 9.0, 3001)
    base_vals = PotentialSpec.quartic(1.0).value(xs)
    m_a = build_measure(PotentialSpec.tabulated(xs, base_vals), 1e-8)
    m_b = build_measure(PotentialSpec.tabulated(xs, base_vals + 7.3), 1e-8)
    T = 1.4 * quartic1_tc
    grid = np.linspace(-3.0, 3.0, 301)
    ta = rn.renorm_potential(m_a, T, grid)
    tb = rn.renorm_potential(m_b, T, grid)
    assert np.max(np.abs((ta.v - ta.v[150]) - (tb.v - tb.v[150]))) < 1e-10
    assert abs(ta.curvature_floor - tb.curvature_floor) < 1e-10
    assert np.max(np.abs(ta.minimizers - tb.minimizers)) < 1e-9
    ms = np.linspace(-0.8, 0.8, 41)
    fa = rn.coarse_free_energy(m_a, T, ms).values
    fb = rn.coarse_free_energy(m_b, T, ms).values
    assert np.max(np.abs((fa - fa[20]) - (fb - fb[20]))) < 1e-10

