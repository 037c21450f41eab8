import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg import lapack
from scipy.special import gamma as gamma_fn

from mflangevin import quad1d
from mflangevin.errors import GridFailure, NonNormalizable
from mflangevin.quad1d import PotentialSpec, build_measure, check_ghs, tilt_moments, tilt_table

from conftest import adaptive_simpson

# variance of exp(-x^4/4): 2*Gamma(3/4)/Gamma(1/4), frozen from the oracle below
QUARTIC0_VARIANCE = 0.6759782400672846


def test_quartic0_variance_oracle():
    # independent oracle: adaptive Simpson on [-12, 12] against the Gamma identity
    z = adaptive_simpson(lambda x: math.exp(-x**4 / 4.0), -12.0, 12.0)
    m2 = adaptive_simpson(lambda x: x * x * math.exp(-x**4 / 4.0), -12.0, 12.0)
    simpson_var = m2 / z
    gamma_var = 2.0 * gamma_fn(0.75) / gamma_fn(0.25)
    assert abs(simpson_var - gamma_var) < 1e-12
    assert abs(gamma_var - QUARTIC0_VARIANCE) < 1e-14


def test_gaussian_unit_moments(gaussian_measure):
    t = tilt_moments(gaussian_measure, 0.0)
    assert abs(t.mean) < 1e-10
    assert abs(t.variance - 1.0) < 1e-10


def test_quartic0_variance(quartic0_measure):
    assert abs(tilt_moments(quartic0_measure, 0.0).variance - QUARTIC0_VARIANCE) < 1e-10


def test_gaussian_tilt_shifts_mean_only(gaussian_measure):
    t = tilt_moments(gaussian_measure, 0.7)
    assert abs(t.mean - 0.7) < 1e-10
    assert abs(t.variance - 1.0) < 1e-10


def test_quartic0_zero_tilt_matches_build(quartic0_measure):
    assert abs(tilt_moments(quartic0_measure, 0.0).variance - QUARTIC0_VARIANCE) < 1e-10


def test_tilt_shrinks_variance_quartic1(quartic1_measure):
    assert tilt_moments(quartic1_measure, 2.5).variance \
        < tilt_moments(quartic1_measure, 0.0).variance


def test_large_tilt_widens_domain(quartic1_measure):
    t = tilt_moments(quartic1_measure, 8.0)
    assert t.mean > 1.5
    assert t.variance > 0


def test_collapsed_tilt_variance_raises(uniform_circle):
    # exp(-1e5 x) underflows at every node but x = 0
    with pytest.raises(GridFailure):
        tilt_moments(uniform_circle, -1e5)


def test_tilt_moments_is_tilt_table_at_one_tilt(quartic1_measure, uniform_circle):
    hs = [0.0, 0.3, -1.7, 8.0, -60.0]
    for measure in (quartic1_measure, uniform_circle):
        for h in hs:
            t = tilt_moments(measure, h)
            row = [a[0] for a in tilt_table(measure, [h])]
            assert np.array([t.log_z, t.mean, t.variance]).tobytes() == np.array(row).tobytes()


# -- class check -----------------------------------------------------------------

def test_ghs_quartic_double_well():
    assert check_ghs(PotentialSpec.quartic(1.0)).passed


def test_ghs_quartic_single_well():
    # V' = x^3 + 3x still has nondecreasing derivative on [0, inf)
    assert check_ghs(PotentialSpec.quartic(-3.0)).passed


def test_ghs_oscillating_tabulated_fails():
    xs = np.linspace(-6.0, 6.0, 2401)
    spec = PotentialSpec.tabulated(xs, xs**2 - np.cos(5.0 * xs))
    report = check_ghs(spec)
    assert not report.passed
    assert report.is_even and report.confining and not report.derivative_convex
    # symbolic oracle: V''(x) = 2 + 25 cos(5x) first decreases where sin(5x) > 0,
    # i.e. immediately right of 0; the first violation must land in (0, pi/5)
    assert report.first_violation is not None
    assert 0.0 < report.first_violation < math.pi / 5.0


def test_ghs_odd_potential_fails():
    xs = np.linspace(-6.0, 6.0, 1201)
    spec = PotentialSpec.tabulated(xs, xs**2 / 2 + 0.5 * xs)
    report = check_ghs(spec)
    assert not report.passed and not report.is_even


def test_ghs_report_computed_once_per_spec():
    xs = np.linspace(-6.0, 6.0, 1201)
    for make in (lambda: PotentialSpec.quartic(1.0),
                 lambda: PotentialSpec.tabulated(xs, xs**2 / 2 + 0.5 * xs)):
        spec = make()
        report = check_ghs(spec)
        assert check_ghs(spec) is report
        fresh = make()
        assert check_ghs(fresh) == report and check_ghs(fresh) is not report
    circle = PotentialSpec.periodic_fourier([1.0])
    for _ in range(2):  # a refusal is not kept as a report
        with pytest.raises(ValueError):
            check_ghs(circle)


# -- invariants -------------------------------------------------------------------

def _zero_tilt(nodes, weights, log_density):
    """log Z and normalised masses of the untilted measure on a grid."""
    log_z, p = quad1d.tilted_weights([[0.0]], nodes[None, :], weights, log_density)
    return log_z[0], p[0]


def _check_moments(nodes, weights, log_density):
    log_z, p = _zero_tilt(nodes, weights, log_density)
    return (log_z, *quad1d._moments(p, nodes))


@pytest.mark.parametrize("spec", [PotentialSpec.gaussian(1.0), PotentialSpec.quartic(1.0)])
def test_grid_doubling_stability(spec):
    m = build_measure(spec, 1e-10)
    lo, hi = m.domain_bounds
    nodes, weights = quad1d._composite_gauss_legendre(lo, hi, 2 * m.panels, m.panel_order)
    fine = _check_moments(nodes, weights, -spec.value(nodes))
    coarse = _check_moments(m.nodes, m.weights, m.log_density)
    assert quad1d._moment_distance(coarse, fine) < m.target_tol


def test_circle_grid_doubling_stability(uniform_circle):
    m = uniform_circle

    def check_vector(nodes, weights, log_density):
        log_z, p = _zero_tilt(nodes, weights, log_density)
        return np.concatenate([[log_z], quad1d._circle_modes(nodes) @ p])

    nodes, weights = quad1d._circle_grid(2 * m.panels)
    fine = check_vector(nodes, weights, -m.potential.value(nodes))
    coarse = check_vector(m.nodes, m.weights, m.log_density)
    assert float(np.max(np.abs(fine - coarse))) < m.target_tol


@pytest.mark.parametrize("h", [-1.5, -0.3, 0.0, 0.8, 2.0])
def test_tilt_consistency_dlogz(quartic1_measure, h):
    eps = 1e-5
    fd = (tilt_moments(quartic1_measure, h + eps).log_z
          - tilt_moments(quartic1_measure, h - eps).log_z) / (2.0 * eps)
    assert abs(fd - tilt_moments(quartic1_measure, h).mean) < 1e-6


@pytest.mark.parametrize("lam", [0.0, 1.0, 2.0])
def test_ghs_variance_max_at_zero_field(lam):
    m = build_measure(PotentialSpec.quartic(lam), 1e-10)
    v0 = tilt_moments(m, 0.0).variance
    for h in np.linspace(-4.0, 4.0, 33):
        assert tilt_moments(m, float(h)).variance <= v0 + 1e-12


@settings(max_examples=25, deadline=None)
@given(h=st.floats(-3.0, 3.0))
def test_even_potential_mean_is_odd_in_tilt(h):
    m = build_measure(PotentialSpec.quartic(1.0), 1e-10)
    assert abs(tilt_moments(m, h).mean + tilt_moments(m, -h).mean) < 1e-10


def test_tail_truncation_negligible(quartic1_measure):
    lo, hi = quartic1_measure.domain_bounds
    spec = quartic1_measure.potential
    peak = float(np.max(np.exp(quartic1_measure.log_density)))
    assert math.exp(-float(spec.value(np.array([lo]))[0])) < 1e-16 * peak
    assert math.exp(-float(spec.value(np.array([hi]))[0])) < 1e-16 * peak


# -- contracts / errors -------------------------------------------------------------

def test_tol_out_of_contract():
    with pytest.raises(ValueError):
        build_measure(PotentialSpec.gaussian(1.0), 1e-3)
    with pytest.raises(ValueError):
        build_measure(PotentialSpec.gaussian(1.0), 0.0)


def test_non_normalizable_tabulated():
    xs = np.linspace(-3.0, 3.0, 400)
    with pytest.raises(NonNormalizable):
        build_measure(PotentialSpec.tabulated(xs, -xs**4 / 4.0), 1e-8)


def test_unknown_kind_rejected():
    # the domain follows from the kind, so a kind must be one the spec knows
    with pytest.raises(ValueError, match="unknown potential kind 'quartik'"):
        PotentialSpec(kind="quartik", lam=1.0)
    with pytest.raises(ValueError, match="quartic potential needs lam"):
        PotentialSpec(kind="quartic")
    assert PotentialSpec.periodic_fourier([1.0]).domain == quad1d.CIRCLE
    assert PotentialSpec.quartic(1.0).domain == quad1d.REAL_LINE


@pytest.mark.parametrize("make, message", [
    (lambda: PotentialSpec.quartic(math.nan), "quartic potential needs lam, a finite number"),
    (lambda: PotentialSpec.quartic(math.inf), "quartic potential needs lam, a finite number"),
    (lambda: PotentialSpec.gaussian(math.inf), "gaussian potential needs a finite curvature"),
    (lambda: PotentialSpec.gaussian(math.nan), "gaussian potential needs a finite curvature"),
    (lambda: PotentialSpec.periodic_fourier([math.nan]), "coefficients must be finite"),
    (lambda: PotentialSpec.periodic_fourier([1.0, -math.inf]), "coefficients must be finite"),
], ids=["quartic_nan", "quartic_inf", "gaussian_inf", "gaussian_nan", "fourier_nan",
        "fourier_inf"])
def test_non_finite_parameter_rejected(make, message):
    # refused where the spec is made, not after build_measure's refinement budget
    with pytest.raises(ValueError, match=message):
        make()


def test_tabulated_validation():
    with pytest.raises(ValueError):
        PotentialSpec.tabulated([0.0, 1.0, 0.5, 2.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        PotentialSpec.tabulated([0.0, 1.0, 2.0, 3.0], [1.0, np.inf, 3.0, 4.0])


def test_tabulated_extrapolation_flag():
    xs = np.linspace(-2.0, 2.0, 200)
    m = build_measure(PotentialSpec.tabulated(xs, xs**2 / 2.0), 1e-8)
    assert m.extrapolated  # bounds must grow past the table for the tails


def test_tabulated_matches_dense_table(quartic1_measure):
    xs = np.linspace(-9.0, 9.0, 4001)
    spec = PotentialSpec.tabulated(xs, PotentialSpec.quartic(1.0).value(xs))
    m = build_measure(spec, 1e-8)
    assert abs(tilt_moments(m, 0.0).variance
               - tilt_moments(quartic1_measure, 0.0).variance) < 1e-7


# -- the tabulated spline against scipy's bits ------------------------------------

def _scipy_tabulated(spec, x, nu):
    """V or V' as scipy's not-a-knot CubicSpline gives it, with the package's
    quadratic continuation past each end of the table (test oracle)."""
    nodes = np.asarray(spec.table_nodes)
    spline = CubicSpline(nodes, np.asarray(spec.table_values))
    out = np.asarray(spline(x, nu=nu), dtype=float)
    for bound, mask in ((nodes[0], x < nodes[0]), (nodes[-1], x > nodes[-1])):
        v0, v1, v2 = (float(spline(bound, nu=k)) for k in range(3))
        t = x[mask] - bound
        out[mask] = v0 + v1 * t + 0.5 * v2 * t**2 if nu == 0 else v1 + v2 * t
    return out


def _double_well(xs):
    return xs**4 / 4.0 - xs**2 / 2.0


# the benchmark's well, every table the other tests build, the smallest table,
# a non-uniform one whose slope system LAPACK solves with row interchanges, one
# whose first and last spacings h have h**2 (pow) != h*h, and one that reaches
# -0.0 at a knot where every other term is -0.0 too (scipy returns 0.0)
SPLINE_TABLES = {
    "benchmark_well": (np.linspace(-3.0, 3.0, 61), _double_well),
    "dynamics_well": (np.linspace(-1.2, 1.2, 25), _double_well),
    "oscillating": (np.linspace(-6.0, 6.0, 2401), lambda x: x**2 - np.cos(5.0 * x)),
    "odd": (np.linspace(-6.0, 6.0, 1201), lambda x: x**2 / 2 + 0.5 * x),
    "narrow": (np.linspace(-2.0, 2.0, 200), lambda x: x**2 / 2.0),
    "dense_quartic": (np.linspace(-9.0, 9.0, 4001), PotentialSpec.quartic(1.0).value),
    "shifted_quartic": (np.linspace(-9.0, 9.0, 3001),
                        lambda x: PotentialSpec.quartic(1.0).value(x) + 7.3),
    "barrier": (np.linspace(-3.0, 3.0, 61), lambda x: 200.0 * (1.0 - np.exp(-x**2))),
    "four_nodes": (np.array([0.0, 1.0, 2.0, 3.0]), lambda x: np.array([1.0, -2.0, 0.5, 4.0])),
    "pivoting": (np.array([0.0, 0.1, 0.2, 5.0, 6.0, 7.0]), lambda x: np.sin(x) + x**2),
    "rounded_square": (np.array([0.0, 0.6352, 1.0, 2.0, 3.0, 3.8329]), np.exp),
    "negative_zero": (np.arange(5.0), lambda x: np.array([1.0, 0.5, -0.0, -1.0, -3.0])),
}


def _not_a_knot_system(nodes):
    """(sub, main, super) diagonals of the not-a-knot slope system."""
    dx = np.diff(nodes)
    return (np.append(dx[1:], nodes[-1] - nodes[-3]),
            np.concatenate([[dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]]]),
            np.append(nodes[2] - nodes[0], dx[:-1]))


@pytest.mark.parametrize("name", list(SPLINE_TABLES))
def test_tabulated_spline_matches_scipy_bits(name):
    nodes, fn = SPLINE_TABLES[name]
    spec = PotentialSpec.tabulated(nodes, fn(nodes))
    far = [1e50, 1e103, 1e200, np.inf]
    x = np.concatenate([nodes, np.nextafter(nodes, np.inf), np.nextafter(nodes, -np.inf),
                        (nodes[:-1] + nodes[1:]) / 2.0, far, np.negative(far), [np.nan]])
    with np.errstate(over="ignore", invalid="ignore"):
        for ours, nu in ((spec.value(x), 0), (spec.derivative(x), 1)):
            assert ours.tobytes() == _scipy_tabulated(spec, x, nu).tobytes()
            assert np.asarray(ours[:1]).tobytes() == np.asarray(
                (spec.value if nu == 0 else spec.derivative)(x[0])).tobytes()
    if name == "benchmark_well":
        # the continuation squares an offset of 1e103 finitely, without a
        # warning, and 1e200 to inf; a cubic term 0 * inf there would read NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.all(np.isfinite(spec.value(np.array([-1e103, 1e103]))))
            assert np.all(np.isfinite(spec.derivative(np.array([-1e103, 1e103]))))
        with np.errstate(over="ignore"):
            assert np.all(np.isinf(spec.value(np.array([-1e200, 1e200]))))


def test_pivoting_table_interchanges_rows():
    sub, main, sup = _not_a_knot_system(SPLINE_TABLES["pivoting"][0])
    fill, *_, info = lapack.dgtsv(sub, main, sup, np.ones(len(main)))
    assert info == 0 and np.any(fill != 0.0)  # a second superdiagonal only comes from interchanges


def test_dgtsv_matches_lapack_bits():
    rng = np.random.default_rng(11)
    interchanges = 0
    for n in range(4, 40):
        sub, sup = rng.normal(size=n - 1), rng.normal(size=n - 1)
        main, rhs = rng.normal(size=n), rng.normal(size=n)
        fill, *_, x, info = lapack.dgtsv(sub, main, sup, rhs)
        assert info == 0
        ours = quad1d._dgtsv(sub.tolist(), main.tolist(), sup.tolist(), rhs.tolist())
        assert ours.tobytes() == x.tobytes()
        interchanges += int(np.count_nonzero(fill))
    assert interchanges > 100


# -- quadrature invariants computed once --------------------------------------------

def test_gauss_legendre_rule_cached_and_read_only():
    for order in range(1, 33):
        x, w = quad1d._leggauss(order)
        ref_x, ref_w = np.polynomial.legendre.leggauss(order)
        assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()
        assert quad1d._leggauss(order)[0] is x
        for a in (x, w):
            with pytest.raises(ValueError):
                a[0] = 1.0


def _moment_step(monkeypatch, nodes, q):
    """tilt_table's means and variances as a function of row indices, with its
    kernel replaced by one that hands out the rows of the unnormalised masses
    q (tilt i stands for row i).  The measure is a circle, which is never
    widened, so the moment step sees ``nodes`` as they are."""
    z = q.sum(axis=1)

    def masses(fields, *_):
        rows = fields[:, 0].astype(int)
        return None, q[rows], z[rows]

    monkeypatch.setattr(quad1d, "_tilted_masses", masses)
    measure = quad1d.LineMeasure(PotentialSpec.periodic_fourier([]), nodes, np.ones_like(nodes),
                                 np.zeros_like(nodes), (0.0, 2.0 * np.pi), 1e-10,
                                 panels=len(nodes), panel_order=1)
    return lambda rows: tilt_table(measure, np.asarray(rows, dtype=float))[1:]


@pytest.mark.parametrize("rows", [1, 801])
def test_moment_step_row_invariant_and_within_forward_error(monkeypatch, rows):
    rng = np.random.default_rng(rows)
    n = 512
    nodes = np.sort(rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-100, 100, n))
    q = rng.random((rows, n)) * 10.0 ** rng.uniform(-300, 0, (rows, n))
    moments = _moment_step(monkeypatch, nodes, q)
    mean, var = moments(range(rows))
    bound = n * np.finfo(float).eps  # the forward-error bound of an n-term sum, per |term|
    for i in range(rows):
        one_mean, one_var = moments([i])
        assert one_mean.tobytes() == mean[i:i + 1].tobytes()
        assert one_var.tobytes() == var[i:i + 1].tobytes()
        z = math.fsum(q[i])
        terms = q[i] * nodes / z
        ref_mean = math.fsum(terms)
        assert abs(mean[i] - ref_mean) <= bound * np.sum(np.abs(terms))
        terms = q[i] * (nodes - ref_mean) ** 2 / z
        assert abs(var[i] - math.fsum(terms)) <= bound * np.sum(terms)


def _tilted_weights_by_matmul(fields, features, weights, log_density):
    """The kernel with its exponent as the BLAS product ``fields @ features``."""
    g = fields @ features
    g += log_density
    m = np.max(g, axis=-1, keepdims=True)
    g -= m
    np.exp(g, out=g)
    g *= weights
    z = np.sum(g, axis=-1, keepdims=True)
    g /= z
    return m[:, 0] + np.log(z[:, 0]), g


@pytest.mark.parametrize("name", ["gaussian_measure", "quartic1_measure", "uniform_circle"])
def test_one_feature_kernel_keeps_the_matmul_bits(request, name):
    m = request.getfixturevalue(name)
    hs = np.random.default_rng(3).uniform(-6.0, 6.0, 401)
    for fields in (hs[:1, None], hs[:, None]):
        got = quad1d.tilted_weights(fields, m.nodes[None, :], m.weights, m.log_density)
        ref = _tilted_weights_by_matmul(fields, m.nodes[None, :], m.weights, m.log_density)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref))


def _split(rows: int, data) -> list:
    """Random cut points that split range(rows) into consecutive slices."""
    cuts = data.draw(st.lists(st.integers(1, rows - 1), max_size=6, unique=True)
                     if rows > 1 else st.just([]))
    edges = [0, *sorted(cuts), rows]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def _same_bits(parts, whole) -> bool:
    return all(np.concatenate(p).tobytes() == w.tobytes() for p, w in zip(zip(*parts), whole))


@settings(max_examples=40, deadline=None)
@given(hs=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=80),
       features=st.sampled_from([1, 2]), data=st.data())
def test_tilt_kernels_do_not_depend_on_the_split(quartic1_measure, uniform_circle, hs,
                                                 features, data):
    hs = np.array(hs)
    for m in (quartic1_measure, uniform_circle):
        x = m.nodes
        rows = np.vstack([x, np.cos(x)][:features])
        fields = np.column_stack([hs, hs[::-1] / 2.0][:features])
        parts = _split(len(hs), data)
        whole = quad1d.tilted_weights(fields, rows, m.weights, m.log_density)
        assert _same_bits([quad1d.tilted_weights(fields[s], rows, m.weights, m.log_density)
                           for s in parts], whole)
        # |h| <= 5 never widens these grids, so every part is tabulated on the same one
        assert all(quad1d._rebuild_for_tilts(m, min(0.0, *hs[s]), max(0.0, *hs[s])) is m
                   for s in parts)
        assert _same_bits([tilt_table(m, hs[s]) for s in parts], tilt_table(m, hs))
