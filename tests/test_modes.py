import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mflangevin import modes as md
from mflangevin import renormalized as rn
from mflangevin.errors import (ConsistencyCheckFailed, GridExplosion, TooManyModes,
                              TruncationTooCoarse, Unsupported)
from mflangevin.modes import Mode, ModeField
from mflangevin.quad1d import tilted_weights


def i0_series(z, terms=80):
    """Modified Bessel I0 by its power series (test oracle)."""
    s, t = 1.0, 1.0
    for k in range(1, terms):
        t *= (z * z / 4.0) / (k * k)
        s += t
    return s


@pytest.fixture(scope="module")
def xy():
    return md.xy_decomposition()


# -- fourier_decompose ---------------------------------------------------------------

def test_xy_decomposition_built_once():
    assert md.xy_decomposition() is md.xy_decomposition()


def test_decompose_pure_cosine(xy):
    assert xy.alpha == 0.0
    assert [(m.weight, m.kind, m.k) for m in xy.neg_modes] == [
        (1.0, "cos", 1), (1.0, "sin", 1)]
    assert xy.pos_modes == ()
    assert abs(xy.m_bound - 1.0) < 1e-9
    assert abs(xy.l_bound - math.sqrt(2.0)) < 1e-12


def test_decompose_zero_kernel():
    d = md.fourier_decompose(lambda t: 0.0 * np.asarray(t), 3, 1e-10)
    assert d.neg_modes == () and d.pos_modes == ()
    assert d.m_bound == 0.0 and d.l_bound == 0.0


def test_decompose_mixed_signs():
    d = md.fourier_decompose(lambda t: np.cos(t) - 0.3 * np.cos(2 * t), 2, 1e-9)
    # oracle: coefficients by direct trapezoid inner products
    theta = 2.0 * np.pi * np.arange(8192) / 8192
    w = np.cos(theta) - 0.3 * np.cos(2 * theta)
    for k, expected in ((1, 1.0), (2, -0.3)):
        coeff = 2.0 * np.mean(w * np.cos(k * theta))
        assert abs(coeff - expected) < 1e-12
    assert [(m.kind, m.k) for m in d.neg_modes] == [("cos", 1), ("sin", 1)]
    assert [(m.kind, m.k) for m in d.pos_modes] == [("cos", 2), ("sin", 2)]
    assert all(abs(m.weight - 0.3) < 1e-12 for m in d.pos_modes)


def test_decompose_coefficient_input():
    d = md.fourier_decompose([1.0, -0.3], 2, 1e-9)
    assert len(d.neg_modes) == 2 and len(d.pos_modes) == 2


def test_reconstruction_residual(xy):
    grid = np.linspace(0.0, 2.0 * np.pi, 101, endpoint=False)
    recon = xy.reconstruction(grid, grid)
    target = np.cos(np.subtract.outer(grid, grid))
    assert np.max(np.abs(recon - target)) < 1e-12


def test_truncation_too_coarse():
    with pytest.raises(TruncationTooCoarse):
        md.fourier_decompose(lambda t: np.cos(3 * t), 2, 1e-9)


def test_json_round_trip(xy):
    back = md.ModeDecomposition.from_json(xy.to_json())
    assert back == xy
    assert back.m_bound == xy.m_bound and back.l_bound == xy.l_bound


@pytest.mark.parametrize("parts, message", [
    ({"alpha": -1.0}, "quadratic coefficient"),
    ({"alpha": math.nan}, "quadratic coefficient"),
    ({"alpha": math.inf}, "quadratic coefficient"),
    ({"neg_modes": (Mode(-1.0, "cos", 1),)}, "mode weights"),
    ({"neg_modes": (Mode(math.nan, "cos", 1),)}, "mode weights"),
    ({"pos_modes": (Mode(math.inf, "cos", 1),)}, "mode weights"),
    ({"neg_modes": (Mode(1.0, "custom", fn=lambda x: 3.0 * np.tanh(x)),)}, "map into"),
    ({"neg_modes": (Mode(1.0, "custom", fn=lambda x: np.full_like(x, np.nan)),)}, "map into"),
    # NaN only off the circle, on the probe of the real line
    ({"neg_modes": (Mode(1.0, "custom", fn=lambda x: np.where(x > 7.0, np.nan, np.sin(x))),)},
     "map into"),
], ids=["negative_alpha", "nan_alpha", "infinite_alpha", "negative_weight", "nan_weight",
        "infinite_pos_weight", "custom_3tanh", "custom_nan", "custom_nan_off_circle"])
def test_constructor_refuses_bad_parts(parts, message):
    with pytest.raises(ValueError, match=message):
        md.ModeDecomposition(**parts)


def test_custom_mode_not_serialisable():
    d = md.ModeDecomposition(neg_modes=(Mode(1.0, "custom", fn=np.tanh),))
    with pytest.raises(ValueError):
        d.to_json()


# -- limiting potential -------------------------------------------------------------

def test_u_limit_zero_field(xy, uniform_circle):
    assert abs(md.u_limit(ModeField(coords=np.zeros(2)), 1.0, xy, uniform_circle)) < 1e-12


@pytest.mark.parametrize("z", [0.25, 1.0, 2.5])
def test_u_limit_bessel_oracle(xy, uniform_circle, z):
    u = md.u_limit(ModeField(coords=np.array([z, 0.0])), 1.0, xy, uniform_circle)
    assert abs(u + math.log(i0_series(z))) < 1e-8


def test_u_limit_rotation_invariance(xy, uniform_circle):
    a = md.u_limit(ModeField(coords=np.array([0.6, 0.8])), 1.0, xy, uniform_circle)
    b = md.u_limit(ModeField(coords=np.array([1.0, 0.0])), 1.0, xy, uniform_circle)
    assert abs(a - b) < 1e-10


def test_u_limit_pos_mode_uniform_fixed_point(uniform_circle):
    d = md.ModeDecomposition(neg_modes=(Mode(1.0, "cos", 1), Mode(1.0, "sin", 1)),
                             pos_modes=(Mode(0.5, "cos", 1),))
    # zero field: the uniform density is self-consistent and the value vanishes
    assert abs(md.u_limit(ModeField(coords=np.zeros(2)), 1.0, d, uniform_circle)) < 1e-12


def test_v_renorm_values(xy, uniform_circle):
    assert abs(md.v_renorm(ModeField(coords=np.zeros(2)), 1.0, xy, uniform_circle)) < 1e-12
    v = md.v_renorm(ModeField(coords=np.array([1.0, 0.0])), 1.0, xy, uniform_circle)
    assert abs(v - (0.5 - math.log(i0_series(1.0)))) < 1e-8


def test_v_renorm_matches_quadratic_route(quartic1_measure, quartic1_tc):
    # alpha-only decomposition on the real line reproduces the auxiliary-field
    # potential of the quadratic-interaction module
    T = 1.4 * quartic1_tc
    d = md.ModeDecomposition(alpha=1.0)
    grid = rn.auto_phi_grid(quartic1_measure, T, 101)
    table = rn.renorm_potential(quartic1_measure, T, grid)
    mid = len(grid) // 2
    for i in (5, 30, mid, 70, 95):
        phi = float(grid[i])
        v = md.v_renorm(ModeField(coords=np.empty(0), quad_part=phi), T, d,
                        quartic1_measure)
        v0 = md.v_renorm(ModeField(coords=np.empty(0), quad_part=float(grid[mid])),
                         T, d, quartic1_measure)
        assert abs((v - v0) - (table.v[i] - table.v[mid])) < 1e-8


# -- Hessian ---------------------------------------------------------------------------

def test_hessian_uniform(xy, uniform_circle):
    h = md.hessian_v_renorm(ModeField(coords=np.zeros(2)), 1.0, xy, uniform_circle)
    assert np.max(np.abs(h - 0.5 * np.eye(2))) < 1e-12


def test_hessian_floor_at_low_temperature(xy, uniform_circle):
    bound = 1.0 / 0.6 - 1.0 / (2.0 * 0.36)
    rng = np.random.default_rng(4)
    for _ in range(5):
        zeta = rng.uniform(-4.0, 4.0, 2)
        h = md.hessian_v_renorm(ModeField(coords=zeta), 0.6, xy, uniform_circle)
        assert np.linalg.eigvalsh(h)[0] >= bound - 1e-9


def test_hessian_refuses_pos_modes(uniform_circle):
    d = md.ModeDecomposition(neg_modes=(Mode(1.0, "cos", 1),), pos_modes=(Mode(0.2, "cos", 2),))
    with pytest.raises(Unsupported):
        md.hessian_v_renorm(ModeField(coords=np.zeros(1)), 1.0, d, uniform_circle)


def test_hessian_matches_finite_differences(xy, uniform_circle):
    rng = np.random.default_rng(11)
    step = 1e-4
    for _ in range(10):
        zeta = rng.uniform(-2.0, 2.0, 2)
        h = md.hessian_v_renorm(ModeField(coords=zeta), 0.8, xy, uniform_circle)

        def v_at(vec):
            return md.v_renorm(ModeField(coords=vec), 0.8, xy, uniform_circle)

        fd = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                ei, ej = np.eye(2)[i] * step, np.eye(2)[j] * step
                fd[i, j] = (v_at(zeta + ei + ej) - v_at(zeta + ei - ej)
                            - v_at(zeta - ei + ej) + v_at(zeta - ei - ej)) / (4.0 * step**2)
        assert np.max(np.abs(fd - h)) < 1e-5


# -- convexity scan ----------------------------------------------------------------------

def test_scan_bound_supercritical(xy, uniform_circle):
    scan = md.strong_convexity_scan(0.75, xy, uniform_circle, [(-6, 6)] * 2, 21)
    assert scan.lambda_hat >= 1.0 / 0.75 - 1.0 / (2.0 * 0.75**2) - 1e-9


def test_scan_negative_below_critical(xy, uniform_circle):
    scan = md.strong_convexity_scan(0.4, xy, uniform_circle, [(-6, 6)] * 2, 21)
    assert scan.lambda_hat < 0


@pytest.mark.parametrize("T", [0.0, -1.0, math.nan])
def test_xy_check_refuses_non_positive_temperature(T):
    with pytest.raises(ValueError, match="temperature must be positive"):
        md.xy_check(T)


def test_scan_refuses_empty(uniform_circle):
    with pytest.raises(ValueError):
        md.strong_convexity_scan(1.0, md.ModeDecomposition(), uniform_circle, [], 5)


def test_scan_refuses_many_modes(uniform_circle):
    d = md.ModeDecomposition(neg_modes=tuple(Mode(0.1, "cos", k) for k in range(1, 5)))
    with pytest.raises(TooManyModes):
        md.strong_convexity_scan(1.0, d, uniform_circle, [(-1, 1)] * 4, 3)


def _scan_loop_oracle(T, decomp, measure, region, grid):
    """The per-point scan: one Hessian and one eigvalsh per grid point, with
    the tilted measure normalised through log base masses (test oracle)."""
    g = measure.log_density + np.log(measure.weights)
    base = g - (np.max(g) + np.log(np.sum(np.exp(g - np.max(g)))))
    nm = decomp.weighted_modes(measure.nodes)
    points, eigs = [], []
    for combo in itertools.product(*[np.linspace(lo, hi, grid) for lo, hi in region]):
        zeta = np.array(combo)
        e = base + (zeta @ nm) / T
        p = np.exp(e - np.max(e))
        p /= np.sum(p)
        centred = nm - (nm @ p)[:, None]
        hess = np.eye(decomp.dim) / T - (centred * p[None, :]) @ centred.T / T**2
        points.append(zeta)
        eigs.append(float(np.linalg.eigvalsh((hess + hess.T) / 2.0)[0]))
    return np.array(points), np.array(eigs)


@pytest.mark.parametrize("case", ["rotor", "quadratic_plus_two_modes"])
@pytest.mark.parametrize("T", [0.35, 0.51, 1.2])
def test_scan_matches_loop_oracle(case, T, xy, uniform_circle, quartic1_measure):
    if case == "rotor":
        decomp, measure, region, grid = xy, uniform_circle, [(-6, 6)] * 2, 41
    else:
        decomp = md.ModeDecomposition(alpha=0.5, neg_modes=(Mode(0.8, "custom", fn=np.tanh),
                                                            Mode(0.3, "cos", 1)))
        measure, region, grid = quartic1_measure, [(-2, 2), (-3, 3), (-1, 1)], 11
    scan = md.strong_convexity_scan(T, decomp, measure, region, grid)
    points, eigs = _scan_loop_oracle(T, decomp, measure, region, grid)
    assert np.array_equal(scan.grid_points, points)
    assert np.max(np.abs(scan.min_eigs - eigs)) <= 1e-12
    assert scan.lambda_hat == np.min(scan.min_eigs)
    tied = scan.min_eigs <= scan.lambda_hat + 1e-12 * max(1.0, abs(scan.lambda_hat))
    assert np.array_equal(scan.argmin, points[int(np.argmax(tied))])
    one = md.hessian_v_renorm(ModeField.from_vector(points[7], decomp), T, decomp, measure)
    assert abs(np.linalg.eigvalsh(one)[0] - eigs[7]) <= 1e-12


@pytest.mark.parametrize("grid", [20, 40])
@pytest.mark.parametrize("T", [0.35, 0.51, 1.2])
def test_scan_argmin_first_of_ties(T, grid, xy, uniform_circle):
    # on an even grid the four points nearest the origin tie up to rounding;
    # argmin is the first of them in product order, lambda_hat the exact minimum
    scan = md.strong_convexity_scan(T, xy, uniform_circle, [(-6, 6)] * 2, grid)
    lam = scan.lambda_hat
    assert lam == np.min(scan.min_eigs)
    tied = scan.min_eigs <= lam + 1e-12 * max(1.0, abs(lam))
    assert np.sum(tied) == 4
    h = np.linspace(-6.0, 6.0, grid)[grid // 2 - 1]
    assert np.array_equal(scan.argmin, [h, h])
    assert np.array_equal(scan.argmin, scan.grid_points[int(np.argmax(tied))])


@settings(max_examples=15, deadline=None)
@given(count=st.integers(1, 700), seed=st.integers(0, 2**32 - 1), T=st.floats(0.3, 2.0))
def test_min_eigs_do_not_depend_on_the_chunk(count, seed, T, xy, uniform_circle):
    points = np.random.default_rng(seed).uniform(-6.0, 6.0, (count, 2))
    whole = np.linalg.eigvalsh(md._hessians(points, T, xy, uniform_circle))[:, 0]
    for chunk in (1, 7, 64, 512):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(md, "_HESSIAN_CHUNK", chunk)
            assert md._min_eigs(points, T, xy, uniform_circle).tobytes() == whole.tobytes()


def test_secant_strong_convexity(xy, uniform_circle):
    # lambda-strong convexity from the Hessian scan implies the secant
    # inequality along random segments within the scanned box
    T = 1.0
    scan = md.strong_convexity_scan(T, xy, uniform_circle, [(-3, 3)] * 2, 21)
    lam = scan.lambda_hat
    rng = np.random.default_rng(3)
    for _ in range(100):
        z1, z2 = rng.uniform(-3.0, 3.0, 2), rng.uniform(-3.0, 3.0, 2)
        t = rng.uniform(0.0, 1.0)
        v1 = md.v_renorm(ModeField(coords=z1), T, xy, uniform_circle)
        v2 = md.v_renorm(ModeField(coords=z2), T, xy, uniform_circle)
        vt = md.v_renorm(ModeField(coords=t * z1 + (1 - t) * z2), T, xy, uniform_circle)
        lhs = t * v1 + (1 - t) * v2
        rhs = vt + 0.5 * lam * t * (1 - t) * float(np.sum((z1 - z2) ** 2))
        assert lhs >= rhs - 1e-8


def test_legendre_duality_one_mode(uniform_circle):
    # recover the coarse free energy from the effective potential by the dual
    # supremum, re-plug it into the infimum, and land back on the potential
    d = md.ModeDecomposition(neg_modes=(Mode(1.0, "cos", 1),))
    T = 1.0
    psis = np.linspace(-3.0, 3.0, 601)
    v = np.array([md.v_renorm(ModeField(coords=np.array([p])), T, d, uniform_circle)
                  for p in psis])
    ms = np.linspace(-0.9, 0.9, 601)
    fhat = np.max(v[None, :] - (psis[None, :] - ms[:, None]) ** 2 / (2.0 * T), axis=1)
    v_back = np.min(fhat[None, :] + (psis[:, None] - ms[None, :]) ** 2 / (2.0 * T), axis=1)
    inner = (np.abs(psis) < 2.0)  # dual sup needs interior maximisers
    assert np.max(np.abs(v_back[inner] - v[inner])) < 1e-4


def test_fixed_point_is_minimiser(uniform_circle):
    d = md.ModeDecomposition(neg_modes=(Mode(1.0, "cos", 1), Mode(1.0, "sin", 1)),
                             pos_modes=(Mode(0.4, "cos", 2),))
    psi = ModeField(coords=np.array([0.7, -0.2]))
    T = 0.9
    dens = md.self_consistent_density(psi, T, d, uniform_circle)
    base = md.bracket_value(dens, psi, T, d, uniform_circle)
    a = tilted_weights([[0.0]], uniform_circle.nodes[None, :], uniform_circle.weights,
                       uniform_circle.log_density)[1][0]
    rng = np.random.default_rng(8)
    for _ in range(20):
        eta = rng.standard_normal(len(dens))
        eta -= float(np.sum(a * dens * eta))  # zero mean under the current density
        for eps in (1e-3, 1e-2):
            pert = dens * (1.0 + eps * eta)
            pert = np.clip(pert, 0.0, None)
            pert /= float(np.sum(a * pert))
            assert md.bracket_value(pert, psi, T, d, uniform_circle) >= base - 1e-10


# -- finite-N potential --------------------------------------------------------------------

def test_un_single_particle_value(xy, uniform_circle):
    r = md.un_small_n(ModeField(coords=np.zeros(2)), 1.0, xy, uniform_circle, 1)
    assert abs(r.u_n - 0.5) < 1e-12
    r2 = md.un_small_n(ModeField(coords=np.zeros(2)), 2.0, xy, uniform_circle, 1)
    assert abs(r2.u_n - 0.25) < 1e-12


def test_un_gap_shrinks(xy, uniform_circle):
    psi = ModeField(coords=np.array([0.5, 0.0]))
    g1 = abs(md.un_small_n(psi, 1.0, xy, uniform_circle, 1).gap)
    g2 = abs(md.un_small_n(psi, 1.0, xy, uniform_circle, 2).gap)
    assert g2 < g1


def test_un_monte_carlo_oracle(gaussian_measure):
    d = md.ModeDecomposition(neg_modes=(Mode(1.0, "custom", fn=np.tanh,
                                             dfn=lambda x: 1.0 / np.cosh(x) ** 2),))
    r = md.un_small_n(ModeField(coords=np.array([0.0])), 1.0, d, gaussian_measure, 2)
    rng = np.random.default_rng(7)
    w = np.exp(-(np.tanh(rng.standard_normal((2_000_000, 2))).sum(axis=1)) ** 2 / 4.0)
    mc = float(w.mean())
    se = float(w.std(ddof=1) / math.sqrt(len(w)))
    u_mc = -0.5 * math.log(mc)
    u_se = se / (2.0 * mc)
    assert abs(r.u_n - u_mc) < 3.0 * u_se


def _un_tensor(psi, T, decomp, measure, n):
    """Reference u_N by (N-1)-fold tail-tensor quadrature: each head node
    sees the tail's product measure tilted by -head/(Tn)."""
    zeta = psi.as_vector(decomp)
    feats = decomp.weighted_modes(measure.nodes)
    if decomp.pos_modes:
        p_mode = decomp.pos_modes[0]
        feats = np.vstack([feats, math.sqrt(p_mode.weight) * p_mode(measure.nodes)])
        zeta = np.concatenate([zeta, [0.0]])
    scale = 1.0 / (2.0 * T * n)

    def exponent(sums):
        return (zeta / T) @ sums - scale * np.einsum("ij,ij->j", sums, sums)

    tail = np.zeros((len(feats), 1))
    tail_ld, tail_w = np.zeros(1), np.ones(1)
    for _ in range(n - 1):
        tail = (tail[:, :, None] + feats[:, None, :]).reshape(len(feats), -1)
        tail_ld = (tail_ld[:, None] + measure.log_density[None, :]).ravel()
        tail_w = (tail_w[:, None] * measure.weights[None, :]).ravel()
    tail_ld += exponent(tail)
    tail_log_z = np.array([tilted_weights(-2.0 * scale * feats[None, :, i], tail, tail_w,
                                          tail_ld)[0][0]
                           for i in range(len(measure.nodes))])
    log_z, _ = tilted_weights([[0.0], [1.0]], (exponent(feats) + tail_log_z)[None, :],
                              measure.weights, measure.log_density)
    return -(log_z[1] - n * log_z[0]) / n


def _tanh_decomposition(alpha):
    return md.ModeDecomposition(alpha=alpha, neg_modes=(Mode(1.0, "custom", fn=np.tanh,
                                                             dfn=lambda x: 1.0 / np.cosh(x) ** 2),))


def _un_oracle_cases():
    xy = md.xy_decomposition()
    xy_pos = md.ModeDecomposition(neg_modes=xy.neg_modes, pos_modes=(Mode(0.3, "cos", 2),))
    alpha4 = _tanh_decomposition(4.0)
    cases = [("xy", xy, "circle", [0.5, -0.2], 4),
             ("xy_pos", xy_pos, "circle", [0.5, -0.2], 4),
             ("tanh_gaussian", _tanh_decomposition(0.5), "gaussian", [0.3, 0.4], 3),
             ("tanh_quartic1", _tanh_decomposition(0.5), "quartic1", [0.3, 0.4], 3),
             # a strong quadratic part: the pair weights span hundreds of e-folds
             ("alpha4_gaussian", alpha4, "gaussian", [0.3, 0.4], 3),
             ("alpha8_gaussian", _tanh_decomposition(8.0), "gaussian", [0.3, 0.4], 3)]
    # at T = 0.05 many inner sums of the N = 3 pair contraction underflow where they
    # matter, and are summed again
    cold = [("alpha4_gaussian", alpha4, "gaussian", [0.3, 0.4], 3),
            ("alpha16_gaussian", _tanh_decomposition(16.0), "gaussian", [0.3, 0.4], 3),
            ("alpha16_quartic1", _tanh_decomposition(16.0), "quartic1", [0.3, 0.4], 3)]
    return ([(*case, T) for T in (0.35, 1.0) for case in cases]
            + [(*case, 0.05) for case in cold])


@pytest.mark.parametrize("name,decomp,measure,vec,n_max,T", _un_oracle_cases(),
                         ids=[f"{c[0]}-{c[-1]}" for c in _un_oracle_cases()])
def test_un_matches_tensor_oracle(name, decomp, measure, vec, n_max, T, uniform_circle,
                                  gaussian_measure, quartic1_measure):
    measure = {"circle": uniform_circle, "gaussian": gaussian_measure,
               "quartic1": quartic1_measure}[measure]
    psi = ModeField.from_vector(vec, decomp)
    for n in range(1, n_max + 1):
        got = md.un_small_n(psi, T, decomp, measure, n).u_n
        assert abs(got - _un_tensor(psi, T, decomp, measure, n)) <= 1e-13


def _brute_log_pair_sum(lw, n):
    """log of the sum over all node n-tuples, one term per tuple, and the largest
    term's exponent."""
    tuples = np.array(list(itertools.product(range(len(lw)), repeat=n)))
    exps = sum(lw[tuples[:, i], tuples[:, j]] for i, j in itertools.combinations(range(n), 2))
    top = float(np.max(exps))
    return top + math.log(np.sum(np.exp(exps - top))), top


def _indefinite_lw(c, scale, m_pts=16):
    x = np.linspace(-3.0, 3.0, m_pts)
    return -scale * (np.multiply.outer(x, x) + c * np.add.outer(x**2, x**2))


# lw_ab = -scale (x_a x_b + c (x_a^2 + x_b^2)) is indefinite for c < 1/2: the largest pair
# weights sit at x_a = -x_b, where no third node can join them; in the last two cases
# underflowed inner sums are summed again
@pytest.mark.parametrize("c,scale,n", [(0.45, 10.0, 2), (0.45, 10.0, 3), (0.45, 10.0, 4),
                                       (0.3, 100.0, 3), (0.3, 200.0, 4)])
def test_log_pair_sum_matches_brute_force(c, scale, n):
    lw = _indefinite_lw(c, scale)
    want, top = _brute_log_pair_sum(lw, n)
    assert abs(md._log_pair_sum(lw.copy(), n) - want) <= 1e-13 * max(1.0, abs(top))


def test_pair_sums_exact_where_inner_sums_underflow(gaussian_measure, monkeypatch):
    # at T = 0.05 the N = 3 inner sums fall below the smallest subnormal where they
    # still matter (the sum would be off by ~1e-8), and so do the N = 3, 4 inner
    # sums of this lw: each input is summed again (a zero work limit refuses it, by
    # name), and the result matches its oracle
    d = _tanh_decomposition(4.0)
    psi = ModeField.from_vector([0.3, 0.4], d)
    lw = _indefinite_lw(0.2, 400.0)
    with monkeypatch.context() as patch:
        patch.setattr(md, "_EXACT_TERMS", 0)
        with pytest.raises(ConsistencyCheckFailed, match="_EXACT_TERMS"):
            md.un_small_n(psi, 0.05, d, gaussian_measure, 3)
        for n in (3, 4):
            with pytest.raises(ConsistencyCheckFailed,
                               match=rf"N={n} pair sum needs \d+ exact terms > _EXACT_TERMS = 0$"):
                md._log_pair_sum(lw.copy(), n)
    want = _un_tensor(psi, 0.05, d, gaussian_measure, 3)
    assert abs(md.un_small_n(psi, 0.05, d, gaussian_measure, 3).u_n - want) \
        <= 1e-13 * max(1.0, abs(want))
    for n in (3, 4):
        want, top = _brute_log_pair_sum(lw, n)
        assert abs(md._log_pair_sum(lw.copy(), n) - want) <= 1e-13 * max(1.0, abs(top))


def _log_pair_sum_whole(lw, n):
    """Reference N = 4 pair sum that holds the whole (m, m, m) factor tensor A
    and its product with K, and sums no inner sum again."""
    assert n == 4
    m_pts, r = len(lw), lw.max(axis=1)
    a = lw[:, None, :] + (lw + 0.5 * r)[None, :, :]
    s = a.max(axis=2, keepdims=True)
    a -= s
    a = np.exp(a, out=a).reshape(-1, m_pts)
    k = np.exp(lw - 0.5 * (r[:, None] + r))
    with np.errstate(divide="ignore"):
        inner = np.log(np.einsum("ij,ij->i", a @ k, a).reshape(m_pts, m_pts))
    return md._log_sum_exp(lw + 2.0 * s[:, :, 0] + inner)


def _three_row_blocks(monkeypatch, m_pts):
    # blocks of 3 first indices: at least 3 of them, the last one shorter
    assert m_pts >= 9 and m_pts % 3
    monkeypatch.setattr(md, "_PAIR_BLOCK", 3 * m_pts**2)


@pytest.mark.parametrize("T", [0.35, 1.0])
def test_blocked_pair_sum_matches_whole_tensor_xy(T, xy, uniform_circle, monkeypatch):
    psi = ModeField.from_vector([0.5, -0.2], xy)
    _three_row_blocks(monkeypatch, len(uniform_circle.nodes))
    got = md.un_small_n(psi, T, xy, uniform_circle, 4).u_n
    monkeypatch.setattr(md, "_log_pair_sum", _log_pair_sum_whole)
    want = md.un_small_n(psi, T, xy, uniform_circle, 4).u_n
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


# the last two cases sum underflowed inner sums again (the third was refused before
# that) and so differ from the whole tensor's sums: brute force checks them
@pytest.mark.parametrize("c,scale", [(0.45, 10.0), (0.3, 200.0), (0.2, 400.0)])
def test_blocked_pair_sum_matches_whole_tensor(c, scale, monkeypatch):
    lw = _indefinite_lw(c, scale)
    unblocked = md._log_pair_sum(lw.copy(), 4)
    _three_row_blocks(monkeypatch, len(lw))
    got = md._log_pair_sum(lw.copy(), 4)
    assert np.float64(got).tobytes() == np.float64(unblocked).tobytes()
    if c == 0.45:
        assert np.float64(got).tobytes() == np.float64(_log_pair_sum_whole(lw, 4)).tobytes()
    else:
        want, top = _brute_log_pair_sum(lw, 4)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(top))


def test_pair_sum_memory_bounded(xy, uniform_circle):
    # N = 4 builds its (m, m, m) factor tensor in blocks of 2 MiB, so the 128-node
    # circle stays far below the 2 m^3 doubles (32 MiB) of the whole tensor and
    # its product with K
    psi = ModeField.from_vector([0.5, -0.2], xy)
    tracemalloc.start()
    try:
        md.un_small_n(psi, 0.35, xy, uniform_circle, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_pair_sum_redo_memory_bounded(monkeypatch):
    # N = 4 sums each underflowed inner sum again over m^2 terms, _PAIR_BLOCK terms
    # at a time: on 64 nodes the redo needs more than 16 blocks (32 MiB), and the
    # call never holds three at once
    lw = _indefinite_lw(0.3, 200.0, 64)
    with monkeypatch.context() as patch:
        patch.setattr(md, "_EXACT_TERMS", 16 * md._PAIR_BLOCK)
        with pytest.raises(ConsistencyCheckFailed):
            md._log_pair_sum(lw.copy(), 4)
    tracemalloc.start()
    try:
        md._log_pair_sum(lw, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * md._PAIR_BLOCK, peak


def test_un_budget(xy, uniform_circle, monkeypatch):
    monkeypatch.setattr(md, "_TENSOR_BUDGET", 1000)
    with pytest.raises(GridExplosion):
        md.un_small_n(ModeField(coords=np.zeros(2)), 1.0, xy, uniform_circle, 4)
    with pytest.raises(ValueError):
        md.un_small_n(ModeField(coords=np.zeros(2)), 1.0, xy, uniform_circle, 5)


# -- rotor-model report ----------------------------------------------------------------------

def test_xy_check_values():
    r = md.xy_check(1.0, grid=21)
    assert abs(r.bound - 0.5) < 1e-12 and r.convex
    r = md.xy_check(0.5, grid=21)
    assert abs(r.bound) < 1e-12
    # at the threshold the scanned minimum has to sit at zero to grid scale
    assert abs(r.measured_min_eig) < 1e-3
    r = md.xy_check(0.4, grid=21)
    assert abs(r.bound + 0.625) < 1e-12 and not r.convex


@pytest.mark.parametrize("grid", [5, 21, 41, 6, 40])
def test_xy_check_matches_full_grid_scan(grid, xy):
    # the reference scans the whole grid; xy_check scans 0 <= zeta_2 <= zeta_1
    for T in (0.35, 0.45, 0.5, 0.55, 0.75, 1.0, 1.2):
        full = md.strong_convexity_scan(T, xy, md._xy_measure(), [(-6.0, 6.0)] * 2, grid)
        measured = md.xy_check(T, grid=grid).measured_min_eig
        if grid % 2:
            assert measured == full.lambda_hat
        else:
            # linspace(-6, 6, grid) mirrors itself only up to rounding, and the
            # minimum is the difference of two terms of size 1/T (zero at T = 1/2)
            assert abs(measured - full.lambda_hat) <= 1e-14 / T


def test_xy_check_scans_the_fundamental_domain(monkeypatch):
    rows = []
    hessians = md._hessians

    def counted(zetas, *args):
        rows.append(len(zetas))
        return hessians(zetas, *args)

    monkeypatch.setattr(md, "_hessians", counted)
    md.xy_check(0.7)
    assert sum(rows) == 231  # 21 * 22 / 2 of the 41 * 41 grid points
