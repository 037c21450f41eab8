"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Closed-form ground truths are checked at tight tolerances; quadrature-oracle
equalities at their stated tolerances; large-system claims are checked as
desk-scale monotone trends on pinned seeds (the exponential-in-system-size
statements are not reproducible at this scale by design).

Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import contextlib
import math

import numpy as np
import pytest

from mflangevin import dynamics as dy
from mflangevin import graphs as gr
from mflangevin import modes as md
from mflangevin import renormalized as rn
from mflangevin.modes import ModeField
from mflangevin.quad1d import PotentialSpec, build_measure


@contextlib.contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL: {description}")
        raise
    print(f"criterion {num:2d} PASS: {description}")


def test_criterion_1_gaussian_ground_truth(gaussian_measure):
    with criterion(1, "gaussian closed forms (T_c, curvature, free energy, PL)"):
        assert abs(rn.critical_temperature(gaussian_measure) - 1.0) < 1e-10
        T = 2.0
        table = rn.renorm_potential(gaussian_measure, T,
                                    np.linspace(-3.0, 3.0, 301))
        assert np.max(np.abs(table.ddv - (1.0 / T - 1.0 / T**2))) < 1e-10
        ms = np.linspace(-1.2, 1.2, 49)
        fe = rn.coarse_free_energy(gaussian_measure, T, ms)
        ref = ms**2 * (T - 1.0) / (2.0 * T)
        assert np.max(np.abs((fe.values - fe.values[24]) - (ref - ref[24]))) < 1e-8
        pl = rn.pl_constant(rn.coarse_free_energy(gaussian_measure, T,
                                                  np.linspace(-2.0, 2.0, 201)))
        assert abs(pl - (T - 1.0) / T) < 1e-6


def test_criterion_2_curvature_floor_formula():
    with criterion(2, "curvature floor equals (T - T_c)/T^2 at zero field"):
        for lam in (0.0, 0.5, 1.0, 2.0):
            measure = build_measure(PotentialSpec.quartic(lam), 1e-10)
            t_c = rn.critical_temperature(measure)
            for factor in (1.1, 1.5, 2.0):
                T = factor * t_c
                table = rn.renorm_potential(measure, T,
                                            rn.auto_phi_grid(measure, T, 401))
                assert abs(table.curvature_floor - (T - t_c) / T**2) < 1e-6
                assert abs(table.phi_grid[int(np.argmin(table.ddv))]) < 1e-12


def test_criterion_3_legendre_round_trip(quartic1_measure, quartic1_tc):
    with criterion(3, "free energy / effective potential round trip < 1e-4"):
        T = 1.3 * quartic1_tc
        grid = rn.auto_phi_grid(quartic1_measure, T, 801)
        table = rn.renorm_potential(quartic1_measure, T, grid)
        m_lo = rn.magnetization_map(quartic1_measure, T, float(grid[0]))
        m_hi = rn.magnetization_map(quartic1_measure, T, float(grid[-1]))
        fe = rn.coarse_free_energy(quartic1_measure, T,
                                   np.linspace(m_lo, m_hi, 801))
        recon = np.min(fe.values[None, :]
                       + (grid[:, None] - fe.m_grid[None, :]) ** 2 / (2.0 * T),
                       axis=1)
        mid = len(grid) // 2
        dev = (recon - recon[mid]) - (table.v - table.v[mid])
        assert np.max(np.abs(dev)) < 1e-4


def test_criterion_4_xy_threshold():
    with criterion(4, "rotor-model convexity down to the 1/2 threshold"):
        for T in (0.55, 0.75, 1.0):
            report = md.xy_check(T)
            assert report.measured_min_eig >= 1.0 / T - 1.0 / (2.0 * T**2) - 1e-6
            assert report.convex
        assert md.xy_check(0.45).measured_min_eig < 0.0


def test_criterion_5_finite_n_gap(uniform_circle):
    with criterion(5, "finite-N effective potential gap shrinks like 1/N"):
        xy = md.xy_decomposition()
        psi = ModeField(coords=np.array([0.5, 0.0]))
        gaps = {n: abs(md.un_small_n(psi, 1.0, xy, uniform_circle, n).gap)
                for n in (1, 2, 4)}
        assert gaps[4] < gaps[2] < gaps[1]
        assert gaps[4] < 0.5 * gaps[1]


def test_criterion_6_graph_spectra():
    with criterion(6, "random graph spectral deviation scales"):
        d = 50
        hits = 0
        for seed in range(20):
            g = gr.gen_rrg(2000, d, seed)
            a = g.adjacency()
            assert np.max(np.abs(gr.centered_matvec(g, a, np.ones(g.n)))) <= 1e-12
            rep = gr.spectral_report(g)
            hits += rep.epsilon * d <= 4.0 * math.sqrt(d)
        assert hits >= 19

        d_mean = 60.0
        in_band = 0
        for seed in range(20):
            rep = gr.spectral_report(gr.gen_er(2000, d_mean, seed))
            in_band += (1.5 * math.sqrt(d_mean) <= rep.top_singular
                        <= 3.0 * math.sqrt(d_mean))
        assert in_band >= 18

        for g in (gr.gen_rrg(500, 20, 77), gr.gen_er(500, 25.0, 78)):
            rep = gr.spectral_report(g)
            dense = g.adjacency().toarray() - g.d_eff * np.ones((g.n, g.n)) / g.n
            top = float(np.max(np.abs(np.linalg.eigvalsh(dense))))
            assert abs(rep.top_singular - top) <= 1e-8 * top


def test_criterion_7_gaussian_dynamics_oracle():
    with criterion(7, "gaussian dynamics reproduces chi = T/(T-1) and is dt-robust"):
        base = dict(n_particles=100, temperature=2.0, seed=710, replicas=1,
                    potential=PotentialSpec.gaussian(1.0), thinning=10)
        run1 = dy.simulate(dy.SimConfig(dt=1e-3, n_steps=220_000, burn_in=20_000,
                                        **base))
        s1 = dy.susceptibility(run1)
        assert abs(s1.chi - 2.0) < 3.0 * s1.stderr
        run2 = dy.simulate(dy.SimConfig(dt=5e-4, n_steps=440_000, burn_in=40_000,
                                        **base))
        s2 = dy.susceptibility(run2)
        assert abs(s1.chi - s2.chi) < 2.0 * math.hypot(s1.stderr, s2.stderr)


@pytest.mark.slow
def test_criterion_8_susceptibility_divergence_trend(quartic1_tc):
    with criterion(8, "susceptibility grows approaching the critical point"):
        results = {}
        for factor in (1.05, 1.1, 1.3):
            cfg = dy.SimConfig(n_particles=100, temperature=factor * quartic1_tc,
                               dt=1e-3, n_steps=1_400_000, burn_in=100_000,
                               seed=800, thinning=20, replicas=8,
                               potential=PotentialSpec.quartic(1.0))
            results[factor] = dy.susceptibility(dy.simulate(cfg))
        for near, far in ((1.05, 1.1), (1.1, 1.3)):
            gap = results[near].chi - results[far].chi
            joint = math.hypot(results[near].stderr, results[far].stderr)
            assert gap > 3.0 * joint, (results[near], results[far])


@pytest.mark.slow
def test_criterion_9_subcritical_gap_collapse(quartic1_measure, quartic1_tc):
    with criterion(9, "two-plateau gap bound collapses with system size"):
        T = 0.6 * quartic1_tc
        table = rn.renorm_potential(quartic1_measure, T,
                                    rn.auto_phi_grid(quartic1_measure, T))
        m_plus = float(table.minimizers[-1])
        delta = m_plus / 6.0

        def bound_for(n, topology, seed):
            cfg = dy.SimConfig(n_particles=n, temperature=T, dt=1e-3,
                               n_steps=1_000_000, burn_in=100_000, seed=seed,
                               thinning=15, replicas=4,
                               potential=PotentialSpec.quartic(1.0),
                               topology=topology)
            samples = dy.symmetrize(dy.simulate(cfg))
            return dy.plateau_gap_bound(samples, m_plus, delta).bound

        complete_small = bound_for(50, "complete", 901)
        complete_large = bound_for(100, "complete", 902)
        assert complete_large < complete_small / 3.0, (complete_small, complete_large)

        graph_small = bound_for(60, gr.gen_rrg(60, 50, 31), 903)
        graph_large = bound_for(120, gr.gen_rrg(120, 50, 32), 904)
        assert graph_large < graph_small / 3.0, (graph_small, graph_large)


def test_criterion_10_covariance_bound():
    with criterion(10, "covariance inequality holds on Gaussian product measures"):
        for n in (1, 5, 20):
            rep = dy.covariance_bound_check(n, seed=1000 + n)
            assert rep.worst_ratio <= 1.0 + 5.0 * rep.worst_ratio_stderr, rep


def test_criterion_11_property_suites_headless():
    with criterion(11, "per-module property suites run in this session"):
        import test_dynamics
        import test_graphs
        import test_modes
        import test_quad1d
        import test_renormalized
        required = {
            test_quad1d: ["test_grid_doubling_stability", "test_tilt_consistency_dlogz",
                          "test_ghs_variance_max_at_zero_field",
                          "test_even_potential_mean_is_odd_in_tilt"],
            test_renormalized: ["test_dv_matches_fd_of_v", "test_ddv_matches_fd_of_dv",
                                "test_legendre_round_trip",
                                "test_constant_shift_invariance",
                                "test_minimizer_correspondence"],
            test_modes: ["test_hessian_matches_finite_differences",
                         "test_secant_strong_convexity",
                         "test_legendre_duality_one_mode",
                         "test_fixed_point_is_minimiser",
                         "test_reconstruction_residual"],
            test_graphs: ["test_power_iteration_matches_dense",
                          "test_rrg_seed_determinism", "test_matvec_symmetry"],
            test_dynamics: ["test_seed_determinism_and_shape",
                            "test_symmetrize_zero_mean",
                            "test_gaussian_control_bound_not_small"],
        }
        for module, names in required.items():
            for name in names:
                assert callable(getattr(module, name)), (module.__name__, name)
