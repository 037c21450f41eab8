"""The three workloads: `landscape`, `langevin` and `graphs`.

Each workload has `setup(seed, ctx)`, which builds the fixed measures and
inputs, and `run_pass(inputs, ctx)`, which runs the task list once and checks
every output against an oracle.  Every pass of a run reuses the same inputs,
so the exact counts and output digests of all passes must agree.

The seed only draws parameters inside fixed ranges (temperatures, fields,
tilts, simulation seeds).  The graphs whose spectra the `graphs` workload
computes are the criterion-6 graphs for every run seed: power-iteration
counts vary about 20x from graph to graph, so graphs drawn from the run seed
would make the time to solution measure the draw rather than the code.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass

import numpy as np

from harness import Pass, expect, spectral_bytes
from mflangevin import cli
from mflangevin import dynamics as dy
from mflangevin import graphs as gr
from mflangevin import modes as md
from mflangevin import quad1d
from mflangevin import renormalized as rn
from mflangevin.modes import ModeField
from mflangevin.quad1d import PotentialSpec

TWO_PI = 2.0 * math.pi


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(workload.encode())])


def _build(ctx: Pass, spec: PotentialSpec):
    measure = ctx.call("quad1d.build_measure", quad1d.build_measure, spec, 1e-10)
    ctx.count("quad1d.build_measure.nodes", len(measure.nodes))
    return measure


def _cli(ctx: Pass, argv: list[str], out_dir) -> int:
    """`mfl <argv> --out out_dir` in this process; human summaries are discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = ctx.call("cli.run", cli.run, [*argv, "--out", str(out_dir)])
    ctx.count("cli.run.calls", 1)
    if out_dir.is_dir():
        ctx.count("cli.bytes_written", sum(p.stat().st_size for p in out_dir.iterdir()))
    return code


def _fresh_dir(ctx: Pass, name: str):
    path = ctx.workdir / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- landscape: the deterministic quadrature pipelines -----------------------------

LAMBDAS = (0.0, 0.5, 1.0, 2.0)
T_FACTORS = (1.05, 1.1, 1.2, 1.5, 2.0, 3.0)
XY_TEMPERATURES = np.linspace(0.35, 1.2, 8)
FLAT_CONVEX_KERNEL = [1.0, -0.5]


@dataclass
class LandscapeInputs:
    quartic: dict
    gaussian: object
    circle: object
    xy: object
    t_factors: list
    t_gauss: float
    rt_factor: float
    tilts: np.ndarray
    flat_psi: np.ndarray
    flat_t: float
    flat_eta: np.ndarray
    xy_temps: list
    un_psi: np.ndarray
    un_t: float
    cli_lam: float
    cli_factor: float


def landscape_setup(seed: int, ctx: Pass) -> LandscapeInputs:
    rng = _rng(seed, "landscape")
    quartic = {lam: _build(ctx, PotentialSpec.quartic(lam)) for lam in LAMBDAS}
    gaussian = _build(ctx, PotentialSpec.gaussian(1.0))
    circle = _build(ctx, PotentialSpec.periodic_fourier([]))
    t_factors = [f * (1.0 + rng.uniform(-0.01, 0.01)) for f in T_FACTORS]
    t_gauss = float(rng.uniform(1.8, 2.4))
    rt_factor = float(rng.uniform(1.25, 1.35))
    tilts = rng.uniform(5.0, 60.0, 20)
    flat_psi = rng.uniform(-0.8, 0.8, 2)
    flat_t = float(rng.uniform(0.8, 1.2))
    flat_eta = rng.standard_normal((4, len(circle.nodes)))
    # every temperature stays at least 0.015 away from the threshold 1/2
    xy_temps = [float(t + rng.uniform(-0.015, 0.015)) for t in XY_TEMPERATURES]
    angle = rng.uniform(0.0, TWO_PI)
    un_psi = rng.uniform(0.4, 0.6) * np.array([math.cos(angle), math.sin(angle)])
    return LandscapeInputs(
        quartic=quartic, gaussian=gaussian, circle=circle, xy=md.xy_decomposition(),
        t_factors=t_factors, t_gauss=t_gauss, rt_factor=rt_factor, tilts=tilts,
        flat_psi=flat_psi, flat_t=flat_t, flat_eta=flat_eta, xy_temps=xy_temps,
        un_psi=un_psi, un_t=float(rng.uniform(0.9, 1.1)),
        cli_lam=float(rng.choice(LAMBDAS)), cli_factor=float(rng.uniform(1.2, 1.6)))


def landscape_pass(inp: LandscapeInputs, ctx: Pass) -> None:
    t_crit = {}
    for lam, measure in inp.quartic.items():
        with ctx.op(f"check_ghs[lam={lam}]"):
            report = ctx.call("quad1d.check_ghs", quad1d.check_ghs, measure.potential)
            expect(report.passed, f"quartic({lam}) failed the class check: {report.detail}")
            t_crit[lam] = ctx.call("renormalized.critical_temperature",
                                   rn.critical_temperature, measure)

    # the curvature-floor scan of scripts/curvature_floor_scan.py
    for lam, measure in inp.quartic.items():
        for nominal, factor in zip(T_FACTORS, inp.t_factors):
            with ctx.op(f"curvature_floor[lam={lam},factor~{nominal}]"):
                T = factor * t_crit[lam]
                grid = ctx.call("renormalized.auto_phi_grid", rn.auto_phi_grid, measure, T, 401)
                table = ctx.call("renormalized.renorm_potential", rn.renorm_potential,
                                 measure, T, grid)
                ctx.count("renormalized.renorm_potential.points", len(grid))
                predicted = (T - t_crit[lam]) / T**2
                expect(abs(table.curvature_floor - predicted) < 1e-6,
                       f"floor {table.curvature_floor:.9g} vs (T-T_c)/T^2 {predicted:.9g}")

    # criterion 1: Gaussian closed forms
    with ctx.op("gaussian_closed_forms"):
        g, T = inp.gaussian, inp.t_gauss
        t_c = ctx.call("renormalized.critical_temperature", rn.critical_temperature, g)
        expect(abs(t_c - 1.0) < 1e-10, f"T_c = {t_c!r}, expected 1")
        phi = np.linspace(-3.0, 3.0, 301)
        table = ctx.call("renormalized.renorm_potential", rn.renorm_potential, g, T, phi)
        ctx.count("renormalized.renorm_potential.points", len(phi))
        err = float(np.max(np.abs(table.ddv - (1.0 / T - 1.0 / T**2))))
        expect(err < 1e-10, f"v'' deviates from 1/T - 1/T^2 by {err:.3g}")
        ms = np.linspace(-1.2, 1.2, 49)
        fe = ctx.call("renormalized.coarse_free_energy", rn.coarse_free_energy, g, T, ms)
        ctx.count("renormalized.coarse_free_energy.points", len(ms))
        ref = ms**2 * (T - 1.0) / (2.0 * T)
        err = float(np.max(np.abs((fe.values - fe.values[24]) - (ref - ref[24]))))
        expect(err < 1e-8, f"free energy deviates from m^2 (T-1)/(2T) by {err:.3g}")
        wide = np.linspace(-2.0, 2.0, 201)
        fe = ctx.call("renormalized.coarse_free_energy", rn.coarse_free_energy, g, T, wide)
        ctx.count("renormalized.coarse_free_energy.points", len(wide))
        pl = ctx.call("renormalized.pl_constant", rn.pl_constant, fe)
        expect(abs(pl - (T - 1.0) / T) < 1e-6, f"PL constant {pl!r} vs (T-1)/T")

    # criterion 3: free energy / effective potential round trip on 801 points
    m1 = inp.quartic[1.0]
    T = inp.rt_factor * t_crit[1.0]
    fe = None
    with ctx.op("free_energy_round_trip"):
        grid = ctx.call("renormalized.auto_phi_grid", rn.auto_phi_grid, m1, T, 801)
        table = ctx.call("renormalized.renorm_potential", rn.renorm_potential, m1, T, grid)
        ctx.count("renormalized.renorm_potential.points", len(grid))
        m_lo = ctx.call("renormalized.magnetization_map", rn.magnetization_map, m1, T,
                        float(grid[0]))
        m_hi = ctx.call("renormalized.magnetization_map", rn.magnetization_map, m1, T,
                        float(grid[-1]))
        ms = np.linspace(m_lo, m_hi, 801)
        fe = ctx.call("renormalized.coarse_free_energy", rn.coarse_free_energy, m1, T, ms)
        ctx.count("renormalized.coarse_free_energy.points", len(ms))
        recon = np.min(fe.values[None, :]
                       + (grid[:, None] - fe.m_grid[None, :]) ** 2 / (2.0 * T), axis=1)
        mid = len(grid) // 2
        dev = float(np.max(np.abs((recon - recon[mid]) - (table.v - table.v[mid]))))
        expect(dev < 1e-4, f"round trip deviates by {dev:.3g}")
    with ctx.op("pl_constant[quartic]"):
        pl = ctx.call("renormalized.pl_constant", rn.pl_constant, fe)
        expect(0.0 < pl < math.inf, f"PL constant {pl!r} above T_c is not positive")

    # explicit tilts wide enough to widen the quadrature domain; V is even
    with ctx.op("tilt_sweep"):
        for h in inp.tilts:
            up = ctx.call("quad1d.tilt_moments", quad1d.tilt_moments, m1, float(h))
            down = ctx.call("quad1d.tilt_moments", quad1d.tilt_moments, m1, -float(h))
            ctx.count("quad1d.tilt_moments.calls", 2)
            scale = max(1.0, abs(up.mean))
            expect(abs(up.mean + down.mean) <= 1e-8 * scale,
                   f"mean not odd in the tilt at h={h:.4g}")
            expect(abs(up.log_z - down.log_z) <= 1e-8 * max(1.0, abs(up.log_z)),
                   f"log Z not even in the tilt at h={h:.4g}")
            expect(up.variance > 0.0 and
                   abs(up.variance - down.variance) <= 1e-8 * up.variance,
                   f"variance not even in the tilt at h={h:.4g}")

    # u_limit with a flat-convex part goes through the damped fixed point
    with ctx.op("u_limit_fixed_point"):
        dec = ctx.call("modes.fourier_decompose", md.fourier_decompose,
                       FLAT_CONVEX_KERNEL, len(FLAT_CONVEX_KERNEL))
        psi = ModeField.from_vector(inp.flat_psi, dec)
        T = inp.flat_t
        u = ctx.call("modes.u_limit", md.u_limit, psi, T, dec, inp.circle)
        zero = ctx.call("modes.u_limit", md.u_limit, ModeField.from_vector(np.zeros(dec.dim), dec),
                        T, dec, inp.circle)
        expect(abs(zero) < 1e-12, f"u_limit(0) = {zero!r}, expected 0")
        dens = ctx.call("modes.self_consistent_density", md.self_consistent_density,
                        psi, T, dec, inp.circle)
        base = inp.circle.weights * np.exp(inp.circle.log_density)
        base /= base.sum()
        for eta in inp.flat_eta:
            eta = eta - float(np.sum(base * dens * eta))
            pert = np.clip(dens * (1.0 + 1e-2 * eta), 0.0, None)
            pert /= float(np.sum(base * pert))
            value = md.bracket_value(pert, psi, T, dec, inp.circle)
            expect(value >= u - 1e-10, f"perturbed bracket {value!r} below the fixed point {u!r}")

    # the rotor profile of scripts/xy_convexity_profile.py
    for nominal, T in zip(XY_TEMPERATURES, inp.xy_temps):
        with ctx.op(f"xy_check[T~{nominal:.2f}]"):
            report = ctx.call("modes.xy_check", md.xy_check, T)
            ctx.count("modes.xy_check.grid_points", 41 * 41)
            floor = 1.0 / T - 1.0 / (2.0 * T**2)
            expect(report.measured_min_eig >= floor - 1e-6,
                   f"scan minimum {report.measured_min_eig!r} below the floor {floor!r}")
            expect(report.convex == (T > 0.5), f"convex={report.convex} at T={T}")

    # criterion 5: finite-N gap shrinks with N
    psi = ModeField(coords=inp.un_psi)
    gaps = {}
    for n in (1, 2, 3, 4):
        with ctx.op(f"un_small_n[N={n}]"):
            res = ctx.call("modes.un_small_n", md.un_small_n, psi, inp.un_t, inp.xy,
                           inp.circle, n)
            ctx.count("modes.un_small_n.tensor_points", len(inp.circle.nodes) ** n)
            expect(math.isfinite(res.gap), f"gap {res.gap!r}")
            gaps[n] = abs(res.gap)
    with ctx.op("un_small_n.gap_shrinks"):
        g = [gaps[n] for n in (1, 2, 3, 4)]
        expect(all(a > b for a, b in zip(g, g[1:])) and g[3] < 0.5 * g[0],
               f"gaps do not shrink with N: {g}")

    # `mfl scan-vt`, then a rerun from its sidecar
    with ctx.op("cli.scan_vt_rerun"):
        lam = inp.cli_lam
        T = inp.cli_factor * t_crit[lam]
        first, second = _fresh_dir(ctx, "scan_a"), _fresh_dir(ctx, "scan_b")
        code = _cli(ctx, ["scan-vt", "--potential", "quartic", "--lam", repr(lam),
                          "--T", repr(T), "--points", "801"], first)
        expect(code == 0, f"scan-vt exited {code}")
        code = _cli(ctx, ["scan-vt", "--config", str(first / "sidecar.json")], second)
        expect(code == 0, f"scan-vt rerun exited {code}")
        for name in ("renorm.csv", "renorm.json", "sidecar.json"):
            expect((first / name).read_bytes() == (second / name).read_bytes(),
                   f"rerun changed {name}")
        ctx.digest("scan-vt/renorm.csv", (first / "renorm.csv").read_bytes())
        floor = json.loads((first / "renorm.json").read_text())["curvature_floor"]
        predicted = (T - t_crit[lam]) / T**2
        expect(abs(floor - predicted) < 1e-6, f"scan-vt floor {floor!r} vs {predicted!r}")


# -- langevin: particle dynamics on the complete graph and the circle ---------------

@dataclass
class LangevinInputs:
    configs: dict
    m_plus: float
    cov_seed: int
    chi_exact: float


def langevin_setup(seed: int, ctx: Pass) -> LangevinInputs:
    rng = _rng(seed, "langevin")
    quartic = PotentialSpec.quartic(1.0)
    measure = _build(ctx, quartic)
    t_c = ctx.call("renormalized.critical_temperature", rn.critical_temperature, measure)
    xs = np.linspace(-3.0, 3.0, 61)
    well = PotentialSpec.tabulated(xs, xs**4 / 4.0 - xs**2 / 2.0)
    circle = PotentialSpec.periodic_fourier([])
    xy = ctx.call("modes.fourier_decompose", md.xy_decomposition)

    def jitter(lo, hi):
        return float(rng.uniform(lo, hi))

    def sim_seed():
        return int(rng.integers(1, 2**31))

    t_sub = jitter(0.58, 0.62) * t_c
    grid = ctx.call("renormalized.auto_phi_grid", rn.auto_phi_grid, measure, t_sub)
    table = ctx.call("renormalized.renorm_potential", rn.renorm_potential, measure, t_sub, grid)
    ctx.count("renormalized.renorm_potential.points", len(grid))
    t_gauss = jitter(2.5, 3.5)
    configs = {
        # the criterion-8 shape
        "quartic_n100_r8": dy.SimConfig(
            n_particles=100, temperature=jitter(1.04, 1.06) * t_c, dt=1e-3, n_steps=12_000,
            burn_in=1_200, seed=sim_seed(), thinning=20, replicas=8, potential=quartic),
        # below T_c, long enough a burn-in for every replica to settle in a well
        "quartic_sub_n100_r8": dy.SimConfig(
            n_particles=100, temperature=t_sub, dt=1e-3, n_steps=8_000, burn_in=4_000,
            seed=sim_seed(), thinning=10, replicas=8, potential=quartic),
        # the noise block (8 x 512 x 1000 doubles, 33 MB) no longer fits in L2
        "quartic_n1000_r8": dy.SimConfig(
            n_particles=1000, temperature=jitter(1.04, 1.06) * t_c, dt=1e-3, n_steps=2_000,
            burn_in=200, seed=sim_seed(), thinning=20, replicas=8, potential=quartic),
        "xy_n100_r8": dy.SimConfig(
            n_particles=100, temperature=jitter(0.8, 1.2), dt=1e-3, n_steps=4_000,
            burn_in=400, seed=sim_seed(), thinning=20, replicas=8, potential=circle,
            modes=xy),
        "tabulated_n100_r8": dy.SimConfig(
            n_particles=100, temperature=jitter(1.0, 1.2) * t_c, dt=1e-3, n_steps=1_500,
            burn_in=150, seed=sim_seed(), thinning=10, replicas=8, potential=well),
        # the criterion-7 oracle chi = T/(T-1)
        "gaussian_n100_r1": dy.SimConfig(
            n_particles=100, temperature=t_gauss, dt=1e-3, n_steps=100_000, burn_in=5_000,
            seed=sim_seed(), thinning=10, replicas=1, potential=PotentialSpec.gaussian(1.0)),
    }
    return LangevinInputs(configs=configs, m_plus=float(table.minimizers[-1]),
                          cov_seed=sim_seed(), chi_exact=t_gauss / (t_gauss - 1.0))


def langevin_pass(inp: LangevinInputs, ctx: Pass) -> None:
    samples = {}
    for tag, config in inp.configs.items():
        with ctx.op(f"simulate[{tag}]"):
            out = ctx.simulate(tag, dy.simulate, config)
            ctx.digest(f"simulate[{tag}]", out)
            expect(out.shape == (config.replicas, config.n_kept, config.n_particles),
                   f"shape {out.shape}")
            expect(bool(np.all(np.isfinite(out))), "non-finite state")
            if config.potential.domain == quad1d.CIRCLE:
                expect(bool(np.all((out >= 0.0) & (out < TWO_PI))), "angle outside [0, 2pi)")
            samples[tag] = out

    with ctx.op("gaussian_chi"):
        sus = ctx.call("dynamics.estimators", dy.susceptibility, samples["gaussian_n100_r1"])
        # batch means with 20 batches: |t_19| > 5 has probability 8e-5 per run
        expect(abs(sus.chi - inp.chi_exact) <= 5.0 * sus.stderr,
               f"chi {sus.chi:.5g} +- {sus.stderr:.3g} vs T/(T-1) = {inp.chi_exact:.5g}")

    quartic = samples.get("quartic_n100_r8")
    with ctx.op("estimators[quartic_n100_r8]"):
        quartic_sus = ctx.call("dynamics.estimators", dy.susceptibility, quartic)
        report = ctx.call("dynamics.estimators", dy.estimate, quartic)
        chi = quartic_sus.chi
        expect(0.0 < chi < math.inf and quartic_sus.stderr > 0.0, f"chi {quartic_sus}")
        expect(report.chi == chi and report.gap_upper_chi == 1.0 / chi,
               "estimate() disagrees with susceptibility()")

    with ctx.op("plateau_gap_bound[quartic_sub_n100_r8]"):
        pooled = ctx.call("dynamics.estimators", dy.symmetrize, samples["quartic_sub_n100_r8"])
        mbar = pooled.mean(axis=2)
        expect(abs(float(mbar.mean())) <= 1e-12 * float(np.max(np.abs(mbar))),
               "symmetrised magnetisation does not average to zero")
        bound = ctx.call("dynamics.estimators", dy.plateau_gap_bound, pooled,
                         inp.m_plus, inp.m_plus / 6.0)
        expect(bound.n_plus == bound.n_minus > 0, f"plateau visits {bound}")
        expect(0.0 <= bound.bound < math.inf, f"bound {bound.bound!r}")

    with ctx.op("samples_round_trip"):
        config = inp.configs["quartic_n100_r8"]
        path, again = ctx.workdir / "samples.bin", ctx.workdir / "samples_again.bin"
        meta_in = dict(temperature=config.temperature, dt=config.dt, seed=config.seed)
        ctx.call("dynamics.samples_io", dy.write_samples, quartic, path, **meta_in)
        back, meta = ctx.call("dynamics.samples_io", dy.read_samples, path)
        ctx.call("dynamics.samples_io", dy.write_samples, back, again, **meta_in)
        size = path.stat().st_size
        ctx.count("dynamics.samples_io.bytes", 3 * size)
        expect(back.tobytes() == quartic.tobytes(), "read_samples changed the samples")
        expect(path.read_bytes() == again.read_bytes(), "rewritten sample file differs")
        expect((meta["replicas"], meta["frames"], meta["n"]) == quartic.shape
               and meta["temperature"] == config.temperature, f"meta {meta}")

    with ctx.op("cli.estimate"):
        out = _fresh_dir(ctx, "estimate")
        code = _cli(ctx, ["estimate", "--samples", str(ctx.workdir / "samples.bin")], out)
        expect(code == 0, f"estimate exited {code}")
        est = json.loads((out / "estimate.json").read_text())
        expect(est["chi"] == quartic_sus.chi
               and est["samples_used"] == quartic_sus.samples_used,
               f"mfl estimate chi {est['chi']!r} vs library {quartic_sus.chi!r}")

    with ctx.op("covariance_bound_check[n=5]"):
        samples_per_pair = 200_000
        report = ctx.call("dynamics.covariance_bound_check", dy.covariance_bound_check,
                          5, seed=inp.cov_seed, n_samples=samples_per_pair)
        ctx.count("dynamics.covariance_bound_check.samples", 10 * samples_per_pair)
        # the inequality holds exactly; exceeding 1 + 5 sigma of a 20-batch
        # estimate has probability below 1e-4 per pair
        expect(report.worst_ratio <= 1.0 + 5.0 * report.worst_ratio_stderr,
               f"covariance ratio {report.worst_ratio:.4g} +- {report.worst_ratio_stderr:.2g}")


# -- graphs: random-graph spectra and dynamics on graphs ----------------------------

RRG_SEEDS = (0, 1, 2)          # the first criterion-6 seeds
ER_SEEDS = (0, 1, 2)
RRG_N, RRG_D = 2000, 50
ER_N, ER_D = 2000, 60.0
CLI_RRG_SEED = 2
DENSE_CHECKS = ((gr.gen_rrg, (500, 20, 77)), (gr.gen_er, (500, 25.0, 78)))  # as criterion 6


@dataclass
class GraphsInputs:
    configs: dict


def graphs_setup(seed: int, ctx: Pass) -> GraphsInputs:
    rng = _rng(seed, "graphs")
    quartic = PotentialSpec.quartic(1.0)
    measure = _build(ctx, quartic)
    t_c = ctx.call("renormalized.critical_temperature", rn.critical_temperature, measure)

    def sim_seed():
        return int(rng.integers(1, 2**31))

    small = ctx.call("graphs.gen_rrg", gr.gen_rrg, 120, 50, sim_seed())
    large = ctx.call("graphs.gen_rrg", gr.gen_rrg, 1000, 50, sim_seed())
    t_sub = float(rng.uniform(0.58, 0.62)) * t_c
    configs = {
        # n <= 512 takes the dense-adjacency path: the criterion-9 shape
        "rrg_dense_n120_r4": dy.SimConfig(
            n_particles=120, temperature=t_sub, dt=1e-3, n_steps=6_000, burn_in=600,
            seed=sim_seed(), thinning=15, replicas=4, potential=quartic, topology=small),
        "rrg_sparse_n1000_r1": dy.SimConfig(
            n_particles=1000, temperature=t_sub, dt=1e-3, n_steps=4_000, burn_in=400,
            seed=sim_seed(), thinning=15, replicas=1, potential=quartic, topology=large),
    }
    return GraphsInputs(configs=configs)


def graphs_pass(inp: GraphsInputs, ctx: Pass) -> None:
    reference = {}
    for kind, seeds in (("rrg", RRG_SEEDS), ("er", ER_SEEDS)):
        for s in seeds:
            with ctx.op(f"spectral_report[{kind},seed={s}]"):
                if kind == "rrg":
                    g = ctx.call("graphs.gen_rrg", gr.gen_rrg, RRG_N, RRG_D, s)
                else:
                    g = ctx.call("graphs.gen_er", gr.gen_er, ER_N, ER_D, s)
                ctx.digest(f"graph[{kind},{s}]", g.edges)
                centred = gr.centered_matvec(g, g.adjacency(), np.ones(g.n))
                if kind == "rrg":
                    expect(float(np.max(np.abs(centred))) <= 1e-12,
                           "centred matvec does not annihilate the constant vector")
                report = ctx.call("graphs.spectral_report", gr.spectral_report, g)
                ctx.count("graphs.spectral_report.iterations", report.iterations)
                ctx.digest(f"spectral[{kind},{s}]", spectral_bytes(report))
                d = g.d_eff
                if kind == "rrg":
                    expect(report.epsilon * d <= 4.0 * math.sqrt(d),
                           f"epsilon*d = {report.epsilon * d:.4g} > 4 sqrt(d)")
                else:
                    expect(1.5 * math.sqrt(d) <= report.top_singular <= 3.0 * math.sqrt(d),
                           f"top singular {report.top_singular:.4g} outside [1.5, 3] sqrt(d)")
                reference[(kind, s)] = (g, report)

    # power iteration against dense eigvalsh at n = 500
    for g_fn, args in DENSE_CHECKS:
        with ctx.op(f"dense_cross_check[{g_fn.__name__}]"):
            g = ctx.call(f"graphs.{g_fn.__name__}", g_fn, *args)
            report = ctx.call("graphs.spectral_report", gr.spectral_report, g)
            ctx.count("graphs.spectral_report.iterations", report.iterations)
            dense = g.adjacency().toarray() - g.d_eff * np.ones((g.n, g.n)) / g.n
            top = float(np.max(np.abs(np.linalg.eigvalsh(dense))))
            expect(abs(report.top_singular - top) <= 1e-8 * top,
                   f"power iteration {report.top_singular!r} vs eigvalsh {top!r}")

    with ctx.op("edge_list_round_trip"):
        g, _ = reference[("rrg", CLI_RRG_SEED)]
        path = ctx.workdir / "graph.edges"
        ctx.call("graphs.edge_list", gr.write_edge_list, g, path)
        back = ctx.call("graphs.edge_list", gr.read_edge_list, path)
        ctx.count("graphs.edge_list.bytes", 2 * path.stat().st_size)
        expect(np.array_equal(back.edges, g.edges)
               and (back.n, back.d_eff, back.kind, back.seed) == (g.n, g.d_eff, g.kind, g.seed),
               "edge list round trip changed the graph")

    with ctx.op("cli.graph_gen_spectrum"):
        g, report = reference[("rrg", CLI_RRG_SEED)]
        gen_dir, spec_dir = _fresh_dir(ctx, "graph_gen"), _fresh_dir(ctx, "graph_spectrum")
        code = _cli(ctx, ["graph-gen", "--kind", "regular", "--n", str(RRG_N),
                          "--d", str(RRG_D), "--seed", str(CLI_RRG_SEED)], gen_dir)
        expect(code == 0, f"graph-gen exited {code}")
        expect((gen_dir / "graph.edges").read_bytes() == path.read_bytes(),
               "mfl graph-gen wrote a different edge list than write_edge_list")
        code = _cli(ctx, ["graph-spectrum", "--graph", str(gen_dir / "graph.edges")], spec_dir)
        expect(code == 0, f"graph-spectrum exited {code}")
        got = json.loads((spec_dir / "spectrum.json").read_text())
        expect((got["epsilon"], got["top_singular"], got["iterations"])
               == (report.epsilon, report.top_singular, report.iterations),
               f"mfl graph-spectrum {got} differs from spectral_report")

    for tag, config in inp.configs.items():
        with ctx.op(f"simulate[{tag}]"):
            out = ctx.simulate(tag, dy.simulate, config)
            ctx.digest(f"simulate[{tag}]", out)
            expect(out.shape == (config.replicas, config.n_kept, config.n_particles),
                   f"shape {out.shape}")
            expect(bool(np.all(np.isfinite(out))), "non-finite state")


WORKLOADS = {
    "landscape": (landscape_setup, landscape_pass),
    "langevin": (langevin_setup, langevin_pass),
    "graphs": (graphs_setup, graphs_pass),
}
