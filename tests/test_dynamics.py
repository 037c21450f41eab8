import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from mflangevin import dynamics as dy
from mflangevin import graphs as gr
from mflangevin import modes as md
from mflangevin.errors import InsufficientSamples, NumericalBlowup, SingleWellOnly
from mflangevin.quad1d import CIRCLE, PotentialSpec


def gaussian_config(**kw):
    base = dict(n_particles=4, temperature=2.0, dt=1e-3, n_steps=100, burn_in=0,
                seed=1, potential=PotentialSpec.gaussian(1.0))
    base.update(kw)
    return dy.SimConfig(**base)


# -- drift ------------------------------------------------------------------------

def test_drift_vanishes_at_origin():
    assert np.allclose(dy.drift(np.zeros(4), gaussian_config()), 0.0)


def test_drift_constant_state():
    # -V'(1) + (1/(NT)) * N = -1 + 1/2
    out = dy.drift(np.ones(4), gaussian_config())
    assert np.allclose(out, -0.5)


def test_drift_graph_vs_complete_zero_sum():
    # On K_4 the adjacency has no diagonal: with sum(x) = 0 the neighbour sum
    # is -x_i, so the graph drift equals the complete drift minus x/(3T).
    g = gr.gen_rrg(4, 3, 5)
    cfg_c = gaussian_config()
    cfg_g = gaussian_config(topology=g)
    x = np.array([1.0, -1.0, 2.0, -2.0])
    expected = dy.drift(x, cfg_c) - x / (3.0 * cfg_c.temperature)
    assert np.allclose(dy.drift(x, cfg_g), expected, atol=1e-12)


def test_drift_replica_batch_matches_single():
    cfg = gaussian_config()
    x = np.array([[0.3, -0.1, 0.7, 0.2], [1.0, 1.0, -1.0, 0.5]])
    batch = dy.drift(x, cfg)
    for r in range(2):
        assert np.allclose(batch[r], dy.drift(x[r], cfg))


def test_drift_circle_modes():
    dec = md.xy_decomposition()
    cfg = dy.SimConfig(n_particles=3, temperature=1.0, dt=1e-3, n_steps=10, burn_in=0,
                       seed=1, potential=PotentialSpec.periodic_fourier([]), modes=dec)
    x = np.array([0.3, 1.2, 2.0])
    # -V' = 0; drift_i = (1/NT)[ -sin(x_i) sum cos(x_j) + cos(x_i) sum sin(x_j) ]
    expected = (-np.sin(x) * np.sum(np.cos(x)) + np.cos(x) * np.sum(np.sin(x))) / 3.0
    assert np.allclose(dy.drift(x, cfg), expected)


# -- simulate -----------------------------------------------------------------------

def test_ou_stationary_variance():
    cfg = dy.SimConfig(n_particles=50, temperature=2.0, dt=1e-3, n_steps=60_000,
                       burn_in=10_000, seed=3, thinning=10, replicas=2,
                       modes=md.ModeDecomposition(), potential=PotentialSpec.gaussian(1.0))
    s = dy.simulate(cfg)
    var = float(s.var())
    n_eff = 50 * 2 * (cfg.n_steps - cfg.burn_in) * cfg.dt / 2.0  # crude tau ~ 1
    assert abs(var - 1.0) < 3.0 * math.sqrt(2.0 / n_eff)


def test_seed_determinism_and_shape():
    cfg = gaussian_config(n_steps=500, burn_in=100, thinning=5, replicas=3)
    a = dy.simulate(cfg)
    b = dy.simulate(cfg)
    assert a.shape == (3, 80, 4)
    assert np.array_equal(a, b)


def test_circle_states_wrapped():
    dec = md.xy_decomposition()
    cfg = dy.SimConfig(n_particles=8, temperature=1.0, dt=1e-3, n_steps=2000,
                       burn_in=0, seed=2, thinning=10,
                       potential=PotentialSpec.periodic_fourier([]), modes=dec)
    s = dy.simulate(cfg)
    assert np.all(s >= 0.0) and np.all(s < 2.0 * np.pi)


def test_blowup_detected():
    with pytest.warns(RuntimeWarning):
        cfg = dy.SimConfig(n_particles=4, temperature=1.0, dt=2.0, n_steps=5000,
                           burn_in=0, seed=1, potential=PotentialSpec.quartic(0.0))
    with pytest.raises(NumericalBlowup):
        dy.simulate(cfg)


def _diverging_drift(after_calls, value):
    """Stand-in for ``_drift_fn``: a zero drift that returns ``value`` from
    step ``after_calls`` on."""
    calls = 0

    def make(config):
        def f(x):
            nonlocal calls
            calls += 1
            return np.full_like(x, value if calls > after_calls else 0.0)
        return f

    return make


def test_blowup_after_last_block_start(monkeypatch):
    # n=200, R=8 caps a block at 327 steps; the blow-up at step 350 comes
    # after the last block start, so only the check on the kept states sees it
    cfg = gaussian_config(n_particles=200, replicas=8, n_steps=400, thinning=10)
    monkeypatch.setattr(dy, "_drift_fn", _diverging_drift(350, 1e300))
    with pytest.raises(NumericalBlowup, match="admissible region"):
        dy.simulate(cfg)
    # a longer run meets it at the start of the next capped block
    cfg = gaussian_config(n_particles=200, replicas=8, n_steps=700, thinning=10)
    monkeypatch.setattr(dy, "_drift_fn", _diverging_drift(350, 1e300))
    with pytest.raises(NumericalBlowup, match="at step 654"):
        dy.simulate(cfg)


@pytest.mark.parametrize("replicas", [1, 3])
def test_nan_in_kept_states_refused(monkeypatch, replicas):
    cfg = gaussian_config(replicas=replicas, n_steps=300, thinning=10)
    monkeypatch.setattr(dy, "_drift_fn", _diverging_drift(250, np.nan))
    with pytest.raises(NumericalBlowup, match="admissible region"):
        dy.simulate(cfg)


def test_noise_memory_bounded():
    # the noise buffer is capped at 4 MiB whatever the replica count, so the
    # traced peak is the output plus a few MiB
    cfg = gaussian_config(n_particles=1000, replicas=8, n_steps=600, burn_in=100)
    tracemalloc.start()
    try:
        out = dy.simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 8 * 2**20, (peak, out.nbytes)


def test_stability_warning():
    with pytest.warns(RuntimeWarning):
        dy.SimConfig(n_particles=4, temperature=1.0, dt=0.2, n_steps=100, burn_in=0,
                     seed=1, potential=PotentialSpec.quartic(1.0))


def test_stability_warning_uses_the_bound_of_the_modes():
    # weight-1000 rotor modes have L = sqrt(2000) = 44.7; a file that states
    # L = 1 does not silence the warning
    text = json.dumps({"alpha": 0.0, "pos": [], "M": 1.0, "L": 1.0,
                       "neg": [{"w": 1000.0, "kind": kind, "k": 1} for kind in ("cos", "sin")]})
    dec = md.ModeDecomposition.from_json(text)
    assert dec.l_bound == md.fourier_decompose([1000.0], 1).l_bound
    with pytest.warns(RuntimeWarning, match="dt\\*stiffness"):
        dy.SimConfig(n_particles=4, temperature=2.0, dt=1e-3, n_steps=100, burn_in=0,
                     seed=1, potential=PotentialSpec.periodic_fourier([]), modes=dec)


@pytest.mark.parametrize("part", ["neg", "pos"])
def test_stability_warning_counts_both_parts(part):
    # the drift has both parts: a weight-1000 rotor pair is as stiff on either side
    dec = md.ModeDecomposition(**{f"{part}_modes": md.fourier_decompose([1000.0], 1).neg_modes})
    with pytest.warns(RuntimeWarning, match="dt\\*stiffness"):
        dy.SimConfig(n_particles=4, temperature=2.0, dt=1e-3, n_steps=100, burn_in=0,
                     seed=1, potential=PotentialSpec.periodic_fourier([]), modes=dec)


def test_config_validation():
    with pytest.raises(ValueError):
        gaussian_config(burn_in=100, n_steps=100)
    with pytest.raises(ValueError):
        gaussian_config(temperature=-1.0)
    for bad in (dict(temperature=math.nan), dict(dt=math.nan)):
        with pytest.raises(ValueError, match="must be positive"):
            gaussian_config(**bad)
    with pytest.raises(ValueError, match="circle runs need a mode decomposition"):
        dy.SimConfig(n_particles=4, temperature=1.0, dt=1e-3, n_steps=10, burn_in=0,
                     seed=1, potential=PotentialSpec.periodic_fourier([]))


@pytest.mark.parametrize("interaction, message", [
    # mode interactions run on the complete graph only
    (dict(topology=gr.gen_rrg(4, 3, 5), modes=md.xy_decomposition()),
     "complete graph only, not on a graph"),
    # "complete" is the one topology named by a string
    (dict(topology="ring"), "'ring'"),
    # the drift divides by T*d_eff
    (dict(topology=gr.gen_er(4, 0.0, 1)), "needs d_eff > 0, got 0"),
], ids=["graph_and_modes", "unknown_topology", "graph_without_edges"])
def test_config_takes_one_interaction(interaction, message):
    with pytest.raises(ValueError, match=message):
        gaussian_config(**interaction)


def _mode_grad(m, x):
    """Mode gradient evaluated on its own, without a shared cos/sin pair."""
    if m.kind == "cos":
        return -m.k * np.sin(m.k * x)
    if m.kind == "sin":
        return m.k * np.cos(m.k * x)
    return m.grad(x)


def _drift_loop(x, config, adj):
    """Reference drift, dispatched on every call; simulate and drift() must match it bit for bit."""
    out = -config.potential.derivative(x)
    n = config.n_particles
    T = config.temperature
    if config.modes is not None:
        dec = config.modes
        for sign, group in ((1.0, dec.neg_modes), (-1.0, dec.pos_modes)):
            for m in group:
                total = np.sum(m(x), axis=-1, keepdims=True)
                out += sign * m.weight * _mode_grad(m, x) * total / (n * T)
        if dec.alpha > 0:
            out += dec.alpha * np.sum(x, axis=-1, keepdims=True) / (n * T)
        return out
    if adj is not None:
        neigh = (adj @ x.T).T if x.ndim == 2 else adj @ x
        return out + neigh / (T * config.topology.d_eff)
    return out + np.sum(x, axis=-1, keepdims=(x.ndim == 2)) / (n * T)


def _simulate_loop(config):
    """Reference Euler-Maruyama loop: one drift dispatch and one strided noise slice per step."""
    ss = np.random.SeedSequence(config.seed)
    gens = [np.random.default_rng(c) for c in ss.spawn(config.replicas)]
    x = dy._initial_state(config, gens)
    kept = np.empty((config.replicas, config.n_kept, config.n_particles))
    scale = np.sqrt(2.0 * config.dt)
    circle = config.potential.domain == CIRCLE
    adj = dy._adjacency_operator(config.topology) \
        if isinstance(config.topology, gr.GraphInstance) else None
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(config.n_steps):
            j = step % 512
            if j == 0:
                block = min(512, config.n_steps - step)
                noise = np.stack([g.standard_normal((block, config.n_particles))
                                  for g in gens])
            x = x + config.dt * _drift_loop(x, config, adj) + scale * noise[:, j, :]
            if circle:
                x %= 2.0 * np.pi
            if step >= config.burn_in and (step - config.burn_in) % config.thinning == 0:
                kept[:, k, :] = x
                k += 1
    return kept


def _oracle_configs():
    quartic = PotentialSpec.quartic(1.0)
    xs = np.linspace(-1.2, 1.2, 25)
    table = PotentialSpec.tabulated(xs, xs**4 / 4.0 - xs**2 / 2.0)
    flat = PotentialSpec.periodic_fourier([])
    tanh = md.Mode(weight=0.15, kind="custom", fn=np.tanh,
                   dfn=lambda x: 1.0 - np.tanh(x) ** 2)
    mixed = md.ModeDecomposition(
        alpha=0.2,
        neg_modes=(md.Mode(0.4, "cos", 1), md.Mode(0.4, "sin", 1), md.Mode(0.3, "cos", 2), tanh),
        pos_modes=(md.Mode(0.25, "sin", 2), md.Mode(0.1, "cos", 0),
                   md.Mode(0.1, "custom", fn=np.sin)))  # finite-difference gradient
    base = dict(temperature=1.1, dt=1e-3, n_steps=1100, burn_in=37, seed=5, thinning=7)

    def cfg(**kw):
        return dy.SimConfig(**{**base, **kw})

    # steps of noise sd sqrt(2 dt) = 2.8 carry angles past 2 pi by more than
    # a period
    large = dict(n_particles=80, temperature=50.0, dt=4.0, n_steps=300, thinning=1,
                 potential=flat, modes=md.xy_decomposition())

    return {
        "quartic_r8": cfg(n_particles=30, replicas=8, potential=quartic),
        "gaussian_r1": cfg(n_particles=30, replicas=1, potential=PotentialSpec.gaussian(1.0)),
        "tabulated_outside": cfg(n_particles=20, replicas=3, temperature=1.5, potential=table),
        "xy": cfg(n_particles=25, replicas=4, potential=flat, modes=md.xy_decomposition()),
        "circle_fourier": cfg(n_particles=25, replicas=2, thinning=1,
                              potential=PotentialSpec.periodic_fourier([0.4, -0.3]),
                              modes=md.xy_decomposition()),
        # a flat circle whose only term is a k=0 mode (zero gradient, whose
        # sign must survive) or the quadratic part, an (R, 1) column
        "flat_k0": cfg(n_particles=10, replicas=2, potential=flat,
                       modes=md.ModeDecomposition(neg_modes=(md.Mode(0.3, "cos", 0),))),
        "flat_alpha_only": cfg(n_particles=10, replicas=2, potential=flat,
                               modes=md.ModeDecomposition(alpha=0.3)),
        "mixed_modes": cfg(n_particles=20, replicas=3, potential=quartic, modes=mixed),
        "no_interaction": cfg(n_particles=20, replicas=2, potential=quartic,
                              modes=md.ModeDecomposition()),
        "no_interaction_circle": cfg(n_particles=20, replicas=2,
                                     potential=PotentialSpec.periodic_fourier([0.4]),
                                     modes=md.ModeDecomposition()),
        "rrg_dense": cfg(n_particles=120, replicas=3, potential=quartic,
                         topology=gr.gen_rrg(120, 6, 17)),
        "rrg_sparse": cfg(n_particles=600, replicas=2, n_steps=700, thinning=1,
                          potential=quartic, topology=gr.gen_rrg(600, 8, 3)),
        # a single replica steps as an (n,) vector: scalar mean-field sums,
        # a 1-D matvec on dense and sparse adjacencies, an XY state
        "rrg_dense_r1": cfg(n_particles=120, replicas=1, potential=quartic,
                            topology=gr.gen_rrg(120, 6, 17)),
        "rrg_sparse_r1": cfg(n_particles=600, replicas=1, n_steps=700, thinning=1,
                             potential=quartic, topology=gr.gen_rrg(600, 8, 3)),
        "xy_r1": cfg(n_particles=100, replicas=1, potential=flat,
                     modes=md.xy_decomposition()),
        "xy_large_steps": cfg(replicas=8, **large),
        "xy_large_steps_r1": cfg(replicas=1, **large),
        # R*n > 1024 caps a noise block below 512 steps: 65 steps at n=1000,
        # R=8 and 262 at n=2000, R=1; burn-in and thinning cross its edges
        "capped_r8": cfg(n_particles=1000, replicas=8, n_steps=200, potential=quartic),
        "capped_r1": cfg(n_particles=2000, replicas=1, n_steps=600, potential=quartic),
        "one_full_block": cfg(n_particles=30, replicas=2, n_steps=512, potential=quartic),
    }


@pytest.mark.parametrize("name", list(_oracle_configs()))
def test_simulate_matches_loop_oracle(name):
    config = _oracle_configs()[name]
    out = dy.simulate(config)
    ref = _simulate_loop(config)
    assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
    # drift() on (replicas, n) and (n,) states, off the trajectory and, on the
    # real line, partly outside any table
    rng = np.random.default_rng(11)
    shape = (config.replicas, config.n_particles)
    if config.potential.domain == CIRCLE:
        x = rng.uniform(0.0, 2.0 * np.pi, shape)
    else:
        x = 1.5 * rng.standard_normal(shape)
    adj = dy._adjacency_operator(config.topology) \
        if isinstance(config.topology, gr.GraphInstance) else None
    for state in (x, x[0], out[:, -1, :]):
        got = dy.drift(state, config)
        want = _drift_loop(state, config, adj)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# -- susceptibility --------------------------------------------------------------------

def test_susceptibility_degenerate_zero():
    s = np.zeros((1, 200, 8))
    sus = dy.susceptibility(s)
    assert sus.chi == 0.0 and sus.degenerate


def test_susceptibility_needs_samples():
    with pytest.raises(InsufficientSamples):
        dy.susceptibility(np.zeros((1, 50, 8)))


def test_susceptibility_iid_oracle():
    # i.i.d. standard normal coordinates: chi = E[(sum x/sqrt(n))^2] = 1
    rng = np.random.default_rng(0)
    s = rng.standard_normal((4, 5000, 25))
    sus = dy.susceptibility(s)
    assert abs(sus.chi - 1.0) < 4.0 * sus.stderr
    assert sus.samples_used == 20000


def test_estimate_report_fields():
    rng = np.random.default_rng(1)
    s = rng.standard_normal((2, 500, 16)) + 0.3
    rep = dy.estimate(s)
    assert rep.gap_upper_chi == pytest.approx(1.0 / rep.chi)
    assert abs(rep.mean_magnetisation - 0.3) < 0.05
    assert rep.abs_magnetisation > 0


def test_symmetrize_zero_mean():
    rng = np.random.default_rng(2)
    s = rng.standard_normal((2, 300, 8)) + 1.0
    pooled = dy.symmetrize(s)
    assert pooled.shape == (4, 300, 8)
    assert abs(pooled.mean()) < 1e-15


# -- plateau bound ----------------------------------------------------------------------

def _well_samples(rng, n_samples, n, centre, spread=0.05):
    return centre + spread * rng.standard_normal((1, n_samples, n))


def test_plateau_single_well_flagged():
    rng = np.random.default_rng(3)
    s = _well_samples(rng, 400, 10, 1.0)
    with pytest.raises(SingleWellOnly):
        dy.plateau_gap_bound(s, m_plus=1.0, delta=0.3)


def test_plateau_no_window_flag():
    rng = np.random.default_rng(4)
    s = np.concatenate([_well_samples(rng, 400, 10, 1.0, 0.01),
                        _well_samples(rng, 400, 10, -1.0, 0.01)], axis=0)
    b = dy.plateau_gap_bound(s, m_plus=1.0, delta=0.3)
    assert b.flag == "no_window_visits" and b.bound == 0.0
    assert b.n_plus > 0 and b.n_minus > 0


def test_plateau_validation():
    rng = np.random.default_rng(6)
    s = _well_samples(rng, 200, 10, 1.0)
    with pytest.raises(ValueError):
        dy.plateau_gap_bound(s, m_plus=1.0, delta=0.7)  # 3*delta > 2*m_plus
    with pytest.raises(ValueError):
        dy.plateau_gap_bound(s, m_plus=1.0, delta=0.0)
    with pytest.raises(ValueError, match="need m_plus > 0"):
        dy.plateau_gap_bound(s, m_plus=1.0, delta=float("nan"))


def test_subcritical_magnetisation_concentrates(quartic1_measure, quartic1_tc):
    # a single replica falls into one well and its mean magnetisation sits
    # near the positive minimiser of the effective potential (within 5%)
    from mflangevin import renormalized as rn
    T = 0.6 * quartic1_tc
    table = rn.renorm_potential(quartic1_measure, T,
                                rn.auto_phi_grid(quartic1_measure, T))
    m_plus = float(table.minimizers[-1])
    cfg = dy.SimConfig(n_particles=100, temperature=T, dt=1e-3, n_steps=300_000,
                       burn_in=60_000, seed=17, thinning=10, replicas=1,
                       potential=PotentialSpec.quartic(1.0))
    mbar = abs(float(dy.simulate(cfg).mean()))
    assert abs(mbar - m_plus) < 0.05 * m_plus


def test_gap_ordering_across_transition(quartic1_measure, quartic1_tc):
    # supercritical 1/chi exceeds the subcritical two-plateau bound for the
    # same (V, n): the gap genuinely collapses below the transition
    from mflangevin import renormalized as rn
    n = 24
    hot = dy.SimConfig(n_particles=n, temperature=1.3 * quartic1_tc, dt=1e-3,
                       n_steps=220_000, burn_in=20_000, seed=13, thinning=10,
                       replicas=2, potential=PotentialSpec.quartic(1.0))
    chi = dy.susceptibility(dy.simulate(hot)).chi

    T = 0.6 * quartic1_tc
    table = rn.renorm_potential(quartic1_measure, T,
                                rn.auto_phi_grid(quartic1_measure, T))
    m_plus = float(table.minimizers[-1])
    cold = dy.SimConfig(n_particles=n, temperature=T, dt=1e-3, n_steps=220_000,
                        burn_in=20_000, seed=14, thinning=10, replicas=2,
                        potential=PotentialSpec.quartic(1.0))
    bound = dy.plateau_gap_bound(dy.symmetrize(dy.simulate(cold)),
                                 m_plus, m_plus / 6.0).bound
    assert 1.0 / chi > bound


def test_gaussian_control_bound_not_small():
    # no phase transition: the two-plateau bound is of the same order as 1/chi
    cfg = dy.SimConfig(n_particles=20, temperature=2.0, dt=1e-3, n_steps=120_000,
                       burn_in=20_000, seed=7, thinning=10, replicas=2,
                       potential=PotentialSpec.gaussian(1.0))
    s = dy.simulate(cfg)
    sus = dy.susceptibility(s)
    b = dy.plateau_gap_bound(dy.symmetrize(s), m_plus=1.0, delta=0.1)
    assert b.bound > 0.1 / sus.chi


# -- covariance bound ----------------------------------------------------------------------

def test_covariance_constant_f_trivial():
    rng = np.random.default_rng(0)
    ratio, _ = dy.covariance_ratio(
        lambda x: (np.ones(len(x)), np.zeros(len(x))),
        (lambda x: np.sum(x, axis=1), 3.0), 3, rng, 20_000)
    assert ratio == 0.0


def test_covariance_constant_h_trivial():
    rng = np.random.default_rng(1)
    ratio, _ = dy.covariance_ratio(
        lambda x: (x[:, 0] * np.exp(-np.sum(x**2, axis=1)), np.full(len(x), 2.0)),
        (lambda x: np.ones(len(x)), 1.0), 2, rng, 20_000)
    assert abs(ratio) < 1e-3  # covariance against a constant vanishes


def test_covariance_window_pair():
    rng = np.random.default_rng(2)
    s2 = 4.0

    def f_and_grad_sq(x):
        w = np.exp(-x[:, 0] ** 2 / (2.0 * s2))
        return x[:, 0] * w, ((1.0 - x[:, 0] ** 2 / s2) * w) ** 2

    ratio, se = dy.covariance_ratio(f_and_grad_sq, (lambda x: x[:, 0], 1.0),
                                    1, rng, 400_000)
    assert ratio <= 1.0 + 5.0 * se


def _covariance_ratio_pairs(f_pair, h_pair, n, rng, n_samples, batches=20):
    """Reference covariance estimate: F and grad F as separate callables on the
    C-ordered samples, |grad F|^2 as a row sum."""
    f_fn, grad_f_fn = f_pair
    h_fn, sup_grad_sq = h_pair
    per = n_samples // batches
    stats = np.zeros((batches, 4))
    for b in range(batches):
        x = rng.standard_normal((per, n))
        f2 = f_fn(x) ** 2
        g2 = np.sum(grad_f_fn(x) ** 2, axis=1)
        h = h_fn(x)
        stats[b] = [f2.mean(), g2.mean(), (f2 * h).mean(), h.mean()]

    def ratio_of(row):
        ef2, eg2, ef2h, eh = row
        cov = ef2h - ef2 * eh
        rhs = 4.0 * sup_grad_sq * ef2 * eg2
        return cov**2 / rhs if rhs > 0 else 0.0

    pooled = ratio_of(stats.mean(axis=0))
    per_batch = np.array([ratio_of(row) for row in stats])
    return pooled, float(np.std(per_batch, ddof=1) / np.sqrt(batches))


def _window_poly_pair(n, rng):
    """Reference windowed polynomial: F and its gradient, each computed on its own."""
    k = min(n, 3)
    c0 = rng.uniform(-1.0, 1.0)
    lin = rng.uniform(-1.0, 1.0, k)
    quad = rng.uniform(-0.5, 0.5, k)
    s2 = rng.uniform(1.5, 3.0) ** 2

    def f(x):
        q = c0 + x[:, :k] @ lin + (x[:, :k] ** 2) @ quad
        return q * np.exp(-np.sum(x**2, axis=1) / (2.0 * s2))

    def grad_f(x):
        w = np.exp(-np.sum(x**2, axis=1) / (2.0 * s2))
        q = c0 + x[:, :k] @ lin + (x[:, :k] ** 2) @ quad
        g = -x * (q / s2)[:, None]
        g[:, :k] += lin + 2.0 * quad * x[:, :k]
        return g * w[:, None]

    return f, grad_f


@pytest.mark.parametrize("n", [1, 2, 5, 7, 8, 9, 16, 20])
def test_covariance_check_matches_pair_reference(n):
    rep = dy.covariance_bound_check(n, seed=31, n_samples=20_000, n_pairs=4)
    rng = np.random.default_rng(np.random.SeedSequence([31, n]))
    ratios, stderrs = [], []
    for i in range(4):
        f_pair = _window_poly_pair(n, rng)
        h_pair = dy._lipschitz_pair(n, rng, clipped=bool(i % 2))
        ratio, se = _covariance_ratio_pairs(f_pair, h_pair, n, rng, 20_000)
        ratios.append(ratio)
        stderrs.append(se)
    assert np.array(rep.ratios).tobytes() == np.array(ratios).tobytes()
    assert np.array(rep.stderrs).tobytes() == np.array(stderrs).tobytes()


def test_coord_sum_matches_row_sum():
    rng = np.random.default_rng(12)
    for n in range(1, 129):  # numpy splits rows of more than 128 in two
        x = rng.standard_normal((300, n)) * np.exp(rng.uniform(-30.0, 30.0, (300, n)))
        x[::5, 0] = -0.0
        x[::7] = -0.0  # an all -0.0 row sums to +0.0
        got = dy._coord_sum(np.ascontiguousarray(x.T))
        assert got.tobytes() == np.sum(x, axis=1).tobytes(), n


def test_covariance_check_report():
    rep = dy.covariance_bound_check(2, seed=5, n_samples=100_000, n_pairs=4)
    assert rep.worst_ratio <= 1.0 + 5.0 * rep.worst_ratio_stderr
    assert len(rep.ratios) == 4


def test_covariance_check_deterministic():
    a = dy.covariance_bound_check(2, seed=5, n_samples=50_000, n_pairs=2)
    b = dy.covariance_bound_check(2, seed=5, n_samples=50_000, n_pairs=2)
    assert a.ratios == b.ratios


# -- sample I/O ------------------------------------------------------------------------------

def test_binary_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    s = rng.standard_normal((3, 40, 7))
    path = tmp_path / "s.bin"
    dy.write_samples(s, path, temperature=1.5, dt=1e-3, seed=99)
    back, meta = dy.read_samples(path)
    assert np.array_equal(back, s)
    assert meta == {"n": 7, "temperature": 1.5, "dt": 1e-3, "seed": 99,
                    "replicas": 3, "frames": 40}


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_read_samples_from_pipe(tmp_path):
    # a pipe reports no size before it is read
    s = np.random.default_rng(9).standard_normal((2, 10, 3))
    dy.write_samples(s, tmp_path / "s.bin", temperature=1.5, dt=1e-3, seed=99)
    r, w = os.pipe()
    os.write(w, (tmp_path / "s.bin").read_bytes())
    os.close(w)
    try:
        back, meta = dy.read_samples(f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert back.tobytes() == s.tobytes() and meta["frames"] == 10
