import csv
import dataclasses
import inspect
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from mflangevin import __version__, cli, dynamics, graphs, modes, quad1d, renormalized

README = Path(__file__).resolve().parent.parent / "README.md"


def run(*argv):
    return cli.run(list(argv))


def read_json(path):
    return json.loads(path.read_text())


def test_tc_quartic(tmp_path):
    out = tmp_path / "o"
    assert run("tc", "--potential", "quartic", "--lam", "0", "--out", str(out)) == 0
    payload = read_json(out / "tc.json")
    assert abs(payload["t_critical"] - 0.6759782400672846) < 1e-9
    side = read_json(out / "sidecar.json")
    assert side["command"] == "tc" and side["outputs"] == ["tc.json"]
    assert side["config"]["lam"] == 0.0


def test_tc_rejects_non_ghs(tmp_path):
    xs = np.linspace(-6.0, 6.0, 1201)
    table = tmp_path / "pot.csv"
    np.savetxt(table, np.column_stack([xs, xs**2 - np.cos(5 * xs)]), delimiter=",")
    code = run("tc", "--potential", "tabulated", "--file", str(table),
               "--out", str(tmp_path / "o"))
    assert code == 2


def test_xy_check_json(tmp_path):
    out = tmp_path / "xy"
    assert run("xy-check", "--T", "0.6", "--grid", "21", "--out", str(out)) == 0
    payload = read_json(out / "xy_check.json")
    assert abs(payload["bound"] - (1 / 0.6 - 1 / (2 * 0.36))) < 1e-9
    assert payload["convex"] is True


def test_scan_vt_and_sidecar_rerun(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("scan-vt", "--potential", "quartic", "--lam", "1", "--T", "1.5",
               "--points", "101", "--out", str(a)) == 0
    assert run("scan-vt", "--config", str(a / "sidecar.json"), "--out", str(b)) == 0
    for name in ("renorm.csv", "renorm.json", "sidecar.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_parser_reused_across_commands(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    scan = ("scan-vt", "--potential", "quartic", "--lam", "1", "--T", "0.5", "--points", "101")
    assert run(*scan, "--out", str(tmp_path / "a")) == 0
    assert run("tc", "--no-such-flag", "1", "--out", str(tmp_path / "x")) == 2
    assert run("--version") == 0
    assert __version__ in capsys.readouterr().out.splitlines()
    assert run(*scan, "--out", str(tmp_path / "b")) == 0
    for name in ("renorm.csv", "renorm.json", "sidecar.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def readme_commands():
    """Each line of the first sh block under README "Command line", split as
    a shell would split it."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.strip()]


def test_readme_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    landed, replace = [], os.replace

    def recording_replace(src, dst):
        replace(src, dst)
        landed.append(Path(dst))

    monkeypatch.setattr(os, "replace", recording_replace)
    commands = readme_commands()
    assert len(commands) > 10 and all(argv[0] == "mfl" for argv in commands)
    for argv in commands:  # in one process, so every subcommand shares the parser
        assert cli.run(argv[1:]) == 0, shlex.join(argv)
    first, again = tmp_path / "runs" / "vt", tmp_path / "runs" / "vt-again"
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in again.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name
    # every run directory holds its outputs, in the order they landed, then the
    # sidecar that lists them, and no temporary file
    for run_dir in (tmp_path / "runs").iterdir():
        outputs = read_json(run_dir / "sidecar.json")["outputs"]
        order = [path.name for path in landed if path.parent.name == run_dir.name]
        assert order == [*outputs, "sidecar.json"], run_dir.name
        assert sorted(os.listdir(run_dir)) == sorted(order), run_dir.name


def test_sidecar_command_mismatch(tmp_path):
    out = tmp_path / "o"
    assert run("xy-check", "--T", "1.0", "--grid", "5", "--out", str(out)) == 0
    assert run("tc", "--config", str(out / "sidecar.json"),
               "--out", str(tmp_path / "p")) == 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[free-energy]\npotential = gaussian\ncurvature = 1\n"
                   "T = 2.0\nm_min = -1\nm_max = 1\npoints = 11\n")
    out = tmp_path / "fe"
    assert run("free-energy", "--config", str(cfg), "--points", "21",
               "--out", str(out)) == 0
    lines = (out / "free_energy.csv").read_text().splitlines()
    assert len(lines) == 22  # flag wins over file
    assert read_json(out / "sidecar.json")["config"]["points"] == 21


def test_pl_gaussian(tmp_path):
    out = tmp_path / "pl"
    assert run("pl", "--potential", "gaussian", "--curvature", "1", "--T", "2",
               "--m-min", "-2", "--m-max", "2", "--points", "201",
               "--out", str(out)) == 0
    assert abs(read_json(out / "pl.json")["pl_constant"] - 0.5) < 1e-6


def test_modes_decompose_and_scan(tmp_path):
    out = tmp_path / "dec"
    assert run("modes-decompose", "--kernel-coefficients", "1.0",
               "--max-frequency", "1", "--out", str(out)) == 0
    dec_path = out / "decomposition.json"
    payload = read_json(dec_path)
    assert payload["alpha"] == 0.0 and len(payload["neg"]) == 2

    scan_out = tmp_path / "scan"
    assert run("scan-convexity", "--decomposition", str(dec_path), "--T", "0.75",
               "--grid", "11", "--radius", "4", "--out", str(scan_out)) == 0
    scan = read_json(scan_out / "scan.json")
    assert scan["lambda_hat"] >= 1 / 0.75 - 1 / (2 * 0.75**2) - 1e-9
    header = (scan_out / "scan.csv").read_text().splitlines()[0]
    assert header == "zeta_1,zeta_2,min_eig"


def test_scan_convexity_with_a_flat_convex_part(tmp_path):
    # the negative coefficient becomes the flat-convex pair (cos 2x, sin 2x); at
    # T = 0.8 the least eigenvalue sits at zeta = 0, on the rotor floor
    out = tmp_path / "dec"
    assert run("modes-decompose", "--kernel-coefficients", "1.0,-0.3",
               "--max-frequency", "2", "--out", str(out)) == 0
    assert len(read_json(out / "decomposition.json")["pos"]) == 2
    scan_out = tmp_path / "scan"
    assert run("scan-convexity", "--decomposition", str(out / "decomposition.json"),
               "--T", "0.8", "--grid", "5", "--radius", "2", "--out", str(scan_out)) == 0
    scan = read_json(scan_out / "scan.json")
    assert abs(scan["lambda_hat"] - (1 / 0.8 - 1 / (2 * 0.8**2))) <= 1e-12
    assert scan["argmin"] == [0.0, 0.0]


def test_un_gap(tmp_path):
    out = tmp_path / "un"
    assert run("un-gap", "--psi", "0.5,0", "--T", "1.0", "--n-values", "1,2",
               "--out", str(out)) == 0
    payload = read_json(out / "un_gap.json")
    assert abs(payload["gaps"]["1"] - 0.5) < 1e-6
    assert payload["gaps"]["2"] < payload["gaps"]["1"]


@pytest.mark.parametrize("n_values", ["", "2,2"])
def test_un_gap_refuses_empty_or_repeated_n_values(tmp_path, capsys, n_values):
    out = tmp_path / "un"
    code = run("un-gap", "--n-values", n_values, "--out", str(out))
    assert_refused(code, capsys.readouterr().err, "'n_values'")
    assert not (out / "un_gap.csv").exists()


def test_un_gap_refuses_a_site_tilt_the_grid_cuts_off(tmp_path, capsys):
    # the N = 1 site tilt of the standard Gaussian peaks at x = 13.4, past [-9, 9]
    dec = tmp_path / "dec.json"
    dec.write_text(modes.ModeDecomposition(alpha=0.05).to_json())
    out = tmp_path / "o"
    code = run("un-gap", "--decomposition", str(dec), "--potential", "gaussian",
               "--T", "0.05", "--psi", "6", "--n-values", "1", "--out", str(out))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure:") and err.count("\n") == 1
    assert "site tilt" in err and "[-9, 9]" in err
    assert not (out / "un_gap.csv").exists()


def test_un_gap_work_limit_exit_3(tmp_path, capsys, monkeypatch):
    # a strong quadratic part at T = 0.05: N = 3 sums underflowed inner sums again
    dec = tmp_path / "dec.json"
    dec.write_text(modes.ModeDecomposition(
        alpha=8.0, neg_modes=modes.xy_decomposition().neg_modes).to_json())
    argv = ["un-gap", "--decomposition", str(dec), "--potential", "quartic", "--lam", "1",
            "--T", "0.05", "--psi", "0.3,0.4,0", "--n-values", "3"]
    assert run(*argv, "--out", str(tmp_path / "ok")) == 0
    capsys.readouterr()
    monkeypatch.setattr(modes, "_EXACT_TERMS", 1000)
    code = run(*argv, "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure:") and err.count("\n") == 1
    assert "_EXACT_TERMS = 1000" in err


def test_graph_pipeline(tmp_path):
    gen_out = tmp_path / "g"
    assert run("graph-gen", "--kind", "regular", "--n", "100", "--d", "6",
               "--seed", "3", "--out", str(gen_out)) == 0
    spec_out = tmp_path / "s"
    assert run("graph-spectrum", "--graph", str(gen_out / "graph.edges"),
               "--out", str(spec_out)) == 0
    payload = read_json(spec_out / "spectrum.json")
    assert 0 < payload["epsilon"] < 1
    assert payload["residual"] < 1e-8 * payload["top_singular"]


BAD_EDGE_LISTS = {
    "self_loop": "4 1 regular 0\n0 0\n1 2\n",
    "duplicate": "4 1 regular 0\n0 1\n2 3\n2 3\n",
    "reversed": "4 1 regular 0\n1 0\n",
    "out_of_range": "4 1 regular 0\n0 1\n2 4\n",
    "negative_vertex": "4 1 regular 0\n-1 2\n",
    "empty": "",
    "short_header": "4 1 regular\n0 1\n",
    "bad_header_number": "4 x regular 0\n",
    "degree_above_n": "4 5 regular 0\n0 1\n",
    "short_line": "4 1 regular 0\n0 1\n2\n",
    "long_line": "4 1 regular 0\n0 1 2\n",
    "non_integer": "4 1 regular 0\n0 x\n",
    "unknown_kind": "4 1 ring 0\n0 1\n2 3\n",
    "irregular": "4 3 regular 1\n0 1\n1 2\n",  # degrees [1 2 1 0], not 3
}


@pytest.mark.parametrize("command", ["graph-spectrum", "simulate"])
@pytest.mark.parametrize("name", sorted(BAD_EDGE_LISTS))
def test_malformed_edge_list_exit_2(tmp_path, capsys, command, name):
    path = tmp_path / "bad.edges"
    path.write_text(BAD_EDGE_LISTS[name])
    extra = ["--n", "4", "--steps", "10", "--burn-in", "0"] if command == "simulate" else []
    code = run(command, "--graph", str(path), *extra, "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("precondition violation:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_graph_spectrum_no_convergence_exit_3(tmp_path, monkeypatch):
    gen_out = tmp_path / "g"
    assert run("graph-gen", "--kind", "regular", "--n", "1000", "--d", "20",
               "--seed", "5", "--out", str(gen_out)) == 0
    monkeypatch.setattr(graphs, "_MAX_ITER", 1)
    assert run("graph-spectrum", "--graph", str(gen_out / "graph.edges"),
               "--out", str(tmp_path / "s")) == 3


def test_simulate_estimate_plateau(tmp_path):
    sim_out = tmp_path / "sim"
    assert run("simulate", "--potential", "gaussian", "--curvature", "1",
               "--n", "16", "--T", "2.0", "--steps", "4000", "--burn-in", "1000",
               "--thinning", "10", "--replicas", "2", "--seed", "5",
               "--out", str(sim_out)) == 0
    est_out = tmp_path / "est"
    assert run("estimate", "--samples", str(sim_out / "samples.bin"),
               "--out", str(est_out)) == 0
    rep = read_json(est_out / "estimate.json")
    assert rep["chi"] > 0 and rep["samples_used"] == 600

    pl_out = tmp_path / "plat"
    code = run("plateau-bound", "--samples", str(sim_out / "samples.bin"),
               "--m-plus", "1.0", "--delta", "0.6", "--out", str(pl_out))
    assert code == 0
    payload = read_json(pl_out / "plateau.json")
    assert payload["bound"] >= 0


def test_plateau_bound_no_symmetrize(tmp_path):
    # three frames in the upper well for each in the lower one, and some between
    mbar = np.repeat([1.0, 1.0, 1.0, -1.0, 0.1], 8)
    samples = tmp_path / "s.bin"
    dynamics.write_samples(np.repeat(mbar[None, :, None], 2, axis=2), samples,
                           temperature=1.0, dt=1e-3, seed=1)
    visits = {}
    for flags in ([], ["--no-symmetrize"]):
        out = tmp_path / ("o" + "".join(flags))
        assert run("plateau-bound", "--samples", str(samples), "--m-plus", "1.0",
                   "--delta", "0.5", *flags, "--out", str(out)) == 0
        payload = read_json(out / "plateau.json")
        visits[bool(flags)] = (payload["n_plus"], payload["n_minus"])
        assert read_json(out / "sidecar.json")["config"]["no_symmetrize"] is bool(flags)
    assert visits == {False: (32, 32), True: (24, 8)}


def test_bool_settings_default_to_false():
    # a bool flag can only set its key to true, so a key that defaulted to
    # true could be turned off from a config file only
    true_by_default = [(command, key) for command, (_, schema) in cli._COMMANDS.items()
                       for key, (kind, default) in schema.items() if kind is bool and default]
    assert true_by_default == []


def _keywords_with_default(fn):
    return sum(p.default is not inspect.Parameter.empty
               for p in inspect.signature(fn).parameters.values())


def test_settable_value_count():
    """Every settable value is something a user must know about: a change
    that adds or removes one edits this count and says why."""
    cli_keys = sum(len(schema) for _, schema in cli._COMMANDS.values())
    keywords = 0
    for module in (quad1d, renormalized, modes, graphs, dynamics):
        for name in module.__all__:
            obj = getattr(module, name)
            if not inspect.isclass(obj):
                keywords += _keywords_with_default(obj)
                continue
            if dataclasses.is_dataclass(obj):
                keywords += _keywords_with_default(obj)
            keywords += sum(_keywords_with_default(getattr(obj, attr))
                            for attr, raw in vars(obj).items() if isinstance(raw, classmethod))
    assert (cli_keys, keywords) == (94, 27)


def test_simulate_circle_with_decomposition(tmp_path):
    dec_out = tmp_path / "dec"
    assert run("modes-decompose", "--kernel-coefficients", "1.0",
               "--max-frequency", "1", "--out", str(dec_out)) == 0
    sim_out = tmp_path / "sim"
    assert run("simulate", "--potential", "periodic_fourier", "--coefficients", "",
               "--decomposition", str(dec_out / "decomposition.json"),
               "--n", "12", "--T", "1.0", "--steps", "2000", "--burn-in", "500",
               "--thinning", "10", "--seed", "9", "--out", str(sim_out)) == 0
    samples, meta = dynamics.read_samples(sim_out / "samples.bin")
    assert meta["n"] == 12
    assert np.all(samples >= 0.0) and np.all(samples < 2.0 * np.pi)


@pytest.mark.parametrize("first, second", [("graph", "decomposition"),
                                           ("graph", "no_interaction"),
                                           ("decomposition", "no_interaction")])
def test_simulate_refuses_two_interactions(tmp_path, capsys, first, second):
    # weight-1000 rotor modes: a run that dropped them from the drift would
    # still warn of dt*stiffness = 2 from them
    dec = tmp_path / "dec.json"
    dec.write_text(json.dumps({"alpha": 0.0, "pos": [], "neg": [
        {"w": 1000.0, "kind": kind, "k": 1} for kind in ("cos", "sin")]}))
    assert run("graph-gen", "--kind", "regular", "--n", "4", "--d", "3",
               "--out", str(tmp_path / "g")) == 0
    flags = {"graph": ["--graph", str(tmp_path / "g" / "graph.edges")],
             "decomposition": ["--decomposition", str(dec)],
             "no_interaction": ["--no-interaction"]}
    out = tmp_path / "o"
    assert run("simulate", *SMALL_SIM, "--out", str(out)) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    code = run("simulate", *SMALL_SIM, *flags[first], *flags[second], "--out", str(out))
    assert_refused(code, capsys.readouterr().err, repr(first), repr(second))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# decomposition.json as `modes-decompose --kernel-coefficients 1.0 --max-frequency 2`
# wrote it while files still carried the bounds M and L
OLD_DECOMPOSITION = """{
  "L": 1.4142135623730951,
  "M": 1.0,
  "alpha": 0.0,
  "neg": [
    {
      "k": 1,
      "kind": "cos",
      "w": 1.0
    },
    {
      "k": 1,
      "kind": "sin",
      "w": 1.0
    }
  ],
  "pos": []
}
"""


def test_decomposition_file_with_bounds_still_loads(tmp_path):
    old = tmp_path / "old.json"
    old.write_text(OLD_DECOMPOSITION)
    assert run("modes-decompose", "--kernel-coefficients", "1.0", "--max-frequency", "2",
               "--out", str(tmp_path / "dec")) == 0
    new = tmp_path / "dec" / "decomposition.json"
    assert new.read_text().splitlines() == [
        line for line in OLD_DECOMPOSITION.splitlines() if not line.startswith(('  "L"', '  "M"'))]
    for path, name in ((old, "a"), (new, "b")):
        assert run("un-gap", "--decomposition", str(path), "--n-values", "1,2",
                   "--out", str(tmp_path / name)) == 0
    for name in ("un_gap.csv", "un_gap.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_csv_format(tmp_path):
    flags = ["--potential", "gaussian", "--n", "4", "--steps", "300", "--burn-in", "100",
             "--thinning", "10", "--replicas", "1", "--seed", "2"]
    assert run("simulate", *flags, "--format", "csv", "--out", str(tmp_path / "csv")) == 0
    assert run("simulate", *flags, "--out", str(tmp_path / "bin")) == 0
    samples, _ = dynamics.read_samples(tmp_path / "bin" / "samples.bin")
    lines = (tmp_path / "csv" / "samples.csv").read_bytes().split(b"\r\n")
    assert lines[0] == b"step,x_0,x_1,x_2,x_3" and lines[-1] == b""
    assert len(lines) == samples.shape[1] + 2
    for t, line in enumerate(lines[1:-1]):
        assert line == b",".join([b"%d" % t] + [b"%.17g" % v for v in samples[0, t]])


def test_simulate_csv_limits_refused_before_run(tmp_path, capsys, monkeypatch):
    def never(config):
        raise AssertionError("simulate ran before the CSV limits were checked")

    monkeypatch.setattr(dynamics, "simulate", never)
    for flags in (["--replicas", "2"], ["--n", "65"]):
        out = tmp_path / flags[0]
        code = run("simulate", *SMALL_SIM, *flags, "--format", "csv", "--out", str(out))
        assert_refused(code, capsys.readouterr().err, "CSV output is limited")
        assert not out.exists() or os.listdir(out) == []


def test_cov_check(tmp_path):
    out = tmp_path / "cov"
    assert run("cov-check", "--n", "2", "--seed", "4", "--samples", "50000",
               "--pairs", "2", "--out", str(out)) == 0
    payload = read_json(out / "cov_check.json")
    assert payload["worst_ratio"] <= 1.0 + 5.0 * payload["worst_ratio_stderr"]


def test_exit_code_numerical_failure(tmp_path):
    with pytest.warns(RuntimeWarning, match="stiffness"):
        code = run("simulate", "--potential", "quartic", "--lam", "0", "--n", "4",
                   "--T", "1.0", "--dt", "2.0", "--steps", "5000", "--burn-in", "0",
                   "--seed", "1", "--out", str(tmp_path / "o"))
    assert code == 3


def test_exit_code_io_error(tmp_path):
    code = run("estimate", "--samples", str(tmp_path / "missing.bin"),
               "--out", str(tmp_path / "o"))
    assert code == 4


@pytest.mark.parametrize("command", ["estimate", "plateau-bound"])
@pytest.mark.parametrize("damage", ["shorter_than_header", "short_payload", "extra_payload",
                                    "bad_magic", "huge_header"])
def test_malformed_sample_file_exit_4(tmp_path, capsys, command, damage):
    good = tmp_path / "good.bin"
    dynamics.write_samples(np.zeros((2, 5, 3)), good, temperature=1.0, dt=1e-3, seed=1)
    raw = good.read_bytes()
    # a header that claims 2^40 frames is refused before anything is allocated
    huge = dynamics._HEADER.pack(dynamics._MAGIC, 3, 1.0, 1e-3, 1, 2, 1 << 40)
    data = {"shorter_than_header": b"abc", "short_payload": raw[:-5],
            "extra_payload": raw + bytes(8), "bad_magic": b"NOTSAMPL" + raw[8:],
            "huge_header": huge + raw[len(huge):]}[damage]
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    code = run(command, "--samples", str(path), "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("i/o error:") and err.count("\n") == 1
    assert str(path) in err and str(len(data)) in err
    assert "Traceback" not in err


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy is imported by the code that uses it, so a subcommand that needs
    # none of it does not pay its start-up time and memory.  The quadrature
    # and dynamics paths need none: not for a tabulated potential, and not for
    # the minimisers of a double well below T_c
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    xs = np.linspace(-3.0, 3.0, 61)
    table = tmp_path / "well.csv"
    np.savetxt(table, np.column_stack([xs, xs**4 / 4.0 - xs**2 / 2.0]), delimiter=",")
    commands = [
        [],
        ["tc", "--potential", "tabulated", "--file", str(table)],
        ["scan-vt", "--potential", "quartic", "--lam", "1", "--T", "0.5"],
        ["simulate", "--potential", "tabulated", "--file", str(table), "--n", "8",
         "--T", "1.0", "--steps", "300", "--burn-in", "100", "--replicas", "2"],
    ]
    for i, argv in enumerate(commands):
        command = (f"assert run({argv + ['--out', str(tmp_path / str(i))]!r}) == 0; "
                   if argv else "")
        probe = ("import sys; from mflangevin.cli import run; " + command +
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.splitlines()[-1] == "[]", argv


def test_threads_flag_rejected(tmp_path, capsys):
    code = run("tc", "--potential", "gaussian", "--threads", "64",
               "--out", str(tmp_path / "o"))
    assert code == 2
    assert "--threads" in capsys.readouterr().err


def test_xy_check_below_floor_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(modes, "_min_eigs", lambda points, T, decomp, measure: np.array([-1.0]))
    code = run("xy-check", "--T", "1.0", "--grid", "5", "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure:") and err.count("\n") == 1


def test_scan_vt_refuses_a_gaussian_at_or_below_1_over_curvature(tmp_path, capsys):
    code = run("scan-vt", "--potential", "gaussian", "--curvature", "1", "--T", "0.8",
               "--out", str(tmp_path / "o"))
    assert_refused(code, capsys.readouterr().err, "no minimiser", "1/curvature = 1")


def test_scan_vt_refuses_a_table_whose_tails_are_too_flat(tmp_path, capsys):
    # tail curvature 3.3094 at T = 0.3: refused at once, where it used to widen the
    # grid for 17 s before running out of panels
    xs = np.linspace(-1.2, 1.2, 49)
    table = tmp_path / "pot.csv"
    np.savetxt(table, np.column_stack([xs, xs**4 / 4 - xs**2 / 2]), delimiter=",")
    start = time.perf_counter()
    code = run("scan-vt", "--potential", "tabulated", "--file", str(table), "--T", "0.3",
               "--out", str(tmp_path / "o"))
    assert time.perf_counter() - start < 1.0
    assert_refused(code, capsys.readouterr().err, "no minimiser", "1/curvature = 0.302168")


def test_graph_spectrum_reruns_to_the_same_bytes_on_a_small_graph(tmp_path):
    # RRG(4, 2): a Krylov space that closes after a few steps, where ARPACK's
    # restarts would make iterations and residual vary between runs
    assert run("graph-gen", "--kind", "regular", "--n", "4", "--d", "2", "--seed", "1",
               "--out", str(tmp_path / "g")) == 0
    first = tmp_path / "s0"
    assert run("graph-spectrum", "--graph", str(tmp_path / "g" / "graph.edges"),
               "--out", str(first)) == 0
    for i in range(1, 6):
        again = tmp_path / f"s{i}"
        assert run("graph-spectrum", "--config", str(first / "sidecar.json"),
                   "--out", str(again)) == 0
        for name in ("spectrum.json", "sidecar.json"):
            assert (again / name).read_bytes() == (first / name).read_bytes()


def test_scan_vt_renorm_files(tmp_path):
    out = tmp_path / "vt"
    assert run("scan-vt", "--potential", "gaussian", "--curvature", "1", "--T", "2",
               "--points", "11", "--out", str(out)) == 0
    lines = (out / "renorm.csv").read_text().splitlines()
    assert lines[0] == "phi,v,dv,ddv"
    assert len(lines) == 12
    side = read_json(out / "renorm.json")
    assert set(side) == {"T", "t_critical", "curvature_floor", "minimizers"}


def _csv_rows_one_by_one(path, header, rows, fmt):
    """The reference: one ``csv`` row per tuple, each value formatted alone."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def test_csv_writer_keeps_both_formats(tmp_path):
    tiny = np.finfo(float).smallest_subnormal
    special = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, tiny, -tiny, 3 * tiny,
                        np.finfo(float).tiny / 3, np.finfo(float).max, 0.1, -1 / 3, 1e22,
                        2.0**-1074 * 12345, 123456789012345678.0, 1.0])
    rng = np.random.default_rng(5)
    columns = [special, rng.permutation(special),
               rng.standard_normal(len(special)) * 10.0 ** rng.integers(-300, 300, len(special))]
    header = ["a", "b", "c"]
    out = cli._Outputs(tmp_path)
    out.csv("new.csv", header, columns)
    new = (out.stage / "new.csv").read_bytes()
    # the renorm table formatted numpy scalars with an f-string, the CLI with %
    _csv_rows_one_by_one(tmp_path / "f.csv", header, zip(*columns), lambda x: f"{x:.17g}")
    _csv_rows_one_by_one(tmp_path / "pct.csv", header, zip(*columns), lambda x: "%.17g" % x)
    assert new == (tmp_path / "f.csv").read_bytes() == (tmp_path / "pct.csv").read_bytes()
    assert b"-inf" in new and b"nan" in new and b"-0," in new and b"4.9406564584124654e-324" in new
    # integer columns (un-gap's N) and an empty table
    out.csv("int.csv", ["n", "x"], [[1, 2, 4], [0.5, -0.0, np.nan]])
    _csv_rows_one_by_one(tmp_path / "int_ref.csv", ["n", "x"],
                         [(1, 0.5), (2, -0.0), (4, np.nan)], lambda x: "%.17g" % x)
    assert (out.stage / "int.csv").read_bytes() == (tmp_path / "int_ref.csv").read_bytes()
    out.csv("empty.csv", ["n", "x"], [[], []])
    assert (out.stage / "empty.csv").read_bytes() == b"n,x\r\n"
    assert out.written == ["new.csv", "int.csv", "empty.csv"]


@pytest.mark.parametrize("error, code", [(OSError("disk full"), 4), (MemoryError(), 3)])
def test_failed_write_leaves_no_file_and_keeps_the_old_one(tmp_path, capsys, monkeypatch,
                                                           error, code):
    flags = ["simulate", *SMALL_SIM, "--seed", "3"]
    kept = tmp_path / "kept"
    assert run(*flags, "--out", str(kept)) == 0
    before = {path.name: path.read_bytes() for path in kept.iterdir()}

    def partial_write(samples, path, **meta):
        Path(path).write_bytes(b"partial")
        raise error

    monkeypatch.setattr(dynamics, "write_samples", partial_write)
    fresh = tmp_path / "fresh"
    assert run(*flags, "--out", str(fresh)) == code
    assert os.listdir(fresh) == []
    assert run(*flags, "--out", str(kept)) == code
    assert {path.name: path.read_bytes() for path in kept.iterdir()} == before
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and "Traceback" not in err

    # a two-file run whose second file fails lands neither: --out keeps the
    # earlier run's files and sidecar, and no staging directory is left
    vt = tmp_path / "vt"
    scan = ["scan-vt", "--potential", "quartic", "--lam", "1", "--points", "51"]
    assert run(*scan, "--T", "1.5", "--out", str(vt)) == 0
    before = {path.name: path.read_bytes() for path in vt.iterdir()}
    write_json = cli._Outputs.json

    def failing_json(self, name, payload):
        write_json(self, name, payload)
        if name == "renorm.json":
            raise error

    monkeypatch.setattr(cli._Outputs, "json", failing_json)
    assert run(*scan, "--T", "2", "--out", str(vt)) == code
    assert {path.name: path.read_bytes() for path in vt.iterdir()} == before


def test_rerun_removes_what_the_old_sidecar_listed_and_nothing_else(tmp_path):
    out = tmp_path / "o"
    binary = ["simulate", *SMALL_SIM, "--seed", "3", "--out", str(out)]
    assert run(*binary) == 0
    assert run(*binary, "--format", "csv") == 0
    assert sorted(os.listdir(out)) == ["samples.csv", "sidecar.json"]
    # only plain names that the old sidecar lists go: not an unlisted file, not a
    # path out of --out, and nothing at all when the old sidecar does not parse
    (tmp_path / "outside").write_text("x")
    (out / "mine.txt").write_text("x")
    side = read_json(out / "sidecar.json")
    side["outputs"] += ["../outside", str(tmp_path / "outside"), "sidecar.json"]
    (out / "sidecar.json").write_text(json.dumps(side))
    assert run(*binary) == 0
    assert sorted(os.listdir(out)) == ["mine.txt", "samples.bin", "sidecar.json"]
    assert (tmp_path / "outside").exists()
    (out / "sidecar.json").write_text("{not json")
    assert run(*binary, "--format", "csv") == 0
    assert sorted(os.listdir(out)) == ["mine.txt", "samples.bin", "samples.csv", "sidecar.json"]


def test_out_of_memory_exit_3(tmp_path, capsys, monkeypatch):
    message = ("Unable to allocate 5.08 GiB for an array with shape (801, 851510) "
               "and data type float64")

    def too_large(*args):
        raise MemoryError(message)

    monkeypatch.setattr(renormalized, "renorm_potential", too_large)
    out = tmp_path / "o"
    code = run("scan-vt", "--potential", "gaussian", "--T", "2", "--phi-max", "20000",
               "--out", str(out))
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"numerical failure: {message}\n"
    assert os.listdir(out) == []


def test_writes_stay_inside_out(tmp_path, monkeypatch):
    work = tmp_path / "cwd"
    work.mkdir()
    monkeypatch.chdir(work)
    out = tmp_path / "only_here"
    assert run("tc", "--potential", "gaussian", "--curvature", "2",
               "--out", str(out)) == 0
    assert os.listdir(work) == []
    assert sorted(os.listdir(out)) == ["sidecar.json", "tc.json"]


# -- config values: one typed parse for flags, INI entries and JSON values ----------

SMALL_SIM = ["--n", "4", "--steps", "10", "--burn-in", "0"]


def assert_refused(code, err, *needles):
    assert code == 2
    assert err.startswith("precondition violation:") and err.count("\n") == 1
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err


def test_ini_without_section_header_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("T = 1.0\ngrid = 5\n")
    code = run("xy-check", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert_refused(code, capsys.readouterr().err, "no section headers")


def test_json_config_not_an_object_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text("[1, 2]\n")
    code = run("xy-check", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert_refused(code, capsys.readouterr().err, "not a JSON object")


def test_sidecar_config_not_an_object_exit_2(tmp_path, capsys):
    out = tmp_path / "o"
    assert run("xy-check", "--T", "1.0", "--grid", "5", "--out", str(out)) == 0
    side = read_json(out / "sidecar.json")
    side["config"] = [["T", 1.0]]
    (out / "sidecar.json").write_text(json.dumps(side))
    capsys.readouterr()
    code = run("xy-check", "--config", str(out / "sidecar.json"), "--out", str(tmp_path / "p"))
    assert_refused(code, capsys.readouterr().err, "not a JSON object")


# (command, extra flags, key, wrongly typed JSON value), one or more per schema kind
BAD_JSON_VALUES = {
    "float_text": ("tc", [], "tol", "abc"),
    "float_bool": ("xy-check", ["--grid", "5"], "T", True),
    "int_float": ("xy-check", [], "grid", 5.0),
    "floats_item_text": ("un-gap", ["--n-values", "1"], "psi", [0.5, "0"]),
    "ints_not_list": ("un-gap", [], "n_values", 2),
    "bool_number": ("simulate", SMALL_SIM, "no_interaction", 1),
    "choice_list": ("simulate", SMALL_SIM, "format", ["csv"]),
}


@pytest.mark.parametrize("name", sorted(BAD_JSON_VALUES))
def test_wrongly_typed_json_value_exit_2(tmp_path, capsys, name):
    command, extra, key, value = BAD_JSON_VALUES[name]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    code = run(command, "--config", str(cfg), *extra, "--out", str(tmp_path / "o"))
    assert_refused(code, capsys.readouterr().err, repr(key))


def test_unknown_bool_word_in_ini_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[simulate]\nno_interaction = maybe\n")
    code = run("simulate", "--config", str(cfg), *SMALL_SIM, "--out", str(tmp_path / "o"))
    assert_refused(code, capsys.readouterr().err, "'no_interaction'")


def test_empty_list_item_refused_alike_from_flag_and_ini(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[un-gap]\npsi = 0.5,,0\n")
    errors = []
    for source in (["--psi", "0.5,,0"], ["--config", str(cfg)]):
        code = run("un-gap", *source, "--n-values", "1", "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert_refused(code, err, "'psi'")
        errors.append(err)
    assert errors[0] == errors[1]


def test_unknown_format_exit_2(tmp_path, capsys):
    out = tmp_path / "o"
    code = run("simulate", *SMALL_SIM, "--format", "xml", "--out", str(out))
    assert_refused(code, capsys.readouterr().err, "'format'", "binary, csv")
    assert not out.exists()


def test_old_sidecar_with_r_exit_2(tmp_path, capsys):
    samples = tmp_path / "s.bin"
    dynamics.write_samples(np.ones((1, 40, 3)), samples, temperature=1.0, dt=1e-3, seed=1)
    old = tmp_path / "sidecar.json"
    old.write_text(json.dumps({
        "version": "0", "command": "plateau-bound", "seed": None, "outputs": ["plateau.json"],
        "config": {"samples": str(samples), "m_plus": 1.0, "delta": 0.2, "r": 0.0,
                   "symmetrize": True}}))
    code = run("plateau-bound", "--config", str(old), "--out", str(tmp_path / "o"))
    assert_refused(code, capsys.readouterr().err, "unknown config key 'r'")


def test_old_simulate_sidecar_with_tol_exit_2(tmp_path, capsys):
    # simulate builds no quadrature measure, so it no longer takes tol
    a = tmp_path / "a"
    assert run("simulate", *SMALL_SIM, "--out", str(a)) == 0
    side = read_json(a / "sidecar.json")
    assert "tol" not in side["config"]
    side["config"]["tol"] = 1e-5
    old = tmp_path / "old.json"
    old.write_text(json.dumps(side))
    out = tmp_path / "o"
    code = run("simulate", "--config", str(old), "--out", str(out))
    assert_refused(code, capsys.readouterr().err, "unknown config key 'tol' for simulate")
    assert not out.exists()
    assert run("simulate", *SMALL_SIM, "--tol", "1e-5", "--out", str(out)) == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_json_bool_word_false_keeps_interaction(tmp_path):
    flags = ["--potential", "quartic", "--lam", "1", "--n", "8", "--steps", "200",
             "--burn-in", "0", "--seed", "3"]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"no_interaction": "false"}))
    interacting, from_json, free = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run("simulate", *flags, "--out", str(interacting)) == 0
    assert run("simulate", "--config", str(cfg), *flags, "--out", str(from_json)) == 0
    assert run("simulate", *flags, "--no-interaction", "--out", str(free)) == 0
    data = (interacting / "samples.bin").read_bytes()
    assert (from_json / "samples.bin").read_bytes() == data
    assert (free / "samples.bin").read_bytes() != data
    assert read_json(from_json / "sidecar.json")["config"]["no_interaction"] is False


def test_json_text_values_parse_like_flags(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"T": "0.6", "grid": "5"}))
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("xy-check", "--config", str(cfg), "--out", str(a)) == 0
    assert run("xy-check", "--T", "0.6", "--grid", "5", "--out", str(b)) == 0
    for name in ("xy_check.json", "sidecar.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


BIG = "1" + "0" * 400  # past any float: text reads as inf, a JSON integer stays an int


@pytest.mark.parametrize("text, json_text", [("nan", "NaN"), ("inf", "Infinity"),
                                             ("-inf", "-Infinity"), (BIG, BIG)],
                         ids=["nan", "inf", "-inf", "big"])
@pytest.mark.parametrize("source", ["flag", "ini", "json"])
def test_non_finite_number_exit_2(tmp_path, capsys, source, text, json_text):
    flags = ["--T=" + text]
    if source != "flag":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[xy-check]\nT = {text}\n" if source == "ini"
                       else f'{{"T": {json_text}}}')
        flags = ["--config", str(cfg)]
    out = tmp_path / "xy"
    code = run("xy-check", *flags, "--grid", "5", "--out", str(out))
    assert_refused(code, capsys.readouterr().err, "config key 'T' must be a finite number")
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--psi", "nan,0"], ["--psi", "0.5,inf"]])
def test_non_finite_list_item_exit_2(tmp_path, capsys, flags):
    code = run("un-gap", *flags, "--n-values", "1", "--out", str(tmp_path / "un"))
    assert_refused(code, capsys.readouterr().err, "config key 'psi'")


# -- refused sizes and files ---------------------------------------------------------

BAD_DECOMPOSITIONS = {
    "not_json": "{",
    "not_object": "[1, 2]",
    "missing_alpha": '{"neg": [], "pos": [], "M": 1.0, "L": 1.0}',
    "missing_pos": '{"alpha": 0.0, "neg": [], "M": 1.0, "L": 1.0}',
    "alpha_text": '{"alpha": "x", "neg": [], "pos": [], "M": 1.0, "L": 1.0}',
    "neg_not_list": '{"alpha": 0.0, "neg": 3, "pos": [], "M": 1.0, "L": 1.0}',
    "mode_not_object": '{"alpha": 0.0, "neg": [1.0], "pos": [], "M": 1.0, "L": 1.0}',
    "mode_without_k": '{"alpha": 0.0, "neg": [{"w": 1.0, "kind": "cos"}], "pos": [],'
                      ' "M": 1.0, "L": 1.0}',
    "weight_text": '{"alpha": 0.0, "neg": [{"w": "a", "kind": "cos", "k": 1}], "pos": [],'
                   ' "M": 1.0, "L": 1.0}',
    "fractional_k": '{"alpha": 0.0, "neg": [{"w": 1.0, "kind": "cos", "k": 1.5}], "pos": [],'
                    ' "M": 1.0, "L": 1.0}',
    "unknown_mode_kind": '{"alpha": 0.0, "neg": [{"w": 1.0, "kind": "tan", "k": 1}],'
                         ' "pos": [], "M": 1.0, "L": 1.0}',
    "nan_weight": '{"alpha": 0.0, "neg": [{"w": NaN, "kind": "cos", "k": 1},'
                  ' {"w": 1.0, "kind": "sin", "k": 1}], "pos": [], "M": 1.0, "L": 1.0}',
    "infinite_alpha": '{"alpha": Infinity, "neg": [{"w": 1.0, "kind": "cos", "k": 1}],'
                      ' "pos": [], "M": 1.0, "L": 1.0}',
}


@pytest.mark.parametrize("command", ["un-gap", "scan-convexity", "simulate"])
@pytest.mark.parametrize("name", sorted(BAD_DECOMPOSITIONS))
def test_malformed_decomposition_exit_2(tmp_path, capsys, command, name):
    path = tmp_path / "bad.json"
    path.write_text(BAD_DECOMPOSITIONS[name])
    extra = SMALL_SIM if command == "simulate" else []
    code = run(command, "--decomposition", str(path), *extra, "--out", str(tmp_path / "o"))
    assert_refused(code, capsys.readouterr().err)


@pytest.mark.parametrize("command, key", [("estimate", "samples"), ("plateau-bound", "samples"),
                                          ("graph-spectrum", "graph"),
                                          ("scan-convexity", "decomposition")])
def test_missing_required_key_exit_2(tmp_path, capsys, command, key):
    out = tmp_path / "o"
    code = run(command, "--out", str(out))
    assert_refused(code, capsys.readouterr().err, f"{command} needs config key {key!r}")
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--n", "0"], ["--n", "2", "--samples", "10"]])
def test_cov_check_refuses_unmeasurable_sizes(tmp_path, capsys, flags):
    code = run("cov-check", *flags, "--pairs", "1", "--out", str(tmp_path / "o"))
    assert_refused(code, capsys.readouterr().err)


@pytest.mark.parametrize("grid", ["0", "-3"])
@pytest.mark.parametrize("command", ["xy-check", "scan-convexity"])
def test_empty_scan_grid_exit_2(tmp_path, capsys, command, grid):
    extra = []
    if command == "scan-convexity":
        dec = tmp_path / "dec.json"
        dec.write_text(modes.fourier_decompose([1.0], 1).to_json())
        extra = ["--decomposition", str(dec)]
    code = run(command, *extra, "--grid", grid, "--out", str(tmp_path / "o"))
    assert_refused(code, capsys.readouterr().err, f"grid must be >= 1, got {grid}")


def test_regular_graph_refuses_fractional_degree(tmp_path, capsys):
    out = tmp_path / "g"
    code = run("graph-gen", "--kind", "regular", "--n", "10", "--d", "2.5", "--out", str(out))
    assert_refused(code, capsys.readouterr().err, "2.5")
    assert not (out / "graph.edges").exists()


@pytest.mark.parametrize("kind", ["erdos_renyi", "regular"])
def test_graph_gen_refuses_zero_degree(tmp_path, capsys, kind):
    out = tmp_path / "g"
    code = run("graph-gen", "--kind", kind, "--n", "10", "--d", "0", "--out", str(out))
    assert_refused(code, capsys.readouterr().err, "graph-gen needs d > 0, got 0")
    assert list(out.iterdir()) == []


def test_simulate_refuses_graph_without_edges(tmp_path, capsys):
    # the edge-list format allows d_eff = 0, but the drift divides by T*d_eff
    graph = tmp_path / "empty.edges"
    graph.write_text("4 0 erdos_renyi 1\n")
    out = tmp_path / "sim"
    code = run("simulate", "--graph", str(graph), *SMALL_SIM, "--out", str(out))
    assert_refused(code, capsys.readouterr().err, "a graph interaction needs d_eff > 0, got 0")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("flags, key", [
    (["--potential", "quartic", "--lam", "nan"], "lam"),
    (["--potential", "quartic", "--lam", "inf"], "lam"),
    (["--potential", "gaussian", "--curvature", "inf"], "curvature"),
    (["--potential", "periodic_fourier", "--coefficients", "nan"], "coefficients"),
], ids=["quartic_nan", "quartic_inf", "gaussian_inf", "fourier_nan"])
def test_non_finite_potential_parameter_exit_2(tmp_path, capsys, flags, key):
    out = tmp_path / "tc"
    code = run("tc", *flags, "--out", str(out))
    assert_refused(code, capsys.readouterr().err, f"config key {key!r}")
    assert not out.exists()


def test_tabulated_potential_needs_two_columns(tmp_path, capsys):
    table = tmp_path / "pot.csv"
    np.savetxt(table, np.linspace(-6.0, 6.0, 101), delimiter=",")
    code = run("tc", "--potential", "tabulated", "--file", str(table),
               "--out", str(tmp_path / "o"))
    assert_refused(code, capsys.readouterr().err, "two columns")


def test_un_gap_on_a_flat_convex_pair(tmp_path):
    # a negative cosine coefficient decomposes into a (cos, sin) flat-convex pair
    dec_out = tmp_path / "dec"
    assert run("modes-decompose", "--kernel-coefficients", "1.0,-0.3", "--max-frequency", "2",
               "--out", str(dec_out)) == 0
    dec_path = dec_out / "decomposition.json"
    assert len(read_json(dec_path)["pos"]) == 2
    out = tmp_path / "un"
    assert run("un-gap", "--decomposition", str(dec_path), "--T", "0.8", "--psi", "0.5,-0.2",
               "--n-values", "1,2,3", "--out", str(out)) == 0
    with open(out / "un_gap.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    decomp = modes.fourier_decompose([1.0, -0.3], 2)
    measure = quad1d.build_measure(quad1d.PotentialSpec.periodic_fourier([]), 1e-10)
    psi = modes.ModeField(coords=np.array([0.5, -0.2]))
    for row in rows:
        res = modes.un_small_n(psi, 0.8, decomp, measure, int(row["n"]))
        assert (float(row["u_n"]), float(row["u_limit"])) == (res.u_n, res.u_limiting)


@pytest.mark.parametrize("T", ["0", "-1"])
@pytest.mark.parametrize("command", ["scan-vt", "free-energy", "pl", "scan-convexity",
                                     "xy-check", "un-gap", "simulate"])
def test_non_positive_temperature_exit_2(tmp_path, capsys, command, T):
    rotor, flat = tmp_path / "rotor.json", tmp_path / "flat.json"
    rotor.write_text(modes.xy_decomposition().to_json())
    flat.write_text(modes.fourier_decompose([1.0, -0.3], 2).to_json())
    argv = {"scan-vt": ["--potential", "quartic", "--lam", "1", "--points", "51"],
            "free-energy": ["--potential", "quartic", "--lam", "1", "--points", "21"],
            "pl": ["--potential", "quartic", "--lam", "1", "--points", "21"],
            "scan-convexity": ["--decomposition", str(rotor), "--grid", "5"],
            "xy-check": ["--grid", "5"],
            "un-gap": ["--decomposition", str(flat), "--n-values", "1,2"],
            "simulate": SMALL_SIM}[command]
    out = tmp_path / "o"
    assert run(command, *argv, "--T", "1.5", "--out", str(out)) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    code = run(command, *argv, "--T", T, "--out", str(out))
    assert_refused(code, capsys.readouterr().err, "must be positive")
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
