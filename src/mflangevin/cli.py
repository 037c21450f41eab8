"""Batch command-line front-end.

Every library operation is exposed as a subcommand whose settings come from
a config file (a section of a flat INI file, a JSON object, or a previous
run's sidecar) overridden by flags, all typed by one parser per schema kind.
It writes machine output into ``--out``, all of a run's files or none of
them: the files, then a JSON sidecar ``{version, command, config, seed,
outputs}`` listing them, and it removes the files the sidecar it replaced
listed that this run did not write.  Re-running a command from its sidecar
(``--config sidecar.json``) reproduces the output files byte for byte.

Exit codes: 0 success, 2 precondition violation (a missing required key
too), 3 numerical failure (running out of memory too), 4 I/O error.
Human-readable summaries go to stdout; machine-readable data only to files.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import functools
import json
import os
import shutil
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, dynamics, graphs, modes, quad1d, renormalized
from .errors import MeanFieldError, NumericalError, PreconditionError


# -- config plumbing ---------------------------------------------------------------

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _number(value) -> bool:  # a JSON number; bool is an int subclass but not a number
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value) -> bool:
    return _number(value) and isinstance(value, int)


def _finite(value) -> bool:  # not NaN or +-Infinity, which json reads, nor an int past any float
    return _number(value) and abs(value) <= sys.float_info.max


def _finite_float(text: str) -> float:
    value = float(text)
    if not _finite(value):
        raise ValueError(text)
    return value


def _list_of(item, fits):
    return (lambda text: [item(v) for v in text.split(",")] if text.strip() else [],
            lambda value: isinstance(value, list) and all(map(fits, value)))


# schema kind -> (parser of a string, test of any other JSON value, what is expected);
# a tuple of words is a kind too, whose value must be one of the words
_KINDS = {
    str: (str, lambda value: False, "a string"),
    float: (_finite_float, _finite, "a finite number"),
    int: (int, _integer, "an integer"),
    bool: (lambda text: _BOOL_WORDS[text.strip().lower()],
           lambda value: isinstance(value, bool), "one of " + ", ".join(_BOOL_WORDS)),
    "floats": (*_list_of(_finite_float, _finite), "comma-separated finite numbers"),
    "ints": (*_list_of(int, _integer), "comma-separated integers"),
}


def _typed(key: str, kind, raw):
    """The one way from a raw config value (a flag, an INI entry or a JSON
    value) to a value of its schema kind.  Strings go through the kind's
    parser; any other JSON value must already have the kind's JSON type and
    is kept as it is, so a rerun from a sidecar writes the same sidecar."""
    if isinstance(kind, tuple):
        if raw in kind:
            return raw
        expected = "one of " + ", ".join(kind)
    else:
        parse, fits, expected = _KINDS[kind]
        if isinstance(raw, str):
            try:
                return parse(raw)
            except (KeyError, ValueError):  # KeyError: not a bool word
                pass
        elif fits(raw):
            return raw
    raise PreconditionError(f"config key {key!r} must be {expected}, got {raw!r}")


def _read_config(path: str, command: str) -> dict:
    """Raw ``key: value`` pairs for ``command`` from a JSON config, a sidecar
    or the command's section of an INI file."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except ValueError:
        if text.lstrip().startswith("{"):
            raise
        ini = configparser.ConfigParser()
        ini.optionxform = str  # keys are case-sensitive (T vs t)
        try:
            ini.read_string(text, source=path)
            return dict(ini.items(command)) if ini.has_section(command) else {}
        except configparser.Error as exc:
            raise PreconditionError(" ".join(str(exc).split())) from None
    if isinstance(raw, dict) and "command" in raw:
        if raw["command"] != command:
            raise PreconditionError(f"sidecar is for {raw['command']!r}, not {command!r}")
        raw = raw.get("config")
    if not isinstance(raw, dict):
        raise PreconditionError(f"{path}: the config is not a JSON object")
    return raw


def _resolve_config(command: str, schema: dict, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags, every value typed by ``_typed``.
    A key whose schema default is None has no default: it must be given."""
    config = {key: default for key, (_, default) in schema.items()}
    raw = _read_config(args.config, command) if args.config else {}
    raw.update((key, flag) for key, flag in vars(args).items()
               if key in schema and flag is not None)
    for key, value in raw.items():
        if key not in schema:
            raise PreconditionError(f"unknown config key {key!r} for {command}")
        config[key] = _typed(key, schema[key][0], value)
    for key, value in config.items():
        if value is None:
            raise PreconditionError(f"{command} needs config key {key!r}")
    return config


class _Outputs:
    """A run's files, written into a staging directory inside ``--out`` and
    moved onto their names by ``commit`` only once the whole run has
    succeeded, so a failed run leaves ``--out`` as it was.  ``written`` lists
    the names in the order they were written."""

    def __init__(self, out_dir: Path):
        out_dir.mkdir(parents=True, exist_ok=True)
        self.dir = out_dir
        self.stage = Path(tempfile.mkdtemp(prefix=".mfl-staging-", dir=out_dir))
        self.written: list[str] = []

    def path(self, name: str) -> Path:
        """Where to write the file that becomes ``name`` on commit."""
        self.written.append(name)
        return self.stage / name

    def commit(self) -> None:
        """Move every staged file onto its name, in the order written."""
        for name in self.written:
            os.replace(self.stage / name, self.dir / name)

    def json(self, name: str, payload: dict) -> None:
        with open(self.path(name), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def csv(self, name: str, header: list[str], columns) -> None:
        """Write the header row, then one row per entry of the equal-length
        ``columns``, each value as ``%.17g``, in the ``csv`` module's dialect."""
        columns = [np.asarray(c).tolist() for c in columns]
        row = ",".join(["%.17g"] * len(columns)) + "\r\n"
        with open(self.path(name), "w", newline="") as fh:
            csv.writer(fh).writerow(header)
            fh.writelines(row % values for values in zip(*columns))


def _listed_outputs(sidecar: Path) -> set:
    """The plain file names, but its own, that a sidecar lists under
    ``outputs``; none when it is missing or does not parse."""
    try:
        names = json.loads(sidecar.read_text())["outputs"]
        if isinstance(names, list):
            return {n for n in names if os.path.basename(n) == n != sidecar.name}
    except (OSError, ValueError, KeyError, TypeError):
        pass
    return set()


def _potential_from_config(config: dict) -> quad1d.PotentialSpec:
    kind = config["potential"]
    if kind == "quartic":
        return quad1d.PotentialSpec.quartic(config["lam"])
    if kind == "gaussian":
        return quad1d.PotentialSpec.gaussian(config["curvature"])
    if kind == "periodic_fourier":
        return quad1d.PotentialSpec.periodic_fourier(config["coefficients"])
    if not config["file"]:
        raise PreconditionError("tabulated potential needs file=<csv of x,V>")
    data = np.loadtxt(config["file"], delimiter=",", ndmin=2)
    if data.shape[1] != 2:
        raise PreconditionError(f"tabulated potential file {config['file']} needs "
                                f"two columns x,V, not {data.shape[1]}")
    return quad1d.PotentialSpec.tabulated(data[:, 0], data[:, 1])


def _measure_from_config(config: dict) -> quad1d.LineMeasure:
    return quad1d.build_measure(_potential_from_config(config), config["tol"])


_POTENTIAL_SCHEMA = {"potential": (quad1d._KINDS, "quartic"), "lam": (float, 0.0),
                     "curvature": (float, 1.0), "coefficients": ("floats", []),
                     "file": (str, "")}
_MEASURE_SCHEMA = {**_POTENTIAL_SCHEMA, "tol": (float, 1e-10)}  # build_measure's tolerance


# -- subcommand handlers --------------------------------------------------------------

def _cmd_tc(config, out):
    measure = _measure_from_config(config)
    t_c = renormalized.critical_temperature(measure)
    out.json("tc.json", {"t_critical": t_c, "potential": config["potential"]})
    print(f"T_c = {t_c:.6g}")


def _cmd_scan_vt(config, out):
    measure = _measure_from_config(config)
    T = config["T"]
    if config["phi_max"] > 0:
        grid = np.linspace(-config["phi_max"], config["phi_max"], config["points"])
    else:
        grid = renormalized.auto_phi_grid(measure, T, config["points"])
    table = renormalized.renorm_potential(measure, T, grid)
    out.csv("renorm.csv", ["phi", "v", "dv", "ddv"],
            [table.phi_grid, table.v, table.dv, table.ddv])
    out.json("renorm.json", {
        "T": table.temperature, "t_critical": table.t_critical,
        "curvature_floor": table.curvature_floor, "minimizers": table.minimizers.tolist()})
    print(f"T = {T:.6g}: curvature floor {table.curvature_floor:.6g}, "
          f"{len(table.minimizers)} minimiser(s)")


def _free_energy_table(config):
    m_grid = np.linspace(config["m_min"], config["m_max"], config["points"])
    return renormalized.coarse_free_energy(_measure_from_config(config), config["T"], m_grid)


def _cmd_free_energy(config, out):
    T, table = config["T"], _free_energy_table(config)
    out.csv("free_energy.csv", ["m", "fhat"], [table.m_grid, table.values])
    out.json("free_energy.json", {"T": T, "points": int(config["points"])})
    print(f"free energy tabulated on [{config['m_min']}, {config['m_max']}] at T = {T:.6g}")


def _cmd_pl(config, out):
    T, gamma = config["T"], renormalized.pl_constant(_free_energy_table(config))
    out.json("pl.json", {"T": T, "pl_constant": gamma})
    print(f"PL constant at T = {T:.6g}: {gamma:.6g}")


def _cmd_modes_decompose(config, out):
    kernel = config["kernel_coefficients"]
    if config["kernel_file"]:
        kernel = list(np.loadtxt(config["kernel_file"], delimiter=",").ravel())
    decomp = modes.fourier_decompose(kernel, config["max_frequency"], config["tol"])
    out.path("decomposition.json").write_text(decomp.to_json() + "\n")
    print(f"{len(decomp.neg_modes)} mode(s) / {len(decomp.pos_modes)} flat-convex, "
          f"M = {decomp.m_bound:.6g}, L = {decomp.l_bound:.6g}")


def _decomposition(path: str) -> modes.ModeDecomposition:
    return modes.ModeDecomposition.from_json(Path(path).read_text())


def _cmd_scan_convexity(config, out):
    decomp = _decomposition(config["decomposition"])
    measure = _measure_from_config(config)
    region = [(-config["radius"], config["radius"])] * decomp.dim
    scan = modes.strong_convexity_scan(config["T"], decomp, measure, region, config["grid"])
    header = [f"zeta_{k + 1}" for k in range(decomp.dim)] + ["min_eig"]
    out.csv("scan.csv", header, [*scan.grid_points.T, scan.min_eigs])
    out.json("scan.json", {
        "T": config["T"], "lambda_hat": scan.lambda_hat,
        "argmin": [float(v) for v in scan.argmin]})
    print(f"lambda_hat = {scan.lambda_hat:.6g} at zeta = {list(map(float, scan.argmin))}")


def _cmd_xy_check(config, out):
    report = modes.xy_check(config["T"], radius=config["radius"], grid=config["grid"])
    out.json("xy_check.json", {"T": config["T"], **asdict(report)})
    print(f"T = {config['T']:.6g}: bound {report.bound:.5f}, "
          f"measured {report.measured_min_eig:.5f}, convex = {report.convex}")


def _cmd_un_gap(config, out):
    if not config["n_values"] or len(set(config["n_values"])) < len(config["n_values"]):
        raise PreconditionError(f"config key 'n_values' must list one or more distinct N, "
                                f"got {config['n_values']!r}")
    decomp = (_decomposition(config["decomposition"]) if config["decomposition"]
              else modes.xy_decomposition())
    measure = _measure_from_config(config)
    psi = modes.ModeField.from_vector(config["psi"], decomp)
    rows = []
    for n in config["n_values"]:
        res = modes.un_small_n(psi, config["T"], decomp, measure, n)
        rows.append((n, res.u_n, res.u_limiting, res.gap))
        print(f"N = {n}: finite-N value {res.u_n:.8f}, gap {res.gap:.8f}")
    out.csv("un_gap.csv", ["n", "u_n", "u_limit", "gap"], zip(*rows))
    out.json("un_gap.json", {
        "T": config["T"], "psi": config["psi"],
        "gaps": {str(n): g for n, _, _, g in rows}})


def _cmd_graph_gen(config, out):
    if config["kind"] == "regular":
        if config["d"] % 1:
            raise PreconditionError(f"a regular graph needs an integral d, not {config['d']!r}")
        g = graphs.gen_rrg(config["n"], int(config["d"]), config["seed"])
    else:
        g = graphs.gen_er(config["n"], config["d"], config["seed"])
    graphs.write_edge_list(g, out.path("graph.edges"))
    print(f"{config['kind']} graph: n = {g.n}, {len(g.edges)} edges")


def _cmd_graph_spectrum(config, out):
    g = graphs.read_edge_list(config["graph"])
    report = graphs.spectral_report(g)
    out.json("spectrum.json", asdict(report))
    print(f"epsilon = {report.epsilon:.6g} (top singular {report.top_singular:.6g}, "
          f"{report.iterations} iterations)")


def _cmd_simulate(config, out):
    given = [key for key in ("graph", "decomposition", "no_interaction") if config[key]]
    if len(given) > 1:  # a run has one interaction; refused before either file is read
        raise PreconditionError(f"config keys {given[0]!r} and {given[1]!r} exclude each other")
    topology = graphs.read_edge_list(config["graph"]) if config["graph"] else "complete"
    decomp = _decomposition(config["decomposition"]) if config["decomposition"] else None
    if config["no_interaction"]:
        decomp = modes.ModeDecomposition()  # no terms: no interaction
    sim = dynamics.SimConfig(
        n_particles=config["n"], temperature=config["T"], dt=config["dt"],
        n_steps=config["steps"], burn_in=config["burn_in"], seed=config["seed"],
        thinning=config["thinning"], replicas=config["replicas"],
        topology=topology, potential=_potential_from_config(config), modes=decomp)
    if config["format"] == "csv" and (sim.replicas > 1 or sim.n_particles > 64):
        raise PreconditionError("CSV output is limited to single-replica runs with n <= 64")
    samples = dynamics.simulate(sim)
    if config["format"] == "csv":
        header = ["step"] + [f"x_{i}" for i in range(sim.n_particles)]
        out.csv("samples.csv", header, [range(sim.n_kept), *samples[0].T])
    else:
        dynamics.write_samples(samples, out.path("samples.bin"),
                               temperature=sim.temperature, dt=sim.dt, seed=sim.seed)
    print(f"simulated {sim.replicas} replica(s) x {sim.n_kept} kept states of n = {sim.n_particles}")


def _cmd_estimate(config, out):
    samples, meta = dynamics.read_samples(config["samples"])
    report = dynamics.estimate(samples, subtract_mean=config["subtract_mean"])
    out.json("estimate.json", {**asdict(report), "input_meta": meta})
    print(f"chi = {report.chi:.6g} +- {report.chi_stderr:.2g}, "
          f"gap upper bound 1/chi = {report.gap_upper_chi:.6g}")


def _cmd_plateau_bound(config, out):
    samples, _ = dynamics.read_samples(config["samples"])
    if not config["no_symmetrize"]:
        samples = dynamics.symmetrize(samples)
    bound = dynamics.plateau_gap_bound(samples, config["m_plus"], config["delta"])
    out.json("plateau.json", asdict(bound))
    print(f"plateau gap bound = {bound.bound:.6g} "
          f"(window visits {bound.n_window}, flag {bound.flag})")


def _cmd_cov_check(config, out):
    report = dynamics.covariance_bound_check(config["n"], config["seed"],
                                             n_samples=config["samples"],
                                             n_pairs=config["pairs"])
    out.json("cov_check.json", asdict(report))
    print(f"worst covariance ratio = {report.worst_ratio:.4f} "
          f"+- {report.worst_ratio_stderr:.4f} (bound 1)")


_COMMANDS = {
    "tc": (_cmd_tc, dict(_MEASURE_SCHEMA)),
    "scan-vt": (_cmd_scan_vt, {**_MEASURE_SCHEMA, "T": (float, 1.5),
                               "points": (int, 801), "phi_max": (float, 0.0)}),
    "free-energy": (_cmd_free_energy, {**_MEASURE_SCHEMA, "T": (float, 1.5),
                                       "m_min": (float, -1.0), "m_max": (float, 1.0),
                                       "points": (int, 201)}),
    "pl": (_cmd_pl, {**_MEASURE_SCHEMA, "T": (float, 1.5), "m_min": (float, -1.0),
                     "m_max": (float, 1.0), "points": (int, 201)}),
    "modes-decompose": (_cmd_modes_decompose, {
        "kernel_coefficients": ("floats", [1.0]), "kernel_file": (str, ""),
        "max_frequency": (int, 8), "tol": (float, 1e-8)}),
    "scan-convexity": (_cmd_scan_convexity, {
        **_MEASURE_SCHEMA, "potential": (quad1d._KINDS, "periodic_fourier"),
        "decomposition": (str, None), "T": (float, 1.0), "radius": (float, 6.0),
        "grid": (int, 41)}),
    "xy-check": (_cmd_xy_check, {"T": (float, 1.0), "radius": (float, 6.0),
                                 "grid": (int, 41)}),
    "un-gap": (_cmd_un_gap, {
        **_MEASURE_SCHEMA, "potential": (quad1d._KINDS, "periodic_fourier"),
        "decomposition": (str, ""), "T": (float, 1.0), "psi": ("floats", [0.5, 0.0]),
        "n_values": ("ints", [1, 2, 4])}),
    "graph-gen": (_cmd_graph_gen, {"kind": (("regular", "erdos_renyi"), "regular"),
                                   "n": (int, 1000), "d": (float, 20), "seed": (int, 1)}),
    "graph-spectrum": (_cmd_graph_spectrum, {"graph": (str, None)}),
    "simulate": (_cmd_simulate, {
        **_POTENTIAL_SCHEMA, "n": (int, 100), "T": (float, 2.0), "dt": (float, 1e-3),
        "steps": (int, 200_000), "burn_in": (int, 20_000), "thinning": (int, 10),
        "replicas": (int, 1), "seed": (int, 1), "graph": (str, ""),
        "decomposition": (str, ""), "no_interaction": (bool, False),
        "format": (("binary", "csv"), "binary")}),
    "estimate": (_cmd_estimate, {"samples": (str, None), "subtract_mean": (bool, False)}),
    "plateau-bound": (_cmd_plateau_bound, {
        "samples": (str, None), "m_plus": (float, 1.0), "delta": (float, 0.2),
        "no_symmetrize": (bool, False)}),
    "cov-check": (_cmd_cov_check, {"n": (int, 5), "seed": (int, 1),
                                   "samples": (int, 1_000_000), "pairs": (int, 10)}),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``mfl`` parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="mfl", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, schema) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="INI config file or a previous run's sidecar.json")
        for key, (kind, _) in schema.items():
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, dest=key, action="store_const", const=True)
            else:  # plain text, typed with file values by _resolve_config
                p.add_argument(flag, dest=key)
    return parser


def run(argv: list[str]) -> int:
    """Dispatch a command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler, schema = _COMMANDS[args.command]
    try:
        config = _resolve_config(args.command, schema, args)
        out = _Outputs(Path(args.out))
        try:
            handler(config, out)
            stale = _listed_outputs(out.dir / "sidecar.json").difference(out.written)
            out.json("sidecar.json", {
                "version": __version__, "command": args.command, "config": config,
                "seed": config.get("seed"), "outputs": list(out.written)})
            out.commit()  # the sidecar last: it was written last
        finally:
            shutil.rmtree(out.stage, ignore_errors=True)
        for name in stale:  # an earlier run's files that this one did not replace
            if (out.dir / name).is_file():
                (out.dir / name).unlink()
        return 0
    except (PreconditionError, ValueError) as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, MemoryError) as exc:  # numpy says what it could not allocate
        print(f"numerical failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except MeanFieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
