"""Command-line front end: runs, sweeps, and deterministic CSV/JSON/SVG output.

Examples:
  squeezelab simulate --kind degenerate --N 16 --outdir out
  squeezelab sweep --kind nondegenerate --N 4:64:geometric:5 --jobs 4 --outdir out
  squeezelab mix --variant bs --r2 0.55 --s 0.5 --alpha 2 --oracle --outdir out
  squeezelab scheme --N 1e6 --lambda 0.5 --variant bs --r2 0.1 --outdir out
  squeezelab surface --variant in --N 1e3:1e7:geometric:9 --mix 0:3.14159:linear:12 --lambda 0.5 --outdir out

Every command writes a JSON document containing ``schema: 1`` and an echo
of its fully-resolved configuration; rerunning with ``--config`` pointed
at that echo (and no other flags) reproduces byte-identical outputs.
Flags win over the ``--config`` file, which wins over the defaults; a file
key that names no parameter of the command is rejected.
Exit codes: 0 success, 2 configuration error, 3 truncation error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import svgplot
from .analytic import (
    BeamSplitterConfig,
    InterferometerConfig,
    SchemeParams,
    beam_splitter_intensity,
    beam_splitter_variance,
    resolution_surface,
    interferometer_intensity,
    interferometer_variance,
    scheme_phase_resolution_approx,
    scheme_phase_resolution_exact,
)
from .crosscheck import (
    beam_splitter_crosscheck,
    beam_splitter_variance_crosscheck,
    interferometer_crosscheck,
    relative_error,
)
from .fock import SqueezeParams, TruncationError
from .metrics import fit_power_law, phase_resolution
from .oscillator import BlockEvolution, OscillatorConfig, default_t_max, find_optimal_squeezing

SCHEMA_VERSION = 1
ORACLE_TOLERANCE = 1e-4


# ---------------------------------------------------------------------------
# small deterministic writers

def _fmt(v) -> str:
    return repr(float(v))


def _write_csv(path: Path, header, rows):
    _write_lines(path, header, (",".join(_fmt(v) for v in row) for row in rows))


def _write_lines(path: Path, header, lines):
    path.write_text("\n".join([",".join(header), *lines]) + "\n")


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def parse_range(spec: str) -> np.ndarray:
    """Parse ``start:stop:{linear|geometric}:count`` into a grid."""
    parts = spec.split(":")
    if len(parts) != 4:
        raise ValueError(f"range spec must be start:stop:kind:count, got {spec!r}")
    start, stop = float(parts[0]), float(parts[1])
    if not math.isfinite(stop - start):  # also false when an endpoint is not finite
        raise ValueError(f"range endpoints and their difference must be finite, got {spec!r}")
    kind, count = parts[2], int(parts[3])
    if count < 1:
        raise ValueError("range count must be >= 1")
    if kind == "linear":
        return np.linspace(start, stop, count)
    if kind == "geometric":
        if start <= 0 or stop <= 0:
            raise ValueError("geometric range needs positive endpoints")
        return np.geomspace(start, stop, count)
    raise ValueError(f"range kind must be 'linear' or 'geometric', got {kind!r}")


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(config: dict, out: Path) -> int:
    osc = OscillatorConfig(config["kind"], config["N"], config["coupling"], config["pump_phase"])
    if config["points"] < 1:
        raise ValueError(f"--points must be at least 1, got {config['points']}")
    if not config["t_max"]:
        config["t_max"] = default_t_max(osc)
    if config["t_max"] < 0.0:
        raise ValueError(f"--t-max must be >= 0, got {config['t_max']}")
    grid = np.linspace(0.0, config["t_max"], config["points"])
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError(f"--t-max {config['t_max']} is too small for {config['points']} distinct times")
    ev = BlockEvolution(osc)  # one eigensolve serves the optimum search and the trajectory
    opt = ev.optimal_squeezing()
    result = ev.observables(grid)
    _write_csv(
        out / "trajectory.csv",
        ["t", "var_X", "intensity_Y", "pump_n"],
        zip(result.times, result.var_x, result.intensity_y, result.pump_n),
    )
    _write_json(
        out / "summary.json",
        {
            "schema": SCHEMA_VERSION,
            "config": config,
            "t_sq": opt.t_sq,
            "var_min": opt.var_min,
            "S": opt.resolution.s,
            "S_min_angle": opt.s_min_angle,
        },
    )
    if config["svg"]:
        svgplot.line_plot(
            out / "trajectory.svg",
            result.times,
            {"var_X": result.var_x, "pump_n / N": result.pump_n / max(osc.pump_photons, 1.0)},
            title=f"{config['kind']} oscillator, N={config['N']:g}",
            xlabel="t [1/coupling]",
            ylabel="",
        )
    print(f"simulate: wrote {out / 'trajectory.csv'} (t_sq={opt.t_sq:.6g}, var_min={opt.var_min:.6g})")
    return 0


# ---------------------------------------------------------------------------
# sweep

def _sweep_point(payload: tuple) -> dict:
    kind, n, coupling, pump_phase = payload
    opt = find_optimal_squeezing(OscillatorConfig(kind, n, coupling, pump_phase))
    return {
        "N": n,
        "t_sq": opt.t_sq,
        "var_min": opt.var_min,
        "S": opt.resolution.s,
        "S_min_angle": opt.s_min_angle,
    }


def cmd_sweep(config: dict, out: Path) -> int:
    if config["jobs"] is None:
        jobs = os.environ.get("SQUEEZELAB_JOBS", "1")
        try:
            config["jobs"] = int(jobs)
        except ValueError:
            raise ValueError(f"SQUEEZELAB_JOBS must be an integer, got {jobs!r}") from None
    if config["jobs"] < 1:
        raise ValueError(f"--jobs (or SQUEEZELAB_JOBS) must be at least 1, got {config['jobs']}")
    n_values = parse_range(config["N"])
    if n_values.size < 3:
        raise ValueError(f"--N: the power-law fits need at least 3 points, got {n_values.size}")
    payloads = [(config["kind"], float(n), config["coupling"], config["pump_phase"]) for n in n_values]
    if config["jobs"] > 1:
        with ProcessPoolExecutor(max_workers=config["jobs"]) as pool:
            points = list(pool.map(_sweep_point, payloads))
    else:
        points = [_sweep_point(p) for p in payloads]
    _write_csv(
        out / "sweep.csv",
        ["N", "t_sq", "var_min", "S", "S_min_angle"],
        [(p["N"], p["t_sq"], p["var_min"], p["S"], p["S_min_angle"]) for p in points],
    )
    ns = [p["N"] for p in points]
    fit_v = fit_power_law(ns, [p["var_min"] for p in points])
    fit_s = fit_power_law(ns, [p["S"] for p in points])
    _write_json(
        out / "fits.json",
        {
            "schema": SCHEMA_VERSION,
            "config": config,
            "var_min_fit": {"exponent": fit_v.exponent, "prefactor": fit_v.prefactor, "r2": fit_v.r_squared},
            "s_fit": {"exponent": fit_s.exponent, "prefactor": fit_s.prefactor, "r2": fit_s.r_squared},
        },
    )
    if config["svg"]:
        svgplot.line_plot(
            out / "sweep.svg",
            ns,
            {"var_min": [p["var_min"] for p in points], "S": [p["S"] for p in points]},
            title=f"{config['kind']} squeezing optimum vs pump photons",
            xlabel="N",
            ylabel="",
            logx=True,
            logy=True,
        )
    print(
        f"sweep: wrote {out / 'sweep.csv'} "
        f"(var_min exponent {fit_v.exponent:+.3f}, S exponent {fit_s.exponent:+.3f})"
    )
    return 0


# ---------------------------------------------------------------------------
# mix

def cmd_mix(config: dict, out: Path) -> int:
    variant, s, alpha, cutoff = config["variant"], config["s"], config["alpha"], config["cutoff"]
    SqueezeParams(s)  # the valid squeeze range, checked with or without --oracle
    if variant == "bs":
        mixer = BeamSplitterConfig.from_reflectivity(config["r2"], config["delta"], config["psi"])
        optimal_theta = -2.0 * mixer.delta - 2.0 * mixer.psi
        if config["theta"] is None:
            config["theta"] = optimal_theta
        variance = beam_splitter_variance(mixer, s, config["theta"])
        intensity = beam_splitter_intensity(mixer, s, alpha)
        at_optimum = abs(math.remainder(config["theta"] - optimal_theta, 2.0 * math.pi)) < 1e-12
    else:
        mixer = InterferometerConfig(config["phi"], config["psi"], config["global_phase"])
        variance = interferometer_variance(mixer.phi, s)
        intensity = interferometer_intensity(mixer.phi, s, alpha)
        at_optimum = True

    res = phase_resolution(intensity, variance)
    payload = {
        "schema": SCHEMA_VERSION,
        "config": config,
        "variance": variance,
        "intensity": intensity,
        "S": res.s,
    }
    if config["oracle"]:
        if variant == "bs" and not at_optimum:
            ana, fock = beam_splitter_variance_crosscheck(mixer, s, config["theta"], alpha, cutoff)
            max_err = relative_error(ana, fock)
            oracle = {"analytic_variance": ana, "fock_variance": fock, "max_rel_err": max_err}
        else:
            check = (
                beam_splitter_crosscheck(mixer, s, alpha, cutoff)
                if variant == "bs"
                else interferometer_crosscheck(mixer, s, alpha, cutoff)
            )
            max_err = check.max_rel_err
            oracle = {
                "analytic_variance": check.analytic_variance,
                "fock_variance": check.fock_variance,
                "analytic_intensity": check.analytic_intensity,
                "fock_intensity": check.fock_intensity,
                "analytic_S": check.analytic_s,
                "fock_S": check.fock_s,
                "max_rel_err": max_err,
            }
        oracle["tolerance"] = ORACLE_TOLERANCE
        oracle["within_tolerance"] = bool(max_err < ORACLE_TOLERANCE)
        payload["oracle"] = oracle
        status = "OK" if oracle["within_tolerance"] else "EXCEEDED"
        print(f"oracle: max relative error {max_err:.3e} against tolerance {ORACLE_TOLERANCE:g} [{status}]")
    _write_json(out / "mix.json", payload)
    print(f"mix: wrote {out / 'mix.json'} (S={res.s:.6g}, var={variance:.6g})")
    return 0


# ---------------------------------------------------------------------------
# scheme and surface

def cmd_scheme(config: dict, out: Path) -> int:
    if config["variant"] == "bs":
        mixer = BeamSplitterConfig.from_reflectivity(config["r2"])
    else:
        mixer = InterferometerConfig(phi=config["phi"])
    params = SchemeParams(config["N"], config["efficiency"], mixer)
    exact = scheme_phase_resolution_exact(params)
    approx = scheme_phase_resolution_approx(params)
    _write_json(
        out / "scheme.json",
        {
            "schema": SCHEMA_VERSION,
            "config": config,
            "S_exact": exact.s,
            "S_approx": approx.value,
            "S_limit": approx.limit,
            "rel_deviation": approx.rel_deviation,
            "intensity": exact.intensity_y,
            "variance": exact.var_x,
            "derived": {
                "squeeze_parameter": params.squeeze_parameter,
                "squeezed_photons": params.squeezed_photons,
                "coherent_photons": params.coherent_photons,
            },
        },
    )
    print(f"scheme: wrote {out / 'scheme.json'} (S_exact={exact.s:.6g}, S_approx={approx.value:.6g})")
    return 0


def cmd_surface(config: dict, out: Path) -> int:
    n_values = parse_range(config["N"])
    mix_values = parse_range(config["mix"])
    rows = resolution_surface(n_values, mix_values, config["efficiency"], config["variant"])
    # the N and mix columns repeat a few values: format each of them once
    points = itertools.product(map(repr, n_values.tolist()), map(repr, mix_values.tolist()))
    _write_lines(
        out / "surface.csv",
        ["N", "r2_or_phi", "S_exact", "S_approx", "rel_dev"],
        (f"{n},{m},{s!r},{a!r},{d!r}" for (n, m), (s, a, d) in zip(points, rows[:, 2:].tolist())),
    )
    _write_json(out / "surface.json", {"schema": SCHEMA_VERSION, "config": config})
    if config["svg"]:
        svgplot.heatmap(
            out / "surface.svg",
            rows[:, 2].reshape(n_values.size, mix_values.size).T,
            n_values,
            mix_values,
            title=f"phase resolution, {config['variant']} scheme",
            xlabel="N",
            ylabel="r2" if config["variant"] == "bs" else "phi",
        )
    print(f"surface: wrote {out / 'surface.csv'} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# parameter tables: one per subcommand, driving argparse, the --config merge
# and the config echo

REQUIRED = object()


class Param(NamedTuple):
    key: str
    type: type
    default: object = REQUIRED  # None: optional, the command decides what no value means
    help: str = ""
    choices: tuple | None = None
    variant: str | None = None  # the row applies only when config["variant"] is this
    flag: str | None = None  # defaults to the key with dashes

    @property
    def option(self) -> str:
        return "--" + (self.flag or self.key.replace("_", "-"))

    def coerce(self, value):
        """Check a flag, file or default value the way argparse checks a flag."""
        if self.type is bool:
            if isinstance(value, bool):
                return value
            raise ValueError(f"argument {self.option}: expected true or false, got {value!r}")
        try:
            value = self.type(str(value))  # parse the value's text, as argparse parses a flag's
        except ValueError as exc:
            raise ValueError(f"argument {self.option}: {exc}") from None
        if self.type is float and not math.isfinite(value):
            raise ValueError(f"argument {self.option}: must be finite, got {value!r}")
        if self.choices and value not in self.choices:
            choose = ", ".join(map(repr, self.choices))
            raise ValueError(f"argument {self.option}: invalid choice: {value!r} (choose from {choose})")
        return value


class Command(NamedTuple):
    help: str
    run: Callable[[dict, Path], int]
    params: tuple[Param, ...]


RANGE = "range spec start:stop:{linear|geometric}:count"
VARIANT = Param("variant", str, REQUIRED, "mixer: beam splitter or interferometer", ("bs", "in"))
KIND = Param("kind", str, REQUIRED, "oscillator kind", ("degenerate", "nondegenerate"))
N_RANGE = Param("N", str, REQUIRED, f"pump photon numbers, {RANGE}")
COUPLING = Param("coupling", float, 1.0, "pump-signal coupling")
PUMP_PHASE = Param("pump_phase", float, 0.0, "pump phase [rad]")
EFFICIENCY = Param("efficiency", float, REQUIRED, "down-conversion efficiency", flag="lambda")
R2 = Param("r2", float, REQUIRED, "beam-splitter reflectivity |r|^2", variant="bs")
PHI = Param("phi", float, REQUIRED, "interferometer phase difference", variant="in")
SVG = Param("svg", bool, False, "also write an SVG plot")
OUTDIR = Param("outdir", str, ".", "output directory")

COMMANDS = {
    "simulate": Command("one lossless-oscillator trajectory", cmd_simulate, (
        KIND, Param("N", float, REQUIRED, "initial pump photon number"), COUPLING, PUMP_PHASE,
        Param("points", int, 200, "time-grid points"),
        Param("t_max", float, None, "end of the time grid, 5/(coupling*sqrt(N)) if not given or 0"),
        SVG, OUTDIR)),
    "sweep": Command("squeezing optimum across pump photon numbers", cmd_sweep, (
        KIND, N_RANGE, COUPLING, PUMP_PHASE,
        Param("jobs", int, None, "worker processes, $SQUEEZELAB_JOBS or 1 if not given"),
        SVG, OUTDIR)),
    "mix": Command("closed-form mixer output, optionally Fock-checked", cmd_mix, (
        VARIANT, R2,
        Param("delta", float, 0.0, "beam-splitter phase delta", variant="bs"),
        Param("theta", float, None, "squeeze phase, optimal if not given", variant="bs"),
        PHI,
        Param("global_phase", float, 0.0, "interferometer global phase", variant="in"),
        Param("psi", float, 0.0, "mixer phase psi"),
        Param("s", float, 0.0, "squeeze parameter"),
        Param("alpha", float, 0.0, "coherent amplitude |alpha|"),
        Param("oracle", bool, False, "cross-check against the Fock simulator"),
        Param("cutoff", int, None, "explicit squeezed-vacuum cutoff for the oracle"),
        OUTDIR)),
    "scheme": Command("pump-budget scheme phase resolution", cmd_scheme, (
        VARIANT._replace(default="bs"), Param("N", float, REQUIRED, "pump photon number"),
        EFFICIENCY, R2, PHI, OUTDIR)),
    "surface": Command("phase-resolution surface over N and mixing", cmd_surface, (
        VARIANT._replace(default="bs"), N_RANGE,
        Param("mix", str, REQUIRED, f"r2 (bs) or phi (in), {RANGE}"),
        EFFICIENCY._replace(default=0.5), SVG, OUTDIR)),
}


def _help(p: Param) -> str:
    notes = [f"{p.variant} only"] if p.variant else []
    if p.default is REQUIRED:
        notes.append("required")
    elif p.default is not None and p.type is not bool:
        notes.append(f"default {p.default}")
    return f"{p.help} ({', '.join(notes)})" if notes else p.help


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="squeezelab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        for p in command.params:
            if p.type is bool:
                cmd.add_argument(p.option, dest=p.key, action="store_true", default=None, help=_help(p))
            else:
                cmd.add_argument(p.option, dest=p.key, type=p.type, choices=p.choices, help=_help(p))
        cmd.add_argument("--config", help="JSON file of parameters; flags win over it, it wins over defaults")
    return parser


_PARSER = _build_parser()


def _resolve(params: tuple[Param, ...], args: argparse.Namespace) -> dict:
    """Merge flags over the ``--config`` file over the defaults into the config echo."""
    file_cfg = {}
    if args.config:
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read --config {args.config}: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ValueError(f"--config {args.config} must hold a JSON object")
        unknown = sorted(set(file_cfg) - {p.key for p in params})
        if unknown:
            raise ValueError(f"--config {args.config}: unknown parameter(s) {', '.join(unknown)}")
    config = {}
    for p in params:  # the variant comes first, so the variant-only rows can test it
        if p.variant not in (None, config.get("variant")):
            continue
        value = getattr(args, p.key)
        if value is None:
            value = file_cfg.get(p.key)
        if value is None:
            value = p.default
        if value is REQUIRED:
            raise ValueError(f"missing required parameter {p.option}")
        config[p.key] = None if value is None else p.coerce(value)
    return config


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    command = COMMANDS[args.command]
    try:
        config = _resolve(command.params, args)
        out = Path(config["outdir"])
        out.mkdir(parents=True, exist_ok=True)
        return command.run(config, out)
    except TruncationError as exc:
        print(f"truncation error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:  # OSError: the output cannot be made or written
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
