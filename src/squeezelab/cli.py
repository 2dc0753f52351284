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
Exit codes: 0 success, 2 configuration error, 3 truncation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import svgplot
from .analytic import (
    BeamSplitterConfig,
    InterferometerConfig,
    SchemeParams,
    beam_splitter_variance,
    resolution_surface,
    interferometer_variance,
    scheme_phase_resolution_approx,
    scheme_phase_resolution_exact,
)
from .crosscheck import (
    beam_splitter_crosscheck,
    beam_splitter_variance_crosscheck,
    interferometer_crosscheck,
)
from .fock import TruncationError
from .metrics import fit_power_law, phase_resolution
from .oscillator import OscillatorConfig, evolve, find_optimal_squeezing

SCHEMA_VERSION = 1
ORACLE_TOLERANCE = 1e-4


# ---------------------------------------------------------------------------
# small deterministic writers

def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def parse_range(spec: str) -> np.ndarray:
    """Parse ``start:stop:{linear|geometric}:count`` into a grid."""
    parts = spec.split(":")
    if len(parts) != 4:
        raise ValueError(f"range spec must be start:stop:kind:count, got {spec!r}")
    start, stop = float(parts[0]), float(parts[1])
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


def _load_config(args) -> dict:
    if getattr(args, "config", None):
        return json.loads(Path(args.config).read_text())
    return {}


def _pick(args, file_cfg: dict, name: str, default, cast=None):
    value = getattr(args, name, None)
    if value is None:
        value = file_cfg.get(name, default)
    if value is None:
        raise ValueError(f"missing required parameter --{name.replace('_', '-')}")
    return cast(value) if cast else value


def _outdir(args, file_cfg) -> Path:
    out = Path(_pick(args, file_cfg, "outdir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    file_cfg = _load_config(args)
    config = {
        "kind": _pick(args, file_cfg, "kind", None, str),
        "N": _pick(args, file_cfg, "N", None, float),
        "coupling": _pick(args, file_cfg, "coupling", 1.0, float),
        "pump_phase": _pick(args, file_cfg, "pump_phase", 0.0, float),
        "points": _pick(args, file_cfg, "points", 200, int),
        "t_max": _pick(args, file_cfg, "t_max", 0.0, float) or None,
        "svg": bool(getattr(args, "svg", False) or file_cfg.get("svg", False)),
        "outdir": str(_pick(args, file_cfg, "outdir", ".")),
    }
    out = _outdir(args, file_cfg)
    osc = OscillatorConfig(config["kind"], config["N"], config["coupling"], config["pump_phase"])
    t_max = config["t_max"]
    if t_max is None:
        t_max = 5.0 / (osc.coupling * math.sqrt(max(osc.pump_photons, 1.0)))
        config["t_max"] = t_max
    grid = np.linspace(0.0, t_max, config["points"])
    opt = find_optimal_squeezing(osc)
    # the optimum's final window scan is the default grid unless the window had to grow
    result = opt.evolution if np.array_equal(opt.evolution.times, grid) else evolve(osc, grid)
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


def cmd_sweep(args) -> int:
    file_cfg = _load_config(args)
    config = {
        "kind": _pick(args, file_cfg, "kind", None, str),
        "N": _pick(args, file_cfg, "N", None, str),
        "coupling": _pick(args, file_cfg, "coupling", 1.0, float),
        "pump_phase": _pick(args, file_cfg, "pump_phase", 0.0, float),
        "jobs": _pick(args, file_cfg, "jobs", int(os.environ.get("SQUEEZELAB_JOBS", "1")), int),
        "svg": bool(getattr(args, "svg", False) or file_cfg.get("svg", False)),
        "outdir": str(_pick(args, file_cfg, "outdir", ".")),
    }
    out = _outdir(args, file_cfg)
    n_values = parse_range(config["N"])
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

def cmd_mix(args) -> int:
    file_cfg = _load_config(args)
    variant = _pick(args, file_cfg, "variant", None, str)
    config = {
        "variant": variant,
        "s": _pick(args, file_cfg, "s", 0.0, float),
        "alpha": _pick(args, file_cfg, "alpha", 0.0, float),
        "oracle": bool(getattr(args, "oracle", False) or file_cfg.get("oracle", False)),
        "cutoff": getattr(args, "cutoff", None) or file_cfg.get("cutoff"),
        "outdir": str(_pick(args, file_cfg, "outdir", ".")),
    }
    out = _outdir(args, file_cfg)
    s, alpha = config["s"], config["alpha"]
    cutoff = int(config["cutoff"]) if config["cutoff"] is not None else None

    if variant == "bs":
        config["r2"] = _pick(args, file_cfg, "r2", None, float)
        config["delta"] = _pick(args, file_cfg, "delta", 0.0, float)
        config["psi"] = _pick(args, file_cfg, "psi", 0.0, float)
        theta = getattr(args, "theta", None)
        if theta is None:
            theta = file_cfg.get("theta")
        mixer = BeamSplitterConfig.from_reflectivity(config["r2"], config["delta"], config["psi"])
        optimal_theta = -2.0 * mixer.delta - 2.0 * mixer.psi
        config["theta"] = optimal_theta if theta is None else float(theta)
        variance = beam_splitter_variance(mixer, s, config["theta"])
        intensity = mixer.t1**2 * alpha**2 + mixer.r2**2 * math.sinh(s) ** 2
        at_optimum = abs((config["theta"] - optimal_theta) % (2.0 * math.pi)) < 1e-12
    elif variant == "in":
        config["phi"] = _pick(args, file_cfg, "phi", None, float)
        config["psi"] = _pick(args, file_cfg, "psi", 0.0, float)
        config["global_phase"] = _pick(args, file_cfg, "global_phase", 0.0, float)
        mixer = InterferometerConfig(config["phi"], config["psi"], config["global_phase"])
        variance = interferometer_variance(mixer.phi, s)
        c2 = math.cos(0.5 * mixer.phi) ** 2
        intensity = alpha**2 * (1.0 - c2) + math.sinh(s) ** 2 * c2
        at_optimum = True
    else:
        raise ValueError(f"variant must be 'bs' or 'in', got {variant!r}")

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
            max_err = abs(ana - fock) / max(abs(ana), 1e-12)
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

def _scheme_params(config: dict) -> SchemeParams:
    if config["variant"] == "bs":
        mixer = BeamSplitterConfig.from_reflectivity(config["r2"])
    elif config["variant"] == "in":
        mixer = InterferometerConfig(phi=config["phi"])
    else:
        raise ValueError(f"variant must be 'bs' or 'in', got {config['variant']!r}")
    return SchemeParams(config["N"], config["efficiency"], mixer)


def cmd_scheme(args) -> int:
    file_cfg = _load_config(args)
    config = {
        "variant": _pick(args, file_cfg, "variant", "bs", str),
        "N": _pick(args, file_cfg, "N", None, float),
        "efficiency": _pick(args, file_cfg, "efficiency", None, float),
        "outdir": str(_pick(args, file_cfg, "outdir", ".")),
    }
    if config["variant"] == "bs":
        config["r2"] = _pick(args, file_cfg, "r2", None, float)
    else:
        config["phi"] = _pick(args, file_cfg, "phi", None, float)
    out = _outdir(args, file_cfg)
    params = _scheme_params(config)
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


def cmd_surface(args) -> int:
    file_cfg = _load_config(args)
    config = {
        "variant": _pick(args, file_cfg, "variant", "bs", str),
        "N": _pick(args, file_cfg, "N", None, str),
        "mix": _pick(args, file_cfg, "mix", None, str),
        "efficiency": _pick(args, file_cfg, "efficiency", 0.5, float),
        "svg": bool(getattr(args, "svg", False) or file_cfg.get("svg", False)),
        "outdir": str(_pick(args, file_cfg, "outdir", ".")),
    }
    out = _outdir(args, file_cfg)
    n_values = parse_range(config["N"])
    mix_values = parse_range(config["mix"])
    rows = resolution_surface(n_values, mix_values, config["efficiency"], config["variant"])
    _write_csv(out / "surface.csv", ["N", "r2_or_phi", "S_exact", "S_approx", "rel_dev"], rows)
    _write_json(out / "surface.json", {"schema": SCHEMA_VERSION, "config": config})
    if config["svg"]:
        grid = [
            [rows[i * len(mix_values) + j][2] for i in range(len(n_values))]
            for j in range(len(mix_values))
        ]
        svgplot.heatmap(
            out / "surface.svg",
            grid,
            n_values,
            mix_values,
            title=f"phase resolution, {config['variant']} scheme",
            xlabel="N",
            ylabel="r2" if config["variant"] == "bs" else "phi",
        )
    print(f"surface: wrote {out / 'surface.csv'} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="squeezelab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="one lossless-oscillator trajectory")
    sim.add_argument("--kind", choices=["degenerate", "nondegenerate"])
    sim.add_argument("--N", type=float, help="initial pump photon number")
    sim.add_argument("--coupling", type=float)
    sim.add_argument("--pump-phase", dest="pump_phase", type=float)
    sim.add_argument("--points", type=int)
    sim.add_argument("--t-max", dest="t_max", type=float)
    sim.add_argument("--svg", action="store_true")
    sim.add_argument("--outdir")
    sim.add_argument("--config", help="JSON file of defaults (flags win)")
    sim.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", help="squeezing optimum across pump photon numbers")
    sw.add_argument("--kind", choices=["degenerate", "nondegenerate"])
    sw.add_argument("--N", help="range spec start:stop:{linear|geometric}:count")
    sw.add_argument("--coupling", type=float)
    sw.add_argument("--pump-phase", dest="pump_phase", type=float)
    sw.add_argument("--jobs", type=int, help="worker processes (default $SQUEEZELAB_JOBS or 1)")
    sw.add_argument("--svg", action="store_true")
    sw.add_argument("--outdir")
    sw.add_argument("--config")
    sw.set_defaults(func=cmd_sweep)

    mix = sub.add_parser("mix", help="closed-form mixer output, optionally Fock-checked")
    mix.add_argument("--variant", choices=["bs", "in"])
    mix.add_argument("--r2", type=float)
    mix.add_argument("--delta", type=float)
    mix.add_argument("--psi", type=float)
    mix.add_argument("--theta", type=float, help="squeeze phase (default: optimal)")
    mix.add_argument("--phi", type=float)
    mix.add_argument("--global-phase", dest="global_phase", type=float)
    mix.add_argument("--s", type=float)
    mix.add_argument("--alpha", type=float)
    mix.add_argument("--oracle", action="store_true", help="cross-check against the Fock simulator")
    mix.add_argument("--cutoff", type=int, help="explicit squeezed-vacuum cutoff for the oracle")
    mix.add_argument("--outdir")
    mix.add_argument("--config")
    mix.set_defaults(func=cmd_mix)

    sch = sub.add_parser("scheme", help="pump-budget scheme phase resolution")
    sch.add_argument("--variant", choices=["bs", "in"])
    sch.add_argument("--N", type=float)
    sch.add_argument("--lambda", dest="efficiency", type=float)
    sch.add_argument("--r2", type=float)
    sch.add_argument("--phi", type=float)
    sch.add_argument("--outdir")
    sch.add_argument("--config")
    sch.set_defaults(func=cmd_scheme)

    surf = sub.add_parser("surface", help="phase-resolution surface over N and mixing")
    surf.add_argument("--variant", choices=["bs", "in"])
    surf.add_argument("--N", help="range spec")
    surf.add_argument("--mix", help="range spec for r2 (bs) or phi (in)")
    surf.add_argument("--lambda", dest="efficiency", type=float)
    surf.add_argument("--svg", action="store_true")
    surf.add_argument("--outdir")
    surf.add_argument("--config")
    surf.set_defaults(func=cmd_surface)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TruncationError as exc:
        print(f"truncation error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
