"""The three benchmark workloads: seeded inputs, one op, and the per-op correctness gate.

Every workload runs in rounds.  A round has the same composition for every
seed and every round index (so throughput compares across seeds and
commits); the seed only draws the values inside it.  Round ``r`` of seed
``seed`` comes from ``numpy.random.default_rng([seed, r])``, so a traced
run times the same ops as an untraced run of the same seed.

``run`` is the op a user would issue; ``check`` is the correctness gate,
which the runner calls between timed rounds, never inside one.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np

import squeezelab.cli as cli
from squeezelab import (
    BeamSplitterConfig,
    BlockEvolution,
    InterferometerConfig,
    OscillatorConfig,
    beam_splitter_crosscheck,
    beam_splitter_variance_crosscheck,
    find_optimal_squeezing,
    interferometer_crosscheck,
)

#: drift tolerance of acceptance criterion 6
DRIFT_TOL = 1e-9


def untraced_call(name, fn, *args):
    """The ``span`` argument of ``Workload.run`` when nothing is traced."""
    return fn(*args)


class Workload:
    """Hooks shared by every workload; the runner calls them in this order."""

    def prepare(self, ops: list[dict], start: int):
        """Called before a round's ops, numbered from ``start``, are timed."""

    def end_round(self):
        """Called after each round's ops have been checked."""

    def close(self):
        """Called once the run's gate is done."""


class OscSweep(Workload):
    """``find_optimal_squeezing`` per sweep point, both oscillator kinds alternating.

    A round is one 7-point sweep of N over [4, 121] on a geometric grid of
    four steps: the end points are the sweep's bounds, one point sits on each
    of the grid's first and third interior values, and three sit a tenth of a
    step apart around its middle value.  Each interior point is drawn
    log-uniform within a fiftieth of a grid step of its position.  Pinning
    the bounds keeps the heaviest op (N = 121, which sets peak memory and the
    tail) in every round, and keeping the draws near the grid keeps the
    sorted op costs, and so the latency quantiles, steady across seeds.  The
    three middle points put three ops of nearly equal cost at the median of
    every round.  A round runs them at its start, before the N = 121 op and
    at its end, because the host's speed drifts over seconds: three ops run
    back to back share one speed, and the median then rests on a few
    moments of the run.  After the warm-up op an op costs the same before
    and after the N = 121 op of its process.  The N = 121 op takes about
    two thirds of a round, so a 30-s run times two or three rounds (about
    16 s each on a 2-vCPU Xeon VM), and the tail (the N = 121 point) covers
    one op per round.
    """

    name = "osc_sweep"
    tail_quantile = 0.95  # inside the N = 121 ops once two or more rounds run
    kinds = ("degenerate", "nondegenerate")

    def __init__(self, workdir: Path, tiny: bool = False):
        # grid positions of a round's points, in the order the round runs them
        if tiny:
            self.steps, self.n_lo, self.n_hi = (1.0, 2.0, 0.0), 4.0, 6.0
        else:
            self.steps, self.n_lo, self.n_hi = (1.9, 0.0, 3.0, 2.0, 4.0, 1.0, 2.1), 4.0, 121.0
        self.span = max(self.steps)
        self._energy_scale: dict[tuple, float] = {}

    def _grid(self, steps) -> np.ndarray:
        return self.n_lo * (self.n_hi / self.n_lo) ** (np.asarray(steps) / self.span)

    def round(self, seed: int, r: int) -> list[dict]:
        rng = np.random.default_rng([seed, r])
        steps = np.array(self.steps)
        interior = (steps > 0.0) & (steps < self.span)
        n_values = self._grid(steps + interior * rng.uniform(-0.02, 0.02, steps.size))
        first_kind = int(rng.integers(2))
        return [{"kind": self.kinds[(j + first_kind) % 2], "N": float(n)} for j, n in enumerate(n_values)]

    def warm_up(self):
        # Halfway between the first and second interior grid values: no
        # timed op has this N.  Without a warm-up op the first op of a
        # process runs about twice as slowly.
        self.run({"kind": "nondegenerate", "N": float(self._grid(1.5))}, 0, untraced_call)

    def run(self, op: dict, index: int, span):
        return span("op", find_optimal_squeezing, OscillatorConfig(op["kind"], op["N"]))

    def check(self, op: dict, opt, index: int) -> str | None:
        ev = opt.evolution
        norm = float(np.max(np.abs(ev.norm - 1.0)))
        charge = float(np.max(np.abs(ev.charge - ev.charge[0]))) / ev.charge[0]
        key = (op["kind"], op["N"])
        if key not in self._energy_scale:
            self._energy_scale[key] = BlockEvolution(OscillatorConfig(*key)).energy_scale()
        energy = float(np.max(np.abs(ev.energy - ev.energy[0]))) / self._energy_scale[key]
        if max(norm, charge, energy) > DRIFT_TOL:
            return f"drift norm {norm:.1e} charge {charge:.1e} energy {energy:.1e}"
        if not 0.0 < opt.var_min < 1.0:
            return f"var_min {opt.var_min} outside (0, 1)"
        if not ev.times[0] < opt.t_sq < ev.times[-1]:
            return f"t_sq {opt.t_sq} not interior to the scan [0, {ev.times[-1]}]"
        return None

    def digest(self, op: dict, opt) -> str:
        return f"{op['kind']} {op['N']!r} {opt.t_sq:.9g} {opt.var_min:.9g} {opt.resolution.s:.9g}"


class MixOracle(Workload):
    """One Fock-oracle cross-check per op, as ``squeezelab mix --oracle`` runs it.

    A round has ten fresh mixer settings, five beam splitters and five
    interferometers, each used for a run of 1-5 consecutive ops (each length
    twice per round), as a user scanning s and |alpha| at fixed optics.  A
    setting's first op draws s and |alpha| from one tenth of their ranges
    (each tenth once per round, the same tenth for both); the later ops step
    both down in equal steps towards the lower ends.  So the first op pays
    the rotation-block build and the repeats read what it left in
    ``_rotation_cache``.
    """

    name = "mix_oracle"
    tail_quantile = 0.95  # inside the first-use ops at s > 1 (a tenth of all ops)

    def __init__(self, workdir: Path, tiny: bool = False):
        self.s_lo, self.s_hi = (0.3, 0.5) if tiny else (0.3, 1.3)
        self.a_lo, self.a_hi = (0.5, 1.0) if tiny else (0.5, 3.0)
        self.lengths = [1, 2] if tiny else [1, 2, 3, 4, 5]

    def round(self, seed: int, r: int) -> list[dict]:
        rng = np.random.default_rng([seed, r])
        lengths = np.concatenate([rng.permutation(self.lengths), rng.permutation(self.lengths)])
        n = lengths.size
        strata = rng.permutation(n)
        s_first = self.s_lo + (self.s_hi - self.s_lo) * (strata + rng.uniform(size=n)) / n
        a_first = self.a_lo + (self.a_hi - self.a_lo) * (strata + rng.uniform(size=n)) / n
        variants = rng.permutation(["bs", "in"] * (n // 2))
        ops = []
        for j in range(n):
            if variants[j] == "bs":
                mixer = BeamSplitterConfig.from_reflectivity(
                    rng.uniform(0.1, 0.9), rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2 * math.pi)
                )
                kinds = ["bs_opt", "bs_var"] if rng.integers(2) else ["bs_var", "bs_opt"]
            else:
                mixer = InterferometerConfig(
                    rng.uniform(0.3, 2.8), rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2 * math.pi)
                )
                kinds = ["in"]
            k = int(lengths[j])
            for o in range(k):
                step = 1.0 - o / k
                op = {
                    "kind": kinds[o % len(kinds)],
                    "mixer": mixer,
                    "s": float(self.s_lo + (s_first[j] - self.s_lo) * step),
                    "alpha": float(self.a_lo + (a_first[j] - self.a_lo) * step),
                    "first": o == 0,
                }
                if op["kind"] == "bs_var":
                    optimal = -2.0 * mixer.delta - 2.0 * mixer.psi
                    op["theta"] = optimal + rng.uniform(0.3, 2 * math.pi - 0.3)
                ops.append(op)
        return ops

    def warm_up(self):
        # r2 = 0.05 gives a rotation angle no timed setting has (timed beam
        # splitters use r2 >= 0.1, interferometers angles >= 0.17), so the
        # warm-up leaves nothing in _rotation_cache that a timed op can read.
        mixer = BeamSplitterConfig.from_reflectivity(0.05)
        self.run({"kind": "bs_opt", "mixer": mixer, "s": 0.25, "alpha": 0.4, "first": True}, 0, untraced_call)

    def run(self, op: dict, index: int, span):
        if op["kind"] == "bs_opt":
            return span("crosscheck", beam_splitter_crosscheck, op["mixer"], op["s"], op["alpha"])
        if op["kind"] == "in":
            return span("crosscheck", interferometer_crosscheck, op["mixer"], op["s"], op["alpha"])
        return span(
            "crosscheck", beam_splitter_variance_crosscheck, op["mixer"], op["s"], op["theta"], op["alpha"]
        )

    def check(self, op: dict, result, index: int) -> str | None:
        if op["kind"] == "bs_var":
            analytic, fock = result
            err = abs(analytic - fock) / max(abs(analytic), 1e-12)
        else:
            err = result.max_rel_err
        if not err < cli.ORACLE_TOLERANCE:
            return f"oracle relative error {err:.3e} >= {cli.ORACLE_TOLERANCE:g}"
        return None

    def digest(self, op: dict, result) -> str:
        values = result if op["kind"] == "bs_var" else (result.fock_variance, result.fock_intensity, result.fock_s)
        return op["kind"] + " " + " ".join(f"{v:.9g}" for v in values)


SURFACE_HEADER = "N,r2_or_phi,S_exact,S_approx,rel_dev"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _floats(payload):
    """Every float in a parsed JSON document."""
    if isinstance(payload, float):
        yield payload
    elif isinstance(payload, dict):
        for v in payload.values():
            yield from _floats(v)
    elif isinstance(payload, list):
        for v in payload:
            yield from _floats(v)


class ClosedForm(Workload):
    """One in-process ``squeezelab.cli.main`` call per op, writing into its own directory.

    Each seed draws a pool of argvs: surfaces (bs and in, a 40x40 grid over
    N in [1e3, 1e7], two of them with ``--svg``), ``scheme`` and ``mix``
    without ``--oracle``.  Every round runs the whole pool in a fresh seeded
    order, so each argv repeats and its outputs must repeat byte for byte.
    """

    name = "closed_form"
    tail_quantile = 0.98  # inside the svg surfaces (a ninth of the ops); 10 ops beyond from 500 ops a run
    outputs = {"surface": ("surface.csv", "surface.json"), "scheme": ("scheme.json",), "mix": ("mix.json",)}

    def __init__(self, workdir: Path, tiny: bool = False):
        self.workdir = workdir
        self.grid = 5 if tiny else 40
        self.per_command = 1 if tiny else 6
        self._first: dict[int, tuple[int, str]] = {}

    def _pool(self, seed: int) -> list[dict]:
        rng = np.random.default_rng([seed, 1 << 20])
        pool = []
        for j in range(self.per_command):
            variant = ("bs", "in")[j % 2]
            if variant == "bs":
                mix = f"{_fmt(rng.uniform(0.05, 0.15))}:{_fmt(rng.uniform(0.85, 0.95))}:linear:{self.grid}"
            else:
                mix = f"{_fmt(rng.uniform(0.05, 0.3))}:{_fmt(rng.uniform(2.8, 3.1))}:linear:{self.grid}"
            n_spec = f"{_fmt(10 ** rng.uniform(3.0, 3.3))}:{_fmt(10 ** rng.uniform(6.7, 7.0))}:geometric:{self.grid}"
            argv = ["surface", "--variant", variant, "--N", n_spec, "--mix", mix,
                    "--lambda", _fmt(rng.uniform(0.2, 0.9))]
            pool.append({"command": "surface", "argv": argv + (["--svg"] if j < 2 else []),
                         "rows": self.grid * self.grid})
        for j in range(self.per_command):
            variant = ("bs", "in")[j % 2]
            mix = ["--r2", _fmt(rng.uniform(0.05, 0.95))] if variant == "bs" else ["--phi", _fmt(rng.uniform(0.1, 3.0))]
            argv = ["scheme", "--variant", variant, "--N", _fmt(10 ** rng.uniform(3.0, 7.0)),
                    "--lambda", _fmt(rng.uniform(0.2, 0.9))] + mix
            pool.append({"command": "scheme", "argv": argv})
        for j in range(self.per_command):
            if j % 2 == 0:
                optics = ["--variant", "bs", "--r2", _fmt(rng.uniform(0.05, 0.95)),
                          "--delta", _fmt(rng.uniform(0, math.pi)), "--psi", _fmt(rng.uniform(0, math.pi))]
            else:
                optics = ["--variant", "in", "--phi", _fmt(rng.uniform(0.1, 3.0)),
                          "--psi", _fmt(rng.uniform(0, math.pi))]
            argv = ["mix", *optics, "--s", _fmt(rng.uniform(0.1, 2.0)), "--alpha", _fmt(rng.uniform(0.5, 5.0))]
            pool.append({"command": "mix", "argv": argv})
        for key, entry in enumerate(pool):
            entry["key"] = key
        return pool

    def round(self, seed: int, r: int) -> list[dict]:
        pool = self._pool(seed)
        rng = np.random.default_rng([seed, r])
        return [dict(pool[i]) for i in rng.permutation(len(pool))]

    def warm_up(self):
        # N in [10, 100] on a 7x5 grid: no timed argv uses it.
        argv = ["surface", "--variant", "bs", "--N", "10:100:geometric:7", "--mix", "0.1:0.9:linear:5", "--svg"]
        self.prepare([{}], -1)
        self.run({"command": "surface", "argv": argv}, -1, untraced_call)

    def prepare(self, ops: list[dict], start: int):
        # Each op writes into a fresh directory of its own, made before the
        # round is timed; the round's outputs are deleted once checked (new
        # files cost the ops less than rewriting old ones).
        for index in range(start, start + len(ops)):
            self._op_dir(index).mkdir(parents=True)

    def end_round(self):
        shutil.rmtree(self.workdir / "ops", ignore_errors=True)

    def _op_dir(self, index: int) -> Path:
        return self.workdir / "ops" / f"op{index}"

    def run(self, op: dict, index: int, span):
        os.chdir(self._op_dir(index))
        return span("cli", cli.main, op["argv"] + ["--outdir", "."])

    def _read_outputs(self, d: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    def check(self, op: dict, code, index: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        d = self._op_dir(index)
        files = self._read_outputs(d)
        op["bytes"] = sum(len(b) for b in files.values())
        expected = set(self.outputs[op["command"]]) | ({"surface.svg"} if "--svg" in op["argv"] else set())
        if set(files) != expected:
            return f"outputs {sorted(files)} != {sorted(expected)}"
        for name, data in files.items():
            error = self._check_file(name, data, op)
            if error:
                return f"{name}: {error}"
        digest = hashlib.sha256(b"".join(files[k] for k in sorted(files))).hexdigest()
        op["digest"] = digest
        first = self._first.get(op["key"])
        if first is None:
            self._first[op["key"]] = (index, digest)
            return self._check_echo(d, op, files)
        if first[1] != digest:
            return f"output differs from the first run of the same argv (op {first[0]})"
        return None

    def _check_file(self, name: str, data: bytes, op: dict) -> str | None:
        text = data.decode()
        if name.endswith(".csv"):
            lines = text.splitlines()
            if lines[0] != SURFACE_HEADER:
                return f"header {lines[0]!r}"
            if len(lines) - 1 != op["rows"]:
                return f"{len(lines) - 1} rows, expected {op['rows']}"
            values = [float(v) for line in lines[1:] for v in line.split(",")]
            if len(values) != 5 * op["rows"] or not all(math.isfinite(v) for v in values):
                return "non-finite or missing values"
        elif name.endswith(".json"):
            payload = json.loads(text)
            if payload.get("schema") != cli.SCHEMA_VERSION or "config" not in payload:
                return "missing schema or config echo"
            if not all(math.isfinite(v) for v in _floats(payload)):
                return "non-finite value"
        elif not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
            return "not an svg document"
        return None

    def _check_echo(self, d: Path, op: dict, files: dict[str, bytes]) -> str | None:
        """Re-run the op from its own config echo; the outputs must not change by a byte."""
        echo = json.loads(files[f"{op['command']}.json"])["config"]
        config = d.parent / f"{d.name}-echo.json"
        config.write_text(json.dumps(echo))
        os.chdir(d)
        try:
            code = cli.main([op["command"], "--config", str(config)])
        finally:
            os.chdir(self.workdir)
        if code != 0 or self._read_outputs(d) != files:
            return "re-run from the config echo changed the outputs"
        return None

    def digest(self, op: dict, code) -> str:
        return op.get("digest", f"exit {code}")

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (OscSweep, MixOracle, ClosedForm)}
