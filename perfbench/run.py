#!/usr/bin/env python3
"""squeezelab benchmark: one seeded, closed-loop, single-client workload per process.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload osc_sweep --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``osc_sweep``, ``mix_oracle``, ``closed_form``.

The ops are timed back to back in whole rounds until ``--seconds`` of op
time have passed; each op's result is checked between rounds, outside the
timed interval.  ``--trace 0`` prints the end-to-end metrics; ``setup_s``
is the median over several fresh processes of the time from process start
to ready (import, input generation, one warm-up op).  ``--trace 1`` times
the ops with spans around every layer call (``tracing.py``) and prints the
per-layer metrics instead, with the tracer's own share of the op time.

BLAS and OpenMP run one thread unless the environment already sets their
thread counts: on a shared 2-vCPU host a second OpenBLAS thread made a
cold mixer op at s = 1.13 take 0.6-1.6 s instead of 0.33-0.44 s, so the
figures measured the host's scheduler rather than the program.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name with its unit, and a record of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Phase:
    ops: list
    latency: list
    results: list
    errors: list
    wall: float
    rounds: int
    first_round: int

    @property
    def failed(self) -> int:
        return sum(e is not None for e in self.errors)


def setup(args):
    """Import the package from this checkout, draw the first inputs, run the warm-up op."""
    import squeezelab

    if not Path(squeezelab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: squeezelab imported from {squeezelab.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](WORK / f"{args.workload}-{os.getpid()}", tiny=args.tiny)
    wl.round(args.seed, 0)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        wl.warm_up()
    os.chdir(ROOT)
    return wl


def probe_setup(args) -> float:
    """Seconds from starting a fresh process to its ``ready`` line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe exited with {code}")
    return elapsed


def run_phase(wl, seed: int, seconds: float, tracer=None) -> Phase:
    """Run whole rounds until ``seconds`` of op time have passed.

    Only the ops are timed.  Input generation and the correctness gate run
    between the timed rounds, with tracing paused.
    """
    from workloads import untraced_call

    span = tracer.span if tracer is not None else untraced_call
    ops, latency, results, errors = [], [], [], []
    wall, done = 0.0, 0
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        while wall < seconds:
            batch = wl.round(seed, done)
            start = len(ops)
            wl.prepare(batch, start)
            if tracer is not None:
                tracer.enabled = True
            t_round = perf_counter()
            for op in batch:
                index = len(ops)
                if tracer is not None:
                    tracer.op_id = index
                t0 = perf_counter()
                try:
                    result, error = wl.run(op, index, span), None
                except Exception as exc:  # an op that raises is counted as failed, the run goes on
                    result, error = None, f"{type(exc).__name__}: {exc}"
                latency.append(perf_counter() - t0)
                ops.append(op)
                results.append(result)
                errors.append(error)
            wall += perf_counter() - t_round
            done += 1
            if tracer is not None:
                tracer.enabled = False
            os.chdir(ROOT)
            for i in range(start, len(ops)):
                if errors[i] is None:
                    try:
                        errors[i] = wl.check(ops[i], results[i], i)
                    except Exception as exc:  # a check that cannot read an output fails the op
                        errors[i] = f"check raised {type(exc).__name__}: {exc}"
            wl.end_round()
    os.chdir(ROOT)
    return Phase(ops, latency, results, errors, wall, done, len(wl.round(seed, 0)))


def digest(wl, phase: Phase) -> str:
    """Hash of the first round's op results, which every run of a seed completes."""
    h = hashlib.sha256()
    for op, result in zip(phase.ops[: phase.first_round], phase.results):
        h.update(wl.digest(op, result).encode() + b"\n")
    return h.hexdigest()[:16]


def tail(latency: list[float], quantile: float) -> tuple[float, int]:
    """Latency at a fixed quantile, interpolated between order statistics, and the ops above it."""
    ordered = sorted(latency)
    pos = quantile * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])
    return value, sum(x > value for x in ordered)


def blas_version() -> str:
    import numpy

    with contextlib.suppress(AttributeError, KeyError, TypeError):  # mode="dicts" needs numpy >= 1.25
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    return "unknown"


def run_record(args, phase: Phase, wl, result_digest: str) -> dict:
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        sha = out.stdout.strip() or sha
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "ops": len(phase.ops),
        "rounds": phase.rounds,
        "ops_per_round": phase.first_round,
        "wall_s": round(phase.wall, 4),
        "tail_quantile": wl.tail_quantile,
        "result_digest": result_digest,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "jobs": 1,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, one setup probe (smoke test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "squeezelab" / "__init__.py").is_file():
        print(f"perfbench: no squeezelab sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy loads; the setup probes inherit them
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.setup_probe:
        setup(args).close()
        print("ready", flush=True)
        return 0

    setup_times = [] if args.trace else [probe_setup(args) for _ in range(1 if args.tiny else SETUP_PROBES)]
    wl = setup(args)
    try:
        if args.trace:
            from tracing import Tracer, layer_metrics

            tracer = Tracer()
            with tracer.patched():
                phase = run_phase(wl, args.seed, args.seconds, tracer=tracer)
            layer = layer_metrics(tracer, phase.ops, phase.first_round)
            layer["cli.bytes_written"] = sum(op.get("bytes", 0) for op in phase.ops[: phase.first_round])
            layer["trace.overhead_share"] = tracer.overhead_share(phase.wall)
        else:
            phase = run_phase(wl, args.seed, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        os.chdir(ROOT)
        wl.close()
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print("perfbench record " + json.dumps(run_record(args, phase, wl, digest(wl, phase)), sort_keys=True))
    for i, error in enumerate(phase.errors):
        if error is not None:
            print(f"perfbench failed op {i}: {phase.ops[i].get('kind') or phase.ops[i].get('argv')}: {error}")

    n = len(phase.latency)
    if args.trace:
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
        for m in spec["per_layer"]:
            print(f"{args.workload} {m['name']} {layer[m['name']]:.6g} {m['unit']}")
    else:
        tail_value, beyond = tail(phase.latency, wl.tail_quantile)
        values = {
            "throughput_ops_per_s": (n / phase.wall, f"{n} ops in {phase.wall:.3f} s, {phase.rounds} rounds"),
            "latency_p50_s": (statistics.median(phase.latency), f"median of {n} ops"),
            "latency_tail_s": (tail_value, f"p{100 * wl.tail_quantile:g} of {n} ops, {beyond} ops beyond it"),
            "failed_share": (phase.failed / n, f"{phase.failed} of {n} ops failed"),
            "setup_s": (statistics.median(setup_times), f"median of {len(setup_times)} fresh processes"),
            "peak_rss_mb": (peak_rss_mb, "peak resident memory of the workload process"),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | {"failed_share": "fraction"}
        metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}
        for name, (value, note) in values.items():
            print(f"{args.workload} {name} {value:.6g} {units[name]} ({note})")
    print(json.dumps({"correct": phase.failed == 0, "attempted": n, "failed": phase.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
