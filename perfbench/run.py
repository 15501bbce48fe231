"""Benchmark of the hsiseg pipeline: train, segment and baselines.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 20 --trace 0

It imports hsiseg from ``src/`` of the same checkout, makes every input
from ``--seed``, repeats the workload's operation for about ``--seconds``
seconds, checks every output, prints a readable table and, as the last
line of standard output, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs a warm-up operation, then
untraced and traced operations in turn, and reports the per-layer metrics.
Metric names and units are those declared in BENCHMARK.json.  The exit
code is 0 only when every check passed.  See README.md in this directory.
"""

import os
import sys
import time

STARTED = time.perf_counter()

# One BLAS thread: on a shared 2-core machine it gave run-to-run spreads
# about half those of two threads.  BLAS reads this when numpy is imported.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracing import OP_SPAN, Tracer, layer_metrics  # noqa: E402
from workloads import SMOKE_WORKLOADS, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT = HERE / "out"
SPEC = CHECKOUT / "BENCHMARK.json"
SETUP_PROBES = 20     # extra set-up runs in fresh interpreters, for setup_s


class SetupError(Exception):
    """The checkout cannot be benchmarked (e.g. hsiseg's sources are missing)."""


def import_library():
    """Import hsiseg from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "hsiseg" / "__init__.py").is_file():
        raise SetupError(f"no hsiseg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("hsiseg")
    if Path(package.__file__).resolve().parent != SRC / "hsiseg":
        raise SetupError(f"imported hsiseg from {package.__file__}, not {SRC}")
    return package


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, for ``kind`` "end_to_end" or "per_layer"."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": NPROC,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": sys.version.split()[0],
        "seed": seed,
    }


def setup_probe(workload, smoke: bool, seed: int) -> float:
    """Set-up time of a fresh interpreter: imports, synthesis, normalisation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    done = subprocess.run(cmd, cwd=CHECKOUT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_ops(workload, hs, inputs, seconds: float, tracer=None) -> tuple[list, list]:
    """Repeat the operation while another one still fits in ``seconds``.

    Returns per-operation wall times and results; an operation that raises
    is recorded as ``None`` (a failure) and the loop goes on.
    """
    walls, results = [], []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started + statistics.median(walls) <= seconds:
        op_started = time.perf_counter()
        span = tracer.open(OP_SPAN) if tracer is not None else None
        try:
            result = workload.run(hs, inputs)
        except Exception:  # one failed operation is counted, not fatal
            traceback.print_exc()
            result = None
        finally:
            if span is not None:
                tracer.close(span)
        walls.append(time.perf_counter() - op_started)
        results.append(result)
    return walls, results


def end_to_end(results: list, setup: list[float]) -> tuple[dict, dict]:
    """JSON metrics, and the per-stage figures for the table, from finished ops."""
    done = [r for r in results if r is not None]
    if not done:
        return {}, {}

    median = statistics.median

    def rate(work, stage):
        """Work per second, from the median of every sample of a stage."""
        return done[0].work[work] / median([t for r in done for t in r.seconds[stage]])

    if "train" in done[0].seconds:
        fit, maps = rate("patch_steps", "train"), rate("pixels", "segment")
        named = {"train_patches_per_s": (fit, "1/s"), "segment_px_per_s": (maps, "px/s")}
    else:
        fit, maps = rate("pixel_maps", "total"), rate("pixels", "kmeans")
        named = {"baseline_px_per_s": (fit, "px/s"), "kmeans_map_px_per_s": (maps, "px/s")}
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = count_outcomes(results)
    metrics = {"setup_s": median(setup), "fit_items_per_s": fit,
               "map_px_per_s": maps, "peak_rss_mb": peak_mb}
    named = {"setup_s": (metrics["setup_s"], "s"), **named}
    if done[0].nmi is not None:
        named["nmi"] = (median([r.nmi for r in done]), "1")
    named.update(peak_rss_mb=(peak_mb, "MB"), failed_share=(failed / attempted, "1"))
    return metrics, named


def run_paired(workload, hs, inputs, seconds: float, tracer) -> tuple[list, list, list]:
    """Untraced and traced operations in turn, after one warm-up operation.

    The first operation of a process also pays its warm-up, so it runs
    untraced and its time is left out.  Then an untraced and a traced
    operation alternate while another pair still fits in ``seconds``
    (always at least one pair), so that a drift of the machine's speed
    falls on both sides.  Returns the untraced and traced wall times and
    every operation's result, the warm-up's too.
    """
    _, results = run_ops(workload, hs, inputs, 0.0)
    plain, traced = [], []
    median = statistics.median
    started = time.perf_counter()
    while not traced or \
            time.perf_counter() - started + median(plain) + median(traced) <= seconds:
        walls, done = run_ops(workload, hs, inputs, 0.0)
        plain += walls
        results += done
        with tracer.installed(hs):
            walls, done = run_ops(workload, hs, inputs, 0.0, tracer)
        traced += walls
        results += done
    return plain, traced, results


def count_outcomes(results: list) -> tuple[int, int]:
    """(attempted, failed) operations; one that raised or failed a check failed."""
    failed = sum(r is None or any(not c.ok for c in r.checks) for r in results)
    return len(results), failed


def write_spans(tracer, name: str, seed: int, env: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.json"
    path.write_text(json.dumps({"env": env, "counts": dict(tracer.counts),
                                "spans": tracer.spans}) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up sample, for the benchmark's tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        hs = import_library()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    table = SMOKE_WORKLOADS if args.smoke else WORKLOADS
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]
    inputs = workload.prepare(hs, args.seed)
    setup = [time.perf_counter() - STARTED]
    if args.setup_probe:
        print(repr(setup[0]))
        return 0
    env = environment(args.seed)

    if args.trace:
        tracer = Tracer()
        with tracer.installed(hs), tracer.span("bench.setup"):
            workload.prepare(hs, args.seed)
        plain_walls, traced_walls, results = run_paired(workload, hs, inputs,
                                                        args.seconds, tracer)
        metrics = layer_metrics(tracer.spans, tracer.counts, len(traced_walls))
        metrics["trace.overhead_share"] = \
            statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
        units = declared_units("per_layer")
        print(f"spans: {write_spans(tracer, args.workload, args.seed, env)} "
              f"({len(tracer.spans)} spans, {len(plain_walls)} untraced and "
              f"{len(traced_walls)} traced ops after a warm-up)")
        readable = {name: (value, units[name]) for name, value in metrics.items()}
    else:
        setup += [setup_probe(args.workload, args.smoke, args.seed)
                  for _ in range(0 if args.smoke else SETUP_PROBES)]
        walls, results = run_ops(workload, hs, inputs, args.seconds)
        metrics, readable = end_to_end(results, setup)
        units = declared_units("end_to_end")
        print(f"ops: {len(walls)}, wall per op (s): "
              + ", ".join(f"{w:.3f}" for w in walls))

    attempted, failed = count_outcomes(results)
    failures = Counter(f"{c.name}: {c.detail}" for r in results if r is not None
                       for c in r.checks if not c.ok)
    for line, times in failures.items():
        print(f"FAIL ({times} ops) {line}")
    if results[-1] is not None:
        for c in results[-1].checks:
            print(f"check {'ok  ' if c.ok else 'FAIL'} {c.name}: {c.detail}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in readable.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
