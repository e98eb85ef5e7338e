"""Benchmark of the xccy Monte Carlo engine, one workload per invocation.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are defined in ``workloads.py``. ``--seed`` is the Monte Carlo
seed. The workload runs repeatedly for ``--seconds`` seconds; each run's
result is checked against an oracle outside the timed part.

With ``--trace 0`` the last line reports the end-to-end metrics:

- ``wall_s``: median time of one run, from the first call after set-up to
  the result;
- ``path_steps_per_s``: simulated paths x steps / ``wall_s``;
- ``peak_rss_mb``: peak resident set of this process, which ran only this
  workload, read before the worker-count identity check;
- ``setup_s``: median over fresh interpreters of import, model load and
  validation, trade parse and grid (see ``setup_probe.py``); two probes
  follow each timed run, after one untimed warm-up probe.

With ``--trace 1`` untraced and traced runs alternate and the last line
reports the per-layer metrics of ``tracing.layer_metrics`` (medians over the
traced runs), ``model.load_s``, ``pricing.se_sqrt_s`` (price SE x sqrt of the
untraced ``wall_s``; 0 where no price is estimated) and ``trace.overhead_s``
(traced minus untraced median ``wall_s``).

Either way ``correct`` is false when any run's output check fails or raises,
when results differ between runs of the same seed, when a count differs
between traced runs, or when a workload that runs on more than one worker
differs from its result at 1 worker (checked once, after the timed runs).
The lines before the last one give the machine, every run and the values
the checks compared.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_PROBES_PER_RUN = 2
PROBE_TIMEOUT_S = 120


@dataclass
class Run:
    traced: bool
    wall_s: float | None
    ok: bool
    values: dict
    digest: str | None = None
    layers: dict | None = None


def _run_once(workload, setup, seed: int, workers: int, traced: bool) -> Run:
    from tracing import NullTracer, Tracer, layer_metrics

    tracer = Tracer() if traced else NullTracer()
    gc.collect()
    try:
        with tracer.patched() if traced else nullcontext():
            start = time.perf_counter()
            result = workload.run(setup, seed, workers, tracer)
            wall = time.perf_counter() - start
        ok, values = workload.check(setup, result)
        digest = workload.digest(result)
    except Exception:  # a run that raises is a failed run; the benchmark goes on
        traceback.print_exc()
        return Run(traced, None, False, {"error": traceback.format_exc(limit=1)})
    return Run(traced, wall, bool(ok), values, digest, layer_metrics(tracer) if traced else None)


def _measure(workload, setup, seed: int, seconds: int, trace: int) -> tuple[list[Run], list[dict]]:
    """Timed runs for ``seconds`` seconds, each followed by set-up probes.

    Spreading the probes through the window times set-up over the same
    stretch as the runs, not in one burst that a slow moment can decide.
    """
    _setup_probe(workload.name)  # untimed warm-up, so no probe reads a cold page cache
    runs: list[Run] = []
    probes: list[dict] = []
    min_runs = 4 if trace else 1  # two traced runs at least, to compare their counts
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(runs) < min_runs:
        if trace:
            # alternate which side of the pair goes first
            order = (False, True) if len(runs) % 4 == 0 else (True, False)
        else:
            order = (False,)
        for traced in order:
            runs.append(_run_once(workload, setup, seed, workload.workers, traced))
        probes.extend(_setup_probe(workload.name) for _ in range(SETUP_PROBES_PER_RUN))
    return runs, probes


def _setup_probe(name: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _openblas_threads() -> int | None:
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _machine() -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches_per_core": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
    }


def _median(xs) -> float:
    return float(statistics.median(xs))


def _layer_summary(traced: list[Run]) -> tuple[dict, bool]:
    """Median of each timed layer over the traced runs; counts must repeat exactly."""
    from tracing import COUNTS

    out, counts_repeat = {}, True
    for key in traced[0].layers:
        values = [r.layers[key] for r in traced]
        if key in COUNTS:
            counts_repeat &= len(set(values)) == 1
            out[key] = values[0]
        else:
            out[key] = _median(values)
    return out, counts_repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "xccy" / "__init__.py").is_file():
        print(f"error: no xccy source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    sys.path.insert(0, str(SRC))

    from tracing import NullTracer
    from workloads import WORKLOADS, load_setup

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    setup = load_setup(workload, NullTracer())
    runs, probes = _measure(workload, setup, args.seed, args.seconds, args.trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    done = [r for r in runs if r.wall_s is not None]
    plain = [r for r in done if not r.traced]
    traced = [r for r in done if r.traced]
    if not plain or (args.trace and not traced):
        print("error: every run raised; nothing to report", file=sys.stderr)
        return 1
    failed = sum(not r.ok for r in runs)
    repeat = len({r.digest for r in done}) == 1
    correct = failed == 0 and repeat

    identity = None
    if workload.workers > 1:
        other = _run_once(workload, setup, args.seed, 1, traced=False)
        identity = {
            "workers": [workload.workers, 1],
            "byte_identical": other.digest == done[0].digest,
        }
        correct &= identity["byte_identical"]

    wall_s = _median(r.wall_s for r in plain)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "paths": workload.n_paths,
        "steps": workload.n_steps,
        "workers": workload.workers,
        "machine": _machine(),
        "setup_probes_s": [p["setup_s"] for p in probes],
        "runs": [{"traced": r.traced, "wall_s": r.wall_s, "ok": r.ok, **r.values} for r in runs],
        "failed_frac": failed / len(runs),
        "results_repeat": repeat,
        "worker_identity": identity,
    }
    if "std_error" in done[0].values:
        report["se_sqrt_s"] = done[0].values["std_error"] * math.sqrt(wall_s)

    if args.trace:
        layers, counts_repeat = _layer_summary(traced)
        correct &= counts_repeat
        report["counts_repeat"] = counts_repeat
        metrics = {
            "model.load_s": _median(p["load_s"] for p in probes),
            "pricing.se_sqrt_s": report.get("se_sqrt_s", 0.0),
            "trace.overhead_s": _median(r.wall_s for r in traced) - wall_s,
            **layers,
        }
    else:
        metrics = {
            "wall_s": wall_s,
            "path_steps_per_s": workload.path_steps / wall_s,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": _median(p["setup_s"] for p in probes),
        }
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    print(json.dumps(report, indent=1))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": len(runs),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
