"""Benchmark of the midas toolkit: training with and without mixing, and the CLI.

Usage, from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``--workload all`` (the default) runs each workload in a child process of its
own, so that each reports its own peak memory, and merges their results.
Each workload sets up its corpus several times (``setup_s`` is the median),
then runs whole rounds of the same operations until ``--seconds`` is used up,
and reports per-round medians. ``--trace 1`` alternates untraced and traced
rounds and reports the per-layer metrics of one set-up plus one traced round.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Every result, with the git SHA and
the environment, is also written under ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from tracer import METRIC_NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

# Workload names and metric names and units are those of BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
TRACE_OWN = ("trace.wall_s", "trace.overhead_s")  # made by measure(), not by the tracer

# A workload that raises one of these in set-up, a round or its checks has
# given a missing, malformed or wrong output: the run reports correct=false.
OUTPUT_ERRORS = (checks.CheckFailed, ValueError, KeyError, OSError)


def cpu_seconds() -> float:
    """User plus system CPU time of this process, all threads included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def git_sha() -> str:
    """HEAD's commit read from .git without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info() -> dict:
    """BLAS library, its configuration and its thread-pool size, as numpy loaded it."""
    info = {"threads": None, "library": None, "config": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # show_config's layout differs between numpy releases
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if getter is None:
                continue
            getter.restype = ctypes.c_int
            config = getattr(lib, f"{prefix}_get_config{suffix}")
            config.restype = ctypes.c_char_p
            info["threads"] = getter()
            info["config"] = config().decode()
            return info
    return info


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def per_layer(setup_aggs: list[dict], round_aggs: list[dict]) -> dict[str, float]:
    """Per metric: median over set-ups plus median over traced rounds."""
    out = {}
    for name in PER_LAYER:
        if name in TRACE_OWN:
            continue
        out[name] = sum(
            statistics.median(agg.get(name, 0) for agg in aggs) for aggs in (setup_aggs, round_aggs) if aggs
        )
    return out


def measure(name: str, seed: int, seconds: float, trace: bool, stamp: str) -> dict:
    from workloads import WORKLOADS

    workdir = OUT / "work" / f"{name}-{stamp}"
    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](seed, workdir)
    tracer = Tracer() if trace else None
    setup_times, setup_aggs, rounds = [], [], []
    peak_mib = None
    correct, problem, interrupted = True, None, False
    phase = "set-up"
    try:
        for _ in range(workload.setup_repeats):
            if tracer:
                tracer.install()
            setup_times.append(workload.setup())
            if tracer:
                tracer.uninstall()
                setup_aggs.append(tracer.take())

        start = time.perf_counter()
        while True:
            k = len(rounds)
            phase = f"round {k}"
            traced = trace and k % 2 == 1
            workload.prepare(k)
            if traced:
                tracer.install()
            cpu0, wall0 = cpu_seconds(), time.perf_counter()
            stats = workload.round(k)
            wall1, cpu1 = time.perf_counter(), cpu_seconds()
            if traced:
                tracer.uninstall()
                stats["layers"] = tracer.take()
            rounds.append(dict(stats, wall_s=wall1 - wall0, cpu_s=cpu1 - cpu0, traced=traced))
            typical = statistics.median(r["wall_s"] for r in rounds)
            if len(rounds) >= (2 if trace else 1) and time.perf_counter() - start + typical > seconds:
                break
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        phase = "check"
        workload.check()
    except OUTPUT_ERRORS as exc:
        correct, problem = False, f"{phase}: {type(exc).__name__}: {exc}"
        interrupted = phase != "check"  # the set-up or round that raised is one failed operation
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    metrics, units, trace_path = {}, END_TO_END, None
    if trace and traced_rounds and plain:
        metrics = per_layer(setup_aggs, [r["layers"] for r in traced_rounds])
        metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced_rounds)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(r["wall_s"] for r in plain)
        units = PER_LAYER
        trace_path = OUT / "traces" / f"{name}-seed{seed}-{stamp}.tsv"
        tracer.write(trace_path)
    elif not trace and plain and peak_mib is not None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "train_samples_per_s": statistics.median(r["train_samples"] / r["train_s"] for r in plain),
            "peak_rss_mib": peak_mib,
        }
    return {
        "workload": name,
        "describe": workload.describe(),
        "correct": correct,
        "problem": problem,
        "attempted": sum(r["attempted"] for r in rounds) + interrupted,
        "failed": sum(r["failed"] for r in rounds) + interrupted,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()} if metrics else {},
        "setup_times": setup_times,
        "rounds": [{k: v for k, v in r.items() if k != "layers"} for r in rounds],
        "trace_file": str(trace_path.relative_to(ROOT)) if trace_path else None,
    }


def child_command(name: str, args: argparse.Namespace) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]


def run_each(args: argparse.Namespace) -> int:
    """Every workload in a child process of its own, one after the other.

    A process's peak resident set never goes down, so a workload that shared
    a process with the one before it would report that one's peak as well.
    Each child's output is passed through; its last line is merged into one
    result with the metric names prefixed by the workload.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        last = None
        with subprocess.Popen(child_command(name, args), stdout=subprocess.PIPE, text=True) as child:
            for line in child.stdout:
                if last is not None:
                    sys.stdout.write(last)
                last = line
        sys.stdout.flush()
        if child.returncode != 0 or last is None:
            print(f"error: workload {name} exited with code {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        result = json.loads(last)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "midas" / "__init__.py").is_file():
        print(f"error: no midas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    unknown = sorted(set(PER_LAYER) - METRIC_NAMES - set(TRACE_OWN))
    if unknown:
        print(f"error: BENCHMARK.json names per-layer metrics the tracer does not make: {unknown}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_each(args)
    sys.path.insert(0, str(ROOT / "src"))

    env = environment()
    print(f"env: {json.dumps(env, sort_keys=True)}", flush=True)
    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), stamp)
    print(f"{args.workload}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} rounds={len(result['rounds'])}", flush=True)
    if result["problem"]:
        print(f"{args.workload}: check failed: {result['problem']}", file=sys.stderr, flush=True)
    for metric, m in result["metrics"].items():
        print(f"  {metric:40s} {m['value']:>16.6f} {m['unit']}", flush=True)

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"args": vars(args), "environment": env, "result": result}
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
