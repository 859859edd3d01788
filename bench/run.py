"""pcirc benchmark: closed-loop workloads, one client in one process.

Run from the repository root:

    python3 bench/run.py --workload deep-sign --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Each run imports pcirc from this checkout's src/, builds its workload's case
pool from the seed, and issues one operation at a time, the next only after
the previous returned.  It runs whole passes over the pool until the timed
operations add up to --seconds, and sets up afresh five times, spread evenly
over those passes; setup_s is the median.  Every answer is checked after the
clock stops, against a reference that does not come from the code under test.
Time metrics are scaled to the reference machine's speed (see Calibration);
the raw figures are printed and stored beside them.

With --trace 0 the last line of the output holds the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of a traced run instead,
which alternates untraced and traced passes over the same pool.  Results,
with their provenance, go to .bench_out/ in the checkout; so do the spans of
a traced run.  bench/spec.json names the held-out seed and which end-to-end
metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10

# Median time of one Calibration.sample() on the reference machine (2 vCPU
# x86_64 Xeon, Python 3.11.7) in a quiet period; see Calibration.
CALIBRATION_REF_NS = 2_400_000

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class Calibration:
    """Tracks the machine's speed with a fixed loop that uses no pcirc code.

    Machines shared with other tenants slow down by up to 1.5x for minutes
    at a time.  The loop (a random walk over a large list of lists, set
    probes and integer arithmetic) is timed after every operation, outside
    the timed region, and speed() compares its median with the reference
    machine's.  Every time metric is multiplied by that speed and every rate
    divided by it, so a run in a slow period and one in a quiet period
    report the same figures; the raw figures are reported beside them.
    """

    def __init__(self, n: int = 100_000):
        rng = random.Random(0)
        self._graph = [[rng.randrange(n) for _ in range(3)] for _ in range(n)]
        self._set = set(rng.sample(range(1 << 30), n // 2))
        self._probes = [rng.randrange(1 << 30) for _ in range(3000)]
        self.samples = []

    def sample(self):
        t0 = time.perf_counter_ns()
        v = acc = 0
        for i in range(8000):
            v = self._graph[v][i % 3]
            acc += v * v
        acc += sum(1 for p in self._probes if p in self._set)
        self.samples.append(time.perf_counter_ns() - t0)
        return acc

    def speed(self) -> float:
        """Reference loop time over this run's median loop time; above 1
        when this machine is faster."""
        return CALIBRATION_REF_NS / statistics.median(self.samples)


def import_pcirc():
    """Import pcirc afresh from this checkout's src/ and from nowhere else."""
    src = ROOT / "src"
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "pcirc" or m.startswith("pcirc.")]:
        del sys.modules[name]
    pc = importlib.import_module("pcirc")
    importlib.import_module("pcirc.cli")
    if Path(pc.__file__).resolve().parent.parent != src:
        raise ImportError(f"pcirc came from {pc.__file__}, not from {src}")
    return pc


def run_case(case, tracer=None):
    """(latency ns, error or None) of one operation; the check is untimed."""
    t0 = time.perf_counter_ns()
    try:
        output = case.call() if tracer is None else tracer.run_op(case.call)
    except Exception as exc:  # a raising operation fails, the run goes on
        return time.perf_counter_ns() - t0, f"{case.kind}: {exc!r}"
    dt = time.perf_counter_ns() - t0
    try:
        ok = case.check(output, case.expected)
    except (ValueError, KeyError, TypeError) as exc:
        return dt, f"{case.kind}: unreadable output ({exc!r})"
    return dt, None if ok else f"{case.kind}: got {output!r:.200}"


def one_pass(cases, latencies, errors, calibration, tracer=None) -> int:
    """Run every case once; returns the timed nanoseconds."""
    total = 0
    for case in cases:
        dt, error = run_case(case, tracer)
        latencies.append(dt)
        total += dt
        if error is not None:
            errors.append(error)
        calibration.sample()
    return total


def tail(latencies) -> dict:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    i = max(len(xs) - TAIL_BEYOND - 1, 0)
    return {"value_ms": xs[i] / 1e6, "percentile": 100 * (i + 1) / len(xs),
            "samples": len(xs), "beyond": len(xs) - i - 1}


def set_up(workload: str, seed: int, scale: str):
    """Import pcirc, build the case pool and warm up; the part setup_s times."""
    pc = import_pcirc()
    cases = workloads.build(workload, pc, seed, scale)
    for case in {c.kind: c for c in reversed(cases)}.values():
        run_case(case)  # warm-up: the smallest case of each kind
    return pc, cases


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full"):
    """Set up, run the closed loop, and return (result, tracer or None)."""
    budget = seconds * 1e9
    calibration = Calibration()
    setups, latencies, errors = [], [], []
    tracer = tracing.Tracer() if trace else None
    untraced = traced = 0
    while not setups or untraced + traced < budget:
        # Set-ups are spread evenly over the run, so that they sample the
        # machine's speed over the same period as the operations do.
        if len(setups) < SETUP_REPEATS and untraced + traced >= len(setups) * budget / SETUP_REPEATS:
            t0 = time.perf_counter()
            pc, cases = set_up(workload, seed, scale)
            setups.append(time.perf_counter() - t0)
            gc.collect()
        untraced += one_pass(cases, latencies, errors, calibration)
        if tracer is not None:
            tracer.install(pc)
            try:
                traced += one_pass(cases, latencies, errors, calibration, tracer)
            finally:
                tracer.uninstall()
    timed = untraced + traced
    n, failed = len(latencies), len(errors)
    kinds = list(dict.fromkeys(c.kind for c in cases))
    t = tail(latencies)
    raw = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "op_tail_ms": t["value_ms"],
        "ops_per_s": (n - failed) / (timed / 1e9),
    }
    speed = calibration.speed()
    e2e = {
        "setup_s": raw["setup_s"] * speed,
        "op_p50_ms": raw["op_p50_ms"] * speed,
        "op_tail_ms": raw["op_tail_ms"] * speed,
        "ops_per_s": raw["ops_per_s"] / speed,
        "ok_ratio": (n - failed) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is None:
        metrics = {m: {"value": v, "unit": END_TO_END[m]} for m, v in e2e.items()}
        shares = None
    else:
        layer, shares = tracer.summary(untraced, traced)
        metrics = {m: {"value": v, "unit": tracing.METRICS[m]} for m, v in layer.items()}
    result = {
        "workload": workload,
        "trace": int(trace),
        "provenance": provenance(seed),
        "pool": {kind: sum(c.kind == kind for c in cases) for kind in kinds},
        "attempted": n,
        "failed": failed,
        "failed_ratio": failed / n,
        "tail": t,
        "kind_p50_ms": {kind: statistics.median(dt for dt, c in zip(latencies, itertools.cycle(cases))
                                                if c.kind == kind) / 1e6 for kind in kinds},
        "setup_runs_s": setups,
        "calibration_median_ns": statistics.median(calibration.samples),
        "machine_speed": speed,
        "raw_end_to_end": raw,
        "end_to_end": e2e,
        "metrics": metrics,
        "self_time_shares": shares,
        "errors": errors[:5],
    }
    return result, tracer


def _git_commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    """sha256 over the package sources, naming the measured code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    return {
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "seed": seed,
    }


def print_report(result):
    p = result["provenance"]
    print(f"workload {result['workload']}  seed {p['seed']}  trace {result['trace']}  "
          f"commit {p['commit'][:12]}  src {p['src_sha256'][:12]}  python {p['python']}  "
          f"nproc {p['nproc']}  {p['platform']}")
    print("  pool " + ", ".join(f"{kind} x{n} ({result['kind_p50_ms'][kind]:.1f} ms)"
                                for kind, n in result["pool"].items()))
    e2e, t = result["end_to_end"], result["tail"]
    print(f"  setup_s      {e2e['setup_s']:.4f} s  (median of {len(result['setup_runs_s'])})")
    print(f"  op_p50_ms    {e2e['op_p50_ms']:.3f} ms")
    print(f"  op_tail_ms   {e2e['op_tail_ms']:.3f} ms  (p{t['percentile']:.1f} of "
          f"{t['samples']} samples, {t['beyond']} beyond)")
    print(f"  ops_per_s    {e2e['ops_per_s']:.3f} 1/s")
    print(f"  failed_ratio {result['failed_ratio']:.4f}  ({result['failed']} of {result['attempted']})")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
    raw = result["raw_end_to_end"]
    print(f"  machine speed {result['machine_speed']:.3f} of the reference; unscaled: "
          f"setup_s {raw['setup_s']:.4f}, op_p50_ms {raw['op_p50_ms']:.3f}, "
          f"op_tail_ms {raw['op_tail_ms']:.3f}, ops_per_s {raw['ops_per_s']:.3f}")
    for error in result["errors"]:
        print(f"  FAILED {error}")
    if result["self_time_shares"]:
        print("  self time, share of traced op time:")
        for layer, share in sorted(result["self_time_shares"].items(), key=lambda x: -x[1]):
            print(f"    {layer:36s} {100 * share:6.2f}%")


def run_all(args) -> int:
    """Every workload in a process of its own, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        last = json.loads(lines[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for metric, v in last["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result, tracer = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import pcirc from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{args.workload}.csv")
    print_report(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
