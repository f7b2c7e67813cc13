#!/usr/bin/env python3
"""Run one benchmark workload and print every metric with its unit.

Usage, from the repository root::

    python3 perfbench/run.py --workload {report,collective,ensemble} \\
        [--seed N] [--seconds S] [--trace {0,1}]

The workload issues its seeded request list as a closed loop (one client)
in whole blocks until ``--seconds`` have gone by. With ``--trace 0`` it
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
issues every block untraced and traced, and reports the per-layer
metrics. Every run counts failed operations against attempted
ones and records a host fingerprint. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Results (and, for traced runs, the spans) are also written under
``perfbench/out/``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # stdlib-only: the program is imported by each workload

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 5  # fresh processes timed for setup_s (median)
SETUP_TIMEOUT_S = 60
PROGRAM_ENV = ("REPRO_PLAN_CACHE", "REPRO_SWEEP_CACHE", "REPRO_SWEEP_WORKERS")


def prepare(root: Path) -> None:
    """Put ``root/src`` and the benchmark on the import path, or exit 2."""
    if not (root / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no src/repro under {root}; run from the repository root\n"
        )
        sys.exit(2)
    for var in PROGRAM_ENV:  # no disk caches, no sweep pool
        os.environ.pop(var, None)
    for path in (str(HERE), str(root / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


# ------------------------------------------------------------------ helpers


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles`` inclusive)."""
    s = sorted(values)
    if len(s) == 1:
        return s[0]
    pos = (len(s) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(root: Path) -> dict:
    """Host and environment the numbers were taken on."""
    import importlib.util

    import numpy

    from repro.simulator import KERNEL_IMPL

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode())
        src.update(path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel_impl": KERNEL_IMPL,
        "git_commit": git_commit(root),
        "src_sha256": src.hexdigest(),
    }


def git_commit(root: Path):
    """HEAD's commit read from ``.git`` (None outside a git checkout)."""
    git = root / ".git"
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
    return None


def setup_seconds(workload: str, seed: int, root: Path, samples: int) -> list:
    """Wall from process start to a ready workload, in fresh processes."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != "ready" or code != 0:
            raise RuntimeError(f"setup process exited {code} without getting ready")
        out.append(elapsed)
    return out


class PlanCacheCounter:
    """Plan-cache hits/misses over the traced requests only (the report
    workload swaps in a fresh global cache before every request)."""

    def __init__(self, plancache) -> None:
        self.plancache = plancache
        self.hits = self.misses = 0
        self._start = None

    def __call__(self, kind) -> None:
        stats = self.plancache.global_plan_cache().stats()
        if kind is not None:
            self._start = (stats["hits"], stats["misses"])
        elif self._start is not None:
            self.hits += stats["hits"] - self._start[0]
            self.misses += stats["misses"] - self._start[1]
            self._start = None

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses}


# --------------------------------------------------------------------- run


def run_blocks(workload, seconds: float):
    """Whole blocks until ``seconds`` of wall time went by and the workload's
    minimum was issued."""
    outcomes, blocks = [], 0
    t0 = time.perf_counter()
    while blocks < workload.min_blocks or time.perf_counter() - t0 < seconds:
        outcomes.extend(workloads.run_block(workload, blocks))
        blocks += 1
    return outcomes, blocks


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        root: Path, small: bool = False, setup_samples: int = SETUP_SAMPLES,
        expected=None) -> dict:
    """One benchmark run: the result object plus diagnostics."""
    workload = workloads.SETUP[workload_name](seed, small=small)
    if expected is None:
        expected = workloads.load_digests(workload_name)

    spans = None
    trace_errors = []
    if not trace:
        samples = setup_seconds(workload_name, seed, root, setup_samples)
        outcomes, blocks = run_blocks(workload, seconds)
        lat = [o.latency_s for o in outcomes]
        metrics = {
            "setup_s": statistics.median(samples),
            "request_p50_ms": percentile(lat, 50) * 1e3,
            "request_p90_ms": percentile(lat, 90) * 1e3,
            "requests_per_s": len(lat) / sum(lat),
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        from tracing import Tracer, layer_metrics

        from repro.core import plancache

        spans = Tracer()
        counter = PlanCacheCounter(plancache)

        def tag(kind):
            counter(kind)
            spans.tag = kind or ""

        def traced_block(i):
            with spans:
                return workloads.run_block(workload, i, tag=tag,
                                           untraced=spans.paused)

        # each block runs untraced and traced, the two in alternating order
        # (ABBA), so that drift of the host's speed and first-use costs do
        # not leak into trace.overhead_ratio
        plain, traced, blocks = [], [], 0
        t0 = time.perf_counter()
        while blocks < workload.min_blocks or time.perf_counter() - t0 < seconds:
            if blocks % 2 == 0:
                plain += workloads.run_block(workload, blocks)
                traced += traced_block(blocks)
            else:
                traced += traced_block(blocks)
                plain += workloads.run_block(workload, blocks)
            blocks += 1
        metrics = layer_metrics(
            spans,
            traced_wall_s=sum(o.latency_s for o in traced),
            untraced_wall_s=sum(o.latency_s for o in plain),
            plan_cache_stats=counter.stats(),
        )
        trace_errors = [
            f"{b.key}: traced output differs from the untraced one"
            for a, b in zip(plain, traced) if a.digest != b.digest
        ]
        if metrics["trace.self_share"] > 1.0:
            trace_errors.append("per-layer self times exceed the traced wall")
        outcomes = plain + traced

    attempted, failed, messages = workloads.count_failures(outcomes, expected)
    failed += len(trace_errors)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "requests": len(outcomes),
        "blocks": blocks,
        "messages": messages + trace_errors,
        "spans": spans,
    }


def record_digests() -> int:
    """Write ``expected_digests.json`` from one clean default-seed run."""
    table = {}
    for name in ("collective", "ensemble"):
        workload = workloads.SETUP[name](workloads.DEFAULT_SEED)
        outcomes = []
        for i in range(len(workload.blocks)):
            outcomes.extend(workloads.run_block(workload, i))
        bad = [f"{o.key}: {o.error}" for o in outcomes if o.error]
        if bad:
            sys.stderr.write("not recording; failed requests:\n" + "\n".join(bad))
            return 1
        table[name] = {o.key: o.digest for o in outcomes}
        print(f"{name}: {len(outcomes)} request digests")
    text = json.dumps(table, indent=1, sort_keys=True)
    workloads.DIGESTS_FILE.write_text(text + "\n")
    return 0


def report_metrics(result: dict, spec: list) -> dict:
    """The metrics BENCHMARK.json names, in its order, with its units."""
    out = {}
    for m in spec:
        out[m["name"]] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                   help="input seed (default: the one whose digests are recorded)")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up, print 'ready' and exit "
                        "(how setup_s is sampled)")
    p.add_argument("--record-digests", action="store_true",
                   help="re-record the default seed's request digests of the "
                        "seeded workloads (after an intended behaviour change)")
    args = p.parse_args(argv)
    if args.workload is None and not args.record_digests:
        p.error("--workload is required")

    root = Path.cwd()
    prepare(root)
    if args.record_digests:
        return record_digests()
    if args.setup_only:
        workloads.SETUP[args.workload](args.seed)
        print("ready", flush=True)
        return 0

    spec_file = root / "BENCHMARK.json"
    spec = json.loads(spec_file.read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    metrics = report_metrics(result, spec[kind])
    host = fingerprint(root)

    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['requests']} requests in {result['blocks']} block(s)")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>16.6f} {m['unit']}")
    print(f"  failed/attempted: {result['failed']}/{result['attempted']}")
    for msg in result["messages"][:20]:
        print(f"  FAILED {msg}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        "host": host,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "requests": result["requests"],
        "blocks": result["blocks"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "messages": result["messages"],
        "metrics": metrics,
    }, indent=2, sort_keys=True) + "\n")
    if result["spans"] is not None:
        result["spans"].dump(OUT_DIR / f"{stem}.spans.jsonl")

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
