"""Seeded benchmark of ``leafquant`` scenario runs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  One operation parses the workload's generated scenario with
``parse_scenario``, executes it with ``runner.run`` and checks the
artifacts it wrote against the scipy references (``checks.py``).
Operations repeat, one after another, until ``--seconds`` have passed.

With ``--trace 0`` the result carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` untraced and traced operations
alternate and the result carries the per-layer metrics, medians over
the traced operations, plus the tracing overhead.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# one BLAS thread: the benchmark shares a 2-core machine, where a second
# thread speeds up 512 x 512 eigendecompositions but slows 128 x 128
# ones and widens the run-to-run spread (README, "Threads")
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS")
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _probe_setup(workload: str, seed: int, env: dict) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        timeout=PROBE_TIMEOUT_S)
    return float(done.stdout.strip().splitlines()[-1])


class Bench:
    """One workload at one seed: runs operations and keeps their figures."""

    def __init__(self, workload: str, seed: int):
        import checks
        import workloads
        from leafquant import runner, scenarios

        self.checks, self.runner, self.scenarios = checks, runner, scenarios
        self.workload = workload
        self.params = workloads.draw_parameters(workload, seed)
        self.doc = workloads.scenario_document(workload, self.params)
        self.out = OUT / workload
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0

    def operation(self, tracer=None) -> float | None:
        """Parse, run and check once; the seconds in ``runner.run``."""
        self.attempted += 1
        shutil.rmtree(self.out, ignore_errors=True)
        try:
            if tracer is not None:
                tracer.install()
            try:
                config = self.scenarios.parse_scenario(self.doc)
                start = time.perf_counter()
                self.runner.run(config, self.out)
                elapsed = time.perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.uninstall()
            verdict = self.checks.check_outputs(self.workload, self.params,
                                                self.out)
        except Exception:
            # a failing operation is counted and the run goes on
            traceback.print_exc()
            self.failed += 1
            return None
        if verdict.failures:
            print(f"check failed: {'; '.join(verdict.failures)}",
                  file=sys.stderr)
            self.failed += 1
            self.incorrect += 1
            return None
        print(f"operation {self.attempted}{' traced' if tracer else ''}: "
              f"run {elapsed:.4f} s", file=sys.stderr)
        return elapsed

    def artifact_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out.iterdir())


def _end_to_end(bench: Bench, seconds: float, setup_times) -> dict:
    times = []
    started = time.perf_counter()
    while True:
        elapsed = bench.operation()
        if elapsed is not None:
            times.append(elapsed)
        if time.perf_counter() - started >= seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"run_s": statistics.median(times) if times else 0.0,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_kib / 1024.0}


def _per_layer(bench: Bench, seconds: float, spans_path: Path) -> dict:
    import tracing

    tracer = tracing.Tracer()
    plain, traced = [], []
    started = time.perf_counter()
    # the first operation fills the program's caches; it is checked but
    # left out of the untraced median the overhead is measured against
    bench.operation()
    while True:
        elapsed = bench.operation()
        if elapsed is not None:
            plain.append(elapsed)
        first = len(tracer.spans)
        if bench.operation(tracer) is not None:
            layer = tracing.summarize(tracer, first, len(tracer.spans))
            layer["runner.artifact_bytes"] = bench.artifact_bytes()
            traced.append(layer)
        if time.perf_counter() - started >= seconds:
            break
    tracer.write(spans_path)
    if not traced or not plain:
        return {}
    out = {key: statistics.median(op[key] for op in traced)
           for key in traced[0]}
    out["tracing_overhead_s"] = out["runner.run_s"] - statistics.median(plain)
    return out


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (SRC / "leafquant" / "__init__.py").is_file():
        print(f"no leafquant sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARIABLES:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload}", file=sys.stderr)
        return 2

    setup_times = []
    if not args.trace:
        setup_times = [_probe_setup(args.workload, args.seed, dict(os.environ))
                       for _ in range(SETUP_REPEATS)]
    import leafquant

    if SRC not in Path(leafquant.__file__).resolve().parents:
        print(f"leafquant imported from {leafquant.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    if args.trace:
        wanted = spec["per_layer"]
        values = _per_layer(
            bench, args.seconds,
            OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        wanted = spec["end_to_end"]
        values = _end_to_end(bench, args.seconds, setup_times)
    if not values:
        print("no operation completed", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, metric in metrics.items():
        print(f"{args.workload:16s} {name:40s} {metric['value']:.6g} "
              f"{metric['unit']}")
    print(json.dumps({"correct": bench.incorrect == 0,
                      "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
