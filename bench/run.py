"""Benchmark of the aloha-noma CLI on three workloads.

    python3 bench/run.py --workload {tables,channel,gateway} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  Each workload run is a fresh single-threaded
Python process (``child.py``) that imports ``aloha_noma.cli``, writes the
workload's JSON configs from the seed and calls ``cli.main`` once per step,
one step after another, for about S seconds; every output is checked
against independent oracles (``oracles.py``).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
several spawns, from process spawn until the CLI is imported and the inputs
written), ``wall_s`` (median time of one pass over the workload's steps) and
``peak_rss_mb`` (peak resident memory of the workload process).  Both times
are scaled to a reference host speed by ``hostspeed.py``, because the shared
machines the benchmark runs on drift in speed by 20-40 % over minutes.

``--trace 1`` splits S between an untraced and a traced workload process,
plus import-timing children (``imports.py``), and reports the per-layer metrics
listed in ``metrics.json``.  The traced outputs must be byte-identical to
the untraced ones.

Human-readable metric lines go first; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
SETUP_SPAWNS = 5
IMPORT_SPAWNS = 3
# a run must end within 180 s; leave room for cleanup
DEADLINE_S = 170.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """A workload process failed; no result can be reported."""


class Runner:
    """Spawns workload processes in a scratch directory of the checkout."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root, self.workload, self.seed = root, workload, seed
        self.scratch = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(BENCH)]))
        self.env.update({name: "1" for name in THREAD_VARIABLES})
        self._spawned = 0

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time")
        self.env["BENCH_SPAWN_MONOTONIC"] = repr(time.monotonic())
        try:
            # subprocess.run kills and reaps the child when the timeout expires
            return subprocess.run([sys.executable, *argv], env=self.env, cwd=self.root,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{argv[0]} did not finish in time") from None

    def child(self, seconds: float, *options: str) -> dict:
        self._spawned += 1
        workdir = self.scratch / f"p{self._spawned}"
        proc = self._run([str(BENCH / "child.py"), self.workload, str(self.seed),
                          repr(seconds), str(workdir), *options])
        if proc.returncode != 0:
            raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def import_times(self) -> dict[str, float]:
        proc = self._run([str(BENCH / "imports.py")])
        if proc.returncode != 0:
            raise BenchError(f"import failed:\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout)

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
        parent = self.scratch.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


def load_metrics() -> dict[str, dict]:
    spec = json.loads((BENCH / "metrics.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load_baseline() -> dict:
    return json.loads((BENCH / "baseline.json").read_text(encoding="utf-8"))


def unscaled(child: dict) -> dict[str, float]:
    """The measured times behind the scaled ones, and the reference loop's time."""
    return {
        "host.loop_s": child["loop_s"],
        "wall.unscaled_s": child["wall_unscaled_s"],
        "setup.unscaled_s": child["setup_unscaled_s"],
    }


def untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    main = runner.child(seconds)
    setups = [main] + [runner.child(0.0, "--setup-only") for _ in range(SETUP_SPAWNS - 1)]
    main["setup_unscaled_s"] = statistics.median(s["setup_unscaled_s"] for s in setups)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": main["wall_s"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    return main, metrics


def traced(runner: Runner, seconds: float) -> tuple[list[dict], dict, list[str]]:
    baseline = load_baseline()
    imports = [runner.import_times() for _ in range(IMPORT_SPAWNS)]
    plain = runner.child(seconds / 2, "--reference-seed", str(baseline["reference_seed"]))
    out_dir = runner.root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{runner.workload}-{runner.seed}.jsonl"
    with_trace = runner.child(seconds / 2, "--trace", str(spans))
    problems = [f"{name}: traced output differs from untraced output"
                for name, digest in plain["digests"].items()
                if with_trace["digests"][name] != digest]
    print(f"reference digests (seed {baseline['reference_seed']}): "
          f"{json.dumps(plain['reference_digests'], sort_keys=True)}", file=sys.stderr)
    metrics = tracer.derive(str(spans))
    for key in imports[0]:
        metrics[key] = statistics.median(t[key] for t in imports)
    metrics["cli.csv_bytes"] = plain["csv_bytes"]
    recorded = baseline["reference_digests"].get(runner.workload, {})
    metrics["cli.outputs_identical"] = sum(
        recorded.get(name) == digest for name, digest in plain["reference_digests"].items()
    )
    metrics["trace.overhead_s"] = with_trace["wall_s"] - plain["wall_s"]
    metrics.update(unscaled(plain))
    for rate in workloads.RATES:
        metrics[rate] = plain["rates"].get(rate, 0.0)
    return [plain, with_trace], metrics, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    root = Path.cwd()
    if not (root / "src" / "aloha_noma" / "cli.py").is_file():
        print("error: run from the repository root (src/aloha_noma/cli.py not found)",
              file=sys.stderr)
        return 2

    units = {name: m["unit"] for name, m in load_metrics().items()}
    runner = Runner(root, args.workload, args.seed)
    try:
        if args.trace:
            children, metrics, problems = traced(runner, args.seconds)
        else:
            main_child, metrics = untraced(runner, args.seconds)
            children, problems = [main_child], []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.cleanup()

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children) + len(problems)
    for child in children:
        problems += child["failures"] + child["reference_failures"]
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    failed_ops = failed / attempted
    if args.trace:
        metrics["failed_ops"] = failed_ops
        shown = metrics
    else:
        shown = {**metrics, **children[0]["rates"], "failed_ops": failed_ops,
                 **unscaled(children[0])}
    for name, value in shown.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
