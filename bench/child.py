"""One workload process: set up, run the workload's CLI steps in a closed
loop, check the outputs, and print a JSON report as the last stdout line.

Run by ``run.py`` with ``PYTHONPATH`` holding the package sources and the
spawn time in ``BENCH_SPAWN_MONOTONIC`` (``time.monotonic`` is one clock for
every process on the machine).  Usage:

    child.py WORKLOAD SEED SECONDS WORKDIR [--setup-only] [--trace SPANS]
             [--reference-seed SEED]

Pass 0 is a warm-up whose outputs are checked by the oracles and whose
frames are checked one by one; timed passes follow while the next one is
expected to end within SECONDS (at least one).  Every timed pass must
reproduce pass 0's outputs byte for byte.  Times are reported scaled to the
reference host speed of ``hostspeed.py`` and also as measured ("unscaled").
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import time
import traceback
from pathlib import Path

import hostspeed


def run_step(cli, step) -> dict:
    """Run one CLI step with fresh outputs; stdout/stderr are captured."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(step.out)
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*step.argv, "--out", step.out, "--no-timestamp"])
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code, error = None, traceback.format_exc()
    elapsed = time.perf_counter() - start
    csv_bytes = Path(step.out).read_bytes() if os.path.exists(step.out) else b""
    text = stdout.getvalue()
    digest = hashlib.sha256(csv_bytes + b"\0" + text.encode()).hexdigest()
    failure = error or (None if code == 0 else f"exit code {code}: {stderr.getvalue()[-500:]}")
    return {"seconds": elapsed, "failure": failure, "digest": digest, "stdout": text,
            "csv": csv_bytes}


def run_pass(cli, steps) -> list[dict]:
    """Run the steps once with the reference loop timed before each step and
    after the last; ``scaled`` is a step's time at the reference host speed."""
    results = []
    before = hostspeed.loop()
    for step in steps:
        result = run_step(cli, step)
        after = hostspeed.loop()
        result["loop_s"] = (before + after) / 2
        result["scaled"] = hostspeed.scale(result["seconds"], result["loop_s"])
        results.append(result)
        before = after
    return results


def offered_packets(csv_bytes: bytes) -> float:
    header, row = csv_bytes.decode().splitlines()[:2]
    return float(dict(zip(header.split(","), row.split(",")))["offered"])


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("workdir")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="SPANS")
    parser.add_argument("--reference-seed", type=int)
    args = parser.parse_args()

    from aloha_noma import cli, protocol

    import workloads

    work = Path(args.workdir)
    work.mkdir(parents=True)
    os.chdir(work)
    steps = workloads.build(args.workload, args.seed)
    if args.reference_seed is not None:
        os.mkdir("reference")
        os.chdir("reference")
        reference_steps = workloads.build(args.workload, args.reference_seed)
        os.chdir("..")
    setup_s = time.monotonic() - float(os.environ["BENCH_SPAWN_MONOTONIC"])
    hostspeed.loop()  # the first call pays numpy's lazy set-up
    setup_loop_s = statistics.median(hostspeed.loop() for _ in range(3))
    setup = {"setup_s": hostspeed.scale(setup_s, setup_loop_s), "setup_unscaled_s": setup_s}
    if args.setup_only:
        print(json.dumps(setup))
        return

    import oracles
    from tracer import Tracer, rebind

    report: dict = {**setup, "failures": [], "reference_failures": []}
    attempted = 0

    if args.reference_seed is not None:
        os.chdir("reference")
        reference = run_pass(cli, reference_steps)
        os.chdir("..")
        attempted += len(reference)
        report["reference_digests"] = {
            s.name: r["digest"] for s, r in zip(reference_steps, reference)
        }
        report["reference_failures"] = [f"{s.name} (reference seed): {r['failure']}"
                                        for s, r in zip(reference_steps, reference) if r["failure"]]

    checker = oracles.FrameChecker()
    undo = rebind(protocol.run_frame, checker.wrap(protocol.run_frame))
    try:
        first = []
        for step in steps:
            checker.problems.clear()
            result = run_step(cli, step)
            result["frame_problems"] = list(checker.problems)
            first.append(result)
    finally:
        undo()
    attempted += len(first)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    timed: list[list[dict]] = []
    start = time.perf_counter()
    while not timed or (time.perf_counter() - start) * (len(timed) + 1) / len(timed) <= args.seconds:
        if tracer is not None:
            tracer.pass_index = len(timed) + 1
        timed.append(run_pass(cli, steps))
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace)
    attempted += sum(len(p) for p in timed)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = 0
    for k, (step, result) in enumerate(zip(steps, first)):
        if result["failure"]:
            problems = [result["failure"]]
        else:
            problems = result["frame_problems"][:3]
            try:
                problems += oracles.check(step, result["stdout"], result["csv"])
            except Exception:  # output the oracle cannot parse is a failed step
                problems.append(f"oracle could not read the output:\n{traceback.format_exc()}")
        failed += bool(problems)
        for n, later in enumerate(timed, 1):
            problem = later[k]["failure"] or (
                later[k]["digest"] != result["digest"] and "output differs from pass 0"
            )
            if problem:
                failed += 1
                problems.append(f"pass {n}: {problem}")
        report["failures"] += [f"{step.name}: {p}" for p in problems[:5]]
        result["ok"] = not problems

    units = {s.name: s.units if s.units is not None else offered_packets(r["csv"])
             for s, r in zip(steps, first) if s.rate and r["ok"]}
    rates: dict[str, float] = {}
    for rate in sorted({s.rate for s in steps if s.rate}):
        names = [s.name for s in steps if s.rate == rate]
        if all(n in units for n in names):
            per_pass = [sum(r["scaled"] for s, r in zip(steps, p) if s.rate == rate) for p in timed]
            rates[rate] = sum(units[n] for n in names) / statistics.median(per_pass)
    report.update(
        attempted=attempted,
        failed=failed + len(report["reference_failures"]),
        correct=not (report["failures"] or report["reference_failures"]),
        wall_s=statistics.median(sum(r["scaled"] for r in p) for p in timed),
        wall_unscaled_s=statistics.median(sum(r["seconds"] for r in p) for p in timed),
        loop_s=statistics.median(r["loop_s"] for p in timed for r in p),
        rates=rates,
        digests={s.name: r["digest"] for s, r in zip(steps, first)},
        csv_bytes=sum(len(r["csv"]) for r in first),
    )
    print(json.dumps(report))


if __name__ == "__main__":
    main()
