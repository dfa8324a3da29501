"""Span tracing of the layers' public functions, installed from outside.

The package binds several functions by ``from ... import`` (``protocol``
holds its own ``resolve_sic``, ``simulate_estimation_round`` and
``half_width``; ``simcore`` holds ``half_width``), so a function is traced by
replacing every module attribute of ``aloha_noma`` that refers to it, not
only the one in its defining module.

Spans (pass, name, parent, start, end, info) are kept in memory and written
as JSON lines when the run ends; ``derive`` turns them into per-layer
metrics, one value per pass.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable


def rebind(func: Callable, replacement: Callable) -> Callable[[], None]:
    """Point every ``aloha_noma`` module attribute bound to ``func`` at
    ``replacement``; returns a function that undoes it."""
    bound = [
        (module, attr)
        for name, module in list(sys.modules.items())
        if name == "aloha_noma" or name.startswith("aloha_noma.")
        for attr, value in list(vars(module).items())
        if value is func
    ]
    for module, attr in bound:
        setattr(module, attr, replacement)

    def undo() -> None:
        for module, attr in bound:
            setattr(module, attr, func)

    return undo


def _traffic_info(args, kwargs, result) -> dict:
    return {"packets": len(result)}


def _sic_info(args, kwargs, result) -> dict:
    return {"packets": len(result), "ok": result.count(True), "mode": args[1].mode.value}


def _monte_carlo_info(args, kwargs, result) -> dict:
    return {"tests": result.trials * args[1].m}


def _round_info(args, kwargs, result) -> dict:
    return {"tests": args[1].m}


def _frame_info(args, kwargs, result) -> dict:
    return {"acked": len(result.acked_device_ids), "detected": len(result.detected_device_ids)}


# (module, function, info taken from the call's arguments and result)
TRACED = (
    ("cli", "main", None),
    ("analytic", "max_throughput", None),
    ("analytic", "throughput_derivative", None),
    ("analytic", "throughput", None),
    ("analytic", "throughput_curve", None),
    ("simcore", "generate_traffic", _traffic_info),
    ("simcore", "resolve_sic", _sic_info),
    ("simcore", "run_simulation", None),
    ("estimator", "monte_carlo_estimation", _monte_carlo_info),
    ("estimator", "simulate_estimation_round", _round_info),
    ("protocol", "run_frame", _frame_info),
    ("protocol", "run_session", None),
    ("stats", "half_width", None),
)


class Tracer:
    """Records one span per call of each traced function."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.pass_index = 0
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def _wrap(self, name: str, func: Callable, info: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [self.pass_index, name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span[4] = clock()
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[4] = clock()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, info in TRACED:
            func = getattr(importlib.import_module(f"aloha_noma.{module_name}"), attr)
            self._undo.append(rebind(func, self._wrap(f"{module_name}.{attr}", func, info)))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (pass_index, name, parent, start, end, info) in enumerate(self.spans):
                record = {"id": index, "pass": pass_index, "name": name, "parent": parent,
                          "start": start, "end": end}
                if info:
                    record.update(info)
                fh.write(json.dumps(record) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pass_metrics(spans: list[dict]) -> dict[str, float]:
    by_id = {s["id"]: s for s in spans}
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    for s in spans:
        duration = s["end"] - s["start"]
        calls[s["name"]] += 1
        busy[s["name"]] += duration
        own[s["name"]] += duration
        if s["parent"] in by_id:
            own[by_id[s["parent"]]["name"]] -= duration
        for key in ("packets", "ok", "tests", "acked", "detected"):
            if key in s:
                total[f"{s['name']}.{key}"] += s[key]
        if s["name"] == "simcore.resolve_sic":
            busy[f"simcore.resolve_{s['mode'].split('_')[0]}"] += duration
            total[f"sic.{s['mode']}.packets"] += s["packets"]
            total[f"sic.{s['mode']}.ok"] += s["ok"]
        if s.get("error") == "BracketingError":
            total["bracketing_errors"] += 1
    return {
        "analytic.max_throughput.calls": calls["analytic.max_throughput"],
        "analytic.max_throughput.busy_s": busy["analytic.max_throughput"],
        "analytic.throughput_derivative.calls": calls["analytic.throughput_derivative"],
        "analytic.deriv_evals_per_degree": _ratio(
            calls["analytic.throughput_derivative"], calls["analytic.max_throughput"]
        ),
        "analytic.throughput.calls": calls["analytic.throughput"],
        "analytic.throughput.busy_s": busy["analytic.throughput"],
        "analytic.throughput_curve.busy_s": busy["analytic.throughput_curve"],
        "analytic.bracketing_errors": total["bracketing_errors"],
        "simcore.generate_traffic.busy_s": busy["simcore.generate_traffic"],
        "simcore.generate_traffic.packets": total["simcore.generate_traffic.packets"],
        "simcore.resolve_sic.calls": calls["simcore.resolve_sic"],
        "simcore.resolve_sic.packets_per_call": _ratio(
            total["simcore.resolve_sic.packets"], calls["simcore.resolve_sic"]
        ),
        "simcore.resolve_ideal.busy_s": busy["simcore.resolve_ideal"],
        "simcore.resolve_power.busy_s": busy["simcore.resolve_power"],
        "simcore.run_simulation.self_s": own["simcore.run_simulation"],
        "simcore.success_ratio.ideal": _ratio(total["sic.ideal.ok"], total["sic.ideal.packets"]),
        "simcore.success_ratio.power": _ratio(
            total["sic.power_aware.ok"], total["sic.power_aware.packets"]
        ),
        "estimator.monte_carlo_estimation.calls": calls["estimator.monte_carlo_estimation"],
        "estimator.monte_carlo_estimation.busy_s": busy["estimator.monte_carlo_estimation"],
        "estimator.hypothesis_tests": total["estimator.monte_carlo_estimation.tests"]
        + total["estimator.simulate_estimation_round.tests"],
        "estimator.simulate_estimation_round.calls": calls["estimator.simulate_estimation_round"],
        "estimator.simulate_estimation_round.busy_s": busy["estimator.simulate_estimation_round"],
        "protocol.run_frame.calls": calls["protocol.run_frame"],
        "protocol.run_frame.self_s": own["protocol.run_frame"],
        "protocol.run_session.self_s": own["protocol.run_session"],
        "protocol.ack_ratio": _ratio(
            total["protocol.run_frame.acked"], total["protocol.run_frame.detected"]
        ),
        "stats.half_width.calls": calls["stats.half_width"],
        "stats.half_width.busy_s": busy["stats.half_width"],
        "cli.main.self_s": own["cli.main"],
    }


def derive(path: str) -> dict[str, float]:
    """Per-layer metrics from a span file: each metric's median over passes."""
    passes: dict[int, list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            passes[span["pass"]].append(span)
    per_pass = [_pass_metrics(spans) for _, spans in sorted(passes.items())]
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
