"""In-memory spans around calls into crnverify's layers.

A span is (name, start, end, parent, count): ``parent`` is the index of
the enclosing span or None, and ``count`` is an optional work count taken
from the call's result.  Spans stay in a list until the job ends, and a
layer's self time is its duration minus the part its child spans cover.

Each wrapper is installed where the calling module looks the function up.
``crnverify/__init__.py`` re-exports functions named ``transient`` and
``simulate``, so ``crnverify.transient`` resolves to a function and the
modules are taken from ``sys.modules`` instead.
"""

import functools
import sys
import time

import numpy as np


def _events(traj) -> int:
    return len(traj.times) - 1


# (module, attribute, span name, count of work done taken from the result)
WRAPS = (
    ("cli", "cmd_generate", "cli.generate", None),
    ("cli", "cmd_synth", "cli.synth", None),
    ("cli", "cmd_infer", "cli.infer", None),
    ("cli", "cmd_verify", "cli.verify", None),
    ("cli", "cmd_baseline", "cli.baseline", None),
    ("cli", "cmd_pipeline", "cli.pipeline", None),
    ("cli", "save_dataset", "cli.io", None),
    ("cli", "load_dataset", "cli.io", None),
    ("cli", "save_partition", "cli.io", None),
    ("cli", "load_partition", "cli.io", None),
    ("cli", "save_particles", "cli.io", None),
    ("cli", "load_particles", "cli.io", None),
    ("cli", "save_report", "cli.io", None),
    ("cli", "save_heatmap_grid", "synthesis.heatmap", None),
    ("cli", "synthesize", "synthesis.synth", None),
    ("verdict", "classify_points", "synthesis.classify_points", None),
    ("transient", "UntilEvaluator.probability", "transient.until", None),
    ("cli", "simulate", "simulate", _events),
    ("abcsmc", "simulate", "simulate", _events),
    ("monitor", "simulate", "simulate", _events),
    ("cli", "abcseq", "abcsmc.abcseq", None),
    ("verdict", "estimate_lambda", "monitor.estimate_lambda", None),
    ("cli", "probability", "verdict.probability", None),
    ("verdict", "slice_sample", "verdict.slice", len),
    ("cli", "bayes_smc", "verdict.bayes_smc", None),
)


class Tracer:
    """Records a span for every call to a wrapped function."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, fn, name, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, None)
            if count is not None:
                spans[sid] = (name, start, end, parent, count(result))
            return result

        return traced

    def install(self):
        for module, attr, name, count in WRAPS:
            owner = sys.modules[f"crnverify.{module}"]
            if "." in attr:  # a method, wrapped on its class
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def layers(self, job_s: float) -> dict[str, float]:
        """Per-layer totals, self times and counts of one job."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, int] = {}
        top = 0.0
        for i, (name, start, end, parent, count) in enumerate(spans):
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            calls[name] = calls.get(name, 0) + 1
            if count is not None:
                counts[name] = counts.get(name, 0) + count
            if parent is None:
                top += end - start
        until_ms = [1e3 * (e - s) for n, s, e, _, _ in spans if n == "transient.until"]
        t = total.get
        out = {
            "transient.until_calls": calls.get("transient.until", 0),
            "transient.until_s": t("transient.until", 0.0),
            "transient.until_ms_p50": float(np.percentile(until_ms, 50)) if until_ms else 0.0,
            "transient.until_ms_p90": float(np.percentile(until_ms, 90)) if until_ms else 0.0,
            "synthesis.synth_s": t("synthesis.synth", 0.0),
            "synthesis.self_s": self_s.get("synthesis.synth", 0.0),
            "synthesis.heatmap_s": t("synthesis.heatmap", 0.0),
            "synthesis.classify_points_s": t("synthesis.classify_points", 0.0),
            "simulate.calls": calls.get("simulate", 0),
            "simulate.events": counts.get("simulate", 0),
            "simulate.self_s": self_s.get("simulate", 0.0),
            "abcsmc.abcseq_s": t("abcsmc.abcseq", 0.0),
            "abcsmc.self_s": self_s.get("abcsmc.abcseq", 0.0),
            "monitor.estimate_lambda_s": t("monitor.estimate_lambda", 0.0),
            "monitor.self_s": self_s.get("monitor.estimate_lambda", 0.0),
            "verdict.probability_s": t("verdict.probability", 0.0),
            "verdict.slice_s": t("verdict.slice", 0.0),
            "verdict.bayes_smc_s": t("verdict.bayes_smc", 0.0),
            "cli.io_s": t("cli.io", 0.0),
            "cli.self_s": job_s - top,
        }
        for cmd in ("generate", "synth", "infer", "verify", "baseline", "pipeline"):
            out[f"cli.{cmd}_s"] = t(f"cli.{cmd}", 0.0)
        sim_s = out["simulate.self_s"]
        out["simulate.events_per_s"] = out["simulate.events"] / sim_s if sim_s else 0.0
        slice_s = out["verdict.slice_s"]
        out["verdict.slice_draws_per_s"] = counts.get("verdict.slice", 0) / slice_s if slice_s else 0.0
        return out
