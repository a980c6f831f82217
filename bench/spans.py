"""Layer spans recorded from outside the program.

The traced child wraps, at run time, the module attribute through which each
layer is called (``acfl.harness.train``, ``acfl.dataset.eig_min_sym``, ...),
so ``src/`` carries no tracing code.  A span is ``(name, start, end, parent,
work)``; spans stay in a list until the run ends.  Because the child runs one
thread, spans nest, and a span's self time is its duration minus its
children's.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

ROOT = "cli.cli_main"

# (module, attribute path, span name).  The attribute is the one the caller
# looks up at call time, so replacing it routes every call through the span.
TARGETS = (
    ("acfl.cli", "load_config", "cli.load_config"),
    ("acfl.cli", "run_experiment", "harness.run_experiment"),
    ("acfl.cli", "compare_baselines", "harness.compare_baselines"),
    ("acfl.harness", "resolve_policy", "harness.resolve_policy"),
    ("acfl.harness", "summarize", "harness.summarize"),
    ("acfl.harness", "generate", "dataset.generate"),
    ("acfl.harness", "optimum", "dataset.optimum"),
    ("acfl.harness", "loss", "dataset.loss"),
    ("acfl.harness", "encode_local", "coding.encode_local"),
    ("acfl.harness", "aggregate_coded", "coding.aggregate_coded"),
    ("acfl.harness", "train", "training.train"),
    ("acfl.harness", "sigma_for_epsilon", "privacy.sigma_for_epsilon"),
    ("acfl.training", "sample_stragglers", "training.sample_stragglers"),
    ("acfl.training", "alpha_estimated", "training.alpha_estimated"),
    ("acfl.training", "aggregate", "training.aggregate"),
    ("acfl.dataset", "eig_min_sym", "numerics.eig_min_sym"),
    ("acfl.numerics", "RngStream.key_bytes", "numerics.key_bytes"),
)

# Work a call did, read from its result: training iterations per train call.
WORK = {"training.train": lambda trace: getattr(trace, "steps", 0)}

HARNESS_ENTRIES = ("harness.run_experiment", "harness.compare_baselines")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.absent: list[str] = []
        self._stack = [-1]

    def install(self) -> None:
        """Wrap every target; a target whose module or attribute is gone is absent."""
        for module_name, path, name in TARGETS:
            *owners, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owners:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            setattr(owner, attr, self.wrap(fn, name))

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, 0)
            if work is not None:
                spans[idx] = (name, start, end, parent, work(result))
            return result

        return traced


def analyse(spans) -> dict:
    """Per span name: calls, inclusive time, self time, durations and work.

    Also returns what shows whether the spans nest: the most negative self
    time, and how far the self times of all spans are from adding up to the
    root span, which is the traced ``wall_s``.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    self_sum = 0.0
    min_self = 0.0
    for i, (name, start, end, parent, work) in enumerate(spans):
        dur = end - start
        own = dur - child_time[i]
        self_sum += own
        min_self = min(min_self, own)
        agg = out.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0, "durations": []}
        )
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["self_s"] += own
        agg["work"] += work
        agg["durations"].append(dur)
    roots = [s for s in spans if s[3] < 0]
    if len(roots) != 1 or roots[0][0] != ROOT:
        raise ValueError(f"expected one {ROOT} root span, got {[s[0] for s in roots]}")
    wall = roots[0][2] - roots[0][1]
    return {
        "by_name": out,
        "wall_s": wall,
        "self_sum_error_s": abs(self_sum - wall),
        "min_self_s": min_self,
    }


def _get(by_name: dict, name: str, key: str):
    return by_name.get(name, {}).get(key, 0)


def layer_metrics(analysis: dict, wl) -> dict:
    """The per-layer metrics of one traced invocation (values only)."""
    b = analysis["by_name"]
    wall = analysis["wall_s"]
    train_s = _get(b, "training.train", "total_s")
    steps = _get(b, "training.train", "work")
    return {
        "numerics.rng_keys": _get(b, "numerics.key_bytes", "calls"),
        "numerics.rng_key_s": _get(b, "numerics.key_bytes", "total_s"),
        "numerics.eig_min_calls": _get(b, "numerics.eig_min_sym", "calls"),
        "numerics.eig_min_s": _get(b, "numerics.eig_min_sym", "total_s"),
        "dataset.generate_s": _get(b, "dataset.generate", "total_s"),
        "dataset.optimum_s": _get(b, "dataset.optimum", "total_s"),
        "dataset.loss_s": _get(b, "dataset.loss", "total_s"),
        "coding.encode_calls": _get(b, "coding.encode_local", "calls"),
        "coding.encode_s": _get(b, "coding.encode_local", "total_s"),
        "coding.aggregate_coded_s": _get(b, "coding.aggregate_coded", "total_s"),
        "coding.upload_bytes": wl.gram_bytes,
        "privacy.sigma_for_epsilon_calls": _get(b, "privacy.sigma_for_epsilon", "calls"),
        "training.train_calls": _get(b, "training.train", "calls"),
        "training.steps": steps,
        "training.step_us": train_s / steps * 1e6 if steps else 0.0,
        "training.mask_s": _get(b, "training.sample_stragglers", "total_s"),
        "training.alpha_estimated_s": _get(b, "training.alpha_estimated", "total_s"),
        "training.aggregate_s": _get(b, "training.aggregate", "total_s"),
        "training.self_s": _get(b, "training.train", "self_s"),
        "training.device_grads_per_s": wl.n_devices * steps / train_s if train_s else 0.0,
        "training.gram_bytes_per_step": wl.gram_bytes,
        "harness.resolve_policy_s": _get(b, "harness.resolve_policy", "total_s"),
        "harness.summarize_s": _get(b, "harness.summarize", "total_s"),
        "harness.self_s": sum(_get(b, n, "self_s") for n in HARNESS_ENTRIES),
        "cli.load_config_s": _get(b, "cli.load_config", "total_s"),
        "cli.self_s": _get(b, ROOT, "self_s"),
        "bench.traced_wall_s": wall,
    }


def shares(analysis: dict) -> dict:
    """Shares of the traced wall time the workloads were chosen for."""
    b = analysis["by_name"]
    wall = analysis["wall_s"]
    first_stage = sum(
        _get(b, n, "total_s")
        for n in (
            "dataset.generate",
            "dataset.optimum",
            "dataset.loss",
            "coding.encode_local",
            "coding.aggregate_coded",
        )
    )
    return {
        "training.train": _get(b, "training.train", "total_s") / wall,
        "dataset+coding": first_stage / wall,
        "harness.self": sum(_get(b, n, "self_s") for n in HARNESS_ENTRIES) / wall,
        "harness.resolve_policy": _get(b, "harness.resolve_policy", "total_s") / wall,
    }


def percentiles(values) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    out = {"p50": statistics.median(xs) if xs else None, "n": n, "p_high": None, "q": None,
           "samples": list(values)}
    if n > 20:  # below that the rank with ten samples above it is not above the median
        k = n - 10  # 1-based rank with ten samples above it
        out["p_high"] = xs[k - 1]
        out["q"] = round(100.0 * k / n, 1)
    return out
