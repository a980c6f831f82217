"""Experiment orchestration: config files, replicated runs, paired baselines,
and deterministic CSV artifacts.

Every replicate ``r`` derives its randomness from the master seed alone
(dataset from ``("dataset", r)``, the encoding noise of all devices as one
block from ``("encode", r)``, drawn once and scaled per noise level,
training masks and the initial iterate from ``("train", r)``), so two runs
of the same config produce byte-identical files however the replicates are
grouped, and two methods run on the same seed consume bit-identical
datasets, coding noise, and straggler draws.  Replicates train in groups,
one :func:`~acfl.training.train` call per group, in index order; a group
holds as many replicates as fit their summed Gram stacks in
:data:`GROUP_GRAM_BYTES`, and at least one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .coding import GlobalCodedData, NoiseParams, encode_levels
from .dataset import FederatedDataset, generate, loss, optimum
from .errors import NumericError, ParameterError
from .numerics import RngStream
from .privacy import sigma_for_epsilon
from .training import (
    AdaptiveEstimated,
    AdaptiveOracle,
    AggregationPolicy,
    Arm,
    FixedWeight,
    InverseDecay,
    TrainingTrace,
    schedule_for_strong_convexity,
    train,
)

__all__ = [
    "ComparisonResult",
    "ExperimentConfig",
    "OracleAuto",
    "ReplicateRecord",
    "RunResult",
    "compare_baselines",
    "load_config",
    "run_experiment",
    "save_config",
]

TRACE_HEADER = "replicate,t,alpha_t,n_present,loss,dist_sq,grad_norm_sq"
SUMMARY_HEADER = "t,mean_loss,stderr_loss,mean_dist_sq,stderr_dist_sq"
COMPARISON_HEADER = "noise_sigma_sq,method,seed,final_loss"
METHOD_ADAPTIVE = "acfl"
METHOD_BASELINE = "na"
# Per train call: the summed (n, d, d + o) Gram stacks of the replicates it
# advances together stay within this many bytes, unless one replicate alone
# exceeds it.
GROUP_GRAM_BYTES = 4 << 20


@dataclass(frozen=True)
class OracleAuto:
    """Oracle policy with constants left to a probe run.

    The probe trains once (replicate 0, norm-estimating weights) and sets
    ``beta_sq``/``c_sq`` to the largest observed device-gradient and iterate
    squared norms times ``margin``.  A heuristic: the realized norms of the
    oracle run itself are reported in its trace and should be re-checked.
    """

    margin: float = 2.0

    def __post_init__(self):
        if not self.margin >= 1.0:
            raise ParameterError(f"margin must be at least 1, got {self.margin}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: dataset shape, failure/noise model, policy, schedule."""

    n_devices: int
    m: int
    d: int
    o: int
    straggler_p: float
    noise: NoiseParams | None
    epsilon: float | None
    policy: AggregationPolicy | OracleAuto
    schedule: InverseDecay | None  # None: per-replicate 1/(lam t)
    steps: int
    master_seed: int
    replicates: int
    out_dir: str
    noise_levels: tuple[float, ...] = (0.1, 10.0)
    baseline: AggregationPolicy | OracleAuto = FixedWeight(0.5)

    def __post_init__(self):
        if self.n_devices < 1:
            raise ParameterError(f"dataset.n_devices: must be positive, got {self.n_devices}")
        if self.d < 1 or self.o < 1:
            raise ParameterError(f"dataset.d/dataset.o: must be positive, got {self.d}, {self.o}")
        if self.m <= self.d:
            raise ParameterError(f"dataset.m: need m > d, got m={self.m}, d={self.d}")
        if not 0.0 <= self.straggler_p < 1.0:
            raise ParameterError(f"straggler_p: must lie in [0, 1), got {self.straggler_p}")
        if (self.noise is None) == (self.epsilon is None):
            raise ParameterError("noise: give exactly one of (sigma1_sq, sigma2_sq) or epsilon")
        if self.epsilon is not None and not self.epsilon > 0:
            raise ParameterError(f"noise.epsilon: must be positive, got {self.epsilon}")
        if self.steps < 0:
            raise ParameterError(f"steps: must be nonnegative, got {self.steps}")
        if self.replicates < 1:
            raise ParameterError(f"replicates: must be positive, got {self.replicates}")
        if not self.out_dir:
            raise ParameterError("out_dir: must be a nonempty path")
        levels = coerce(self.noise_levels, list, "noise_levels")
        object.__setattr__(
            self,
            "noise_levels",
            tuple(coerce(x, float, f"noise_levels[{i}]") for i, x in enumerate(levels)),
        )
        for i, x in enumerate(self.noise_levels):
            if x < 0:
                raise ParameterError(f"noise_levels[{i}]: must be nonnegative, got {x}")
            if x in self.noise_levels[:i]:
                raise ParameterError(f"noise_levels[{i}]: repeats the level {x}")

    def resolved_noise(self) -> NoiseParams:
        if self.noise is not None:
            return self.noise
        return sigma_for_epsilon(self.epsilon, self.d, self.o)


def coerce(value, kind: type, path: str):
    """``value`` as ``kind``, or a :class:`ParameterError` naming the field ``path``.

    ``int`` and ``float`` convert; ``dict`` and ``list`` (a JSON object or
    array, which may also be given as a tuple) only check the type.
    """
    if kind is dict or kind is list:
        if isinstance(value, dict if kind is dict else (list, tuple)):
            return value
        raise ParameterError(
            f"{path}: expected {'an object' if kind is dict else 'a list'}, got {value!r}"
        )
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"{path}: expected {kind.__name__}, got {value!r}") from None


def _policy_from_dict(spec, path: str) -> AggregationPolicy | OracleAuto:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParameterError(f"{path}: expected an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "fixed":
        if "alpha" not in spec:
            raise ParameterError(f"{path}.alpha: missing")
        return FixedWeight(coerce(spec["alpha"], float, f"{path}.alpha"))
    if kind == "adaptive-estimated":
        return AdaptiveEstimated(
            coerce(spec.get("fallback_alpha", 1.0), float, f"{path}.fallback_alpha")
        )
    if kind == "adaptive-oracle":
        if "beta_sq" in spec and "c_sq" in spec:
            return AdaptiveOracle(
                coerce(spec["beta_sq"], float, f"{path}.beta_sq"),
                coerce(spec["c_sq"], float, f"{path}.c_sq"),
            )
        if "beta_sq" in spec or "c_sq" in spec:
            raise ParameterError(f"{path}: give both beta_sq and c_sq, or neither")
        return OracleAuto(coerce(spec.get("margin", 2.0), float, f"{path}.margin"))
    raise ParameterError(f"{path}.kind: unknown policy kind {kind!r}")


def _policy_to_dict(policy) -> dict:
    if isinstance(policy, FixedWeight):
        return {"kind": "fixed", "alpha": policy.alpha}
    if isinstance(policy, AdaptiveEstimated):
        return {"kind": "adaptive-estimated", "fallback_alpha": policy.fallback_alpha}
    if isinstance(policy, AdaptiveOracle):
        return {"kind": "adaptive-oracle", "beta_sq": policy.beta_sq, "c_sq": policy.c_sq}
    if isinstance(policy, OracleAuto):
        return {"kind": "adaptive-oracle", "margin": policy.margin}
    raise ParameterError(f"policy: unsupported policy object {policy!r}")


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate a config from its nested-dict form.

    Error messages name the offending field path (for example ``dataset.m``).
    """
    if not isinstance(raw, dict):
        raise ParameterError("config: expected a JSON object at top level")
    if "dataset" not in raw:
        raise ParameterError("dataset: missing")
    dataset = coerce(raw["dataset"], dict, "dataset")
    for key in ("n_devices", "m", "d", "o"):
        if key not in dataset:
            raise ParameterError(f"dataset.{key}: missing")
    noise_spec = raw.get("noise")
    if not isinstance(noise_spec, dict):
        raise ParameterError("noise: missing or not an object")
    if "epsilon" in noise_spec:
        noise, epsilon = None, coerce(noise_spec["epsilon"], float, "noise.epsilon")
    elif "sigma1_sq" in noise_spec and "sigma2_sq" in noise_spec:
        noise = NoiseParams(
            coerce(noise_spec["sigma1_sq"], float, "noise.sigma1_sq"),
            coerce(noise_spec["sigma2_sq"], float, "noise.sigma2_sq"),
        )
        epsilon = None
    else:
        raise ParameterError("noise: give sigma1_sq and sigma2_sq, or epsilon")
    schedule_spec = raw.get("schedule")
    if not isinstance(schedule_spec, dict) or "kind" not in schedule_spec:
        raise ParameterError("schedule: missing or lacks a 'kind' field")
    if schedule_spec["kind"] == "inverse":
        if "c" not in schedule_spec:
            raise ParameterError("schedule.c: missing")
        schedule = InverseDecay(coerce(schedule_spec["c"], float, "schedule.c"))
    elif schedule_spec["kind"] == "strong-convexity":
        schedule = None
    else:
        raise ParameterError(f"schedule.kind: unknown kind {schedule_spec['kind']!r}")
    for key in ("straggler_p", "policy", "steps", "master_seed", "replicates", "out_dir"):
        if key not in raw:
            raise ParameterError(f"{key}: missing")
    kwargs = {}
    if "noise_levels" in raw:
        kwargs["noise_levels"] = raw["noise_levels"]
    if "baseline" in raw:
        kwargs["baseline"] = _policy_from_dict(raw["baseline"], "baseline")
    return ExperimentConfig(
        n_devices=coerce(dataset["n_devices"], int, "dataset.n_devices"),
        m=coerce(dataset["m"], int, "dataset.m"),
        d=coerce(dataset["d"], int, "dataset.d"),
        o=coerce(dataset["o"], int, "dataset.o"),
        straggler_p=coerce(raw["straggler_p"], float, "straggler_p"),
        noise=noise,
        epsilon=epsilon,
        policy=_policy_from_dict(raw["policy"], "policy"),
        schedule=schedule,
        steps=coerce(raw["steps"], int, "steps"),
        master_seed=coerce(raw["master_seed"], int, "master_seed"),
        replicates=coerce(raw["replicates"], int, "replicates"),
        out_dir=str(raw["out_dir"]),
        **kwargs,
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Inverse of :func:`config_from_dict`; the round-trip is lossless."""
    if cfg.epsilon is not None:
        noise_spec = {"epsilon": cfg.epsilon}
    else:
        noise_spec = {"sigma1_sq": cfg.noise.sigma1_sq, "sigma2_sq": cfg.noise.sigma2_sq}
    if cfg.schedule is None:
        schedule_spec = {"kind": "strong-convexity"}
    else:
        schedule_spec = {"kind": "inverse", "c": cfg.schedule.c}
    return {
        "dataset": {"n_devices": cfg.n_devices, "m": cfg.m, "d": cfg.d, "o": cfg.o},
        "straggler_p": cfg.straggler_p,
        "noise": noise_spec,
        "policy": _policy_to_dict(cfg.policy),
        "schedule": schedule_spec,
        "steps": cfg.steps,
        "master_seed": cfg.master_seed,
        "replicates": cfg.replicates,
        "out_dir": cfg.out_dir,
        "noise_levels": list(cfg.noise_levels),
        "baseline": _policy_to_dict(cfg.baseline),
    }


def load_config(path) -> ExperimentConfig:
    """Read a JSON config file (schema documented in the README)."""
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise ParameterError(f"config: invalid JSON in {path}: {e}") from None
    return config_from_dict(raw)


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w", newline="") as f:
        json.dump(config_to_dict(cfg), f, indent=2, sort_keys=True)
        f.write("\n")


@dataclass(frozen=True, eq=False)
class ReplicateRecord:
    """One replicate's trace plus content digests for pairing checks."""

    replicate: int
    trace: TrainingTrace
    final_loss: float
    dataset_digest: str
    coded_digest: str

    @property
    def mask_digest(self) -> str:
        return self.trace.mask_digest


@dataclass(frozen=True, eq=False)
class RunResult:
    """All replicates of one experiment plus where the artifacts went."""

    config: ExperimentConfig
    policy: AggregationPolicy
    records: tuple[ReplicateRecord, ...]
    trace_path: Path
    summary_path: Path


@dataclass(frozen=True, eq=False)
class ComparisonResult:
    """Paired-seed comparison of the adaptive method against a baseline."""

    rows: tuple[tuple[float, str, int, float], ...]
    win_rates: dict[float, float]
    records: dict[tuple[float, str], tuple[ReplicateRecord, ...]]
    path: Path


def _dataset_digest(ds: FederatedDataset) -> str:
    """SHA-256 of the Gram stacks (all that training reads) and the true weights."""
    h = hashlib.sha256()
    h.update(ds.gram_x.tobytes())
    h.update(ds.gram_xy.tobytes())
    if ds.w_true is not None:
        h.update(ds.w_true.tobytes())
    return h.hexdigest()


def _coded_digest(gc: GlobalCodedData) -> str:
    h = hashlib.sha256()
    h.update(gc.h_x_sum.tobytes())
    h.update(gc.h_y_sum.tobytes())
    return h.hexdigest()


def _run_group(cfg: ExperimentConfig, arms, replicates: range) -> list[tuple[ReplicateRecord, ...]]:
    """Replicates ``replicates`` of every ``(noise, policy)`` arm, trained in one loop.

    Within a replicate the arms share the dataset, the straggler masks and
    the initial iterate; arms with equal noise share the coded sums.  One
    tuple of records per replicate, one record per arm, in order.
    """
    root = RngStream(cfg.master_seed)
    noises = list(dict.fromkeys(noise for noise, _ in arms))
    datasets, facts, coded = [], [], []
    for r in replicates:
        ds = generate(cfg.n_devices, cfg.m, cfg.d, cfg.o, root.child("dataset", r))
        datasets.append(ds)
        facts.append(optimum(ds))
        coded.append(dict(zip(noises, encode_levels(ds, noises, root.child("encode", r)))))
    traces = train(
        datasets,
        [[Arm(by_noise[noise], policy, noise) for noise, policy in arms] for by_noise in coded],
        cfg.straggler_p,
        cfg.steps,
        [cfg.schedule or schedule_for_strong_convexity(f.lam) for f in facts],
        [root.child("train", r) for r in replicates],
        facts,
    )
    records = []
    for r, ds, fact, by_noise, replicate_traces in zip(
        replicates, datasets, facts, coded, traces
    ):
        dataset_digest = _dataset_digest(ds)
        records.append(
            tuple(
                ReplicateRecord(
                    replicate=r,
                    trace=trace,
                    final_loss=loss(trace.final_w, ds, fact),
                    dataset_digest=dataset_digest,
                    coded_digest=_coded_digest(by_noise[noise]),
                )
                for (noise, _), trace in zip(arms, replicate_traces)
            )
        )
    return records


def _run_replicates(cfg: ExperimentConfig, arms) -> tuple[tuple[ReplicateRecord, ...], ...]:
    """Every replicate of every arm: one tuple of records per arm, by replicate."""
    gram_bytes = cfg.n_devices * cfg.d * (cfg.d + cfg.o) * 8
    size = max(1, GROUP_GRAM_BYTES // gram_bytes)
    per_replicate = [
        records
        for start in range(0, cfg.replicates, size)
        for records in _run_group(cfg, arms, range(start, min(start + size, cfg.replicates)))
    ]
    return tuple(zip(*per_replicate))


def _probe(cfg: ExperimentConfig, noises) -> tuple[ReplicateRecord, ...]:
    """Replicate 0 with norm-estimating weights at every noise, trained in one call."""
    if cfg.steps < 1:
        raise ParameterError("policy: auto oracle constants need steps >= 1 to probe")
    (records,) = _run_group(cfg, [(noise, AdaptiveEstimated(1.0)) for noise in noises], range(1))
    return records


def _concrete(policy, probe: ReplicateRecord | None) -> AggregationPolicy:
    """``policy`` itself, or an :class:`OracleAuto` one resolved from a probe record."""
    if not isinstance(policy, OracleAuto):
        return policy
    beta_sq = float(probe.trace.max_device_grad_sq.max()) * policy.margin
    c_sq = float(probe.trace.w_norm_sq.max()) * policy.margin
    if not (beta_sq > 0 and c_sq > 0):
        raise NumericError("probe run observed zero norms; supply oracle constants explicitly")
    return AdaptiveOracle(beta_sq, c_sq)


def resolve_policy(cfg: ExperimentConfig) -> AggregationPolicy:
    """Concrete policy for a config, probing for oracle constants if needed."""
    if not isinstance(cfg.policy, OracleAuto):
        return cfg.policy
    (probe,) = _probe(cfg, [cfg.resolved_noise()])
    return _concrete(cfg.policy, probe)


# Floats are written as ``repr`` of Python floats (``.tolist()`` values): the
# shortest string that reads back to the same double.  Rows are converted in
# blocks of this many, so the Python objects of one block are alive at a time.
CSV_BLOCK_ROWS = 1024


def _blocks(columns):
    """The rows of equal-length array ``columns`` as tuples of Python scalars, in blocks."""
    for lo in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        yield zip(*(column[lo : lo + CSV_BLOCK_ROWS].tolist() for column in columns))


def _write_trace(path: Path, records) -> None:
    with open(path, "w", newline="") as f:
        f.write(TRACE_HEADER + "\n")
        for rec in records:
            tr = rec.trace
            columns = (tr.t, tr.alpha, tr.n_present, tr.loss, tr.dist_sq, tr.grad_norm_sq)
            for rows in _blocks(columns):
                f.writelines(
                    f"{rec.replicate},{t},{alpha!r},{n},{loss_t!r},{dist_sq!r},{grad_sq!r}\n"
                    for t, alpha, n, loss_t, dist_sq, grad_sq in rows
                )


def summarize(records) -> np.ndarray:
    """Per-iteration aggregates across replicates.

    Returns an array of rows ``(t, mean_loss, stderr_loss, mean_dist_sq,
    stderr_dist_sq)``; the standard error is the ddof-1 standard deviation
    over replicates divided by ``sqrt(R)`` (zero when ``R == 1``).
    """
    losses = np.stack([rec.trace.loss for rec in records])
    dists = np.stack([rec.trace.dist_sq for rec in records])
    n_rep, steps = losses.shape
    out = np.zeros((steps, 5))
    out[:, 0] = np.arange(steps)
    out[:, 1] = losses.mean(axis=0)
    out[:, 3] = dists.mean(axis=0)
    if n_rep > 1:
        out[:, 2] = losses.std(axis=0, ddof=1) / np.sqrt(n_rep)
        out[:, 4] = dists.std(axis=0, ddof=1) / np.sqrt(n_rep)
    return out


def _write_summary(path: Path, records) -> None:
    summary = summarize(records)
    with open(path, "w", newline="") as f:
        f.write(SUMMARY_HEADER + "\n")
        for rows in _blocks(summary.T):
            f.writelines(
                f"{int(t)},{mean_loss!r},{se_loss!r},{mean_dist!r},{se_dist!r}\n"
                for t, mean_loss, se_loss, mean_dist, se_dist in rows
            )


def run_experiment(cfg: ExperimentConfig, *, workers: int = 1) -> RunResult:
    """Run all replicates and write ``trace.csv`` and ``summary.csv``.

    Identical configs produce byte-identical files.  ``workers`` is accepted
    for compatibility and has no effect: replicates advance together in
    groups instead (see the module docstring).
    """
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    policy = resolve_policy(cfg)
    (records,) = _run_replicates(cfg, [(cfg.resolved_noise(), policy)])
    trace_path = out_dir / "trace.csv"
    summary_path = out_dir / "summary.csv"
    _write_trace(trace_path, records)
    _write_summary(summary_path, records)
    return RunResult(cfg, policy, records, trace_path, summary_path)


def compare_baselines(
    cfg: ExperimentConfig,
    noise_levels=None,
    *,
    workers: int = 1,
) -> ComparisonResult:
    """Adaptive method vs. baseline on paired seeds, per noise level.

    For each common variance in ``noise_levels`` both methods run on the
    same replicate streams, so they see bit-identical datasets, coding
    noise, and straggler masks; only the aggregation weights differ.  Both
    ``cfg.policy`` and ``cfg.baseline`` run as given, except that an
    :class:`OracleAuto` one takes its constants, at each level and with its
    own margin, from one probe call that trains replicate 0 at every level.
    Every arm of a replicate (both methods at every level) trains in one loop,
    together with the other replicates of its group.  ``workers`` has no
    effect, as in :func:`run_experiment`.
    Writes ``comparison.csv`` and reports, per level, the fraction of seeds
    where the adaptive final loss does not exceed the baseline's.
    """
    if noise_levels is not None:
        cfg = replace(cfg, noise_levels=noise_levels)
    levels = cfg.noise_levels
    if len(levels) == 0:
        raise ParameterError("noise_levels: need at least one level")
    noises = [NoiseParams(level, level) for level in levels]
    probes = [None] * len(noises)
    if isinstance(cfg.policy, OracleAuto) or isinstance(cfg.baseline, OracleAuto):
        probes = _probe(cfg, noises)
    arms = []
    for noise, probe in zip(noises, probes):
        arms.append((noise, _concrete(cfg.policy, probe)))
        arms.append((noise, _concrete(cfg.baseline, probe)))
    per_arm = _run_replicates(cfg, arms)
    rows = []
    records: dict[tuple[float, str], tuple[ReplicateRecord, ...]] = {}
    win_rates: dict[float, float] = {}
    for i, level in enumerate(levels):
        recs_a, recs_b = per_arm[2 * i], per_arm[2 * i + 1]
        records[(level, METHOD_ADAPTIVE)] = recs_a
        records[(level, METHOD_BASELINE)] = recs_b
        for rec in recs_a:
            rows.append((level, METHOD_ADAPTIVE, rec.replicate, rec.final_loss))
        for rec in recs_b:
            rows.append((level, METHOD_BASELINE, rec.replicate, rec.final_loss))
        wins = sum(
            1 for a, b in zip(recs_a, recs_b) if a.final_loss <= b.final_loss
        )
        win_rates[level] = wins / len(recs_a)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "comparison.csv"
    with open(path, "w", newline="") as f:
        f.write(COMPARISON_HEADER + "\n")
        for level, method, seed, final_loss in rows:
            f.write(f"{level!r},{method},{seed},{final_loss!r}\n")
    return ComparisonResult(tuple(rows), win_rates, records, path)
