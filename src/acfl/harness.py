"""Experiment orchestration: config files, replicated runs, paired baselines,
and deterministic CSV artifacts.

Every replicate ``r`` derives its randomness from the master seed alone
(dataset from ``("dataset", r)``, the summed encoding noise of all devices
as one ``(d, d + o)`` block from ``("encode", r)``, drawn once and scaled
per noise level, training masks and the initial iterate from ``("train",
r)``), so two runs of the same config produce byte-identical files however
the replicates are grouped, and two methods run on the same seed consume
bit-identical datasets, coding noise, and straggler draws.  Replicates
train in groups, one :func:`~acfl.training.train` call per group, in index
order; a group holds as many replicates as fit their summed Gram stacks in
:data:`GROUP_GRAM_BYTES`, and at least one.  A run keeps the traces
``train`` returns, final losses included; a trace's replicate is its
position.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .analysis import BoundInputs, tradeoff_curve
from .coding import NoiseParams, encode_levels
from .dataset import check_shape, generate
from .errors import NumericError, ParameterError, check
from .numerics import MAX_ENTRIES, RngStream
from .privacy import sigma_for_epsilon
from .training import (
    AdaptiveEstimated,
    AdaptiveOracle,
    AggregationPolicy,
    FixedWeight,
    InverseDecay,
    TrainingTrace,
    trace_bytes,
    train,
)

__all__ = [
    "ComparisonResult",
    "ExperimentConfig",
    "OracleAuto",
    "RunResult",
    "TradeoffConfig",
    "compare_baselines",
    "load_config",
    "load_tradeoff_config",
    "run_experiment",
    "write_tradeoff_curves",
]

TRACE_HEADER = "replicate,t,alpha_t,n_present,loss,dist_sq,grad_norm_sq"
SUMMARY_HEADER = "t,mean_loss,stderr_loss,mean_dist_sq,stderr_dist_sq"
COMPARISON_HEADER = "noise_sigma_sq,method,seed,final_loss"
TRADEOFF_HEADER = "sigma_sq,epsilon_nats,alpha,u,bound"
# The methods of a comparison, in ``comparison.csv``'s names: the adaptive
# ``policy``, then the ``baseline``.
METHODS = ("acfl", "na")
# Per train call: the summed (n, d, d + o) Gram stacks of the replicates it
# advances together stay within this many bytes, unless one replicate alone
# exceeds it.
GROUP_GRAM_BYTES = 4 << 20
# The trace columns each output reads (see ``training.train``): ``trace.csv``
# and ``summary.csv`` read these; ``comparison.csv`` reads the final iterates
# alone; an :class:`OracleAuto` probe reads the two norms it sets constants from.
RUN_COLUMNS = ("alpha", "loss", "dist_sq", "grad_norm_sq")
PROBE_COLUMNS = ("w_norm_sq", "max_device_grad_sq")
# The variances of a trade-off config that gives no ``sigma_grid``.
DEFAULT_SIGMA_GRID = tuple(np.geomspace(1e-2, 1e4, 49))


@dataclass(frozen=True)
class OracleAuto:
    """Oracle policy with constants left to a probe run.

    The probe trains once (replicate 0, norm-estimating weights) and sets
    ``beta_sq``/``c_sq`` to the largest observed device-gradient and iterate
    squared norms times ``margin``.  A heuristic: the realized norms of the
    oracle run itself should be re-checked, by training it again with the
    :data:`PROBE_COLUMNS` (a run's traces do not keep them).
    """

    margin: float = 2.0

    def __post_init__(self):
        if not self.margin >= 1.0:
            raise ParameterError(f"margin: must be at least 1, got {self.margin}")
        if self.margin == math.inf:
            raise ParameterError(f"margin: must be finite, got {self.margin}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: dataset shape, failure/noise model, policy, schedule."""

    n_devices: int
    m: int
    d: int
    o: int
    straggler_p: float
    noise: NoiseParams
    policy: AggregationPolicy | OracleAuto
    schedule: InverseDecay | None  # None: per-replicate 1/(lam t)
    steps: int
    master_seed: int
    replicates: int
    out_dir: str
    noise_levels: tuple[float, ...] = (0.1, 10.0)
    baseline: AggregationPolicy | OracleAuto = FixedWeight(0.5)

    def __post_init__(self):
        check_shape(self.n_devices, self.m, self.d, self.o)
        check("straggler_p", self.straggler_p, "lie in [0, 1)")
        if not isinstance(self.noise, NoiseParams):
            raise ParameterError(f"noise: expected NoiseParams, got {self.noise!r}")
        check("steps", self.steps, "be nonnegative")
        check("replicates", self.replicates, "be positive")
        if not coerce(self.out_dir, str, "out_dir"):
            raise ParameterError("out_dir: must be a nonempty path")
        levels = coerce(self.noise_levels, list, "noise_levels")
        object.__setattr__(
            self,
            "noise_levels",
            tuple(coerce(x, float, f"noise_levels[{i}]") for i, x in enumerate(levels)),
        )
        for i, x in enumerate(self.noise_levels):
            check(f"noise_levels[{i}]", x, "be finite and nonnegative")
            if x in self.noise_levels[:i]:
                raise ParameterError(f"noise_levels[{i}]: repeats the level {x}")


_JSON_TYPES = {dict: (dict, "an object"), list: ((list, tuple), "a list"), str: (str, "a string")}


def coerce(value, kind: type, path: str):
    """``value`` as ``kind``, or a :class:`ParameterError` naming the field ``path``.

    ``int`` and ``float`` convert, but refuse a boolean, and ``int`` refuses
    a number with a fractional part rather than truncating it (``1000.0``
    passes); a ``float`` must be finite (JSON configs may spell ``NaN`` and
    ``Infinity``).  ``dict``, ``list`` (a JSON object or array, which may
    also be given as a tuple) and ``str`` only check the type.
    """
    if kind in _JSON_TYPES:
        types, name = _JSON_TYPES[kind]
        if isinstance(value, types):
            return value
        raise ParameterError(f"{path}: expected {name}, got {value!r}")
    try:
        if isinstance(value, bool) or (
            kind is int and isinstance(value, float) and not value.is_integer()
        ):
            raise TypeError
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"{path}: expected {kind.__name__}, got {value!r}") from None
    if kind is float and not math.isfinite(out):
        raise ParameterError(f"{path}: must be a finite number, got {value!r}")
    return out


_REQUIRED = object()


class _Fields:
    """The fields of one JSON object at ``path`` (empty for a whole config).

    A key the file gives twice is ``<path>: repeated field``, not its last
    value.  :meth:`read` takes each field at most once: a present one goes
    through :func:`coerce`, or ``kind(value, path)`` for a parser, or is taken
    as it is for ``kind`` None; an absent one takes ``default``, and without
    one is ``<path>: missing``.  Leaving the ``with`` block refuses a field
    left unread, and prefixes ``path`` onto a :class:`ParameterError` raised
    inside it that names one of the object's keys first, as the library types'
    range checks (``alpha: must lie in [0, 1], ...``) do.
    """

    def __init__(self, raw, path: str = ""):
        self.left = dict(coerce(raw, dict, path or "config"))
        self.keys = tuple(self.left)
        self.prefix = f"{path}." if path else ""
        if getattr(raw, "repeated", None) is not None:
            raise ParameterError(f"{self.prefix}{raw.repeated}: repeated field")

    def __enter__(self):
        return self

    def __exit__(self, kind, error, _):
        if error is None and self.left:
            raise ParameterError(f"{self.prefix}{next(iter(self.left))}: unknown field")
        if self.prefix and isinstance(error, ParameterError):
            if str(error).partition(":")[0] in self.keys:
                raise ParameterError(self.prefix + str(error)) from None

    def read(self, key: str, kind=None, default=_REQUIRED):
        path = self.prefix + key
        if key not in self.left:
            if default is _REQUIRED:
                raise ParameterError(f"{path}: missing")
            return default
        value = self.left.pop(key)
        if kind in (int, float, *_JSON_TYPES):
            return coerce(value, kind, path)
        return value if kind is None else kind(value, path)


def _policy(spec, path: str) -> AggregationPolicy | OracleAuto:
    with _Fields(spec, path) as fields:
        kind = fields.read("kind")
        if kind == "fixed":
            return FixedWeight(fields.read("alpha", float))
        if kind == "adaptive-estimated":
            default = AdaptiveEstimated.fallback_alpha
            return AdaptiveEstimated(fields.read("fallback_alpha", float, default))
        if kind == "adaptive-oracle" and ("beta_sq" in fields.left or "c_sq" in fields.left):
            return AdaptiveOracle(fields.read("beta_sq", float), fields.read("c_sq", float))
        if kind == "adaptive-oracle":
            return OracleAuto(fields.read("margin", float, OracleAuto.margin))
        raise ParameterError(f"{path}.kind: unknown policy kind {kind!r}")


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate a config from its nested-dict form.

    Error messages name the offending field path (for example ``dataset.m``).
    An epsilon ``noise`` is calibrated here, at the dataset's ``d`` and ``o``.
    """
    with _Fields(raw) as top:
        with top.read("dataset", _Fields) as dataset:
            shape = {key: dataset.read(key, int) for key in ("n_devices", "m", "d", "o")}
            check_shape(**shape)
        with top.read("noise", _Fields) as noise:
            if "epsilon" in noise.left:
                variances = sigma_for_epsilon(noise.read("epsilon", float), shape["d"], shape["o"])
            else:
                variances = NoiseParams(
                    noise.read("sigma1_sq", float), noise.read("sigma2_sq", float)
                )
        with top.read("schedule", _Fields) as schedule:
            kind = schedule.read("kind")
            if kind not in ("inverse", "strong-convexity"):
                raise ParameterError(f"schedule.kind: unknown kind {kind!r}")
            decay = InverseDecay(schedule.read("c", float)) if kind == "inverse" else None
        return ExperimentConfig(
            **shape,
            straggler_p=top.read("straggler_p", float),
            noise=variances,
            policy=top.read("policy", _policy),
            schedule=decay,
            steps=top.read("steps", int),
            master_seed=top.read("master_seed", int),
            replicates=top.read("replicates", int),
            out_dir=top.read("out_dir"),
            noise_levels=top.read("noise_levels", None, ExperimentConfig.noise_levels),
            baseline=top.read("baseline", _policy, ExperimentConfig.baseline),
        )


class _Object(dict):
    """A JSON object, and as ``repeated`` the first key its text gives twice, if any."""


def _object(pairs) -> _Object:
    obj = _Object(pairs)
    if len(obj) < len(pairs):
        obj.repeated = next(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
    return obj


def _read_json(path):
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f, object_pairs_hook=_object)
        except json.JSONDecodeError as e:
            raise ParameterError(f"config: invalid JSON in {path}: {e}") from None
        except UnicodeDecodeError as e:
            raise ParameterError(f"config: {path} is not UTF-8 text: {e}") from None
        except ValueError as e:  # an integer literal past the int-from-string digit limit
            raise ParameterError(f"config: invalid number in {path}: {e}") from None
        except RecursionError:
            raise ParameterError(f"config: JSON in {path} is nested too deeply") from None


def load_config(path) -> ExperimentConfig:
    """Read a JSON config file (schema documented in the README)."""
    return config_from_dict(_read_json(path))


@dataclass(frozen=True)
class TradeoffConfig:
    """A parsed ``tradeoff`` config.

    ``base`` holds the bound inputs with both variances 0.0, which
    :func:`~acfl.analysis.tradeoff_curve` checks and sets at every grid
    point; ``curves`` holds one ``(name, alpha)`` per curve, ``alpha`` None
    for the adaptive weight.
    """

    base: BoundInputs
    sigma_grid: list[float]
    curves: list[tuple[str, float | None]]
    out_dir: Path


def load_tradeoff_config(path) -> TradeoffConfig:
    """Read a ``tradeoff`` JSON config file (schema documented in the README)."""
    with _Fields(_read_json(path)) as top:
        numbers = [("p", float), ("n_devices", int), ("beta_sq", float), ("c_sq", float),
                   ("d", int), ("o", int), ("lambda", float), ("steps", int)]
        bound = {key: top.read(key, kind) for key, kind in numbers}
        bound["lam"] = bound.pop("lambda")
        base = BoundInputs(**bound, sigma1_sq=0.0, sigma2_sq=0.0)
        grid = [
            coerce(x, float, f"sigma_grid[{i}]")
            for i, x in enumerate(top.read("sigma_grid", list, DEFAULT_SIGMA_GRID))
        ]
        policies = top.read("policies", list, [{"kind": "adaptive"}])
        if not policies:
            raise ParameterError("policies: need at least one policy")
        curves = []
        for i, spec in enumerate(policies):
            with _Fields(spec, f"policies[{i}]") as fields:
                kind = fields.read("kind")
                if kind == "adaptive":
                    curve = ("adaptive", None)
                elif kind == "fixed":
                    alpha = FixedWeight(fields.read("alpha", float)).alpha
                    curve = (f"fixed_{alpha:g}", alpha)
                else:
                    raise ParameterError(f"policies[{i}].kind: unknown kind {kind!r}")
            if curve[0] in (name for name, _ in curves):  # its file would overwrite the other's
                raise ParameterError(f"policies[{i}]: repeats the curve name {curve[0]!r}")
            curves.append(curve)
        out_dir = top.read("out_dir", str)
        if not out_dir:
            raise ParameterError("out_dir: must be a nonempty path")
        return TradeoffConfig(base, grid, curves, Path(out_dir))


@dataclass(frozen=True, eq=False)
class RunResult:
    """One experiment's traces, by replicate, and where the artifacts went."""

    config: ExperimentConfig
    policy: AggregationPolicy
    records: tuple[TrainingTrace, ...]
    trace_path: Path
    summary_path: Path


@dataclass(frozen=True, eq=False)
class ComparisonResult:
    """Paired-seed comparison of the adaptive method against a baseline; its
    ``records`` hold each ``(level, method)``'s traces, by replicate."""

    rows: tuple[tuple[float, str, int, float], ...]
    win_rates: dict[float, float]
    records: dict[tuple[float, str], tuple[TrainingTrace, ...]]
    path: Path


def _run_group(
    cfg: ExperimentConfig, arms, replicates: range, columns
) -> tuple[tuple[TrainingTrace, ...], ...]:
    """Replicates ``replicates`` of every ``(noise, policy)`` arm, trained in one loop.

    Within a replicate the arms share the dataset, the straggler masks, the
    initial iterate and the one draw of coding noise, so arms with equal
    noise get bit-equal coded sums.  One tuple of traces per replicate, one
    per arm, in order, holding the trace ``columns`` (see ``train``).
    """
    root = RngStream(cfg.master_seed)
    noises = [noise for noise, _ in arms]
    datasets = [
        generate(cfg.n_devices, cfg.m, cfg.d, cfg.o, root.child("dataset", r)) for r in replicates
    ]
    return train(
        datasets,
        [encode_levels(ds, noises, root.child("encode", r)) for ds, r in zip(datasets, replicates)],
        [policy for _, policy in arms],
        cfg.straggler_p,
        cfg.steps,
        cfg.schedule,
        [root.child("train", r) for r in replicates],
        columns=columns,
    )


def _run_replicates(
    cfg: ExperimentConfig, arms, columns
) -> tuple[tuple[TrainingTrace, ...], ...]:
    """Every replicate of every arm: one tuple of traces per arm, by replicate,
    holding the trace ``columns``.

    Before any group trains, refuses a run whose traces (``replicates``
    times :func:`~acfl.training.trace_bytes`, all alive until the CSVs are
    written) exceed physical memory, unless one replicate's alone do: its
    group then refuses them, naming the steps or the shape, or numpy cannot
    allocate them.  Where ``os.sysconf`` cannot tell the memory, the bound
    is the most bytes an array can hold.
    """
    one = trace_bytes(len(arms), cfg.steps, cfg.d, cfg.o, columns)
    kept = cfg.replicates * one
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        memory = -1
    memory = memory if memory > 0 else MAX_ENTRIES * 8
    if one <= memory < kept:
        raise ParameterError(
            f"replicates={cfg.replicates}: the records of the run: {kept} "
            f"bytes, more than fit in memory ({memory} bytes)"
        )
    size = max(1, GROUP_GRAM_BYTES // (cfg.n_devices * cfg.d * (cfg.d + cfg.o) * 8))
    per_replicate = [
        traces
        for start in range(0, cfg.replicates, size)
        for traces in _run_group(
            cfg, arms, range(start, min(start + size, cfg.replicates)), columns
        )
    ]
    return tuple(zip(*per_replicate))


def resolve_policy(
    cfg: ExperimentConfig, noises, specs
) -> list[tuple[NoiseParams, AggregationPolicy]]:
    """The arms ``(noise, policy)`` of every spec at every noise, by noise, then by spec.

    A spec runs as given, except that an :class:`OracleAuto` one takes its
    constants, at its noise and with its own margin, from one probe call
    that trains replicate 0 with norm-estimating weights at every noise.
    """
    probes = [None] * len(noises)
    if any(isinstance(spec, OracleAuto) for spec in specs):
        if cfg.steps < 1:
            raise ParameterError("steps: auto oracle constants need steps >= 1 to probe")
        probe_arms = [(noise, AdaptiveEstimated(1.0)) for noise in noises]
        (probes,) = _run_group(cfg, probe_arms, range(1), PROBE_COLUMNS)
    arms = []
    for noise, probe in zip(noises, probes):
        for policy in specs:
            if isinstance(policy, OracleAuto):
                beta_sq = float(probe.max_device_grad_sq.max()) * policy.margin
                c_sq = float(probe.w_norm_sq.max()) * policy.margin
                if math.inf in (beta_sq, c_sq):
                    raise ParameterError(f"margin: {policy.margin} times a probed norm overflows")
                if not (beta_sq > 0 and c_sq > 0):
                    raise NumericError(
                        "probe run observed zero norms; supply oracle constants explicitly"
                    )
                policy = AdaptiveOracle(beta_sq, c_sq)
            arms.append((noise, policy))
    return arms


# Cells are written with ``%s``, as ``str`` of Python scalars (``.tolist()``
# values), so a float is the shortest string that reads back to the same
# double; ``%`` formats a row as fast as an f-string, ``str.format`` slower.
# Rows are converted in blocks of this many, so the Python objects of one
# block are alive at a time.
CSV_BLOCK_ROWS = 1024


def _constant_cell(column: np.ndarray) -> str | None:
    """The cell of a numeric column of 8-byte entries that are all bitwise
    identical (so ``0.0`` and ``-0.0`` differ, and NaN goes by its bits), else
    ``None``."""
    if not len(column) or column.dtype.itemsize != 8 or column.dtype.kind not in "fiu":
        return None
    bits = column.view(np.uint64)
    if (bits != bits[0]).any():
        return None
    return "%s" % column[0].item()


def _write_csv(path: Path, header: str, tables) -> None:
    """Write ``header``, then the rows of every table, each a sequence of
    equal-length array columns, to ``path``.  A column of one repeated value
    is formatted once, into the row template."""
    with open(path, "w", newline="") as f:
        f.write(header + "\n")
        for columns in tables:
            rows = len(columns[0])
            cells = [_constant_cell(column) for column in columns]
            line = ",".join("%s" if cell is None else cell for cell in cells) + "\n"
            varying = [column for column, cell in zip(columns, cells) if cell is None]
            for lo in range(0, rows, CSV_BLOCK_ROWS):
                block = [column[lo : lo + CSV_BLOCK_ROWS].tolist() for column in varying]
                if block:
                    f.writelines(line % row for row in zip(*block))
                else:
                    f.write(line * min(CSV_BLOCK_ROWS, rows - lo))


def summarize(records) -> np.ndarray:
    """Per-iteration aggregates across replicates.

    Returns an array whose row ``t`` is ``(mean_loss, stderr_loss,
    mean_dist_sq, stderr_dist_sq)`` at iteration ``t``; the standard error
    is the ddof-1 standard deviation over replicates divided by ``sqrt(R)``
    (zero when ``R == 1``).
    """
    losses = np.stack([tr.loss for tr in records])
    dists = np.stack([tr.dist_sq for tr in records])
    n_rep, steps = losses.shape
    out = np.zeros((steps, 4))
    out[:, 0] = losses.mean(axis=0)
    out[:, 2] = dists.mean(axis=0)
    if n_rep > 1:
        out[:, 1] = losses.std(axis=0, ddof=1) / np.sqrt(n_rep)
        out[:, 3] = dists.std(axis=0, ddof=1) / np.sqrt(n_rep)
    return out


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Run all replicates and write ``trace.csv`` and ``summary.csv``.

    The policy is resolved at the config's noise by :func:`resolve_policy`.
    Identical configs produce byte-identical files; replicates advance
    together in groups (see the module docstring).  ``out_dir`` is created
    after training, so a refused config leaves none.
    """
    [(noise, policy)] = resolve_policy(cfg, [cfg.noise], [cfg.policy])
    (records,) = _run_replicates(cfg, [(noise, policy)], RUN_COLUMNS)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "trace.csv"
    summary_path = out_dir / "summary.csv"
    tables = []
    for r, tr in enumerate(records):
        index = (np.full(tr.steps, r), np.arange(tr.steps))
        tables.append((*index, tr.alpha, tr.n_present, tr.loss, tr.dist_sq, tr.grad_norm_sq))
    _write_csv(trace_path, TRACE_HEADER, tables)
    summary = summarize(records)
    _write_csv(summary_path, SUMMARY_HEADER, [(np.arange(len(summary)), *summary.T)])
    return RunResult(cfg, policy, records, trace_path, summary_path)


def write_tradeoff_curves(cfg: TradeoffConfig) -> list[Path]:
    """Write each curve of ``cfg`` to ``tradeoff_<name>.csv`` in its ``out_dir``;
    returns the paths, in the curves' order.  Every curve is computed before
    anything is written."""
    curves = {
        cfg.out_dir / f"tradeoff_{name}.csv": tradeoff_curve(cfg.base, cfg.sigma_grid, alpha)
        for name, alpha in cfg.curves
    }
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    for path, points in curves.items():
        _write_csv(path, TRADEOFF_HEADER, [np.array([astuple(pt) for pt in points]).T])
    return list(curves)


def compare_baselines(cfg: ExperimentConfig) -> ComparisonResult:
    """Adaptive method vs. baseline on paired seeds, per noise level.

    For each common variance in ``cfg.noise_levels`` both methods run on the
    same replicate streams, so they see bit-identical datasets, coding
    noise, and straggler masks; only the aggregation weights differ.  The
    methods of :data:`METHODS` are ``cfg.policy`` and ``cfg.baseline``, whose
    arms at every level :func:`resolve_policy` gives, with at most one probe.
    Every arm of a replicate (both methods at every level) trains in one loop,
    together with the other replicates of its group.
    Writes ``comparison.csv`` and reports, per level, the fraction of seeds
    where the adaptive final loss does not exceed the baseline's.  Training
    records no trace column, so the traces hold each arm's final iterate
    and loss, and each replicate's ``n_present`` and ``w0``.
    """
    levels = cfg.noise_levels
    if len(levels) == 0:
        raise ParameterError("noise_levels: need at least one level")
    noises = [NoiseParams(level, level) for level in levels]
    per_arm = _run_replicates(cfg, resolve_policy(cfg, noises, [cfg.policy, cfg.baseline]), ())
    keys = [(level, method) for level in levels for method in METHODS]
    records: dict[tuple[float, str], tuple[TrainingTrace, ...]] = dict(zip(keys, per_arm))
    rows = [
        (level, method, r, tr.final_loss)
        for (level, method), traces in records.items()
        for r, tr in enumerate(traces)
    ]
    win_rates: dict[float, float] = {}
    for level in levels:
        adaptive, baseline = (records[(level, method)] for method in METHODS)
        wins = sum(1 for a, b in zip(adaptive, baseline) if a.final_loss <= b.final_loss)
        win_rates[level] = wins / len(adaptive)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "comparison.csv"
    _write_csv(path, COMPARISON_HEADER, [[np.array(column) for column in zip(*rows)]])
    return ComparisonResult(tuple(rows), win_rates, records, path)
