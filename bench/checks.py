"""Artifact checks: what one invocation wrote must be a plausible, complete result.

The checks pin no values from any commit.  They check structure (row counts,
the ``t`` sequence, ranges, finiteness), the direction of the loss curve, and,
on a comparison, the paper's claim that the adaptive method ends no worse
than the baseline at high noise.  Each check fails only the replicates it
covers, so ``failed / attempted`` is the share of replicates lost.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from workloads import COMPARE_METHODS

TRACE_HEADER = ["replicate", "t", "alpha_t", "n_present", "loss", "dist_sq", "grad_norm_sq"]
SUMMARY_HEADER = ["t", "mean_loss", "stderr_loss", "mean_dist_sq", "stderr_dist_sq"]
COMPARISON_HEADER = ["noise_sigma_sq", "method", "seed", "final_loss"]


def _finite(text: str) -> float | None:
    try:
        x = float(text)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def _read(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: header is not {','.join(header)}")
    return rows[1:]


def replicate_ids(wl) -> list:
    """Identifiers of the replicates one invocation attempts."""
    if wl.command == "compare":
        return [
            (level, method, r)
            for level in wl.noise_levels
            for method in COMPARE_METHODS
            for r in range(wl.replicates)
        ]
    return list(range(wl.replicates))


def check_artifacts(wl, out_dir: Path) -> tuple[set, list[str]]:
    """Replicates whose artifacts fail a check, with one message per failure."""
    everything = set(replicate_ids(wl))
    missing = [name for name in wl.artifacts if not (out_dir / name).is_file()]
    if missing:
        return everything, [f"missing artifact {name}" for name in missing]
    try:
        if wl.command == "compare":
            return _check_comparison(wl, out_dir)
        return _check_run(wl, out_dir)
    except ValueError as e:
        return everything, [str(e)]


def _check_run(wl, out_dir: Path) -> tuple[set, list[str]]:
    failed: set = set()
    messages: list[str] = []
    by_rep: dict[int, list[list[str]]] = {r: [] for r in range(wl.replicates)}
    for row in _read(out_dir / "trace.csv", TRACE_HEADER):
        rep = row[0] if row else ""
        if len(row) != len(TRACE_HEADER) or not rep.isdigit() or int(rep) not in by_rep:
            raise ValueError(f"trace.csv: malformed row {row!r}")
        by_rep[int(rep)].append(row)
    for r, rows in by_rep.items():
        problem = _trace_problem(rows, wl)
        if problem:
            failed.add(r)
            messages.append(f"trace.csv replicate {r}: {problem}")

    summary = _read(out_dir / "summary.csv", SUMMARY_HEADER)
    problem = None
    if len(summary) != wl.steps:
        problem = f"{len(summary)} rows, expected {wl.steps}"
    elif [row[0] for row in summary] != [str(t) for t in range(wl.steps)]:
        problem = "t is not 0..T-1"
    elif any(_finite(v) is None for row in summary for v in row[1:]):
        problem = "non-finite value"
    elif not float(summary[-1][1]) < float(summary[0][1]):
        problem = f"mean loss does not fall: {summary[0][1]} -> {summary[-1][1]}"
    if problem:
        failed.update(by_rep)
        messages.append(f"summary.csv: {problem}")
    return failed, messages


def _trace_problem(rows: list[list[str]], wl) -> str | None:
    if len(rows) != wl.steps:
        return f"{len(rows)} rows, expected {wl.steps}"
    for i, row in enumerate(rows):
        if row[1] != str(i):
            return f"row {i} has t={row[1]}"
        values = [_finite(v) for v in row[2:]]
        if any(v is None for v in values):
            return f"non-finite value at t={i}"
        alpha, n_present = values[0], values[1]
        if not 0.0 <= alpha <= 1.0:
            return f"alpha_t={alpha} outside [0, 1] at t={i}"
        if n_present != int(n_present) or not 0 <= n_present <= wl.n_devices:
            return f"n_present={row[3]} outside [0, {wl.n_devices}] at t={i}"
    return None


def _check_comparison(wl, out_dir: Path) -> tuple[set, list[str]]:
    failed: set = set()
    messages: list[str] = []
    losses: dict = {}
    for row in _read(out_dir / "comparison.csv", COMPARISON_HEADER):
        if len(row) != len(COMPARISON_HEADER) or _finite(row[0]) is None or not row[2].isdigit():
            raise ValueError(f"comparison.csv: malformed row {row!r}")
        key = (_finite(row[0]), row[1], int(row[2]))
        if key in losses:
            failed.add(key)
            messages.append(f"comparison.csv: duplicate row {key}")
        losses[key] = _finite(row[3])
    for key in replicate_ids(wl):
        final = losses.get(key)
        if final is None or final < 0:
            failed.add(key)
            messages.append(f"comparison.csv {key}: final loss missing, non-finite or negative")
    if wl.claim_level is not None:
        level = wl.claim_level
        arms = {}
        for method in COMPARE_METHODS:
            vals = [losses.get((level, method, r)) for r in range(wl.replicates)]
            arms[method] = None if None in vals else sum(vals) / len(vals)
        adaptive, baseline = (arms[m] for m in COMPARE_METHODS)
        if adaptive is not None and baseline is not None and not adaptive <= baseline:
            covered = [k for k in replicate_ids(wl) if k[0] == level]
            failed.update(covered)
            messages.append(
                f"comparison.csv: at sigma_sq={level:g} adaptive mean final loss "
                f"{adaptive} exceeds the baseline's {baseline}"
            )
    unexpected = set(losses) - set(replicate_ids(wl))
    if unexpected:
        messages.append(f"comparison.csv: unexpected rows {sorted(unexpected)}")
        failed.update(replicate_ids(wl))
    return failed, messages


def csv_totals(wl, out_dir: Path) -> tuple[int, int]:
    """Data rows and bytes of the CSV artifacts (headers count as bytes, not rows)."""
    rows = bytes_ = 0
    for name in wl.artifacts:
        data = (out_dir / name).read_bytes()
        bytes_ += len(data)
        rows += max(data.count(b"\n") - 1, 0)
    return rows, bytes_
