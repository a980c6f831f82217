"""Benchmark of the ``acfl`` CLI, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload ref-compare --seed 1 --seconds 40 --trace 0

The workload runs serially, one fresh child process (``child.py``) per
invocation of ``acfl.cli.cli_main``, with BLAS pinned to one thread, until
``--seconds`` are used (at least two invocations).  Every invocation's
artifacts are checked and must be byte-identical to the first one's.

``--trace 0`` reports the end-to-end metrics: medians over the invocations.
Wall times are normalised by the speed probe (``speed.py``) to seconds of a
reference machine, because the shared host's speed drifts; the raw times are
in the detail line.
``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics from the traced ones (medians), plus the tracing overhead.
Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and ``failed``
(replicates) and ``metrics``; the line before it holds the percentiles,
shares, failures and provenance.  Exit status: 0 when every check passed, 1
when a check failed, 2 when the program could not be run at all.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# One run must end within 180 s; invocations are not started past this.
RUN_LIMIT_S = 150.0
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Counts that are a pure function of the workload and seed.
EXACT_COUNTS = (
    "numerics.rng_keys",
    "numerics.eig_min_calls",
    "coding.encode_calls",
    "training.steps",
    "harness.csv_rows",
    "harness.csv_bytes",
)
# Span bookkeeping is exact up to float rounding over tens of thousands of spans.
SPAN_TOLERANCE_S = 1e-6


class BenchError(Exception):
    """The program could not be run at all; no result is printed."""


@dataclasses.dataclass
class Invocation:
    traced: bool
    rc: int
    setup_s: float
    wall_s: float
    slowness: float
    probe_s: float
    kernel_mean_s: dict
    peak_rss_mb: float
    failed: set
    messages: list
    digests: dict
    csv_rows: int
    csv_bytes: int
    elapsed_s: float
    analysis: dict | None
    absent: list
    provenance: dict

    @property
    def norm_wall_s(self) -> float:
        """The wall time in seconds of the probe's reference machine."""
        return self.wall_s / self.slowness


def _tail(path: Path, lines: int = 20) -> str:
    return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])


def run_invocation(wl, seed: int, workdir: Path, traced: bool, timeout: float) -> Invocation:
    """Run the workload once in a fresh child and check what it wrote."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [
        sys.executable,
        str(BENCH / "child.py"),
        "--root", str(ROOT),
        "--spec", json.dumps(dataclasses.asdict(wl)),
        "--seed", str(seed),
        "--workdir", str(workdir),
        "--trace", str(int(traced)),
    ]
    env = {**os.environ, **THREAD_PINS}
    with open(workdir / "stdout.txt", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        launched = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=out, stderr=err, env=env, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{wl.name}: an invocation ran past {timeout:.0f} s") from None
    result_path = workdir / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(
            f"{wl.name}: the benchmark child failed (exit {proc.returncode}):\n"
            + _tail(workdir / "stderr.txt")
        )
    res = json.loads(result_path.read_text())

    out_dir = workdir / "out"
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in wl.artifacts
        if (out_dir / name).is_file()
    }
    if res["rc"] != 0:
        failed = set(checks.replicate_ids(wl))
        messages = [f"acfl exited with {res['rc']}: {_tail(workdir / 'stderr.txt', 5)}"]
        csv_rows = csv_bytes = 0
    else:
        failed, messages = checks.check_artifacts(wl, out_dir)
        csv_rows, csv_bytes = checks.csv_totals(wl, out_dir) if not failed else (0, 0)
    analysis = None
    if traced:
        with open(workdir / "spans.json") as f:
            analysis = spans.analyse(json.load(f))
    return Invocation(
        traced=traced,
        rc=res["rc"],
        setup_s=res["ready_monotonic"] - launched,
        wall_s=res["wall_s"],
        slowness=res["slowness"],
        probe_s=res["probe_s"],
        kernel_mean_s=res["kernel_mean_s"],
        peak_rss_mb=res["peak_rss_mb"],
        failed=failed,
        messages=messages,
        digests=digests,
        csv_rows=csv_rows,
        csv_bytes=csv_bytes,
        elapsed_s=time.monotonic() - launched,
        analysis=analysis,
        absent=res["absent"],
        provenance=res["provenance"],
    )


def measure(wl, seed: int, seconds: float, trace: bool, work: Path) -> list[Invocation]:
    """Invocations until ``seconds`` are used; traced runs alternate with untraced."""
    shutil.rmtree(work, ignore_errors=True)
    start = time.monotonic()
    minimum = 4 if trace else 2
    invs: list[Invocation] = []
    while True:
        remaining = RUN_LIMIT_S - (time.monotonic() - start)
        if remaining <= 0:
            raise BenchError(f"{wl.name}: {len(invs)} invocations used {RUN_LIMIT_S:.0f} s")
        traced = trace and len(invs) % 2 == 1
        workdir = work / f"{len(invs):03d}"
        invs.append(run_invocation(wl, seed, workdir, traced, remaining))
        if not invs[-1].failed:
            shutil.rmtree(workdir)  # keep only what a failure needs explained
        typical = statistics.median(inv.elapsed_s for inv in invs)
        if len(invs) >= minimum and time.monotonic() - start + typical > seconds:
            return invs


def _provenance(seed: int, child: dict) -> dict:
    src = ROOT / "src"
    files = sorted(src.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(src)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        **child,
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def _median(values):
    """Median, kept an integer for counts."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def summarise(wl, seed: int, seconds: float, trace: bool, invs, spec: dict) -> tuple[dict, dict]:
    """The result line and the detail report of one run."""
    ids = checks.replicate_ids(wl)
    problems: list[str] = []
    failed = 0
    reference = invs[0].digests
    for i, inv in enumerate(invs):
        lost = set(inv.failed)
        problems += [f"invocation {i}: {m}" for m in inv.messages]
        if inv.rc == 0 and inv.digests != reference:
            lost = set(ids)
            problems.append(f"invocation {i}: artifacts differ from invocation 0 (same seed)")
        failed += len(lost)
    attempted = len(invs) * len(ids)

    counts = [
        {"harness.csv_rows": inv.csv_rows, "harness.csv_bytes": inv.csv_bytes} for inv in invs
    ]
    plain = [inv for inv in invs if not inv.traced]
    traced = [inv for inv in invs if inv.traced]
    timings = {
        "wall_s": spans.percentiles([inv.wall_s for inv in plain]),
        "norm_wall_s": spans.percentiles([inv.norm_wall_s for inv in plain]),
        "setup_s": spans.percentiles([inv.setup_s for inv in plain]),
        "slowness": spans.percentiles([inv.slowness for inv in plain]),
        "probe_s": spans.percentiles([inv.probe_s for inv in plain]),
    }
    report = {
        "workload": wl.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == wl.name),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "invocations": len(invs),
        "traced_invocations": len(traced),
        "ops_failed_ratio": failed / attempted,
        "timings": timings,
        "kernel_mean_s": [inv.kernel_mean_s for inv in plain],
    }
    if not trace:
        values = {
            "norm_wall_s": timings["norm_wall_s"]["p50"],
            "norm_replicate_steps_per_s": statistics.median(
                wl.replicate_steps / inv.norm_wall_s for inv in plain
            ),
            "setup_s": timings["setup_s"]["p50"],
            "peak_rss_mb": statistics.median(inv.peak_rss_mb for inv in plain),
        }
        names = spec["end_to_end"]
    else:
        per_inv = []
        for inv in traced:
            layer = spans.layer_metrics(inv.analysis, wl)
            layer["harness.csv_rows"] = inv.csv_rows
            layer["harness.csv_bytes"] = inv.csv_bytes
            per_inv.append(layer)
            error = inv.analysis["self_sum_error_s"]
            if error > SPAN_TOLERANCE_S or inv.analysis["min_self_s"] < -SPAN_TOLERANCE_S:
                problems.append(f"spans do not nest: {error!r} s of wall_s unaccounted")
        counts += per_inv
        values = {name: _median([layer[name] for layer in per_inv]) for name in per_inv[0]}
        durations = [
            d
            for inv in traced
            for d in inv.analysis["by_name"].get("training.train", {}).get("durations", [])
        ]
        timings["training.train_s"] = spans.percentiles(durations)
        values["training.train_s"] = timings["training.train_s"]["p50"] or 0.0
        values["bench.trace_overhead_ratio"] = (
            values["bench.traced_wall_s"] / timings["wall_s"]["p50"] - 1.0
        )
        shares = [spans.shares(inv.analysis) for inv in traced]
        report["shares"] = {k: statistics.median(s[k] for s in shares) for k in shares[0]}
        report["absent"] = sorted({name for inv in traced for name in inv.absent})
        report["span_sum_error_s"] = max(inv.analysis["self_sum_error_s"] for inv in traced)
        names = spec["per_layer"]

    for name in EXACT_COUNTS:
        seen = sorted({c[name] for c in counts if name in c})
        if len(seen) > 1:
            problems.append(f"count {name} does not repeat exactly: {seen}")
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics listed in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    report["failures"] = problems[:50]
    report["provenance"] = _provenance(seed, invs[0].provenance)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "acfl" / "__init__.py").is_file():
            raise BenchError(f"no program to run: {ROOT / 'src' / 'acfl'} is missing")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wl = WORKLOADS[args.workload]
        work = WORK / wl.name
        invs = measure(wl, args.seed, args.seconds, bool(args.trace), work)
        result, report = summarise(wl, args.seed, args.seconds, bool(args.trace), invs, spec)
    except BenchError as e:
        print(f"bench: error: {e}", file=sys.stderr)
        return 2
    (work / "report.json").write_text(json.dumps({"result": result, "report": report}, indent=2))
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']!r} {m['unit']}")
    for line in report["failures"]:
        print(f"bench: check failed: {line}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
