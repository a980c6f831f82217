"""The pinned artifacts of the benchmark's workloads, and the script that pins them.

``pinned_artifacts.json`` holds, for each workload of ``bench/workloads.py``
at each seed of :data:`SEEDS`, the SHA-256 of every artifact the run writes,
and a few of its values: a comparison's final losses, and a run's summary
rows at ``t`` in ``{0, T/2, T-1}``.  It also holds the fingerprint of the
machine that wrote it (numpy version, BLAS name and version, CPU
architecture, model and the SIMD extensions numpy found).
``tests/test_pinned_artifacts.py`` compares digests where the fingerprint
matches and the values within :data:`RTOL` elsewhere, where BLAS may pick
other kernels and so round differently.

A change that alters an artifact's bytes on purpose regenerates the file::

    PYTHONPATH=src python tests/pin_artifacts.py

and says so where it states its changes, since the file is test data.  The
script prints, per pinned run, the largest relative change of its pinned
values against the file it replaces (0 where nothing moved).
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from acfl.harness import compare_baselines, config_from_dict, run_experiment

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).resolve().parent / "pinned_artifacts.json"
SEEDS = (7, 11)
# Other kernels round each product differently; training is a contraction,
# so what reaches an artifact stays far below this relative change.  On an
# x86-64 host whose OpenBLAS picks SkylakeX kernels, forcing its Haswell,
# Sandybridge or Katmai kernels (OPENBLAS_CORETYPE) changed every digest and
# no pinned value by more than 1.7e-14 relative.
RTOL = 1e-9


def workloads() -> dict:
    """The benchmark's workloads by name (``bench/workloads.py``'s ``WORKLOADS``)."""
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _simd_found() -> list[str]:
    """The SIMD extensions numpy dispatches to on this CPU, as ``np.show_runtime``
    lists them."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        try:
            from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        except ImportError:
            return []
    return [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]


def fingerprint() -> dict:
    """What decides an artifact's last bits besides the program."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "simd": _simd_found(),
    }


def produce(workload, seed: int, out_dir: Path) -> dict:
    """Run ``workload`` at ``seed`` into ``out_dir``; its artifacts' digests and values."""
    cfg = config_from_dict(workload.config(seed, str(out_dir)))
    if workload.command == "compare":
        compare_baselines(cfg)
    else:
        run_experiment(cfg)
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in workload.artifacts
    }
    if workload.command == "compare":
        with open(out_dir / "comparison.csv", newline="") as f:
            values = {
                f"{row['noise_sigma_sq']},{row['method']},{row['seed']}": float(row["final_loss"])
                for row in csv.DictReader(f)
            }
    else:
        with open(out_dir / "summary.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        ts = sorted({0, cfg.steps // 2, cfg.steps - 1})
        values = {str(t): [float(x) for x in rows[t][1:]] for t in ts}
    return {"sha256": digests, "values": values}


def largest_change(old: dict | None, new: dict) -> float | None:
    """The largest relative change of a run's pinned values from ``old`` to
    ``new`` (``inf`` where a zero moved); ``None`` if ``old`` is missing or
    pins other values."""
    if old is None or sorted(old["values"]) != sorted(new["values"]):
        return None
    change = 0.0
    for key, value in new["values"].items():
        before, after = np.asarray(old["values"][key], float), np.asarray(value, float)
        moved = np.abs(after - before)
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 is masked
            rel = np.where(moved == 0.0, 0.0, moved / np.abs(before))
        change = max(change, float(rel.max(initial=0.0)))
    return change


def main() -> None:
    old = json.loads(PINNED.read_text())["runs"] if PINNED.exists() else {}
    pinned = {"fingerprint": fingerprint(), "rtol": RTOL, "runs": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in workloads().items():
            for seed in SEEDS:
                out_dir = Path(tmp, f"{name}-{seed}")
                key = f"{name}@{seed}"
                pinned["runs"][key] = run = produce(workload, seed, out_dir)
                change = largest_change(old.get(key), run)
                shown = "not pinned before" if change is None else f"{change:.3g}"
                print(f"{key}: largest relative change of the pinned values {shown}")
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(PINNED)


if __name__ == "__main__":
    main()
