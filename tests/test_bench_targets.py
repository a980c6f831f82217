"""The benchmark's layer spans stay attached to the program.

``bench/spans.py`` wraps module attributes of ``acfl`` by name; a target
whose function is renamed or deleted is reported absent at run time, and its
layer silently reads zero.  This test resolves every target, without
installing any wrapper, and allows only the names the benchmark is yet to
retire.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
# Targets whose functions the library no longer has; the benchmark still
# lists them until it retires them.
RETIRED = {
    "coding.encode_local",
    "coding.aggregate_coded",
    "training.alpha_estimated",
    "training.aggregate",
    "dataset.optimum",
    "dataset.loss",
}


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_bench_span_target_resolves_except_the_retired():
    unresolved = []
    for module_name, path, name in _targets():
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(name)
    assert set(unresolved) <= RETIRED, sorted(set(unresolved) - RETIRED)
