"""The benchmark workloads' artifacts stay as pinned in ``pinned_artifacts.json``.

On a machine with the pinned fingerprint every artifact must keep its
SHA-256; elsewhere each pinned value must hold within the pinned rtol.  The
test prints which check it made.  ``tests/pin_artifacts.py`` regenerates the
file.
"""

import json

import numpy as np
import pytest

from pin_artifacts import PINNED, SEEDS, fingerprint, produce, workloads

PIN = json.loads(PINNED.read_text())
WORKLOADS = workloads()


def test_every_workload_and_seed_is_pinned():
    assert sorted(PIN["runs"]) == sorted(f"{name}@{seed}" for name in WORKLOADS for seed in SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_artifacts_match_the_pins(tmp_path, name, seed):
    pinned = PIN["runs"][f"{name}@{seed}"]
    got = produce(WORKLOADS[name], seed, tmp_path)
    if fingerprint() == PIN["fingerprint"]:
        print(f"{name}@{seed}: pinned fingerprint, SHA-256 compared")
        assert got["sha256"] == pinned["sha256"]
        return
    print(f"{name}@{seed}: other fingerprint, values compared within rtol {PIN['rtol']}")
    assert sorted(got["values"]) == sorted(pinned["values"])
    for key, expect in pinned["values"].items():
        assert np.allclose(got["values"][key], expect, rtol=PIN["rtol"], atol=0.0), key
