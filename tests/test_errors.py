"""Range errors read ``<name>: must <rule>, got <value>``, and NaN meets no rule."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from acfl.analysis import BoundInputs, comm_overhead, convergence_bound
from acfl.coding import NoiseParams, payload_size
from acfl.dataset import FederatedDataset, ProblemFacts
from acfl.errors import RULES, ParameterError, check
from acfl.privacy import epsilon_of
from acfl.training import alpha_oracle, sample_stragglers, train

NOISE = NoiseParams(1.0, 1.0)
INPUTS = BoundInputs(
    p=0.1, n_devices=5, beta_sq=100.0, c_sq=1.0, d=10, o=10,
    sigma1_sq=1.0, sigma2_sq=1.0, lam=1.0, steps=1000,
)
ZEROS = np.zeros((2, 1))


def _dataset(ee_sum):
    return FederatedDataset(np.eye(2)[None], np.zeros((1, 2, 1)), ZEROS, ZEROS, ee_sum)


# One row per call site: the call with the bad value, the value, the message.
SITES = {
    "payload_size-d": (lambda v: payload_size(v, 2), 0, "d: must be positive, got 0"),
    "payload_size-o": (lambda v: payload_size(3, v), -1, "o: must be positive, got -1"),
    "comm_overhead-phi_bits": (
        lambda v: comm_overhead(v, 10, 10, 100, 5), 0, "phi_bits: must be positive, got 0"
    ),
    "comm_overhead-n_devices": (
        lambda v: comm_overhead(32, 10, 10, v, 5), 0, "n_devices: must be positive, got 0"
    ),
    "comm_overhead-steps": (
        lambda v: comm_overhead(32, 10, 10, 100, v), -1, "steps: must be nonnegative, got -1"
    ),
    "epsilon_of-d": (lambda v: epsilon_of(NOISE, v, 2), 0, "d: must be positive, got 0"),
    "epsilon_of-o": (lambda v: epsilon_of(NOISE, 3, v), 0, "o: must be positive, got 0"),
    "convergence_bound": (
        lambda v: convergence_bound(INPUTS, v), 0.0, "u_sup: must be positive, got 0.0"
    ),
    "alpha_oracle-d": (
        lambda v: alpha_oracle(0.3, 1.0, 1.0, v, 2, NOISE), 0, "d: must be positive, got 0"
    ),
    "alpha_oracle-o": (
        lambda v: alpha_oracle(0.3, 1.0, 1.0, 3, v, NOISE), 0, "o: must be positive, got 0"
    ),
    "sample_stragglers-n": (
        lambda v: sample_stragglers(0.2, v, np.random.default_rng(0), 4),
        0,
        "n: must be positive, got 0",
    ),
    "ProblemFacts-lam": (
        lambda v: ProblemFacts(ZEROS, v, 0.0), 0.0, "lam: must be finite and positive, got 0.0"
    ),
    "ProblemFacts-loss_at_optimum": (
        lambda v: ProblemFacts(ZEROS, 1.0, v),
        -1.0,
        "loss_at_optimum: must be nonnegative, got -1.0",
    ),
    "FederatedDataset-ee_sum": (
        _dataset, -1.0, "ee_sum: must be finite and nonnegative, got -1.0"
    ),
    "train-steps": (
        lambda v: train([], [], [], 0.2, v, None, []), -1, "steps: must be nonnegative, got -1"
    ),
    # Ints past the interpreter's 4300-digit limit for str are shown by bit length.
    "check-huge-int": (
        lambda v: check("alpha", v, "lie in [0, 1]"),
        10**5000,
        "alpha: must lie in [0, 1], got an integer of 16610 bits",
    ),
    "BoundInputs-huge-int": (
        lambda v: replace(INPUTS, n_devices=v),
        10**5000,
        "n_devices: must be finite and positive, got an integer of 16610 bits",
    ),
}


@pytest.mark.parametrize("call,value,message", SITES.values(), ids=SITES.keys())
def test_range_errors_name_the_value(call, value, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call(value)
    with pytest.raises(ParameterError):
        call(math.nan)


@pytest.mark.parametrize("rule", RULES)
def test_nan_meets_no_rule(rule):
    with pytest.raises(ParameterError, match=f"^x: must {re.escape(rule)}, got nan$"):
        check("x", math.nan, rule)
    assert check("x", 0.5, rule) == 0.5
