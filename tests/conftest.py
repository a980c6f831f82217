import numpy as np
import pytest
from hypothesis import settings

from acfl import FederatedDataset

# Property tests draw the same examples on every run (derandomize) and take
# no per-example deadline: the suite runs on small shared hosts.
settings.register_profile("acfl", derandomize=True, deadline=None)
settings.load_profile("acfl")


@pytest.fixture
def random_instance():
    """Factory for legal random instances with non-trivial labels."""

    def make(seed: int, n: int = 3, m: int = 10, d: int = 4, o: int = 2) -> FederatedDataset:
        rng = np.random.default_rng(seed)
        x = np.empty((n, m, d))
        y = np.empty((n, m, o))
        for i in range(n):  # per device: x_i, then y_i
            x[i] = rng.uniform(-1.0, 1.0, (m, d))
            y[i] = rng.uniform(-1.0, 1.0, (m, o))
        return FederatedDataset(x, y)

    return make
