import numpy as np
import pytest

from acfl import FederatedDataset


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
