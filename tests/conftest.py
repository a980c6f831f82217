import pytest
from hypothesis import settings

from reference import dataset_from_samples, random_samples

# Property tests draw the same examples on every run (derandomize) and take
# no per-example deadline: the suite runs on small shared hosts.
settings.register_profile("acfl", derandomize=True, deadline=None)
settings.load_profile("acfl")


@pytest.fixture
def random_instance():
    """Factory for the datasets of :func:`reference.random_samples`."""

    def make(seed: int, n: int = 3, m: int = 10, d: int = 4, o: int = 2):
        return dataset_from_samples(*random_samples(seed, n, m, d, o))

    return make
