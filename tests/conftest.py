import numpy as np
import pytest

from gnasforge import generate_sbm, random_split


@pytest.fixture(scope="session")
def small_sbm():
    """Seeded 4-class SBM with a 60/20/20 split, shared across tests."""
    graph = generate_sbm(num_classes=4, nodes_per_class=25, p_in=0.3, p_out=0.02,
                         feature_dim=16, feature_noise=0.5, seed=11)
    return random_split(graph, seed=11)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
