import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import robust_lexrank
from robust_lexrank import (
    RobustBudget,
    build_similarity_matrix,
    threshold_adjacency,
    to_transition,
)
from robust_lexrank.cli import load_generated_templates, load_packaged_corpus

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def cluster_corpus():
    return load_packaged_corpus()


@pytest.fixture(scope="session")
def generated_sentences():
    return load_generated_templates()


@pytest.fixture(scope="session")
def fixture_similarity():
    return np.loadtxt(FIXTURES / "similarity11.csv", delimiter=",")


@pytest.fixture(scope="session")
def cluster_similarity(cluster_corpus):
    return build_similarity_matrix(cluster_corpus)


@pytest.fixture(scope="session")
def transition_01(cluster_similarity):
    return to_transition(threshold_adjacency(cluster_similarity, 0.1))


@pytest.fixture(scope="session")
def transition_02(cluster_similarity):
    return to_transition(threshold_adjacency(cluster_similarity, 0.2))


@pytest.fixture(scope="session")
def transition_03(cluster_similarity):
    return to_transition(threshold_adjacency(cluster_similarity, 0.3))


def random_stochastic(n, rng):
    """Column-stochastic matrix with strictly positive entries."""
    matrix = rng.uniform(0.1, 1.0, size=(n, n))
    return matrix / matrix.sum(axis=0, keepdims=True)


def uniform_budget(n, eps):
    """Total ``eps`` and every one of the ``n`` caps ``eps``."""
    return RobustBudget.broadcast(n, eps, eps)


def run_python(*args, cwd):
    """``python *args`` in a child process that imports the package this process imported.

    The directory holding ``robust_lexrank`` leads the child's ``PYTHONPATH``:
    ``src`` in a checkout, site-packages where the package is installed.
    """
    package_dir = pathlib.Path(robust_lexrank.__file__).parents[1]
    path = os.pathsep.join(filter(None, [str(package_dir), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        encoding="utf-8",
        env=dict(os.environ, PYTHONPATH=path),
        cwd=cwd,
        timeout=120,
    )
