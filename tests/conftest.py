"""Shared frame-instance corpus for the test suite.

Four instances span the interesting geometry: an exactly tight scalar case,
a smooth well-localized frame on a larger grid, a painless diagonal (but
non-tight) case, and a dense random window with a wide spectrum.
"""

import numpy as np
import pytest

from gaborwalnut import (
    GaborLattice,
    Signal,
    Weight,
    WindowSpec,
    build_grid,
    build_window,
    dual_window,
)


def _random_window(grid, seed):
    rng = np.random.default_rng(seed)
    return Signal(grid, rng.standard_normal(grid.L) + 1j * rng.standard_normal(grid.L))


def make_corpus():
    """List of (name, window, lattice, weight) frame instances."""
    corpus = []

    grid = build_grid(8, 4)
    corpus.append((
        "chi8",
        build_window(WindowSpec.characteristic(1.0), grid),
        GaborLattice(grid, 2, 2),
        Weight.constant(),
    ))

    grid = build_grid(256, 16)
    corpus.append((
        "gauss256",
        build_window(WindowSpec.gaussian(width=1.0), grid),
        GaborLattice(grid, 8, 8),
        Weight.polynomial(2.0),
    ))

    grid = build_grid(48, 4)
    corpus.append((
        "hat48",
        build_window(WindowSpec.hat(), grid),
        GaborLattice(grid, 2, 4),
        Weight.polynomial(1.0),
    ))

    grid = build_grid(64, 8)
    corpus.append((
        "rand64",
        _random_window(grid, seed=7),
        GaborLattice(grid, 4, 4),
        Weight.constant(),
    ))

    return corpus


@pytest.fixture(scope="session")
def corpus():
    return make_corpus()


@pytest.fixture(scope="session")
def corpus_with_duals(corpus):
    """Corpus instances paired with their canonical duals (solved tightly)."""
    return [
        (name, g, lat, w, dual_window(g, lat, method="cg", tol=1e-12))
        for (name, g, lat, w) in corpus
    ]


@pytest.fixture
def gauss64():
    """Smooth moderate-size instance used for functional-calculus checks.

    A fresh window per test: a window keeps its table, fiber stack and dense
    value, so one shared across tests would let a test that lowers a size
    cap pass without the cap being asked."""
    grid = build_grid(64, 8)
    g = build_window(WindowSpec.gaussian(width=1.0), grid)
    return g, GaborLattice(grid, 4, 4)


@pytest.fixture
def chi_instance(corpus):
    name, g, lat, w = corpus[0]
    return g, lat
