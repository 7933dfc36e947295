"""Fixtures shared by several test modules."""

import dataclasses

import numpy as np
import pytest

from binfactor.simulate import SimScenario, generate_dataset, generate_true_model


@pytest.fixture(scope="session")
def sparse_data():
    """A maker of sparse binary data: the data of ``generate_true_model`` with
    its thresholds redrawn from U(c_low, c_high).  From 1.5 to 3 that gives
    0.7-3% ones, as binary word features have."""

    def make(c_low, c_high, p, n, seed=4):
        scn = SimScenario(d=2, p=p, n=n, reps=1, seed=seed)
        tm = generate_true_model(scn, np.random.default_rng([seed, 0]))
        c = np.random.default_rng([seed, 2]).uniform(c_low, c_high, p)
        tm = dataclasses.replace(tm, c=c)
        return generate_dataset(tm, n, np.random.default_rng([seed, 1, 0]))[0]

    return make
