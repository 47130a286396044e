"""Shared fixtures: zoo entries are expensive enough to build once per session."""

import math

import numpy as np
import pytest

from lckgeo import zoo


@pytest.fixture(scope="session")
def hopf2():
    return zoo.hopf(2)


@pytest.fixture(scope="session")
def hopf3():
    return zoo.hopf(3)


@pytest.fixture(scope="session")
def flat_inv2():
    return zoo.flat_inversion(2)


@pytest.fixture(scope="session")
def flat_inv3():
    return zoo.flat_inversion(3)


@pytest.fixture(scope="session")
def warped_sin():
    return zoo.warped_vaisman_gck(
        zoo.named_profile("sin", (0.0, 2.0 * math.pi)), zoo.cp1_base())


@pytest.fixture(scope="session")
def warped_flat():
    # constant profile over flat C: a plain Kahler product
    return zoo.warped_vaisman_gck(
        zoo.named_profile("zero", (0.0, 2.0 * math.pi)), zoo.flat_base(1))


@pytest.fixture(scope="session")
def warped_cos_c2():
    # cos is symmetric about the middle of its interval, over flat C^2: n = 3
    return zoo.warped_vaisman_gck(
        zoo.named_profile("cos", (0.0, 2.0 * math.pi)), zoo.flat_base(2))


@pytest.fixture(scope="session")
def calabi_sin():
    return zoo.calabi_ansatz(zoo.named_profile("sin", (0.0, math.pi)), math.pi)


@pytest.fixture(scope="session")
def euclid4():
    return zoo.euclidean(4)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
