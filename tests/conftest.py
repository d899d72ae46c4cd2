"""Shared problem fixtures."""

import dataclasses

import numpy as np
import pytest

from urysohn import UrysohnProblem, get_problem


@pytest.fixture()
def crossing_problem():
    """A general (non-Hammerstein, non-symmetric) Urysohn kernel whose two
    branches differ everywhere, the diagonal included, so any point sent to
    the wrong branch changes the result."""
    return UrysohnProblem(
        name="crossing",
        kappa_lower=lambda s, t, u: 0.4 * np.sin(u * (1.0 + s) - t),
        kappa_upper=lambda s, t, u: 0.3 * (1.0 + t) * np.exp(-((u - s) ** 2)),
        kappa_lower_du=lambda s, t, u: 0.4 * (1.0 + s) * np.cos(u * (1.0 + s) - t),
        kappa_upper_du=lambda s, t, u: -0.6 * (1.0 + t) * (u - s) * np.exp(-((u - s) ** 2)),
        f=lambda s: np.exp(np.asarray(s, dtype=float)),
    )


@pytest.fixture()
def sqrt_forcing_problem():
    """rpk-aks with the forcing f(s) = sqrt(1 - s), which is not defined
    (nan, with a RuntimeWarning) right of 1."""
    return dataclasses.replace(
        get_problem("rpk-aks"),
        name="sqrt-forcing",
        f=lambda s: np.sqrt(1.0 - np.asarray(s, dtype=float)),
        exact=None,
    )


@pytest.fixture()
def kernel_free_problem():
    """rpk-aks with kernel branches that fail the test when they are called.

    It declares no factors, so it guards the dense path: with rpk-aks's
    factors kept, construction would call the branches to check them."""

    def never(s, t, u):
        raise AssertionError("the kernel was evaluated")

    return dataclasses.replace(
        get_problem("rpk-aks"),
        name="kernel-free",
        kappa_lower=never,
        kappa_upper=never,
        kappa_lower_du=never,
        kappa_upper_du=never,
        factors=None,
    )


@pytest.fixture()
def counted_forcing(kernel_free_problem):
    """(kernel_free_problem with an f that records the point count of each call, the counts)."""
    sizes = []

    def f(s):
        sizes.append(np.size(s))
        return kernel_free_problem.f(s)

    return dataclasses.replace(kernel_free_problem, name="counted-forcing", f=f), sizes
