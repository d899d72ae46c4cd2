"""Shared problem fixtures."""

import numpy as np
import pytest

from urysohn import UrysohnProblem


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
