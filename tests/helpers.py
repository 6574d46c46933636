"""Helpers shared by several test modules, for what the package itself
does not need."""

import numpy as np

from bundlelift import manifolds as mf


def constant_homotopy(model):
    """The homotopy that keeps every point where it is: the identity at
    every time, with the identity as its endpoint."""
    def family(t, x):
        if np.ndim(t) == 0:
            return model.copy_point(x)
        return mf.stack_points([x] * len(t))

    return mf.Homotopy("constant", family, mf.identity_diffeo(model), model)
