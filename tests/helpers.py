"""Helpers shared by several test modules, for what the package itself
does not need."""

import numpy as np

from bundlelift import manifolds as mf
from bundlelift.config import DEFAULT_TOLERANCES as TOL
from bundlelift.errors import BadParams
from bundlelift.lifts import Lift


def random_point(model, seed):
    """Deterministic membership-valid point: row 0 of the one-point draw
    model.random_points(rng, 1), with rng = default_rng(seed); seed may
    also be a Generator, which default_rng hands back unchanged, to draw
    the point from that stream."""
    rng = np.random.default_rng(seed)
    return mf.map_points(lambda a: a[0], model.random_points(rng, 1))


def stack_points(points):
    """One stack from a sequence of points (a pair of stacks for product
    points)."""
    if isinstance(points[0], tuple):
        return tuple(stack_points(factor) for factor in zip(*points))
    return np.stack(points)


def unimodular(n, seed):
    """One n x n unimodular integer matrix: the one-matrix block of
    random_unimodular from default_rng(seed)."""
    return mf.random_unimodular(n, np.random.default_rng(seed), 1)[0]


def constant_homotopy(model):
    """The homotopy that keeps every point where it is: the identity at
    every time, with the identity as its endpoint."""
    def family(t, x):
        if np.ndim(t) == 0:
            return model.copy_point(x)
        return stack_points([x] * len(t))

    return mf.Homotopy("constant", family, mf.identity_diffeo(model), model)


def identity_lift(bundle):
    """The lift of the identity map that leaves every vector where it is."""
    return Lift(bundle, mf.identity_diffeo(bundle.base),
                lambda x, v: v.copy(), "identity", TOL.exact)


def cpn_phase_homotopy(model, angle, slot=0):
    """Rotation of CP^n induced by diag(..., e^{i t angle} at slot, ...)."""
    if not isinstance(model, mf.ComplexProjective):
        raise BadParams("cpn_phase_homotopy is defined on CP^n")
    if not 0 <= slot <= model.n:
        raise BadParams(f"slot {slot} out of range")
    gen = np.zeros((model.n + 1, model.n + 1), dtype=complex)
    gen[slot, slot] = 1j * angle
    return mf._unitary_family_homotopy(model, gen,
                                       f"cpn_phase[{slot};{angle:g}]")
