"""Local-to-global lift compatibility: the cocycle condition two local
lifts must satisfy on a patch overlap.

Patches, frames and transitions arrive as sampled data (the checker is a
verifier, not a constructor): a local lift datum is the orthogonal matrix
field alpha_i of the lift in the patch's frame, a transition datum is the
orthogonal change-of-frame field alpha on the overlap. Compatibility on
the overlap means alpha_2(x) = alpha(phi(x))^{-1} alpha_1(x) alpha(x).

Fields take point stacks, as the fields of ``bundles`` do: a lift or
transition field maps a stack of P points to a (P, r, r) stack of
matrices, a frame maps it to a (P, N, r) stack, and a patch predicate maps
it to P booleans. Sample and overlap points are such stacks. Every check
evaluates a field once per stack it needs, whatever the number of points.
"""

import numpy as np

from .errors import BadParams, NotOrthonormal, PatchNotInvariant
from .numkernel import worst

__all__ = [
    "LocalLiftDatum",
    "TransitionDatum",
    "cocycle_compat_check",
    "local_data_from_lift",
]


def _check_orthogonal_field(alpha, points, label):
    a = np.asarray(alpha(points), dtype=float)
    eye = np.eye(a.shape[-1])
    defects = np.max(np.abs(a @ np.swapaxes(a, -1, -2) - eye), axis=(-2, -1))
    bad = np.flatnonzero(~(defects <= 1e-8))
    if bad.size:
        raise NotOrthonormal(f"{label} is not orthogonal at sample {bad[0]} "
                             f"(defect {defects[bad[0]]:.3e})")


class LocalLiftDatum:
    def __init__(self, patch_id, sample_points, alpha, contains=None):
        _check_orthogonal_field(alpha, sample_points, f"alpha[{patch_id}]")
        self.patch_id = patch_id
        self.sample_points = sample_points
        self.alpha = alpha  # (P, ...) points -> (P, r, r) orthogonal matrices
        self.contains = contains  # optional (P, ...) points -> P booleans


class TransitionDatum:
    def __init__(self, overlap_points, alpha):
        _check_orthogonal_field(alpha, overlap_points, "transition alpha")
        self.overlap_points = overlap_points
        self.alpha = alpha  # (P, ...) points -> (P, r, r) orthogonal matrices


def cocycle_compat_check(d1, d2, transition, diffeo):
    """Largest deviation from the overlap compatibility identity over the
    overlap points (a spectral norm: a rotation by an angle d scores
    2 sin(d/2)), NaN where it could not be measured. It decides nothing: a
    caller holds it to its own bound, and a NaN must fail there. Patch
    invariance under the diffeomorphism is checked first wherever a
    membership predicate was supplied. An empty overlap is refused: with
    nothing to measure there is no residual."""
    x = transition.overlap_points
    if len(x) == 0:
        raise BadParams("no overlap points to check the cocycle condition on")
    for datum in (d1, d2):
        if datum.contains is None:
            continue
        inside = datum.contains(diffeo.forward(datum.sample_points))
        moved = np.flatnonzero(np.logical_not(inside))
        if moved.size:
            raise PatchNotInvariant(f"diffeomorphism moves sample {moved[0]} "
                                    f"out of patch {datum.patch_id}")
    a_there = transition.alpha(diffeo.forward(x))
    gap = d2.alpha(x) - np.linalg.inv(a_there) @ d1.alpha(x) @ transition.alpha(x)
    # LAPACK's SVD rejects a non-finite matrix, so it is zeroed for the SVD
    # and its residual reads NaN
    finite = np.isfinite(gap).all(axis=(-2, -1))
    res = np.linalg.matrix_norm(np.where(finite[:, None, None], gap, 0.0), ord=2)
    res[~finite] = np.nan
    return worst(0.0, *res.tolist())


def local_data_from_lift(lift, patch1, patch2, frame1, frame2, overlap_points):
    """Extract (LocalLiftDatum, LocalLiftDatum, TransitionDatum) from a
    lift and two explicit orthonormal frame fields.

    ``patch1``/``patch2`` are (patch_id, sample_points, contains) triples;
    frame fields map a stack of base points to a (P, N, r) stack of
    orthonormal columns spanning the fibers. The local matrix of the lift
    in a frame is alpha_i(x) = s_i(phi(x))^T Phi_x s_i(x); the transition
    is alpha(x) = s_1(x)^T s_2(x).
    """
    phi = lift.base_map

    def make_alpha(frame):
        return lambda x: lift.fiber_matrix_between(x, frame(x),
                                                   frame(phi.forward(x)))

    id1, pts1, contains1 = patch1
    id2, pts2, contains2 = patch2
    d1 = LocalLiftDatum(id1, pts1, make_alpha(frame1), contains=contains1)
    d2 = LocalLiftDatum(id2, pts2, make_alpha(frame2), contains=contains2)
    t = TransitionDatum(
        overlap_points, lambda x: np.swapaxes(frame1(x), -1, -2) @ frame2(x))
    return d1, d2, t
