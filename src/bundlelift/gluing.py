"""Local-to-global lift compatibility: the cocycle condition two local
lifts must satisfy on a patch overlap.

Patches, frames and transitions arrive as sampled data (the checker is a
verifier, not a constructor): a local lift datum is the orthogonal matrix
field alpha_i of the lift in the patch's frame, a transition datum is the
orthogonal change-of-frame field alpha on the overlap. Compatibility on
the overlap means alpha_2(x) = alpha(phi(x))^{-1} alpha_1(x) alpha(x).
"""

from dataclasses import dataclass

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
    for x in points:
        a = np.asarray(alpha(x), dtype=float)
        defect = float(np.max(np.abs(a @ a.T - np.eye(a.shape[0]))))
        if not defect <= 1e-8:
            raise NotOrthonormal(
                f"{label} is not orthogonal at a sample (defect {defect:.3e})"
            )


@dataclass
class LocalLiftDatum:
    patch_id: str
    sample_points: list
    alpha: object  # point -> orthogonal (r, r) matrix
    contains: object = None  # optional membership predicate for the patch

    def __post_init__(self):
        _check_orthogonal_field(self.alpha, self.sample_points,
                                f"alpha[{self.patch_id}]")


@dataclass
class TransitionDatum:
    overlap_points: list
    alpha: object  # point -> orthogonal (r, r) matrix

    def __post_init__(self):
        _check_orthogonal_field(self.alpha, self.overlap_points, "transition alpha")


def cocycle_compat_check(d1, d2, transition, diffeo, tolerance=1e-6):
    """Largest deviation from the overlap compatibility identity, plus the
    verdict. Patch invariance under the diffeomorphism is checked first
    wherever a membership predicate was supplied. An empty overlap is
    refused: with nothing to measure there is no verdict."""
    if len(transition.overlap_points) == 0:
        raise BadParams("no overlap points to check the cocycle condition on")
    for datum in (d1, d2):
        if datum.contains is None:
            continue
        for x in datum.sample_points:
            if not datum.contains(diffeo.forward(x)):
                raise PatchNotInvariant(
                    f"diffeomorphism leaves patch {datum.patch_id} at a sample"
                )
    max_residual = 0.0
    for x in transition.overlap_points:
        a1 = np.asarray(d1.alpha(x), dtype=float)
        a2 = np.asarray(d2.alpha(x), dtype=float)
        a_here = np.asarray(transition.alpha(x), dtype=float)
        a_there = np.asarray(transition.alpha(diffeo.forward(x)), dtype=float)
        gap = a2 - np.linalg.inv(a_there) @ a1 @ a_here
        # spectral norm: a rotation perturbation by angle d scores 2 sin(d/2);
        # LAPACK's SVD rejects a non-finite matrix, NaN then fails the verdict
        res = float(np.linalg.norm(gap, 2)) if np.all(np.isfinite(gap)) else np.nan
        max_residual = worst(max_residual, res)
    return {"max_residual": max_residual,
            "compatible": max_residual <= tolerance}


def local_data_from_lift(lift, patch1, patch2, frame1, frame2, overlap_points):
    """Extract (LocalLiftDatum, LocalLiftDatum, TransitionDatum) from a
    lift and two explicit orthonormal frame fields.

    ``patch1``/``patch2`` are (patch_id, sample_points, contains) triples;
    frame fields map a base point to an (N, r) matrix of orthonormal
    columns spanning the fiber. The local matrix of the lift in a frame is
    alpha_i(x) = s_i(phi(x))^T Phi_x s_i(x); the transition is
    alpha(x) = s_1(x)^T s_2(x).
    """
    phi = lift.base_map

    def make_alpha(frame):
        def alpha(x):
            return lift.fiber_matrix_between(
                x, np.asarray(frame(x), dtype=float),
                np.asarray(frame(phi.forward(x)), dtype=float))

        return alpha

    id1, pts1, contains1 = patch1
    id2, pts2, contains2 = patch2
    d1 = LocalLiftDatum(id1, pts1, make_alpha(frame1), contains=contains1)
    d2 = LocalLiftDatum(id2, pts2, make_alpha(frame2), contains=contains2)

    def alpha_transition(x):
        return np.asarray(frame1(x), dtype=float).T @ np.asarray(frame2(x), dtype=float)

    t = TransitionDatum(overlap_points, alpha_transition)
    return d1, d2, t
