"""Numerical obstructions to lifting: lattice first Chern numbers,
pullback-invariance reports, holonomy sign profiles and the integer
criterion for torus line bundles.

The Chern number of a complex line bundle over the two-sphere is computed
from gauge-invariant Bargmann phases arg tr(Q_a Q_b Q_c), for rank-1
Q = w w* the phases of <a|b><b|c><c|a>, summed over an icosphere
triangulation at levels L and L+1 from one projector-field call and one
kernel call per Chern number, at level L+1, whose subdivision groups also
give the level-L phases; the orientation convention is pinned by the anchor
c1(tautological line over CP^1) = -1. Only convention-independent ratios
and products are meaningful across other conventions.
"""

import functools

import numpy as np

from . import _kernels
from .bundles import Path, _check_bits, holonomy_signs, pullback, torus_line
from .config import DEFAULT_TRANSPORT_STEPS
from .errors import BadParams, DegeneratePlaquette, NonConvergent
from .manifolds import (ComplexProjective, Sphere, icosphere, integer_inverse,
                        sphere_to_cp1)

__all__ = [
    "ChernResult",
    "lattice_chern_number",
    "pullback_invariance_report",
    "TorusCriterionResult",
    "torus_criterion",
    "w1_profiles",
]


class ChernResult:
    def __init__(self, value, raw, mesh_level, stable):
        self.value = value  # int
        self.raw = raw  # float
        self.mesh_level = mesh_level
        self.stable = stable  # bool


@functools.lru_cache(maxsize=8)
def _cp1_mesh_points(level):
    verts, _ = icosphere(level)
    pts = sphere_to_cp1(verts)
    # cached and shared: guard against accidental mutation
    pts.setflags(write=False)
    return pts


def _mesh_base_points(base, level):
    if isinstance(base, ComplexProjective) and base.n == 1:
        return _cp1_mesh_points(level)
    if isinstance(base, Sphere) and base.n == 2:
        verts, _ = icosphere(level)
        return verts
    raise BadParams(f"chern computation needs a base S^2 or CP^1, got {base}")


def _level_phases(line_bundle, levels):
    # the phases at the last level, or the last two, from one field call and
    # one kernel call on the last level's mesh: its subdivision groups are
    # the triangles of the level before, whose vertices come first
    if line_bundle.real_rank != 2 or not line_bundle.has_complex_structure:
        raise BadParams("lattice_chern_number needs a complex line bundle")
    pts = _mesh_base_points(line_bundle.base, levels[-1])
    w = _kernels.unit_sections(line_bundle.complex_fiber_projector(pts))
    fine, coarse = _kernels.plaquette_phases(w, icosphere(levels[-1])[1])
    for level, (phases, min_abs) in zip(levels, [coarse, fine][-len(levels):]):
        if not min_abs >= 1e-12:
            raise DegeneratePlaquette(f"plaquette overlap {min_abs:.3e} < 1e-12 "
                                      f"at level {level}")
        yield phases


def plaquette_phases(line_bundle, mesh_level):
    """Per-triangle Bargmann phases of the bundle on the icosphere mesh,
    in triangle-index order. The complex projector field is evaluated once,
    on the stack of all mesh vertices; a zero or non-finite projector gives
    a NaN overlap, which is degenerate. Only complex line bundles (rank-1
    Q) are taken, on meshes of level 1 or more."""
    if mesh_level < 1:
        raise BadParams("plaquette phases need mesh_level >= 1")
    return next(_level_phases(line_bundle, [mesh_level]))


def lattice_chern_number(line_bundle, mesh_level):
    """First Chern number of a complex line bundle over S^2 / CP^1.

    The integer is required to agree across mesh_level and mesh_level+1;
    ``stable`` additionally records whether both raw sums sit within 0.05
    of the integer.
    """
    if mesh_level < 3:
        raise BadParams("mesh_level must be >= 3")
    # the outward phases sum to 2 pi c1 (anchor: tautological bundle -> -1)
    raw, raw_next = (float(np.sum(phases)) / (2.0 * np.pi) for phases
                     in _level_phases(line_bundle, [mesh_level, mesh_level + 1]))
    value = int(round(raw))
    value_next = int(round(raw_next))
    if value != value_next:
        raise NonConvergent(
            f"chern estimate changed across levels: {raw:.4f} @ {mesh_level} "
            f"vs {raw_next:.4f} @ {mesh_level + 1}"
        )
    stable = abs(raw - value) <= 0.05 and abs(raw_next - value_next) <= 0.05
    return ChernResult(value=value, raw=raw, mesh_level=mesh_level, stable=stable)


def pullback_invariance_report(diffeo, line_bundle, mesh_level=4):
    """Compare c1 of a bundle with c1 of its pullback along a
    diffeomorphism; disagreement obstructs any C-linear lift."""
    c1 = lattice_chern_number(line_bundle, mesh_level)
    c1_pb = lattice_chern_number(pullback(diffeo, line_bundle), mesh_level)
    return {
        "c1": c1.value,
        "c1_pullback": c1_pb.value,
        "lift_obstructed": c1.value != c1_pb.value,
        "raw": c1.raw,
        "raw_pullback": c1_pb.raw,
        "mesh_level": mesh_level,
    }


# ---------------------------------------------------------------------------
# Torus line bundles


class TorusCriterionResult:
    """The verdicts for one matrix (bools), or for each matrix of a stack
    (boolean arrays)."""

    def __init__(self, a, b, fast_verdict, oracle_verdict):
        self.a = a
        self.b = b
        self.fast_verdict = fast_verdict
        self.oracle_verdict = oracle_verdict


def subgroup_generators(b):
    """Generators of the index-2 subgroup {x : b.x even} of Z^n: e_i for
    the zero bits, one doubled basis vector for the first set bit, and the
    pairwise sums of set-bit basis vectors."""
    b = _check_bits(b)
    n = b.shape[0]
    eye = np.eye(n, dtype=np.int64)
    ones = [i for i in range(n) if b[i] == 1]
    gens = [eye[i] for i in range(n) if b[i] == 0]
    gens.append(2 * eye[ones[0]])
    for i in range(len(ones)):
        for j in range(i + 1, len(ones)):
            gens.append(eye[ones[i]] + eye[ones[j]])
    return gens


def torus_criterion(a, b):
    """Does the torus automorphism x -> Ax lift to the line bundle L_b?

    ``a`` is one n x n integer matrix or a stack of them (m, n, n); each
    test below runs once on the whole stack. The fast mod-2 verdict
    (b^T A = b^T mod 2) is always cross-checked against the brute-force
    subgroup oracle A(S_b) <= S_b on generators; a mismatch is a hard
    internal error.
    """
    b = _check_bits(b)
    n = b.shape[0]
    a = np.asarray(a)
    if a.ndim not in (2, 3) or a.shape[-2:] != (n, n):
        raise BadParams(f"A must be {n}x{n} or a stack of them, got {a.shape}")
    integer_inverse(a)  # validates integrality and |det| = 1
    a = a.astype(np.int64)
    fast = np.all(np.mod(b @ a - b, 2) == 0, axis=-1)
    gens = np.stack(subgroup_generators(b), axis=-1)
    oracle = np.all(np.mod(b @ (a @ gens), 2) == 0, axis=-1)
    mismatch = fast != oracle
    if np.any(mismatch):
        # the first mismatching matrix: () for one matrix, (i,) in a stack
        i = np.unravel_index(np.argmax(mismatch), mismatch.shape)
        where = f" (matrix {i[0]} of the stack)" if i else ""
        raise AssertionError(
            f"criterion mismatch for A={a[i].tolist()}{where}, b={b.tolist()}: "
            f"fast={fast[i]}, oracle={oracle[i]}"
        )
    if a.ndim == 2:
        fast, oracle = bool(fast), bool(oracle)
    return TorusCriterionResult(a=a, b=b, fast_verdict=fast, oracle_verdict=oracle)


def _coordinate_loops(n):
    # the n coordinate loops t -> t e_i of T^n as one stack of tracks
    eye = np.eye(n)
    return Path(lambda ts: np.multiply.outer(ts, eye),
                velocity=lambda ts, xt: np.multiply.outer(np.ones_like(ts), eye))


def w1_profiles(bs, steps=DEFAULT_TRANSPORT_STEPS):
    """For every bit vector b of a list, the holonomy signs of L_b around
    the n = len(b) coordinate loops of the torus (the first Stiefel-Whitney
    class evaluated on the standard 1-cycles), from one ``holonomy_signs``
    call: the coordinate loops of all the line bundles share each RK4
    window."""
    pairs = []
    for b in bs:
        b = _check_bits(b)
        n = b.shape[0]
        if n > 4:
            raise BadParams("w1_profiles supports n <= 4")
        pairs.append((torus_line(b), _coordinate_loops(n)))
    return [signs.astype(np.int64) for signs in holonomy_signs(pairs, steps=steps)]
