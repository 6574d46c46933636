import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bundlelift import numkernel as nk
from bundlelift.errors import NotComplexStructure, Singular

from helpers import polar_via_sym_sqrt, sym_sqrt

EPS = np.finfo(float).eps


def random_spd(rng, n, floor=0.1):
    a = rng.normal(size=(n, n))
    return a @ a.T + floor * np.eye(n)


class TestSymSqrt:
    # the square root behind the polar oracle (tests/helpers.py)
    def test_identity(self):
        assert np.allclose(sym_sqrt(np.eye(4)), np.eye(4), atol=1e-12)

    def test_diagonal(self):
        assert np.allclose(sym_sqrt(np.diag([4.0, 9.0])),
                           np.diag([2.0, 3.0]), atol=1e-12)

    def test_random_spd_squares_back(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 8):
            s = random_spd(rng, n)
            r = sym_sqrt(s)
            assert np.max(np.abs(r @ r - s)) <= 1e-10
            assert np.max(np.abs(r - r.T)) <= 1e-12
            w, _ = nk.sym_eigh(r)
            assert w[0] > 0

    @settings(max_examples=30)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
    def test_property_sqrt(self, n, seed):
        s = random_spd(np.random.default_rng(seed), n, floor=0.5)
        r = sym_sqrt(s)
        assert np.max(np.abs(r @ r - s)) <= 1e-10 * max(1.0, np.max(np.abs(s)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetry defect"):
            sym_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            sym_sqrt(np.diag([1.0, -0.5]))

    def test_bitwise_deterministic(self):
        s = random_spd(np.random.default_rng(3), 5)
        r1 = sym_sqrt(s)
        r2 = sym_sqrt(s.copy())
        assert np.array_equal(r1, r2)


class TestPolarTwoMetric:
    def test_identity(self):
        psi, xi = nk.polar_two_metric(np.eye(3))
        assert np.allclose(psi, np.eye(3), atol=1e-12)
        assert np.allclose(xi, np.eye(3), atol=1e-12)

    def test_conformal_rotation(self):
        th = 0.6
        r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        psi, xi = nk.polar_two_metric(2.0 * r)
        assert np.allclose(psi, r, atol=1e-10)
        assert np.allclose(xi, 2.0 * np.eye(2), atol=1e-10)

    def test_random_metrics(self):
        # fiber metrics G_U, G_W other than the identity need no factor of
        # their own: in the bases S^{-1} (S = sqrt(G)) both are orthonormal,
        # and the one-metric factor of A = S_W F S_U^{-1} gives the
        # (G_U, G_W)-isometry Psi = S_W^{-1} Psi_A S_U and the G_W-self-
        # adjoint positive definite Xi = S_W^{-1} Xi_A S_W with Xi Psi = F
        rng = np.random.default_rng(23)
        for _ in range(5):
            f = rng.normal(size=(3, 3)) + 1.5 * np.eye(3)
            g_u = random_spd(rng, 3, floor=0.4)
            g_w = random_spd(rng, 3, floor=0.4)
            s_u, s_w = sym_sqrt(g_u), sym_sqrt(g_w)
            psi_a, xi_a = nk.polar_two_metric(s_w @ f @ np.linalg.inv(s_u))
            psi = np.linalg.solve(s_w, psi_a @ s_u)
            xi = np.linalg.solve(s_w, xi_a @ s_w)
            assert np.max(np.abs(xi @ psi - f)) <= 1e-8
            assert np.max(np.abs(psi.T @ g_w @ psi - g_u)) <= 1e-8
            assert np.max(np.abs(xi.T @ g_w - g_w @ xi)) <= 1e-8
            w, _ = nk.sym_eigh(s_w @ xi @ np.linalg.inv(s_w))
            assert w[0] > 0

    def test_deterministic(self):
        f = np.random.default_rng(5).normal(size=(4, 4)) + 2 * np.eye(4)
        out1 = nk.polar_two_metric(f)
        out2 = nk.polar_two_metric(f.copy())
        assert np.array_equal(out1[0], out2[0])
        assert np.array_equal(out1[1], out2[1])

    def test_singular_rejected(self):
        f = np.diag([1.0, 0.0, 2.0])
        with pytest.raises(Singular, match=r"^min singular value 0\.000e\+00 <= 1e-10$"):
            nk.polar_two_metric(f)

    def test_one_singular_matrix_refuses_the_stack(self):
        f = np.random.default_rng(7).normal(size=(5, 3, 3)) + 2.0 * np.eye(3)
        f[3] = np.diag([1.0, 5e-11, 2.0])
        with pytest.raises(Singular, match=r"^min singular value 5\.000e-11 <= 1e-10$"):
            nk.polar_two_metric(f)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            nk.polar_two_metric(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestComplexStructureConjugator:
    def test_same_structure(self):
        j = nk.standard_complex_structure(2)
        psi = nk.complex_structure_conjugator(j, j)
        assert np.max(np.abs(np.linalg.inv(psi) @ j @ psi - j)) <= 1e-8

    def test_reflection_anticonjugates(self):
        j = nk.standard_complex_structure(1)
        k = -j
        psi = nk.complex_structure_conjugator(j, k)
        assert np.max(np.abs(np.linalg.inv(psi) @ j @ psi - k)) <= 1e-8
        # diag(1, -1) also works; verify it satisfies the same identity
        d = np.diag([1.0, -1.0])
        assert np.allclose(np.linalg.inv(d) @ j @ d, -j, atol=1e-12)

    def test_random_conjugate_structure(self):
        rng = np.random.default_rng(31)
        j = nk.standard_complex_structure(3)
        a = rng.normal(size=(6, 6)) + 0.8 * np.eye(6)
        k = a @ j @ np.linalg.inv(a)
        psi = nk.complex_structure_conjugator(j, k)
        assert np.max(np.abs(np.linalg.inv(psi) @ j @ psi - k)) <= 1e-8

    def test_rejects_non_structure(self):
        with pytest.raises(NotComplexStructure):
            nk.complex_structure_conjugator(np.eye(2), nk.standard_complex_structure(1))

    def test_stack_equals_the_per_matrix_calls_bitwise(self):
        # the standard J of C^2 takes e_0 and e_1; the block-diagonal J with
        # J e_0 = e_1 rejects e_1 and takes e_2, so the stack mixes the
        # second candidates, and K = -J is among the pairs
        std, block = nk.standard_complex_structure(2), _block_structure()
        a = np.random.default_rng(3).normal(size=(4, 4)) + 2.0 * np.eye(4)
        conj = a @ block @ np.linalg.inv(a)
        j = np.stack([std, block, std, conj, block, conj])
        k = np.stack([block, std, -std, -conj, -block, std])
        second = nk._complex_adapted_basis(j[:2], 1e-8)[..., 2]
        assert [np.flatnonzero(b).tolist() for b in second] == [[1], [2]]
        psi = nk.complex_structure_conjugator(j, k)
        assert psi.shape == (6, 4, 4)
        for i in range(6):
            one = nk.complex_structure_conjugator(j[i], k[i])
            assert one.shape == (4, 4)
            assert one.tobytes() == psi[i].tobytes()
            assert one.tobytes() == _conjugator_per_matrix(j[i], k[i]).tobytes()
            assert np.max(np.abs(np.linalg.inv(one) @ j[i] @ one - k[i])) <= 1e-8
        nested = nk.complex_structure_conjugator(j.reshape(2, 3, 4, 4),
                                                 k.reshape(2, 3, 4, 4))
        assert nested.reshape(6, 4, 4).tobytes() == psi.tobytes()

    @pytest.mark.parametrize("side", ["J", "K"])
    def test_one_non_structure_refuses_the_stack(self, side):
        good = np.stack([nk.standard_complex_structure(2), _block_structure()] * 2)
        bad = good.copy()
        bad[2] = np.diag([1.0, 1.0, -1.0, -1.0])
        j, k = (bad, good) if side == "J" else (good, bad)
        with pytest.raises(NotComplexStructure, match=f"{side}\\^2 \\+ I defect"):
            nk.complex_structure_conjugator(j, k)


def _block_structure():
    # J e_0 = e_1, J e_2 = e_3
    j = np.zeros((4, 4))
    j[1, 0] = j[3, 2] = 1.0
    j[0, 1] = j[2, 3] = -1.0
    return j


def _conjugator_per_matrix(j, k):
    # the one-matrix Gram-Schmidt that the masked stack replaced, kept as
    # the oracle
    def adapted(j):
        n = j.shape[0]
        gram = np.eye(n) + j.T @ j

        def dot(u, w):
            return float(u @ gram @ w)

        basis = []
        for cand_idx in range(n):
            if 2 * len(basis) == n:
                break
            c = np.zeros(n)
            c[cand_idx] = 1.0
            for b in basis:
                c = c - dot(b, c) / dot(b, b) * b
                jb = j @ b
                c = c - dot(jb, c) / dot(jb, jb) * jb
            nrm = np.sqrt(dot(c, c))
            if nrm > 1e-8:
                basis.append(c / nrm)
        return np.column_stack([col for b in basis for col in (b, j @ b)])

    return adapted(j) @ np.linalg.inv(adapted(k))


class TestRealification:
    def test_realify_is_multiplicative(self):
        rng = np.random.default_rng(2)
        a, b = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                for _ in range(2))
        assert np.allclose(nk.realify(a @ b), nk.realify(a) @ nk.realify(b),
                           atol=1e-14)

    def test_realify_of_i_is_standard_structure(self):
        assert np.array_equal(nk.realify(1j * np.eye(3)),
                              nk.standard_complex_structure(3))

    def test_standard_structure_squares_to_minus_one(self):
        j = nk.standard_complex_structure(4)
        assert np.allclose(j @ j, -np.eye(8), atol=1e-14)


def test_sym_eigh_sign_and_order():
    rng = np.random.default_rng(9)
    s = random_spd(rng, 6)
    w, v = nk.sym_eigh(s)
    assert np.all(np.diff(w) >= -1e-12)
    for j in range(6):
        col = v[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))[0]
        assert col[nz[0]] > 0
    assert np.max(np.abs(s @ v - v * w)) <= 1e-10 * np.max(np.abs(s))


# -- oracles for the LAPACK paths ---------------------------------------------


def _jacobi_eigh(a):
    """Cyclic-by-rows Jacobi sweeps; eigenvalues unsorted."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    scale = np.sqrt(np.sum(a * a))
    if scale == 0.0:
        return np.zeros(n), v
    for _sweep in range(60):
        off = np.sum(np.triu(a, 1) ** 2)
        if np.sqrt(2.0 * off) <= 1e-15 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                a[:, [p, q]] = a[:, [p, q]] @ rot
                a[[p, q], :] = rot.T @ a[[p, q], :]
                v[:, [p, q]] = v[:, [p, q]] @ rot
    return np.diag(a).copy(), v


def test_sym_eigh_matches_jacobi_oracle():
    rng = np.random.default_rng(17)
    compared = 0
    for n in range(2, 9):
        for _ in range(10):
            a = rng.normal(size=(n, n))
            a = a + a.T
            w, v = nk.sym_eigh(a)
            w_ref, v_ref = _jacobi_eigh(a)
            order = np.argsort(w_ref, kind="stable")
            w_ref, v_ref = w_ref[order], v_ref[:, order]
            scale = np.max(np.abs(w_ref))
            assert np.max(np.abs(w - w_ref)) <= 1e-12 * scale
            if np.min(np.diff(w_ref)) < 1e-3 * scale:
                continue
            first = np.argmax(np.abs(v_ref) > 1e-12, axis=0)
            v_ref = v_ref * np.sign(v_ref[first, np.arange(n)])
            assert np.max(np.abs(v - v_ref)) <= 1e-11
            compared += 1
    assert compared >= 50


def test_polar_two_metric_matches_sym_sqrt_oracle():
    rng = np.random.default_rng(29)
    compared = 0
    while compared < 40:
        n = int(rng.integers(2, 6))
        f = rng.normal(size=(n, n))
        if np.linalg.cond(f) > 1e3:
            continue
        psi, xi = nk.polar_two_metric(f)
        psi_ref, xi_ref = polar_via_sym_sqrt(f)
        assert np.max(np.abs(psi - psi_ref)) <= 1e-10
        assert np.max(np.abs(xi - xi_ref)) <= 1e-10
        compared += 1


def _looped_sign_rule(v):
    # the per-column sign rule the vectorised one replaced, kept as oracle
    v = v.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        big = np.max(np.abs(col))
        if big == 0.0:
            continue
        nz = np.nonzero(np.abs(col) > 1e-12 * big)[0]
        if nz.size and col[nz[0]] < 0.0:
            v[:, j] = -col
    return v


def test_sym_eigh_on_a_stack_equals_per_matrix_oracle():
    rng = np.random.default_rng(23)
    mats = []
    for n in (2, 4, 6):
        a = rng.normal(size=(40, n, n))
        a = a + np.swapaxes(a, 1, 2)
        # block-diagonal matrices: eigenvectors with leading exact zeros
        a[:10, 0, 1:] = a[:10, 1:, 0] = 0.0
        mats.append(a)
    for a in mats:
        w, v = nk.sym_eigh(a)
        for i in range(a.shape[0]):
            w_i, v_i = np.linalg.eigh(0.5 * (a[i] + a[i].T))
            assert np.array_equal(w[i], w_i)
            assert np.array_equal(v[i], _looped_sign_rule(v_i))
            assert np.array_equal(nk.sym_eigh(a[i])[1], v[i])


def test_polar_two_metric_on_a_stack_equals_per_matrix():
    rng = np.random.default_rng(31)
    f = rng.normal(size=(9, 3, 3)) + 2.0 * np.eye(3)
    psi, xi = nk.polar_two_metric(f)
    for i in range(9):
        psi_i, xi_i = nk.polar_two_metric(f[i])
        assert np.array_equal(psi[i], psi_i)
        assert np.array_equal(xi[i], xi_i)
    nested = nk.polar_two_metric(f.reshape(3, 3, 3, 3))
    assert nested[0].reshape(9, 3, 3).tobytes() == psi.tobytes()
    assert nested[1].reshape(9, 3, 3).tobytes() == xi.tobytes()


def test_min_singular_value_of_a_tall_matrix():
    f = np.diag([3.0, 1.0, 2.0])[:, :2]
    assert nk.min_singular_value(f) == 1.0
    # a wide matrix is transposed
    assert nk.min_singular_value(f.T) == 1.0


CONDITIONS = [1e1, 1e4, 1e8, 1e12, 1e16, np.inf]


def _graded(rng, count, rows, cols, cond):
    # U diag(sigma) V^T with sigma geometric from 1 to 1/cond; at cond inf
    # the last column is exactly half the first (rank deficient), or zero
    # for one column
    u = np.linalg.qr(rng.normal(size=(count, rows, cols)))[0]
    v = np.linalg.qr(rng.normal(size=(count, cols, cols)))[0]
    sigma = np.geomspace(1.0, 1.0 / cond if np.isfinite(cond) else 0.1, cols)
    f = (u * sigma) @ np.swapaxes(v, -1, -2)
    if not np.isfinite(cond):
        f[..., -1] = 0.5 * f[..., 0] if cols > 1 else 0.0
    return f


@pytest.mark.parametrize("cond", CONDITIONS)
@pytest.mark.parametrize("tall", [0, 3])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_min_singular_value_matches_svd_oracle(r, tall, cond):
    # LAPACK's SVD as the oracle, at condition 1e1 to 1e16 and on exactly
    # rank-deficient matrices: within 4 eps of the largest singular value
    f = _graded(np.random.default_rng(100 * r + tall), 40, r + tall, r, cond)
    sv = np.linalg.svd(f, compute_uv=False)
    err = np.abs(nk.min_singular_value(f) - sv[:, -1])
    assert np.all(err <= 4 * EPS * sv[:, 0])


@pytest.mark.parametrize("tall", [0, 3])
@pytest.mark.parametrize("r", [2, 3, 5])
def test_min_singular_value_stack_equals_per_matrix_bitwise(r, tall):
    # conditions mixed in one stack, so its matrices converge at different
    # sweeps and the ones done early sit through the others' rotations
    rng = np.random.default_rng(7 * r + tall)
    f = np.concatenate([_graded(rng, 6, r + tall, r, c) for c in CONDITIONS])
    f = f[rng.permutation(len(f))]
    low = nk.min_singular_value(f)
    assert low.shape == (len(f),)
    for i in range(len(f)):
        one = nk.min_singular_value(f[i])
        assert one.shape == ()
        assert one.tobytes() == low[i].tobytes()
    nested = nk.min_singular_value(f.reshape(2, -1, r + tall, r))
    assert nested.reshape(-1).tobytes() == low.tobytes()
    if tall:
        # a wide stack is transposed
        wide = np.swapaxes(f, -1, -2)
        assert nk.min_singular_value(wide).tobytes() == low.tobytes()


@pytest.mark.parametrize("tall", [0, 3])
def test_min_singular_value_of_proportional_rows(tall):
    # rank deficient through its rows: the column left over is roundoff
    # lying in the others' span, which no rotation makes orthogonal to them
    f = np.random.default_rng(11).normal(size=(200, 3 + tall, 3))
    f[:, -1] = 0.5 * f[:, 0]
    sv = np.linalg.svd(f, compute_uv=False)
    err = np.abs(nk.min_singular_value(f) - sv[:, -1])
    assert np.all(err <= 4 * EPS * sv[:, 0])


@pytest.mark.parametrize("power", [-900, -500, 500, 900])
def test_min_singular_value_scales_exactly_by_powers_of_two(power):
    f = np.random.default_rng(13).normal(size=(50, 4, 3))
    low = nk.min_singular_value(f)
    assert nk.min_singular_value(np.ldexp(f, power)).tobytes() == \
        np.ldexp(low, power).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_min_singular_value_refuses_non_finite_entries(bad):
    f = np.random.default_rng(3).normal(size=(4, 3, 3))
    f[2, 1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        nk.min_singular_value(f)
    with pytest.raises(ValueError, match="non-finite"):
        nk.min_singular_value(f[2])


@pytest.mark.parametrize("shape", [(3,), (4, 0, 2), (2, 3, 0)])
def test_min_singular_value_refuses_empty_and_non_matrices(shape):
    with pytest.raises(ValueError, match="nonempty matrix"):
        nk.min_singular_value(np.ones(shape))


def test_min_singular_value_refuses_unconverged_sweeps(monkeypatch):
    f = np.random.default_rng(5).normal(size=(3, 3))
    monkeypatch.setattr(nk, "JACOBI_SWEEPS", 1)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge in 1"):
        nk.min_singular_value(f)


def test_norms_equal_per_vector_norms():
    v = np.random.default_rng(37).normal(size=(50, 5))
    assert np.array_equal(nk.norms(v), [np.linalg.norm(row) for row in v])


# -- the seeded stream -------------------------------------------------------

_MASK = 2 ** 64 - 1
_GAMMA = 0x9E3779B97F4A7C15


def _splitmix(z):
    # SplitMix64's mixer on a Python integer, the stream's reference
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _reference_doubles(seed, tag, count):
    key = _splitmix(_splitmix(seed) ^ tag)
    return [(_splitmix((key + k * _GAMMA) & _MASK) >> 11) * 2.0 ** -53
            for k in range(count)]


def test_splitmix_reference_gives_the_published_first_word():
    # SplitMix64 seeded with 0 first returns the mixer of gamma
    assert _splitmix(_GAMMA) == 0xE220A8397B1DCDAF


@pytest.mark.parametrize("seed,tag", [(0, 0), (42, 1), (7, 600), (2 ** 64 - 1, 3)])
def test_stream_words_are_the_reference_words(seed, tag):
    got = nk.stream(seed, tag).uniform(0.0, 1.0, 50)
    assert got.tolist() == _reference_doubles(seed, tag, 50)


def test_equal_keys_give_bitwise_equal_words():
    for seed, tag in [(0, 0), (42, 600), (3, 77)]:
        first, again = nk.stream(seed, tag), nk.stream(seed, tag)
        assert (first.uniform(-1.0, 2.0, 40).tobytes()
                == again.uniform(-1.0, 2.0, 40).tobytes())
        assert first.normal(size=(7, 3)).tobytes() == again.normal(size=(7, 3)).tobytes()


def test_other_seeds_and_tags_give_other_words():
    keys = [(s, t) for s in (0, 1, 42) for t in (0, 1, 2, 3, 77, 600)]
    words = {nk.stream(s, t).uniform(0.0, 1.0, 8).tobytes() for s, t in keys}
    assert len(words) == len(keys)


@pytest.mark.parametrize("n", [1, 5, 64])
def test_a_draw_continues_where_the_last_one_ended(n):
    whole = nk.stream(9, 4).uniform(0.0, 1.0, 2 * n)
    halves = nk.stream(9, 4)
    parts = np.concatenate([halves.uniform(0.0, 1.0, n), halves.uniform(0.0, 1.0, n)])
    assert whole.tobytes() == parts.tobytes()
    # normals read two words each, so a block is its rows drawn in turn
    block = nk.stream(9, 5).normal(size=(n, 3))
    rows = nk.stream(9, 5)
    assert block.tobytes() == np.stack([rows.normal(size=3) for _ in range(n)]).tobytes()


def test_uniform_lies_in_its_interval():
    for low, high in [(0.0, 1.0), (-1.0, 1.0), (2.5, 2.75)]:
        u = nk.stream(11, 0).uniform(low, high, size=(100, 50))
        assert u.shape == (100, 50)
        assert np.all((low <= u) & (u < high))


@pytest.mark.parametrize("low,high", [(0, 2), (0, 3), (1, 9), (-2, 5)])
def test_integers_hit_every_value_of_their_range_and_nothing_else(low, high):
    k = nk.stream(13, 1).integers(low, high, size=(40, 50))
    assert k.dtype == np.int64 and k.shape == (40, 50)
    assert set(np.unique(k).tolist()) == set(range(low, high))


def test_normals_are_finite_with_mean_0_and_variance_1():
    n = 10 ** 5
    z = nk.stream(17, 0).normal(size=n)
    assert np.all(np.isfinite(z))
    # within 5 standard errors: 1/sqrt(n) for the mean, sqrt(2/n) for the
    # variance of a normal sample
    assert abs(z.mean()) < 5.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)


def test_choice_returns_members_of_its_array():
    a = np.array([-2, -1, 1, 2])
    c = nk.stream(19, 2).choice(a, size=(8, 300))
    assert c.shape == (8, 300)
    assert set(np.unique(c).tolist()) == set(a.tolist())


def test_stream_refuses_negative_keys():
    for seed, tag in [(-1, 0), (0, -1)]:
        with pytest.raises(ValueError, match=">= 0"):
            nk.stream(seed, tag)
