"""Core linear algebra: wrappers, matrix functions, dilation, superoperators."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matconc.matcore import (
    DomainError,
    HermitianMatrix,
    ParameterError,
    PreconditionError,
    RectMatrix,
    ShapeError,
    SuperOperator,
    _dilations,
    _herm as hermitian_part,
    _integer,
    _opnorms,
    _real,
    dilation,
    eigh_canonical,
    induced_norm,
    left_mult_op,
    matrix_function,
    psd_leq,
    right_mult_op,
    schatten_norm,
    superop_abs,
    superop_function,
)

ATOL = 1e-12

# series oracle for exp([[0,1],[1,0]]) = [[cosh 1, sinh 1], [sinh 1, cosh 1]]
COSH1 = 1.5430806348152437
SINH1 = 1.1752011936438014


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _herm(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


class TestHermitianPart:
    @pytest.mark.parametrize("shape", [(4, 4), (3, 2, 5, 5)])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_is_the_sum_form_bit_for_bit(self, shape, dtype):
        # (a* + a)/2 in two buffers is (a + a*)/2, as IEEE addition commutes;
        # a third of the parts, and entries (0, 1) and (1, 0), are signed zeros,
        # so -0 + -0, -0 + 0 and the conjugate of a zero imaginary part all occur
        rng = _rng(21)
        parts = rng.standard_normal((2,) + shape)
        zeros = rng.random(parts.shape) < 0.35
        parts[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
        parts[..., 0, 1] = parts[..., 1, 0] = -0.0
        a = np.empty(shape, dtype)
        a.real = parts[0]
        if dtype is np.complex128:
            a.imag = parts[1]
        given = a.copy()
        ref = (a + a.conj().swapaxes(-1, -2)) / 2
        got = hermitian_part(a)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes() and a.tobytes() == given.tobytes()


class TestWrappers:
    def test_accepts_hermitian(self):
        m = HermitianMatrix([[1.0, 2.0], [2.0, -1.0]])
        assert m.dim == 2
        assert m.trace() == 0.0

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            HermitianMatrix(np.zeros((2, 3)))

    def test_rejects_nonhermitian(self):
        with pytest.raises(ShapeError):
            HermitianMatrix([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            HermitianMatrix([[np.nan, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("entries", ["uniform", [[1.0, 2.0], [3.0]], {"a": 1}])
    def test_rejects_non_numeric(self, entries):
        # numpy's own conversion errors become the package's typed error
        for wrapper in (HermitianMatrix, RectMatrix):
            with pytest.raises(ParameterError, match="must be numbers"):
                wrapper(entries)

    def test_json_roundtrip_exact(self):
        m = HermitianMatrix(_herm(_rng(3), 4))
        back = HermitianMatrix.from_json(m.to_json())
        assert np.array_equal(back.a, m.a)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.complex64, np.complex128])
    def test_any_memory_layout(self, dtype):
        base = _herm(_rng(5), 4)
        if not np.issubdtype(dtype, np.complexfloating):
            base = np.round(base.real * 10)
        base = base.astype(dtype)
        wide = np.zeros((8, 8), dtype=dtype)
        wide[::2, ::2] = base
        layouts = {"C": np.ascontiguousarray(base), "F": np.asfortranarray(base),
                   "transposed": np.ascontiguousarray(base.T).T, "strided": wide[::2, ::2]}
        want = HermitianMatrix(np.ascontiguousarray(base)).a
        for name, a in layouts.items():
            assert np.array_equal(HermitianMatrix(a).a, want), name
            assert np.array_equal(RectMatrix(a).a, a.astype(np.complex128)), name
            assert np.array_equal(RectMatrix(a.T).a, a.T.astype(np.complex128)), name
        bad = np.asfortranarray(base.astype(np.complex128))
        bad[0, 1] = np.inf
        with pytest.raises(DomainError):
            RectMatrix(bad)

    def test_rect_json_roundtrip(self):
        r = RectMatrix(_rng(4).standard_normal((2, 3)) + 1j)
        back = RectMatrix.from_json(r.to_json())
        assert np.array_equal(back.a, r.a)
        assert (back.rows, back.cols) == (2, 3)


class TestMatrixFunctions:
    def test_expm_series_value(self):
        e = matrix_function(np.array([[0.0, 1.0], [1.0, 0.0]]), np.exp)
        ref = np.array([[COSH1, SINH1], [SINH1, COSH1]])
        np.testing.assert_allclose(e.a, ref, atol=1e-14)

    def test_eigh_canonical_reconstructs(self):
        a = _herm(_rng(1), 5)
        w, u = eigh_canonical(a)
        np.testing.assert_allclose((u * w) @ u.conj().T, a, atol=1e-12)
        w2, u2 = eigh_canonical(a.copy())
        assert np.array_equal(u, u2) and np.array_equal(w, w2)

    def test_matrix_function_scalar_and_vector_f(self):
        a = _herm(_rng(2), 3)
        by_vec = matrix_function(a, lambda w: w ** 2).a
        by_scalar = matrix_function(a, lambda w: float(w) ** 2).a
        np.testing.assert_allclose(by_vec, a @ a, atol=1e-10)
        np.testing.assert_allclose(by_scalar, by_vec, atol=1e-12)

    def test_matrix_function_domain_error(self):
        a = np.diag([1.0, -1.0])
        with pytest.raises(DomainError):
            matrix_function(a, np.log)

    def test_pos_neg_split(self):
        a = _herm(_rng(5), 4)
        p = matrix_function(a, lambda x: np.maximum(x, 0.0)).a
        n = matrix_function(a, lambda x: np.maximum(-x, 0.0)).a
        np.testing.assert_allclose(p - n, a, atol=1e-12)
        assert np.linalg.eigvalsh(p)[0] >= -1e-12
        assert np.linalg.eigvalsh(n)[0] >= -1e-12
        # the two parts live on orthogonal eigenspaces
        np.testing.assert_allclose(p @ n, 0.0, atol=1e-10)


class TestNorms:
    def test_schatten_two_is_frobenius(self):
        b = _rng(6).standard_normal((3, 4))
        assert abs(schatten_norm(b, 2) - np.linalg.norm(b)) < ATOL

    def test_schatten_one_on_diagonal(self):
        assert abs(schatten_norm(np.diag([3.0, -4.0]), 1) - 7.0) < ATOL

    def test_schatten_rejects_small_p(self):
        with pytest.raises(ParameterError):
            schatten_norm(np.eye(2), 0.5)

    def test_induced_one_and_inf_norms(self):
        b = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
        assert induced_norm(b, 1) == 5.0        # max column abs sum
        assert induced_norm(b, np.inf) == 4.0   # max row abs sum
        with pytest.raises(ParameterError):
            induced_norm(b, 2)

    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_opnorms_of_a_hermitian_stack_are_the_svd_norms(self, d):
        # the largest |eigenvalue| off eigvalsh (+0.0 for a zero matrix), real and
        # complex, each sign of extreme leading, PSD, NSD and zero members among them
        rng = _rng(d)
        herms = np.stack([_herm(rng, d) for _ in range(12)])
        stack = np.concatenate([herms, herms.real, -herms, herms @ herms, -(herms @ herms),
                                np.zeros((1, d, d))])
        for a in (stack, stack.real):
            want = np.linalg.norm(a, 2, axis=(-2, -1))
            got = _opnorms(a)
            assert got.shape == want.shape and not np.signbit(got).any() and got[-1] == 0.0
            assert np.all(np.abs(got - want) <= 1e-14 * want)


class TestDilation:
    def test_known_spectrum(self):
        rng = np.random.default_rng(7)
        b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        sv = np.linalg.svd(b, compute_uv=False)
        lam = dilation(b).eigvals()
        want = np.sort(np.concatenate([sv, -sv, [0.0]]))
        np.testing.assert_allclose(np.sort(lam), want, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 5), cols=st.integers(1, 5), seed=st.integers(0, 10**6))
    def test_spectrum_is_plus_minus_singular_values(self, rows, cols, seed):
        b = _rng(seed).standard_normal((rows, cols))
        sv = np.linalg.svd(b, compute_uv=False)
        lam = np.sort(dilation(b).eigvals())
        want = np.sort(np.concatenate([sv, -sv, np.zeros(rows + cols - 2 * len(sv))]))
        np.testing.assert_allclose(lam, want, atol=1e-10)

    def test_stack_is_the_per_matrix_dilation(self):
        b = _rng(9).standard_normal((5, 2, 3)) + 1j * _rng(10).standard_normal((5, 2, 3))
        assert np.array_equal(_dilations(b), np.stack([dilation(m).a for m in b]))


class TestOrderAndInner:
    def test_psd_leq(self):
        a = _herm(_rng(8), 3)
        assert psd_leq(a, a + 0.1 * np.eye(3))
        assert not psd_leq(a + 0.1 * np.eye(3), a)


class TestSuperOperators:
    def test_vec_unvec_roundtrip(self):
        # apply stacks columns: the identity returns M, and a permutation of the
        # vectorized entries moves them as column-stacking dictates
        m = _rng(10).standard_normal((3, 3)) + 1j
        np.testing.assert_array_equal(SuperOperator(np.eye(9)).apply(m), m)
        swap = np.eye(9)[[1, 0, 2, 3, 4, 5, 6, 7, 8]]  # swap vec entries 0 and 1
        want = m.copy()
        want[[0, 1], 0] = m[[1, 0], 0]
        np.testing.assert_array_equal(SuperOperator(swap).apply(m), want)

    def test_left_right_apply(self):
        rng = _rng(11)
        a = _herm(rng, 3)
        b = _herm(rng, 3)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(left_mult_op(a).apply(m), a @ m, atol=ATOL)
        np.testing.assert_allclose(right_mult_op(b).apply(m), m @ b, atol=ATOL)

    def test_left_right_commute(self):
        rng = _rng(12)
        a, b = _herm(rng, 2), _herm(rng, 2)
        la, rb = left_mult_op(a), right_mult_op(b)
        np.testing.assert_allclose(la.compose(rb).mat, rb.compose(la).mat, atol=ATOL)

    def test_hermitian_arguments_give_self_adjoint_ops(self):
        a = _herm(_rng(13), 3)
        assert left_mult_op(a).self_adjoint
        assert right_mult_op(a).self_adjoint

    def test_superop_function_matches_functional_calculus(self):
        # f(left mult by A) is left mult by f(A)
        a = _herm(_rng(14), 2)
        fa = matrix_function(a, lambda w: w ** 3).a
        np.testing.assert_allclose(
            superop_function(left_mult_op(a), lambda w: w ** 3).mat,
            left_mult_op(fa).mat, atol=1e-10)

    def test_superop_abs_is_psd(self):
        raw = _rng(15).standard_normal((4, 4))
        s = SuperOperator((raw + raw.T) / 2)
        lam = np.linalg.eigvalsh(superop_abs(s).mat)
        assert lam[0] >= -1e-12

    def test_rejects_non_square_dimension(self):
        with pytest.raises(ShapeError):
            SuperOperator(np.zeros((3, 3)))  # 3 is not d*d for integer d

    def test_superop_function_needs_self_adjoint(self):
        raw = _rng(16).standard_normal((4, 4))
        with pytest.raises(PreconditionError):
            superop_function(SuperOperator(raw + np.triu(np.ones((4, 4)))), np.abs)


class TestRealRule:
    @pytest.mark.parametrize("value, least, strict, want", [
        (2, None, False, 2.0), (np.float64(-1.5), None, False, -1.5), ("0.25", 0, True, 0.25),
        (0, 0, False, 0.0), (np.int64(3), 1, True, 3.0),
    ])
    def test_accepts_a_finite_number_in_range(self, value, least, strict, want):
        got = _real(value, "x", least, strict)
        assert type(got) is float and got == want

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, "nan", "-inf", 10**400,
                                       True, np.bool_(False), None, "x", [1.0], 1j])
    def test_refuses_what_is_not_a_finite_real(self, value):
        with pytest.raises(ParameterError, match="^need a finite psi, got "):
            _real(value, "psi")

    @pytest.mark.parametrize("value, least, strict, rule", [
        (-1e-300, 0, False, ">= 0"), (0.0, 0, True, "> 0"), (1, 1, True, "> 1"),
    ])
    def test_refuses_a_value_below_its_least(self, value, least, strict, rule):
        with pytest.raises(ParameterError, match=f"^need a finite s {rule}, got "):
            _real(value, "s", least, strict)


@pytest.mark.parametrize("value", [None, "x", "2.5", [2], 2.5, True])
def test_integer_refuses_what_int_refuses(value):
    with pytest.raises(ParameterError, match="is not an integer"):
        _integer(value)
