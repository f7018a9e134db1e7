"""Hermitian matrix algebra.

Eigendecompositions, standard matrix functions, Schatten and induced norms,
the semidefinite order, the Hermitian dilation, and superoperator
(vectorized) representations of left/right multiplication.
"""
from __future__ import annotations

import math
import numbers
from typing import Callable

import numpy as np

# Anti-Hermitian residual above this relative level is treated as user error
# rather than roundoff.
HERMITIAN_REJECT_RTOL = 1e-8

# Default tolerance for semidefinite-order checks; scaled by 1 + ||A|| + ||B||.
PSD_TOL = 1e-9

_EIG_TIE_RTOL = 1e-12


class ShapeError(ValueError):
    """Operands have incompatible or invalid shapes."""


class DomainError(ValueError):
    """A scalar function was applied outside its domain."""


class ParameterError(ValueError):
    """A parameter is outside its documented range."""


class PreconditionError(ValueError):
    """A documented precondition does not hold for the given inputs."""


def _herm(a: np.ndarray) -> np.ndarray:
    """(a + a*)/2 on the last two axes in two buffers; exactly Hermitian, so replays are exact."""
    h = np.conj(np.swapaxes(a, -1, -2), order="C")
    h += a
    h /= 2
    return h


def _opnorm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


def _opnorms(a: np.ndarray) -> np.ndarray:
    """Operator norm of every matrix of a Hermitian stack (the last two axes):
    the largest |eigenvalue| from one eigvalsh; the stack must be Hermitian."""
    return np.max(np.abs(np.linalg.eigvalsh(a)), axis=-1)


def _array(value, what: str = "matrix", shape: tuple = (None, None), square: bool = False,
           finite: bool = True) -> np.ndarray:
    """The one reader of a caller's matrix or stack: a wrapper's checked array as
    it is, or any array or nested numbers as a fresh complex array, nonempty, of
    ``shape`` (or, if it holds Nones, of that many axes; the last two equal if
    ``square``).  A bool, non-number or ragged value is a ParameterError, a wrong
    shape a ShapeError and, if ``finite``, NaN or +-inf a DomainError, naming ``what``."""
    checked = isinstance(value, (HermitianMatrix, RectMatrix, SuperOperator))
    if checked:
        value = value.mat if isinstance(value, SuperOperator) else value.a
    elif not (isinstance(value, np.ndarray) and value.dtype.kind in "iufc"):
        # the type of every entry, so that a bool mixed into numbers is seen
        value = np.array(value, dtype=object)
        for t in set(map(type, value.ravel().tolist())):
            if t not in (float, int, complex) and not issubclass(t, np.number):
                raise ParameterError(f"{what} entries must be numbers, not {t.__name__}")
    try:
        a = value if checked else np.array(value, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"{what} entries must be numbers") from None
    if (a.ndim != len(shape) or not a.size or square and a.shape[-1] != a.shape[-2]
            or None not in shape and a.shape != shape):
        want = "x".join(map(str, shape)) if None not in shape else f"{len(shape)}-d"
        raise ShapeError(f"{what} must be a nonempty {'square ' * square}{want} array, "
                         f"got shape {a.shape}")
    return a if checked or not finite else _finite(a, what)


def _hermitians(named) -> list:
    """HermitianMatrix(m, name).a for each (name, m) of ``named``, all of one dimension."""
    named = list(named)
    out = [HermitianMatrix(m, name).a for name, m in named]
    if len({len(a) for a in out}) > 1:
        names = ", ".join(dict.fromkeys(name for name, _ in named))
        raise ShapeError(f"{names} must share one dimension, got {[len(a) for a in out]}")
    return out


def _field(obj, key: str, what: str, kind: type = object):
    """obj[key] of the JSON object ``what``: a ParameterError names a missing key,
    or one that does not hold a ``kind``."""
    if not isinstance(obj, dict) or key not in obj:
        raise ParameterError(f"{what} needs the key {key!r}")
    if not isinstance(obj[key], kind):
        raise ParameterError(f"{key!r} of {what} must be a {kind.__name__}")
    return obj[key]


def _json_parts(obj, what: str, *shape) -> np.ndarray:
    """The real and imaginary parts, shape (2, *shape) and complex, of a matrix in
    the JSON layout of hermitian_json and rect_json."""
    parts, size = [_field(obj, k, what, list) for k in ("real", "imag")], math.prod(shape)
    if [len(p) for p in parts] != [size, size]:
        raise ParameterError(f"{what} real and imag must each list {size} numbers")
    return _array(parts, what, (2, size), finite=False).reshape(2, *shape)


def _integer(value) -> int:
    """int(value), where a bool, a float with a fractional part or a value
    int() refuses is a ParameterError rather than truncated or let through."""
    fractional = isinstance(value, (float, np.floating)) and not value.is_integer()
    if not (isinstance(value, (bool, np.bool_)) or fractional):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ParameterError(f"{value!r} is not an integer")


def _real(value, what: str, least: float | None = None, strict: bool = False,
          inf: bool = False) -> float:
    """A real parameter: float(value), where a bool, a non-number, NaN, +-inf
    (+inf is read where ``inf``) or a value below ``least`` (or at it, with
    ``strict``) is a ParameterError naming ``what``."""
    try:
        out = math.nan if isinstance(value, (bool, np.bool_)) else float(value)
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    if ((math.isfinite(out) or inf and out == math.inf)
            and (least is None or out > least or out == least and not strict)):
        return out
    rule = "" if least is None else f" {'>' if strict else '>='} {least:g}"
    raise ParameterError(f"need a finite {what}{rule}{', or inf' if inf else ''}, got {value!r}")


def _count(value, what: str, least: int = 1) -> int:
    """A seed, dimension or count: _integer(value), and a ParameterError naming
    ``what`` where it is below ``least``."""
    out = _integer(value)
    if out < least:
        raise ParameterError(f"{what} must be an integer >= {least}, got {out}")
    return out


def _grid(values, what: str, read=_real, **rule) -> list:
    """A number or an iterable of values, each read as ``read(v, what, **rule)``:
    _real for reals, _count for counts.  Text, a mapping, or a grid with no
    values (which would check nothing) is a ParameterError naming ``what``."""
    if isinstance(values, numbers.Real):
        values = [values]
    elif isinstance(values, (str, bytes, dict)):
        raise ParameterError(f"a {what} grid is a number or a list of numbers, "
                             f"not {type(values).__name__}")
    out = [read(v, what, **rule) for v in values]
    if not out:
        raise ParameterError(f"empty {what} grid")
    return out


def _rng(seed) -> np.random.Generator:
    """The package's one random stream: Philox keyed by the seed, an integer >= 0."""
    return np.random.Generator(np.random.Philox(_count(seed, "seed", 0)))


def _finite(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    if not np.isfinite(a).all():
        raise DomainError(f"{what} entries must be finite")
    return a


def hermitian_json(a: np.ndarray) -> dict:
    """The JSON layout of a d x d array equal to (a + a*)/2 bit for bit, as
    HermitianMatrix stores it and every fuzz stack row is: d, then its real
    and imaginary parts in row-major order.  DomainError if not finite."""
    return {"dim": a.shape[0], "real": _finite(a).real.ravel().tolist(),
            "imag": a.imag.ravel().tolist()}


def rect_json(a: np.ndarray) -> dict:
    """The JSON layout of a 2-d array: its shape, then its real and imaginary
    parts in row-major order.  DomainError if not finite."""
    return {"rows": a.shape[0], "cols": a.shape[1], "real": _finite(a).real.ravel().tolist(),
            "imag": a.imag.ravel().tolist()}


class HermitianMatrix:
    """A dense Hermitian matrix.

    The constructor symmetrizes its input (d x d if ``dim`` is d) via (M + M*)/2
    and rejects input whose anti-Hermitian part exceeds ``HERMITIAN_REJECT_RTOL * ||M||``.
    Instances are immutable values: one built from another shares its read-only array.
    """

    __slots__ = ("a", "_eig")

    def __init__(self, entries, what: str = "matrix", dim: int | None = None):
        if isinstance(entries, HermitianMatrix) and dim in (None, entries.dim):
            self.a, self._eig = entries.a, entries._eig
            return
        m = _array(entries, what, (dim, dim), square=True)
        anti = (m - m.conj().T) / 2
        # an exactly Hermitian input has residual 0 and needs no norms
        if anti.any():
            resid = _opnorm(anti)
            if resid > HERMITIAN_REJECT_RTOL * _opnorm(m):
                raise ShapeError(
                    f"input is not Hermitian: anti-Hermitian residual {resid:.3e} "
                    f"exceeds {HERMITIAN_REJECT_RTOL:.1e} * ||M||"
                )
        h = _herm(m)
        h.setflags(write=False)
        self.a = h
        self._eig = None

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and matching eigenvectors, canonicalized."""
        if self._eig is None:
            self._eig = eigh_canonical(self.a)
        return self._eig

    def eigvals(self) -> np.ndarray:
        return self.eig()[0]

    def trace(self) -> float:
        return float(np.trace(self.a).real)

    def norm(self) -> float:
        """Operator norm (largest singular value)."""
        return float(np.max(np.abs(self.eigvals())))

    def to_json(self) -> dict:
        return hermitian_json(self.a)

    @classmethod
    def from_json(cls, obj: dict, what: str = "matrix") -> "HermitianMatrix":
        d = _count(_field(obj, "dim", what), "dim")
        parts = _json_parts(obj, what, d, d)
        return cls(parts[0] + 1j * parts[1], what)

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


class RectMatrix:
    """A rectangular complex matrix (no symmetry constraint)."""

    __slots__ = ("a",)

    def __init__(self, entries, what: str = "matrix"):
        m = _array(entries, what)
        m.setflags(write=False)
        self.a = m

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def to_json(self) -> dict:
        return rect_json(self.a)

    @classmethod
    def from_json(cls, obj: dict, what: str = "matrix") -> "RectMatrix":
        rows, cols = (_count(_field(obj, k, what), k) for k in ("rows", "cols"))
        parts = _json_parts(obj, what, rows, cols)
        return cls(parts[0] + 1j * parts[1], what)

    def __repr__(self) -> str:
        return f"RectMatrix({self.rows}x{self.cols})"


def eigh_canonical(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition with a reproducible eigenvector gauge.

    Eigenvalues come back sorted ascending.  Each eigenvector's phase is fixed
    so its largest-magnitude entry is real positive, and within a degenerate
    eigenvalue cluster columns are ordered lexicographically by their rounded
    entries, so repeated runs and reports agree bit for bit.
    """
    w, v = np.linalg.eigh(a)
    v = v.copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        j = int(np.argmax(np.abs(col)))
        piv = col[j]
        if abs(piv) > 0:
            col *= piv.conjugate() / abs(piv)
        # pin the pivot's imaginary part, which is zero up to roundoff
        v[j, k] = abs(piv)
    scale = max(abs(w[0]), abs(w[-1]), 1.0) if w.size else 1.0
    tol = _EIG_TIE_RTOL * scale
    start = 0
    for k in range(1, w.size + 1):
        if k == w.size or w[k] - w[start] > tol:
            if k - start > 1:
                cols = sorted(
                    range(start, k),
                    key=lambda i: tuple(
                        np.round(
                            np.column_stack((v[:, i].real, v[:, i].imag)).ravel(), 9
                        )
                    ),
                )
                v[:, start:k] = v[:, cols]
            start = k
    return w, v


def spectral_apply(u: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """U diag(f(w)) U* from an eigenbasis U and the values f(w).

    Works on the last two axes of ``u`` and the last axis of ``fw``, so one
    call serves a single d x d matrix and a stack of them alike; every matrix
    of a stack is formed by the same operations as on its own.
    """
    return (u * fw[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2))


def matrix_function(A, f: Callable) -> HermitianMatrix:
    """Standard matrix function: apply a scalar f to the spectrum of A.

    Parameters
    ----------
    A : HermitianMatrix or array_like
    f : callable mapping reals to reals, vectorized or scalar.

    Returns sum_k f(lambda_k) u_k u_k* as a HermitianMatrix.  If f is not
    finite on some eigenvalue, raises DomainError naming it.
    """
    w, v = (A if isinstance(A, HermitianMatrix) else HermitianMatrix(A, "A")).eig()
    with np.errstate(all="ignore"):
        try:
            fw = np.asarray(f(w), dtype=np.complex128)
            if fw.shape != w.shape:
                raise TypeError
        except Exception:
            fw = np.array([complex(f(x)) for x in w])
    bad = ~np.isfinite(fw) | (np.abs(fw.imag) > 1e-12 * (1 + np.abs(fw.real)))
    if np.any(bad):
        lam = w[np.argmax(bad)]
        raise DomainError(f"f is not real-valued and finite at eigenvalue {lam!r}")
    return HermitianMatrix(_herm(spectral_apply(v, fw.real)))


def schatten_norm(B, p) -> float:
    """Schatten p-norm: the l^p norm of the singular value vector.

    p may be any real >= 1 or inf (operator norm).
    """
    p = _real(p, "p", 1, inf=True)
    s = np.linalg.svd(_array(B, "B"), compute_uv=False)
    if math.isinf(p):
        return float(s[0])
    return float(np.sum(s**p) ** (1.0 / p))


def induced_norm(B, p) -> float:
    """Induced 1-norm (max column abs sum) or inf-norm (max row abs sum)."""
    p = _real(p, "p", inf=True)
    a = _array(B, "B")
    if p == 1:
        return float(np.max(np.sum(np.abs(a), axis=0)))
    if math.isinf(p):
        return float(np.max(np.sum(np.abs(a), axis=1)))
    raise ParameterError(f"only p in {{1, inf}} is implemented, got {p}")


def dilation(B) -> HermitianMatrix:
    """Hermitian dilation [[0, B], [B*, 0]]; spectrum is +-singular values."""
    return HermitianMatrix(_dilations(_array(B, "B")))


def _dilations(b: np.ndarray) -> np.ndarray:
    """The dilation of every matrix of a stack (the last two axes), in its dtype."""
    d1, d2 = b.shape[-2:]
    out = np.zeros(b.shape[:-2] + (d1 + d2, d1 + d2), dtype=b.dtype)
    out[..., :d1, d1:] = b
    out[..., d1:, :d1] = b.conj().swapaxes(-1, -2)
    return out


def psd_leq(A, B, tol: float = PSD_TOL) -> bool:
    """Semidefinite order A <= B, i.e. lambda_min(B - A) >= -tol * scale.

    The tolerance is relative: scale = 1 + ||A|| + ||B||.
    """
    a, b = _hermitians([("A", A), ("B", B)])
    scale = 1.0 + _opnorm(a) + _opnorm(b)
    lam_min = float(np.linalg.eigvalsh(b - a)[0])
    return lam_min >= -tol * scale


class SuperOperator:
    """A linear map on d x d matrices in its vectorized d^2 x d^2 form.

    Vectorization is column-stacking, so left multiplication by A is
    kron(I, A) and right multiplication by B is kron(B^T, I).
    """

    __slots__ = ("mat", "dim", "self_adjoint")

    def __init__(self, mat):
        m = _array(mat, "superoperator", square=True)
        d = math.isqrt(m.shape[0])
        if d * d != m.shape[0]:
            raise ShapeError(f"side {m.shape[0]} is not a perfect square")
        m.setflags(write=False)
        self.mat = m
        self.dim = d
        skew = m - m.conj().T
        self.self_adjoint = (not skew.any()
                             or _opnorm(skew) <= 1e-12 * max(1.0, _opnorm(m)))

    def apply(self, M) -> np.ndarray:
        """Evaluate the map on a d x d matrix."""
        m = _array(M, "M", (self.dim, self.dim))
        # column-stacking vectorization, and back
        return (self.mat @ m.reshape(-1, order="F")).reshape(m.shape, order="F")

    def compose(self, other: "SuperOperator") -> "SuperOperator":
        if self.dim != other.dim:
            raise ShapeError("dimension mismatch")
        return SuperOperator(self.mat @ other.mat)

    def __repr__(self) -> str:
        return f"SuperOperator(dim={self.dim}, self_adjoint={self.self_adjoint})"


def left_mult_op(A) -> SuperOperator:
    """The map M -> A M in vectorized form, kron(I, A)."""
    a = _array(A, "A", square=True)
    return SuperOperator(np.kron(np.eye(a.shape[0]), a))


def right_mult_op(B) -> SuperOperator:
    """The map M -> M B in vectorized form, kron(B^T, I)."""
    b = _array(B, "B", square=True)
    return SuperOperator(np.kron(b.T, np.eye(b.shape[0])))


def compose(S: SuperOperator, T: SuperOperator) -> SuperOperator:
    return S.compose(T)


def superop_function(S: SuperOperator, f: Callable) -> SuperOperator:
    """Apply a scalar function to a self-adjoint superoperator's spectrum."""
    if not S.self_adjoint:
        raise PreconditionError("superoperator is not self-adjoint")
    return SuperOperator(matrix_function(HermitianMatrix(S.mat), f).a)


def superop_abs(S: SuperOperator) -> SuperOperator:
    """|S| from the Jordan decomposition S_+ + S_- of a self-adjoint S."""
    return superop_function(S, np.abs)
