"""Exchangeable pairs, kernels, couplings, and variance proxies.

Models are product distributions Z = (Z_1, ..., Z_n) with a Hermitian-valued
map H; the centered matrix of interest is X = H(Z) - E H(Z).  Everything is
exact on finite product spaces below a cardinality cutoff, as sums over
single-coordinate replacements of the outcome tensor (MatrixModel.H_tensor),
and seeded Monte Carlo otherwise.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _accel
from .matcore import (
    HermitianMatrix,
    ParameterError,
    PreconditionError,
    ShapeError,
    _dilations,
    _opnorm,
    _opnorms,
)

# Above this product-space cardinality, enumeration gives way to Monte Carlo.
ENUM_CUTOFF = 100_000

# the samples and the seed of the Monte Carlo mean of a model above the cutoff
_MEAN_MC_SAMPLES = 20_000
_MEAN_SEED = 0


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(int(seed)))


def _read_only(T: np.ndarray) -> np.ndarray:
    """T, with writes refused: how every kept outcome tensor is held."""
    T.setflags(write=False)
    return T


# ---------------------------------------------------------------------------
# product distributions


class FiniteCoord:
    """A finite coordinate support: values with probabilities summing to 1."""

    __slots__ = ("values", "probs", "_cum")

    def __init__(self, pairs):
        vals, probs = [], []
        for v, p in pairs:
            vals.append(float(v))
            probs.append(float(p))
        p = np.array(probs, dtype=float)
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ParameterError(f"probabilities must be nonnegative and sum to 1, got {probs}")
        self.values = np.array(vals, dtype=float)
        self.probs = p
        self._cum = np.cumsum(p)

    def sample_index(self, rng: np.random.Generator, size=None):
        """Positions in ``values`` of draws from the coordinate's law."""
        idx = np.searchsorted(self._cum, rng.random(size), side="right")
        return np.minimum(idx, len(self.values) - 1)

    def sample(self, rng: np.random.Generator, size=None):
        return self.values[self.sample_index(rng, size)]

    def __len__(self):
        return len(self.values)


class SampledCoord:
    """A coordinate with a named sampler instead of a finite support."""

    __slots__ = ("name", "sampler")

    def __init__(self, name: str, sampler: Callable):
        self.name = name
        self.sampler = sampler

    def sample(self, rng: np.random.Generator, size=None):
        return self.sampler(rng, size)


def _coord_keys(j, v) -> np.ndarray:
    """j + iv, elementwise, keeping infinite v (1j * inf is nan + inf j)."""
    keys = np.empty(np.broadcast_shapes(np.shape(j), np.shape(v)), dtype=np.complex128)
    keys.real, keys.imag = j, v
    return keys


class ProductDistribution:
    """Mutually independent coordinates, each finite or sampler-backed."""

    def __init__(self, coords: Sequence):
        if not coords:
            raise ParameterError("need at least one coordinate")
        self.coords = tuple(coords)
        self.finite = all(isinstance(c, FiniteCoord) for c in self.coords)
        # read on every H cache miss, through MatrixModel.exact
        self._shape = tuple(len(c) for c in self.coords) if self.finite else None
        self._probs = None
        if self.finite:
            # key j + iv per value v of coordinate j: numpy orders complex numbers by
            # real, then imaginary part, so one sorted array holds every support in turn
            keys = _coord_keys(np.repeat(np.arange(self.n), self._shape),
                               np.concatenate([c.values for c in self.coords]))
            order = np.argsort(keys, kind="stable")  # equal values: the first one
            self._keys = keys[order]
            self._digits = np.concatenate([np.arange(k) for k in self._shape])[order]

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def cardinality(self) -> int:
        return math.prod(self.shape)

    @property
    def shape(self) -> tuple:
        """Support sizes: the leading axes of every outcome tensor."""
        if not self.finite:
            raise PreconditionError("cardinality is defined for finite distributions only")
        return self._shape

    def probabilities(self) -> np.ndarray:
        """Outcome probabilities, shape ``shape``: the products outcomes() yields, kept."""
        if not self.finite:
            raise PreconditionError("outcome probabilities need a finite distribution")
        if self._probs is None:
            self._probs = np.ones(())
            for c in self.coords:
                self._probs = self._probs[..., None] * c.probs
            self._probs.setflags(write=False)
        return self._probs

    def locate(self, zs) -> np.ndarray:
        """Positions in outcomes() order of the rows of ``zs``, an (m, n) array."""
        shape = self.shape
        try:
            zs = np.array(zs, dtype=float, ndmin=2)
        except (TypeError, ValueError):
            zs = None
        if zs is None or zs.shape[1:] != (self.n,):
            raise ParameterError(f"outcome rows must be rows of {self.n} numbers")
        q = _coord_keys(np.arange(self.n), zs)
        pos = np.minimum(np.searchsorted(self._keys, q), len(self._keys) - 1)
        found = (self._keys[pos] == q).all(axis=1)
        if not found.all():
            raise ParameterError(f"{tuple(zs[np.argmin(found)].tolist())!r} is not an outcome")
        return np.ravel_multi_index(self._digits[pos].T, shape)

    def index(self, z) -> int:
        """Position of the outcome z in outcomes() order."""
        return int(self.locate([z])[0])

    def sample(self, rng: np.random.Generator) -> tuple:
        return tuple(float(c.sample(rng)) for c in self.coords)

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        cols = [np.asarray(c.sample(rng, count), dtype=float) for c in self.coords]
        return np.column_stack(cols)

    def sample_outcomes(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """The draws of sample_many as positions in outcomes() order."""
        idx = [c.sample_index(rng, count) for c in self.coords]
        return np.ravel_multi_index(idx, self.shape)

    def outcomes(self):
        """Iterate (z, probability) over the whole product space."""
        if not self.finite:
            raise PreconditionError("outcomes() needs a finite distribution")
        yield from zip(itertools.product(*(c.values for c in self.coords)),
                       self.probabilities().ravel())

    @classmethod
    def uniform_pm1(cls, n: int) -> "ProductDistribution":
        return cls([FiniteCoord([(-1.0, 0.5), (1.0, 0.5)]) for _ in range(n)])

    def to_json(self) -> dict:
        if not self.finite:
            raise PreconditionError("only finite distributions serialize")
        return {
            "n": self.n,
            "coords": [
                [[float(v), float(p)] for v, p in zip(c.values, c.probs)]
                for c in self.coords
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ProductDistribution":
        return cls([FiniteCoord(pairs) for pairs in obj["coords"]])


# ---------------------------------------------------------------------------
# matrix models


def _zkey(z) -> str:
    return json.dumps([float(v) for v in z])


def _rows(H: Callable, zs, shape: tuple) -> np.ndarray:
    """H at the outcome rows ``zs``: a float64 stack of ``shape``, complex128 if H is."""
    zs = np.asarray(zs, dtype=float)
    hs = np.asarray(H(zs))
    hs = hs.astype(np.complex128 if np.iscomplexobj(hs) else np.float64, copy=False)
    if hs.shape != (len(zs),) + shape:
        raise ShapeError(f"H returned shape {hs.shape}, expected {(len(zs),) + shape}")
    return hs


class MatrixModel:
    """A product distribution with a Hermitian-valued map H.

    H maps an (m, n) float array of outcome rows to an (m, d, d) stack, row by
    row.  The mean E H(Z) is exact (full enumeration) for finite models under
    the cardinality cutoff ENUM_CUTOFF, else a Monte Carlo estimate of
    _MEAN_MC_SAMPLES draws at _MEAN_SEED whose provenance is recorded.
    """

    def __init__(self, dist: ProductDistribution, H: Callable, d: int, name: str = ""):
        self.dist = dist
        self._H = H
        self.d = int(d)
        self.name = name or "model"
        self._mean = None
        self.mean_provenance = None
        self._h_cache: dict = {}
        self._tensor = None
        self._x_tensor = None
        self._v_map = None

    # -- evaluation

    def H(self, z) -> np.ndarray:
        """H at one outcome, one row of ``H_rows``; memoised on exact models only,
        since sampled outcomes of a continuous model do not repeat."""
        key = tuple(z)
        got = self._h_cache.get(key)
        if got is None:
            got = self.H_rows([key])[0]
            if self.exact and len(self._h_cache) < 4 * ENUM_CUTOFF:
                self._h_cache[key] = got
        return got

    def H_rows(self, zs) -> np.ndarray:
        """H at each row of ``zs`` (an array, or outcome tuples), shape
        (len(zs), d, d): one call of H, symmetrised."""
        hs = _rows(self._H, zs, (self.d, self.d))
        return (hs + hs.conj().swapaxes(-1, -2)) / 2

    @property
    def exact(self) -> bool:
        return self.dist.finite and self.dist.cardinality <= ENUM_CUTOFF

    def H_tensor(self) -> np.ndarray:
        """The outcome tensor: H over the support, shape (|V_1|, ..., |V_n|, d, d).

        Built through ``H_rows`` over outcomes() on first use, and kept.
        """
        if self._tensor is None:
            if not self.exact:
                raise PreconditionError("outcome tensors need a finite model under the cutoff")
            zs = [z for z, _ in self.dist.outcomes()]
            self._tensor = _read_only(self.H_rows(zs).reshape(self.dist.shape + (self.d, self.d)))
        return self._tensor

    def X_tensor(self) -> np.ndarray:
        """X = H - E H over the support, as an outcome tensor: built on first
        use, and kept read-only, as H_tensor is."""
        if self._x_tensor is None:
            self._x_tensor = _read_only(self.H_tensor() - self.mean())
        return self._x_tensor

    def expect(self, T: np.ndarray) -> np.ndarray:
        """E T(Z) for an outcome tensor T (exact models only), as np.tensordot runs it."""
        probs = self.dist.probabilities()
        return np.dot(probs.reshape(1, -1), T.reshape(probs.size, -1)).reshape(
            T.shape[self.dist.n:])

    def mean(self) -> np.ndarray:
        if self._mean is None:
            if self.exact:
                self._mean = self.expect(self.H_tensor())
                self.mean_provenance = {"method": "exact"}
            else:
                zs = self.dist.sample_many(_rng(_MEAN_SEED), _MEAN_MC_SAMPLES)
                # adds the samples in draw order; times 1/N, as numpy divides complex sums
                self._mean = self.H_rows(zs).sum(axis=0) * (1.0 / _MEAN_MC_SAMPLES)
                self.mean_provenance = {
                    "method": "mc",
                    "samples": _MEAN_MC_SAMPLES,
                    "seed": _MEAN_SEED,
                }
        return self._mean

    def X(self, z) -> np.ndarray:
        return self.H(z) - self.mean()

    def max_h_norm(self) -> float:
        """max over the support of ||H(z)||; finite models only."""
        if not self.exact:
            raise PreconditionError("max_h_norm needs a finite model under the cutoff")
        return float(np.max(_opnorms(self.H_tensor())))

    def sample_X(self, count: int, seed: int) -> np.ndarray:
        """Draw ``count`` centered samples X = H(Z) - E H(Z), shape (count, d, d)."""
        return self.H_rows(self.dist.sample_many(_rng(seed), count)) - self.mean()

    # -- coordinate surgery

    def replace(self, z: tuple, j: int, v: float) -> tuple:
        out = list(z)
        out[j] = float(v)
        return tuple(out)

    def to_json(self) -> dict:
        if not self.dist.finite:
            raise PreconditionError("only finite models serialize")
        zs = [z for z, _ in self.dist.outcomes()]
        table = {_zkey(z): {"real": h.real.ravel().tolist(), "imag": h.imag.ravel().tolist()}
                 for z, h in zip(zs, self.H_rows(zs))}
        return {
            "name": self.name,
            "d": self.d,
            "dist": self.dist.to_json(),
            "H": table,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MatrixModel":
        dist = ProductDistribution.from_json(obj["dist"])
        d = int(obj["d"])
        table = obj["H"]
        # a table smaller than the support fails before the support is enumerated
        if len(table) < dist.cardinality or any(_zkey(z) not in table
                                                for z, _ in dist.outcomes()):
            raise ParameterError("the H table does not cover every outcome of dist")
        parts = [[table[_zkey(z)][k] for k in ("real", "imag")] for z, _ in dist.outcomes()]
        return _table_model(dist, np.array(parts, dtype=float), d, obj.get("name", "model"))


def _table_model(dist: ProductDistribution, parts: np.ndarray, d: int,
                 name: str) -> MatrixModel:
    """A model whose H looks each row up in a table of one matrix per outcome
    in outcomes() order, given by its real and imaginary parts ``parts[:, 0]``
    and ``parts[:, 1]`` (held real if the latter are 0); H_rows symmetrises it."""
    parts = parts.reshape(dist.cardinality, 2, d, d)
    table = parts[:, 0] + 1j * parts[:, 1] if parts[:, 1].any() else parts[:, 0]
    return MatrixModel(dist, lambda zs: table[dist.locate(zs)], d, name=name)


class RectangularModel:
    """Like MatrixModel but H maps outcome rows to (m, rows, cols) stacks."""

    def __init__(self, dist: ProductDistribution, H: Callable, rows: int, cols: int,
                 name: str = ""):
        self.dist = dist
        self._H = H
        self.rows = int(rows)
        self.cols = int(cols)
        self.name = name or "rect_model"
        self._mean = None

    def H_rows(self, zs) -> np.ndarray:
        return _rows(self._H, zs, (self.rows, self.cols))

    def H(self, z) -> np.ndarray:
        return self.H_rows([tuple(z)])[0]

    exact = MatrixModel.exact

    def mean(self) -> np.ndarray:
        if self._mean is None:
            if not self.exact:
                raise PreconditionError("rectangular models are enumerated exactly only")
            hs = self.H_rows([z for z, _ in self.dist.outcomes()])
            # the sum along axis 0 adds the outcomes one after another
            self._mean = (self.dist.probabilities().reshape(-1, 1, 1) * hs).sum(axis=0)
        return self._mean

    def X(self, z) -> np.ndarray:
        return self.H(z) - self.mean()


def dilate_model(model: RectangularModel) -> MatrixModel:
    """Hermitian model whose H is the dilation of the rectangular H."""
    return MatrixModel(model.dist, lambda zs: _dilations(model.H_rows(zs)),
                       model.rows + model.cols, name=f"dilated({model.name})")


# ---------------------------------------------------------------------------
# builtins


def hypercube_sum(n: int, d: int = 2) -> MatrixModel:
    """H(z) = (sum_j z_j) E_11 on uniform {+-1}^n; E H = 0."""
    if n < 1 or d < 1:
        raise ParameterError(f"need n >= 1 and d >= 1, got n={n} d={d}")

    def H(zs):
        out = np.zeros((zs.shape[0], d, d))
        out[:, 0, 0] = zs.sum(axis=1)
        return out

    return MatrixModel(ProductDistribution.uniform_pm1(n), H, d,
                       name=f"hypercube_sum(n={n},d={d})")


def bounded_diff_demo(n: int = 3, d: int = 2) -> MatrixModel:
    """H(z) = sum_j z_j M_j with fixed Hermitian M_j and z uniform on {+-1}^n."""
    # coordinate by coordinate, the real then the imaginary part of a d x d draw
    parts = _rng(20_240_501).standard_normal((n, 2, d, d))
    g = parts[:, 0] + 1j * parts[:, 1]
    stack = (g + g.conj().swapaxes(-1, -2)) / 2
    return MatrixModel(ProductDistribution.uniform_pm1(n),
                       lambda zs: np.einsum("kj,jab->kab", zs, stack), d,
                       name=f"bounded_diff_demo(n={n},d={d})")


def compound_covariance(p: int, n: int, B=None, entry_dist: str = "pm1",
                        L: float = 1.0) -> MatrixModel:
    """H(z) = Z B Z* with Z the p x n matrix of the iid coordinates, uniform on
    {-L, L} for entry_dist "pm1" (sigma2 = L^2) or on [-L, L] for "uniform"
    (sigma2 = L^2/3, and the model falls back to Monte Carlo means)."""
    if not (np.isfinite(L) and L > 0):
        raise ParameterError(f"need a finite L > 0, got {L}")
    if B is None:
        B = np.eye(n)
    Bh = B if isinstance(B, HermitianMatrix) else HermitianMatrix(B)
    if Bh.dim != n:
        raise ShapeError(f"B must be {n}x{n}, got {Bh.dim}")
    if entry_dist == "pm1":
        coords = [FiniteCoord([(-L, 0.5), (L, 0.5)]) for _ in range(p * n)]
    elif entry_dist == "uniform":
        coords = [SampledCoord("uniform", lambda rng, size=None: rng.uniform(-L, L, size))
                  for _ in range(p * n)]
    else:
        raise ParameterError(f"unknown entry_dist {entry_dist!r}")

    Ba = Bh.a if Bh.a.imag.any() else Bh.a.real  # Z is real: a real B keeps Z B Z^T real

    def H(zs):
        # matmul runs per matrix, so each row is Z B Z^T of that row alone
        Z = zs.reshape(-1, p, n)
        return (Z @ Ba) @ Z.swapaxes(-1, -2)

    return MatrixModel(ProductDistribution(coords), H, p,
                       name=f"compound_covariance(p={p},n={n},{entry_dist})")


def rect_demo(n: int = 3) -> RectangularModel:
    """A small rectangular-valued model on {+-1}^n with 2 x 3 values."""

    def H(zs):
        z0, z1, z2 = np.hstack([zs, np.ones((len(zs), 2))])[:, :3].T  # missing ones read 1
        return np.stack([[z0, z1, z2], [z2 * z0, z0 * z1, z1 * z2]]).transpose(2, 0, 1)

    return RectangularModel(ProductDistribution.uniform_pm1(n), H, 2, 3,
                            name=f"rect_demo(n={n})")


def random_finite_model(n: int, d: int, seed: int) -> MatrixModel:
    """Binary-coordinate model with an independent random Hermitian per outcome."""
    if n < 1 or d < 1:
        raise ParameterError(f"need n >= 1 and d >= 1, got n={n} d={d}")
    dist = ProductDistribution.uniform_pm1(n)
    # outcome by outcome, the real then the imaginary part of a d x d draw
    return _table_model(dist, _rng(seed).standard_normal((dist.cardinality, 2, d, d)), d,
                        f"random_finite(n={n},d={d},seed={seed})")


# ---------------------------------------------------------------------------
# exchangeable pairs


class ExchangeablePair:
    """Sampler for (Z, Z') with Z' = Z with one uniformly chosen coordinate
    replaced by an independent copy."""

    def __init__(self, model: MatrixModel, seed: int):
        self.model = model
        self.seed = int(seed)
        self._gen = _rng(seed)

    def sample(self) -> tuple:
        model = self.model
        z = model.dist.sample(self._gen)
        j = int(self._gen.integers(0, model.dist.n))
        v = float(model.dist.coords[j].sample(self._gen))
        return z, model.replace(z, j, v)

    def joint_pmf(self) -> dict:
        """Exact joint pmf of (Z, Z') as a dict keyed by the pair of tuples.

        Each cell is assembled as base * (p_a * p_b) / n with the replaced
        coordinate's two probabilities multiplied first, so the table is
        symmetric under swap bitwise, not just up to rounding.
        """
        model = self.model
        if not model.exact:
            raise PreconditionError("joint pmf needs a finite model")
        coords = model.dist.coords
        n = len(coords)
        pmf: dict = {}
        for idx in itertools.product(*(range(len(c)) for c in coords)):
            z = tuple(float(c.values[i]) for c, i in zip(coords, idx))
            for j, coord in enumerate(coords):
                base = 1.0
                for k, (c, i) in enumerate(zip(coords, idx)):
                    if k != j:
                        base *= c.probs[i]
                for b, pb in zip(coord.values, coord.probs):
                    key = (z, z[:j] + (float(b),) + z[j + 1:])
                    pmf[key] = pmf.get(key, 0.0) + base * (coord.probs[idx[j]] * pb) / n
        return pmf


# ---------------------------------------------------------------------------
# replacement neighbours


def outcome_stack(T: np.ndarray) -> np.ndarray:
    """An outcome tensor as a flat stack of shape (S, ...) in outcomes() order."""
    return T.reshape((-1,) + T.shape[-2:])


def neighbour(T: np.ndarray, j: int, v: int) -> np.ndarray:
    """T at z_{j<-v} for every outcome z: axis j pinned at the v-th value, kept
    with length 1 so that the result broadcasts against T."""
    return T[(slice(None),) * j + (slice(v, v + 1),)]


def _square(a: np.ndarray) -> np.ndarray:
    return a @ a


def replacement_sum(dist: ProductDistribution, term: Callable,
                    pair_law: bool = False):
    """Sum of w_{j,v} * term(j, v) over every replacement z -> z_{j<-v}.

    Terms are added j first, then v in support order.  The weight is
    p_{j,v}, the probability of the v-th value of coordinate j, or p_{j,v}/n
    under the exchangeable-pair law (a uniform coordinate J is replaced).
    """
    n = dist.n
    return sum((p / n if pair_law else p) * term(j, v)
               for j, c in enumerate(dist.coords) for v, p in enumerate(c.probs))


def _pair_cells(dist: ProductDistribution, form: Callable, *Ts):
    """(j, cells) for each coordinate j of two or more values: cells[u, v] =
    form(*Ts at z_j = u, *Ts at z_j = v) for each pair u < v, axis j counted
    back from the trailing (d, d).  Every form here is symmetric in u, v bit
    for bit, as IEEE subtraction is antisymmetric and (-A)(-B) = AB."""
    for j, c in enumerate(dist.coords):
        if len(c) > 1:
            after = (slice(None),) * (dist.n + 1 - j)  # the axes after j
            at = [tuple(T[(..., u) + after] for T in Ts) for u in range(len(c))]
            yield j, {(u, v): form(*at[u], *at[v])
                      for u, v in itertools.combinations(range(len(c)), 2)}


def _stacked(cells: dict, j: int, v: int, m: int) -> np.ndarray:
    """One (j, v) term: the cells (u, v) of a coordinate of m values stacked
    along axis j at z_j = u, an exact zero at z_j = v."""
    zero = np.zeros(cells[0, 1].shape, cells[0, 1].dtype)
    return np.stack([cells[min(u, v), max(u, v)] if u != v else zero
                     for u in range(m)], axis=j)


def _replacement_squares(dist: ProductDistribution, T: np.ndarray) -> np.ndarray:
    """replacement_sum of (T - neighbour(T, j, v))^2, an outcome tensor, bit for bit.

    Each pair's square is added into its two slices in pair order, so into
    each slice v by v, as replacement_sum adds; the exact zeros at z_j = v are
    skipped, as the accumulator never holds -0.0."""
    acc = np.zeros_like(T)
    # each pair's cell: its two slices of the accumulator, and its square
    for j, cells in _pair_cells(dist, lambda t_u, a_u, t_v, a_v: (a_u, a_v, _square(t_u - t_v)),
                                T, acc):
        p = dist.coords[j].probs
        for (u, v), (acc_u, acc_v, sq) in cells.items():
            acc_u += p[v] * sq
            acc_v += p[u] * sq
    return acc


def _require_kernel(model: MatrixModel, kernel) -> None:
    """The exact kernel checks need an enumerable model and a kernel built for it."""
    if not model.exact:
        raise PreconditionError("kernel checks enumerate finite models under the cutoff")
    if kernel.model is not model:
        raise PreconditionError("kernel was built for a different model")


# ---------------------------------------------------------------------------
# variance proxy


def _entry(model: MatrixModel, T: np.ndarray, z) -> HermitianMatrix:
    """The outcome tensor T at the outcome z."""
    return HermitianMatrix(outcome_stack(T)[model.dist.index(z)])


def variance_proxy_map(model: MatrixModel) -> np.ndarray:
    """V = (1/2) sum_j E_v (H - H_{j<-v})^2 at every outcome, as an outcome
    tensor: built on first use, and kept read-only on the model."""
    if model._v_map is None:
        model._v_map = _read_only(_replacement_squares(model.dist, model.H_tensor()) / 2.0)
    return model._v_map


def variance_proxy(model: MatrixModel, z, samples: int | None = None,
                   seed: int | None = None) -> HermitianMatrix:
    """V(z) = (1/2) sum_j E[(H(z) - H(z with coord j resampled))^2].

    Exact on finite models under the cutoff, as the entry of variance_proxy_map
    at z.  Otherwise each coordinate's expectation is a mean over ``samples``
    draws seeded by ``seed``: the replaced states of one coordinate go through
    ``H_rows`` as one batch, and their squared differences are added in draw
    order.
    """
    if model.exact:
        return _entry(model, variance_proxy_map(model), z)
    if samples is None or seed is None:
        raise ParameterError("models that cannot be enumerated need samples and seed")
    z = tuple(float(v) for v in z)
    hz = model.H(z)
    acc = np.zeros_like(hz)
    rng = _rng(seed)
    for j, coord in enumerate(model.dist.coords):
        zs = np.tile(z, (samples, 1))
        zs[:, j] = coord.sample(rng, samples)
        diff = hz - model.H_rows(zs)
        acc += (diff @ diff).sum(axis=0) * (1.0 / samples)
    return HermitianMatrix(acc / 2.0)


# ---------------------------------------------------------------------------
# kernels


def _along(M: np.ndarray, T: np.ndarray, j: int) -> np.ndarray:
    """Apply the matrix M along axis j of T."""
    return np.moveaxis(np.tensordot(M, T, axes=(1, j)), 0, j)


def _poisson_solution(dist: ProductDistribution, X: np.ndarray) -> np.ndarray:
    """The mean-zero g with (I - P) g = X, P the random-scan replacement chain.

    P = (1/n) sum_j E_j (E_j the mean over coordinate j) scales the order-k
    Hoeffding component by 1 - k/n, so g = sum_{k >= 1} (n/k) X_k.  Along
    each axis the basis [1, e_v - p_v 1 for v >= 1] splits constants from
    mean-zero vectors (the Walsh-Hadamard transform on uniform {+-1} axes);
    its inverse has rows p and e_v - e_0.  Each coefficient is scaled by n
    over its number of non-constant axes; the constant one (E X) is dropped.
    """
    n = dist.n
    order = np.zeros(dist.shape)
    c = X
    for j, coord in enumerate(dist.coords):
        m = len(coord)
        eye = np.eye(m)
        c = _along(np.vstack([coord.probs, eye[1:] - eye[0]]), c, j)
        order = order + (np.arange(m) > 0).reshape((m,) + (1,) * (n - 1 - j))
    c = c * np.where(order > 0, n / np.maximum(order, 1), 0.0)[..., None, None]
    for j, coord in enumerate(dist.coords):
        m = len(coord)
        c = _along(np.column_stack([np.ones(m), np.eye(m)[:, 1:] - coord.probs[1:]]), c, j)
    return np.ascontiguousarray(c)


class _OutcomeKernel:
    """K(z, z') = g(z) - g(z') for an outcome tensor g of the model.

    ``stein_radius`` and ``inflation`` are the kernel's error budget, the
    largest E[r | Z = z] and E[(2 ||K|| r + r^2)/2 | Z = z] over the outcomes,
    with r the error radius of the replacement pair (z, Z').
    """

    _vk = None  # V^K, kept by _vk_map

    @property
    def table(self) -> np.ndarray:
        """K over all pairs, built on access, so it is antisymmetric exactly."""
        g = outcome_stack(self.g)
        return g[:, None] - g[None, :]

    def at(self, z, zp) -> np.ndarray:
        g = outcome_stack(self.g)
        return g[self.model.dist.index(z)] - g[self.model.dist.index(zp)]

    def on_neighbours(self, j: int, v: int) -> np.ndarray:
        """K(z, z_{j<-v}) for every outcome z, as an outcome tensor."""
        return self.g - neighbour(self.g, j, v)


class ExactKernel(_OutcomeKernel):
    """The coupling kernel on a finite model, from the Poisson equation.

    Each chain of the coupling is the random-scan replacement chain P, so
    K(z, z') = sum_i (P^i X(z) - P^i X(z')) = g(z) - g(z') with
    (I - P) g = X, solved directly (no iteration), so its error budget is 0.
    """

    stein_radius = inflation = 0.0

    def __init__(self, model: MatrixModel):
        if not model.exact:
            raise PreconditionError("ExactKernel needs a finite model under the cutoff")
        self.model = model
        self.g = _poisson_solution(model.dist, model.X_tensor())
        # the direct solve takes no iterations; kept for reports and traces
        self.iterations = 0


@dataclass(eq=False)
class KernelEstimate:
    """Truncated-series Monte Carlo estimate of K(z, z')."""

    z: tuple
    zp: tuple
    horizon: int
    samples: int
    seed: int
    estimate: HermitianMatrix
    truncation_error_bound: float
    se_norm: float


def default_horizon(n: int, h_max: float, tol: float = 1e-10) -> int:
    """Smallest I with n (1 - 1/n)^(I/2) * 2 h_max < tol."""
    if n == 1:
        return 1
    ratio = 1.0 - 1.0 / n
    lead = 2.0 * n * h_max
    if lead < tol:
        return 1
    # solve lead * ratio^(I/2) < tol
    need = 2.0 * math.log(tol / lead) / math.log(ratio)
    return max(1, int(math.ceil(need)))


def _truncation_bound(model: MatrixModel, horizon: int) -> float:
    n = model.dist.n
    return 2.0 * model.max_h_norm() * n * n * (1.0 - 1.0 / n) ** (horizon + 1)


def _standard_error(sq_sum, est, samples: int):
    """Standard error of ``est``, the mean of ``samples`` d x d draws whose
    squared Frobenius norms add up to ``sq_sum``."""
    if samples == 1:
        return np.full(np.shape(sq_sum), math.inf)
    var = sq_sum / samples - np.sum(np.abs(est) ** 2, axis=(-2, -1))
    return np.sqrt(np.maximum(0.0, var) / (samples - 1))


# Samples per block of estimate_kernel's two chains.  A block of _chain_sums
# holds at most max(len(starts), 2 * _KERNEL_BLOCK) chains, so its memory does
# not grow with ``samples``.
_KERNEL_BLOCK = 4096


def _chain_sums(model: MatrixModel, starts: np.ndarray, horizon: int, samples: int,
                seed: int):
    """Coupled replacement chains from every start, one set per sample.

    ``starts`` are positions in outcomes() order.  The chains of a sample
    take common draws and step in lockstep with those of the other samples
    of their block, as positions that gather H from the outcome tensor, so
    a model above its cutoff raises PreconditionError.  Every sample of
    block k draws J and one replacement per coordinate at every step, met or
    not, from the seed's Philox stream jumped k times, so the draws depend
    only on (seed, step).  Yields, per block, the sum of H(a_t) over t <= h
    for each chain, shape (samples in the block, len(starts), d, d); a
    sample stops adding once all its chains agree.
    """
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    if samples < 1:
        raise ParameterError(f"samples must be >= 1, got {samples}")
    dist = model.dist
    hs = outcome_stack(model.H_tensor())
    size = np.array(dist.shape)
    stride = np.array([math.prod(dist.shape[j + 1:]) for j in range(dist.n)])
    per = max(starts.size, 2 * _KERNEL_BLOCK) // starts.size
    bitgen = np.random.Philox(int(seed))
    for k, lo in enumerate(range(0, samples, per)):
        rng = np.random.Generator(bitgen.jumped(k))
        m = min(per, samples - lo)
        at = np.tile(starts, (m, 1))
        sums = np.repeat(hs[starts][None], m, axis=0)
        live = np.flatnonzero((at != at[:, :1]).any(axis=1))
        for _ in range(horizon):
            if live.size == 0:
                break
            j = rng.integers(0, dist.n, m)
            v = np.column_stack([c.sample_index(rng, m) for c in dist.coords])[np.arange(m), j]
            step = stride[j[live], None]
            at[live] += (v[live, None] - at[live] // step % size[j[live], None]) * step
            live = live[(at[live] != at[live, :1]).any(axis=1)]
            sums[live] += hs[at[live]]
        yield sums


def estimate_kernel(model: MatrixModel, z, zp, horizon: int, samples: int,
                    seed: int) -> KernelEstimate:
    """Monte Carlo estimate of the coupling kernel at one pair of states.

    Averages sum_{t <= horizon} H(a_t) - H(b_t) over ``samples`` coupled chain
    pairs from (z, z') stepped by _chain_sums, _KERNEL_BLOCK samples a block;
    its mean is g_h(z) - g_h(z'), g_h = sum_{i <= h} P^i X.  Swapping
    (z, z') negates the estimate bitwise.  The draws are those of stream
    version 2, so its estimates differ from version 2's by rounding only.
    """
    z = tuple(float(v) for v in z)
    zp = tuple(float(v) for v in zp)
    # index() rejects a state off the support, of any length
    starts = np.array([model.dist.index(z), model.dist.index(zp)])
    acc = 0.0
    acc_sq = 0.0
    for sums in _chain_sums(model, starts, horizon, samples, seed):
        diff = sums[:, 0] - sums[:, 1]
        # the sum along axis 0 adds the samples one after another
        acc = acc + diff.sum(axis=0)
        acc_sq += float(np.vdot(diff, diff).real)
    est = acc * (1.0 / samples)
    return KernelEstimate(z, zp, horizon, samples, int(seed), HermitianMatrix(est),
                          _truncation_bound(model, horizon),
                          float(_standard_error(acc_sq, est, samples)))


class EstimatedKernel(_OutcomeKernel):
    """The truncated kernel g_h(z) - g_h(z'), estimated on every pair at once.

    One run of _chain_sums from all S outcomes: ``g`` is the mean chain sum,
    and the error radius of each replacement pair (z, z_{j<-v}) is its
    standard error, from the per-sample second moments of
    G - neighbour(G, j, v), plus the truncation bound (0 where z_j = v).
    The radii are reduced to the error budget as they are formed, added in
    replacement_sum's order.  Stream version 3: every pair shares the seed's
    one stream.
    """

    def __init__(self, model: MatrixModel, horizon: int, samples: int, seed: int):
        if samples < 2:  # one sample has no standard error, so no error radius
            raise ParameterError(f"samples must be >= 2 for an estimated kernel, got {samples}")
        self.model = model
        dist = model.dist
        total = 0.0
        sq = {}  # per coordinate, the squared norms of G_u - G_v summed over the samples
        for sums in _chain_sums(model, np.arange(dist.cardinality), horizon, samples, seed):
            G = sums.reshape((len(sums),) + dist.shape + sums.shape[-2:])
            total = total + G.sum(axis=0)
            for j, cells in _pair_cells(
                    dist, lambda a, b: np.sum(np.abs(a - b) ** 2, axis=(0, -2, -1)), G):
                kept = sq.setdefault(j, dict.fromkeys(cells, 0.0))
                sq[j] = {uv: kept[uv] + cell for uv, cell in cells.items()}
        self.g = total * (1.0 / samples)  # as numpy divides a complex total
        trunc = _truncation_bound(model, horizon)
        radius = inflation = 0
        for j, cells in sq.items():
            c = dist.coords[j]
            moved = np.arange(len(c)).reshape((-1,) + (1,) * (dist.n - 1 - j))
            for v, p in enumerate(c.probs):
                k = self.on_neighbours(j, v)
                se = _standard_error(_stacked(cells, j, v, len(c)), k, samples)
                r = np.where(moved != v, se + trunc, 0.0)
                # the pair's terms of E[r | Z=z] and E[(2 ||K|| r + r^2)/2 | Z=z]
                w = p / dist.n
                radius = radius + w * r
                inflation = inflation + w * ((2.0 * _opnorms(k) * r + r * r) / 2.0)
        self.stein_radius = float(np.max(radius))
        self.inflation = float(np.max(inflation))


# ---------------------------------------------------------------------------
# conditional variances and identities


def _vk_map(model: MatrixModel, kernel) -> np.ndarray:
    """V^K, the sum behind V over g times 1/n, kept read-only on the kernel."""
    _require_kernel(model, kernel)
    if kernel._vk is None:
        kernel._vk = _read_only(
            _replacement_squares(model.dist, kernel.g) / 2.0 * (1.0 / model.dist.n))
    return kernel._vk


def conditional_variance_map(model: MatrixModel, kernel) -> tuple:
    """V_X = E[(X-X')^2|Z=z]/2 and V^K = E[K(Z,Z')^2|Z=z]/2 at every outcome,
    as outcome tensors.  The pair replaces one uniform coordinate of n, so V_X
    is the model's V times 1/n, the product numpy forms for a complex V / n."""
    vk = _vk_map(model, kernel)
    return variance_proxy_map(model) * (1.0 / model.dist.n), vk


def conditional_variances(model: MatrixModel, kernel, z) -> tuple:
    """(V_X(z), V^K(z)) as HermitianMatrix, the entries of conditional_variance_map at z."""
    vk = _vk_map(model, kernel)
    v = outcome_stack(variance_proxy_map(model))[model.dist.index(z)]
    return HermitianMatrix(v * (1.0 / model.dist.n)), _entry(model, vk, z)


@dataclass(frozen=True)
class SteinCheck:
    residual: float
    radius: float


def check_stein_identity(model: MatrixModel, kernel) -> SteinCheck:
    """max_z || E[K(z, Z')|Z=z] - X(z) ||, with an MC radius for estimates.

    The conditional law of Z' given Z=z replaces a uniform coordinate J by an
    independent copy; on finite models the expectation is an exact sum.  The
    radius is the kernel's stein_radius: the largest accumulated standard-error
    plus truncation budget over z for an EstimatedKernel, 0 for an exact one.
    """
    _require_kernel(model, kernel)
    drift = replacement_sum(model.dist, kernel.on_neighbours, pair_law=True)
    worst = float(np.max(_opnorms(drift - model.X_tensor())))
    return SteinCheck(worst, kernel.stein_radius)


def exchangeable_pairs_identity(model: MatrixModel, kernel, F: Callable) -> float:
    """|| E[X F(X)] - E[K(Z,Z')(F(X) - F(X'))]/2 || by full enumeration.  F takes
    the outcome tensor of X and returns F of each matrix, or one d x d matrix."""
    _require_kernel(model, kernel)
    X = model.X_tensor()
    fx = F(X)
    if np.shape(fx) not in (X.shape, X.shape[-2:]):
        raise ShapeError(f"F returned shape {np.shape(fx)}, expected {X.shape} or {X.shape[-2:]}")
    fx = np.broadcast_to(fx, X.shape)
    dist, n = model.dist, model.dist.n
    rhs = 0
    # replacement_sum's order and weights, each pair's K (F(X) - F(X')) formed once
    for j, cells in _pair_cells(dist, lambda g_u, f_u, g_v, f_v: (g_u - g_v) @ (f_u - f_v),
                                kernel.g, fx):
        c = dist.coords[j]
        for v, p in enumerate(c.probs):
            rhs = rhs + (p / n) * model.expect(_stacked(cells, j, v, len(c)))
    return _opnorm(model.expect(X @ fx) - 0.5 * rhs)


def kernel_mean_norm(model: MatrixModel, kernel) -> float:
    """|| E K(Z, Z') || over the joint exchangeable-pair law."""
    _require_kernel(model, kernel)
    return _opnorm(replacement_sum(
        model.dist, lambda j, v: model.expect(kernel.on_neighbours(j, v)), pair_law=True))


def pair_asymmetries(model: MatrixModel, kernel: ExactKernel) -> tuple:
    """max |K(z, z') + K(z', z)| and max |P(z, z') - P(z', z)| over the
    replacement pairs z' = z_{j<-v}, the support of the exchangeable pair.

    Both sweep outcome tensors, never the S x S table.  P(z, z_{j<-b}) is
    formed as ExchangeablePair.joint_pmf forms it, base * (p_a * p_b) / n,
    so on a correct model both maxima are 0 bitwise.
    """
    _require_kernel(model, kernel)
    n = model.dist.n
    sums = _pair_cells(model.dist, lambda a, b: float(np.max(np.abs((a - b) + (b - a)))),
                       kernel.g)
    anti = max([0.0] + [m for _, cells in sums for m in cells.values()])
    asym = 0.0
    for j, coord in enumerate(model.dist.coords):
        base = np.ones(())
        for k, c in enumerate(model.dist.coords):
            base = base[..., None] * (np.ones(len(c)) if k == j else c.probs)
        # cell[z, b] = P(z, z_{j<-b}); axes j and b swapped give P(z_{j<-b}, z)
        pa = coord.probs.reshape((-1,) + (1,) * (n - j))
        cell = base[..., None] * (pa * coord.probs) / n
        asym = max(asym, float(np.max(np.abs(cell - cell.swapaxes(j, -1)))))
    return anti, asym


_S_BLOCK = 8192  # matrices per stack of s_grid_spectra; a block holds at least one s


def s_grid_spectra(vx, vk, s_grid: list, scale: float):
    """Each block of s_grid, as an array, with the (block, S, d) eigenvalues of
    scale * (s * vx + vk * (1.0 / s)) by one eigvalsh, the per-s form bit for bit."""
    vx, vk = outcome_stack(vx), outcome_stack(vk)
    per = max(1, _S_BLOCK // len(vx))
    for lo in range(0, len(s_grid), per):
        s = np.array(s_grid[lo:lo + per], dtype=float)
        sa = s.reshape(-1, 1, 1, 1)
        yield s, np.linalg.eigvalsh(scale * (sa * vx + vk * (1.0 / sa)))


def r_psi(model: MatrixModel, kernel, psi: float, s_grid) -> dict:
    """r(psi) = (1/psi) min over s of log E tr-bar exp((psi/2)(s V_X + V^K / s)).

    Expectation is exact on finite models.  s values whose exponent would
    overflow are skipped and reported.
    """
    if psi <= 0:
        raise ParameterError(f"psi must be positive, got {psi}")
    s_grid = [float(s) for s in s_grid]
    if not s_grid or not all(math.isfinite(s) and s > 0 for s in s_grid):
        raise ParameterError(f"s_grid must be nonempty, finite and positive, got {s_grid}")
    vx, vk = conditional_variance_map(model, kernel)
    pr = model.dist.probabilities().ravel()
    best = math.inf
    best_s = None
    skipped = []
    for s, w in s_grid_spectra(vx, vk, s_grid, psi / 2.0):
        skip = np.max(w[:, :, -1], axis=1) > 700.0
        skipped += s[skip].tolist()
        for s_kept, row in zip(s[~skip].tolist(), np.mean(np.exp(w[~skip]), axis=-1)):
            val = math.log(float(pr @ row))
            if val < best:
                best, best_s = val, s_kept
    return {"r": best / psi if best < math.inf else math.inf,
            "argmin_s": best_s, "skipped_s": skipped}


# ---------------------------------------------------------------------------
# kernel coupling simulation


@dataclass(eq=False)
class CouplingRun:
    """One trajectory of the coordinate-replacement kernel coupling."""

    trajectory: list
    draws: list
    coupling_time: int
    first_all_drawn: int
    seed: int
    difference_norms: list = field(default_factory=list)


def simulate_kernel_coupling(model: MatrixModel, z, zp, max_steps: int,
                             seed: int) -> CouplingRun:
    """Run both chains with the same (J, replacement) driver each step.

    Refreshed coordinates agree from then on, so the chains meet exactly when
    every initially-differing coordinate has been drawn; coupling_time is the
    first such step (0 if the starts agree, -1 if max_steps runs out).
    """
    z = tuple(float(v) for v in z)
    zp = tuple(float(v) for v in zp)
    n = model.dist.n
    rng = _rng(seed)
    a, b = z, zp
    traj = [(a, b)]
    draws = []
    diffs = [model.H(a) - model.H(b)]
    coupling_time = 0 if a == b else -1
    drawn = set()
    first_all = -1
    for step in range(1, max_steps + 1):
        j = int(rng.integers(0, n))
        v = float(model.dist.coords[j].sample(rng))
        a = model.replace(a, j, v)
        b = model.replace(b, j, v)
        draws.append((j, v))
        traj.append((a, b))
        diffs.append(model.H(a) - model.H(b))
        drawn.add(j)
        if first_all < 0 and len(drawn) == n:
            first_all = step
        if coupling_time < 0 and a == b:
            coupling_time = step
        if coupling_time >= 0 and first_all >= 0:
            break
    return CouplingRun(traj, draws, coupling_time, first_all, int(seed),
                       _opnorms(np.stack(diffs)).tolist())


def sample_coupling_times(n: int, runs: int, seed: int,
                          diff_mask=None, max_steps: int = 1_000_000) -> np.ndarray:
    """Coupling times for ``runs`` antipodal (or masked) starts, in bulk.

    The chains meet exactly when the uniform draw stream has covered every
    initially-differing coordinate, so the bulk simulation reduces to
    coverage scans over shared draw arrays (see _accel.coverage_times).
    """
    if diff_mask is None:
        diff_mask = np.ones(n, dtype=bool)
    return _accel.coverage_times(n, np.asarray(diff_mask, dtype=bool), runs,
                                 seed, max_steps=max_steps)


def coupling_premise_bound(model: MatrixModel) -> dict:
    """The summability premise constant for the coordinate-replacement coupling.

    For this coupling the per-step deviation decays geometrically, and the
    coupon-collector argument gives sum_i ||E[H(Z_(i)) - H(Z'_(i))]|| <=
    2 max||H|| n (1 + log n).  For user-supplied couplings no constructive
    constant is available and the check is reported as skipped.
    """
    if not model.exact:
        return {"checked": False, "reason": "model not enumerable"}
    h = model.max_h_norm()
    n = model.dist.n
    return {"checked": True, "L": 2.0 * h * n * (1.0 + math.log(n))}
