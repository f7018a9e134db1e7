"""Exchangeable pairs, kernels, couplings, and variance proxies.

Models are product distributions Z = (Z_1, ..., Z_n) with a Hermitian-valued
map H; the centered matrix of interest is X = H(Z) - E H(Z).  Everything is
exact on finite product spaces below a cardinality cutoff, as sums over
single-coordinate replacements of the outcome tensor (MatrixModel.H_tensor),
and seeded Monte Carlo otherwise.
"""
from __future__ import annotations

import hashlib
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
    RectMatrix,
    ShapeError,
    _opnorm,
    _opnorms,
    dilation,
    spectral_apply,
)

# Above this product-space cardinality, enumeration gives way to Monte Carlo.
ENUM_CUTOFF = 100_000

_MEAN_MC_SAMPLES = 20_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(int(seed)))


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


class ProductDistribution:
    """Mutually independent coordinates, each finite or sampler-backed."""

    def __init__(self, coords: Sequence):
        if not coords:
            raise ParameterError("need at least one coordinate")
        self.coords = tuple(coords)
        self.finite = all(isinstance(c, FiniteCoord) for c in self.coords)
        # read on every H cache miss, through MatrixModel.exact
        self._shape = tuple(len(c) for c in self.coords) if self.finite else None

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
        """Outcome probabilities, shape ``shape``: the products outcomes() yields."""
        if not self.finite:
            raise PreconditionError("outcome probabilities need a finite distribution")
        pr = np.ones(())
        for c in self.coords:
            pr = pr[..., None] * c.probs
        return pr

    def index(self, z) -> int:
        """Position of the outcome z in outcomes() order."""
        try:
            pos = [int(np.flatnonzero(c.values == float(v))[0])
                   for c, v in zip(self.coords, z, strict=True)]
        except (IndexError, ValueError):
            raise ParameterError(f"{tuple(z)!r} is not an outcome") from None
        return int(np.ravel_multi_index(pos, self.shape))

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


class MatrixModel:
    """A product distribution with a Hermitian-valued map H.

    H may return a HermitianMatrix or a plain complex array.  The mean E H(Z)
    is exact (full enumeration) for finite models under the cardinality
    cutoff, else a seeded Monte Carlo estimate whose provenance is recorded.
    """

    def __init__(self, dist: ProductDistribution, H: Callable, d: int,
                 name: str = "", enum_cutoff: int = ENUM_CUTOFF,
                 mean_samples: int = _MEAN_MC_SAMPLES, mean_seed: int = 0,
                 H_batch: Callable | None = None):
        self.dist = dist
        self._H = H
        self.d = int(d)
        self.name = name or "model"
        self.enum_cutoff = int(enum_cutoff)
        self.mean_samples = int(mean_samples)
        self.mean_seed = int(mean_seed)
        self._H_batch = H_batch
        self._mean = None
        self.mean_provenance = None
        self._h_cache: dict = {}
        self._tensor = None

    # -- evaluation

    def H(self, z) -> np.ndarray:
        key = tuple(z)
        got = self._h_cache.get(key)
        if got is None:
            raw = self._H(key)
            a = raw.a if isinstance(raw, HermitianMatrix) else np.asarray(raw, dtype=np.complex128)
            if a.shape != (self.d, self.d):
                raise ShapeError(f"H returned shape {a.shape}, expected ({self.d},{self.d})")
            got = (a + a.conj().T) / 2
            # only an enumerable support repeats; sampled outcomes of a
            # continuous model would fill the memo without reuse
            if self.exact and len(self._h_cache) < 4 * ENUM_CUTOFF:
                self._h_cache[key] = got
        return got

    def H_rows(self, zs) -> np.ndarray:
        """H at each row of ``zs`` (an array, or outcome tuples), shape
        (len(zs), d, d): one call of the batched H when the model has one,
        symmetrised as ``H`` symmetrises."""
        if self._H_batch is None:
            return np.stack([self.H(tuple(z)) for z in zs])
        hs = np.asarray(self._H_batch(np.asarray(zs, dtype=float)), dtype=np.complex128)
        return (hs + hs.conj().swapaxes(-1, -2)) / 2

    @property
    def exact(self) -> bool:
        return self.dist.finite and self.dist.cardinality <= self.enum_cutoff

    def H_tensor(self) -> np.ndarray:
        """The outcome tensor: H over the support, shape (|V_1|, ..., |V_n|, d, d).

        Built through ``H_rows`` over outcomes() on first use, and kept.
        """
        if self._tensor is None:
            if not self.exact:
                raise PreconditionError("outcome tensors need a finite model under the cutoff")
            zs = [z for z, _ in self.dist.outcomes()]
            hs = self.H_rows(zs).reshape(self.dist.shape + (self.d, self.d))
            hs.setflags(write=False)
            self._tensor = hs
        return self._tensor

    def X_tensor(self) -> np.ndarray:
        """X = H - E H over the support, as an outcome tensor."""
        return self.H_tensor() - self.mean()

    def expect(self, T: np.ndarray) -> np.ndarray:
        """E T(Z) for an outcome tensor T (exact models only)."""
        return np.tensordot(self.dist.probabilities(), T, axes=self.dist.n)

    def mean(self) -> np.ndarray:
        if self._mean is None:
            if self.exact:
                self._mean = self.expect(self.H_tensor())
                self.mean_provenance = {"method": "exact"}
            else:
                zs = self.dist.sample_many(_rng(self.mean_seed), self.mean_samples)
                # the sum along axis 0 adds the samples one after another
                self._mean = self.H_rows(zs).sum(axis=0) / self.mean_samples
                self.mean_provenance = {
                    "method": "mc",
                    "samples": self.mean_samples,
                    "seed": self.mean_seed,
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
        rng = _rng(seed)
        if self._H_batch is None and self.exact:
            hs = outcome_stack(self.H_tensor())[self.dist.sample_outcomes(rng, count)]
        else:
            hs = self.H_rows(self.dist.sample_many(rng, count))
        return hs - self.mean()

    # -- coordinate surgery

    def replace(self, z: tuple, j: int, v: float) -> tuple:
        out = list(z)
        out[j] = float(v)
        return tuple(out)

    def to_json(self) -> dict:
        if not self.dist.finite:
            raise PreconditionError("only finite models serialize")
        table = {}
        for z, _ in self.dist.outcomes():
            h = self.H(z)
            table[_zkey(z)] = {
                "real": h.real.ravel().tolist(),
                "imag": h.imag.ravel().tolist(),
            }
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
        table = {
            key: np.array(v["real"], dtype=float).reshape(d, d)
            + 1j * np.array(v["imag"], dtype=float).reshape(d, d)
            for key, v in obj["H"].items()
        }
        # a table smaller than the support fails before the support is enumerated
        if len(table) < dist.cardinality or any(_zkey(z) not in table
                                                for z, _ in dist.outcomes()):
            raise ParameterError("the H table does not cover every outcome of dist")

        def H(z):
            return table[_zkey(z)]

        return cls(dist, H, d, name=obj.get("name", "model"))


class RectangularModel:
    """Like MatrixModel but H takes rectangular values."""

    def __init__(self, dist: ProductDistribution, H: Callable, rows: int, cols: int,
                 name: str = "", enum_cutoff: int = ENUM_CUTOFF):
        self.dist = dist
        self._H = H
        self.rows = int(rows)
        self.cols = int(cols)
        self.name = name or "rect_model"
        self.enum_cutoff = int(enum_cutoff)
        self._mean = None

    def H(self, z) -> np.ndarray:
        raw = self._H(tuple(z))
        a = raw.a if isinstance(raw, RectMatrix) else np.asarray(raw, dtype=np.complex128)
        if a.shape != (self.rows, self.cols):
            raise ShapeError(f"H returned {a.shape}, expected ({self.rows},{self.cols})")
        return a

    @property
    def exact(self) -> bool:
        return self.dist.finite and self.dist.cardinality <= self.enum_cutoff

    def mean(self) -> np.ndarray:
        if self._mean is None:
            if not self.exact:
                raise PreconditionError("rectangular models are enumerated exactly only")
            acc = np.zeros((self.rows, self.cols), dtype=np.complex128)
            for z, pr in self.dist.outcomes():
                acc += pr * self.H(z)
            self._mean = acc
        return self._mean

    def X(self, z) -> np.ndarray:
        return self.H(z) - self.mean()


def dilate_model(model: RectangularModel) -> MatrixModel:
    """Hermitian model whose H is the dilation of the rectangular H."""

    def H(z):
        return dilation(model.H(z)).a

    return MatrixModel(model.dist, H, model.rows + model.cols,
                       name=f"dilated({model.name})", enum_cutoff=model.enum_cutoff)


# ---------------------------------------------------------------------------
# builtins


def hypercube_sum(n: int, d: int = 2) -> MatrixModel:
    """H(z) = (sum_j z_j) E_11 on uniform {+-1}^n; E H = 0."""
    if n < 1 or d < 1:
        raise ParameterError(f"need n >= 1 and d >= 1, got n={n} d={d}")

    def H(z):
        out = np.zeros((d, d), dtype=np.complex128)
        out[0, 0] = sum(z)
        return out

    def H_batch(zs):
        out = np.zeros((zs.shape[0], d, d), dtype=np.complex128)
        out[:, 0, 0] = zs.sum(axis=1)
        return out

    return MatrixModel(ProductDistribution.uniform_pm1(n), H, d,
                       name=f"hypercube_sum(n={n},d={d})", H_batch=H_batch)


def bounded_diff_demo(n: int = 3, d: int = 2) -> MatrixModel:
    """H(z) = sum_j z_j M_j with fixed Hermitian M_j and z uniform on {+-1}^n.

    The model records per-coordinate difference bounds A_j = 2|M_j| (since
    (H - H^(j))^2 = (z_j - z'_j)^2 M_j^2 <= 4 M_j^2).
    """
    rng = _rng(20_240_501)
    mats = []
    for _ in range(n):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mats.append((g + g.conj().T) / 2)

    def H(z):
        acc = np.zeros((d, d), dtype=np.complex128)
        for zj, m in zip(z, mats):
            acc += zj * m
        return acc

    def H_batch(zs):
        stack = np.stack(mats)
        return np.einsum("kj,jab->kab", zs, stack)

    model = MatrixModel(ProductDistribution.uniform_pm1(n), H, d,
                        name=f"bounded_diff_demo(n={n},d={d})", H_batch=H_batch)
    abs_mats = []
    for m in mats:
        w, v = np.linalg.eigh(m)
        abs_mats.append(HermitianMatrix(spectral_apply(v, 2 * np.abs(w))))
    model.difference_bounds = abs_mats
    return model


def compound_covariance(p: int, n: int, B=None, entry_dist: str = "pm1",
                        sigma2: float = 1.0, L: float = 1.0) -> MatrixModel:
    """H(z) = Z B Z* with Z the p x n matrix of the iid coordinates.

    entry_dist "pm1" is the finite uniform {+-1} case (sigma2 = L = 1);
    "uniform" draws entries uniformly from [-L, L] (sigma2 = L^2/3) and the
    model falls back to Monte Carlo means.
    """
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

    Ba = Bh.a

    def H(z):
        Z = np.asarray(z, dtype=np.complex128).reshape(p, n)
        return Z @ Ba @ Z.conj().T

    def H_batch(zs):
        # matmul runs per matrix, so each row is bit for bit H of that row;
        # Z is conjugated in place once Z B is formed, to hold one copy fewer
        Z = zs.reshape(-1, p, n).astype(np.complex128)
        ZB = Z @ Ba
        return ZB @ np.conjugate(Z, out=Z).swapaxes(-1, -2)

    return MatrixModel(ProductDistribution(coords), H, p,
                       name=f"compound_covariance(p={p},n={n},{entry_dist})",
                       H_batch=H_batch)


def rect_demo(n: int = 3) -> RectangularModel:
    """A small rectangular-valued model on {+-1}^n with 2 x 3 values."""

    def H(z):
        z = list(z) + [1.0] * max(0, 3 - len(z))
        return np.array(
            [
                [z[0], z[1], z[2]],
                [z[2] * z[0], z[0] * z[1], z[1] * z[2]],
            ],
            dtype=np.complex128,
        )

    return RectangularModel(ProductDistribution.uniform_pm1(n), H, 2, 3,
                            name=f"rect_demo(n={n})")


def random_finite_model(n: int, d: int, seed: int) -> MatrixModel:
    """Binary-coordinate model with an independent random Hermitian per outcome."""
    if n < 1 or d < 1:
        raise ParameterError(f"need n >= 1 and d >= 1, got n={n} d={d}")
    rng = _rng(seed)
    dist = ProductDistribution.uniform_pm1(n)
    table = {}
    for z, _ in dist.outcomes():
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        table[z] = (g + g.conj().T) / 2

    def H(z):
        return table[tuple(z)]

    return MatrixModel(dist, H, d, name=f"random_finite(n={n},d={d},seed={seed})")


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


def _require_kernel(model: MatrixModel, kernel) -> None:
    """The exact kernel checks need an enumerable model and a kernel built for it."""
    if not model.exact:
        raise PreconditionError("kernel checks enumerate finite models under the cutoff")
    if kernel.model is not model:
        raise PreconditionError("kernel was built for a different model")


# ---------------------------------------------------------------------------
# variance proxy


def variance_proxy_map(model: MatrixModel) -> np.ndarray:
    """V = (1/2) sum_j E_v (H - H_{j<-v})^2 at every outcome, as an outcome tensor."""
    H = model.H_tensor()
    return replacement_sum(model.dist, lambda j, v: _square(H - neighbour(H, j, v))) / 2.0


def variance_proxy(model: MatrixModel, z, samples: int | None = None,
                   seed: int | None = None) -> HermitianMatrix:
    """V(z) = (1/2) sum_j E[(H(z) - H(z with coord j resampled))^2].

    Exact on finite models under the cutoff.  Otherwise each coordinate's
    expectation is a mean over ``samples`` draws seeded by ``seed``: the
    replaced states of one coordinate go through ``H_rows`` as one batch, and
    their squared differences are added in draw order.
    """
    if model.exact:
        return HermitianMatrix(outcome_stack(variance_proxy_map(model))[model.dist.index(z)])
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
        acc += (diff @ diff).sum(axis=0) / samples
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


class ExactKernel:
    """The coupling kernel on a finite model, from the Poisson equation.

    Each chain of the coupling is the random-scan replacement chain P, so
    K(z, z') = sum_i (P^i X(z) - P^i X(z')) = g(z) - g(z') with
    (I - P) g = X, solved directly (no iteration).  ``table`` is K over all
    pairs, built on access as g(z) - g(z'), so it is antisymmetric exactly.
    """

    def __init__(self, model: MatrixModel):
        if not model.exact:
            raise PreconditionError("ExactKernel needs a finite model under the cutoff")
        self.model = model
        self.g = _poisson_solution(model.dist, model.X_tensor())
        # the direct solve takes no iterations; kept for reports and traces
        self.iterations = 0

    @property
    def table(self) -> np.ndarray:
        g = outcome_stack(self.g)
        return g[:, None] - g[None, :]

    def at(self, z, zp) -> np.ndarray:
        g = outcome_stack(self.g)
        return g[self.model.dist.index(z)] - g[self.model.dist.index(zp)]

    def on_neighbours(self, j: int, v: int) -> np.ndarray:
        """K(z, z_{j<-v}) for every outcome z, as an outcome tensor."""
        return self.g - neighbour(self.g, j, v)


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

    def at(self, z, zp) -> np.ndarray:
        if tuple(z) == self.z and tuple(zp) == self.zp:
            return self.estimate.a
        if tuple(z) == self.zp and tuple(zp) == self.z:
            return -self.estimate.a
        raise ParameterError("estimate only covers its own (z, z') pair")


def _pair_seed(base: int, z: tuple, zp: tuple) -> int:
    """Seed derived from the unordered pair, stable across processes."""
    key = json.dumps(sorted([list(z), list(zp)])).encode()
    digest = hashlib.blake2s(key, digest_size=8).digest()
    return (int(base) << 24) ^ int.from_bytes(digest, "little")


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


# Samples stepped together by estimate_kernel: bounds its memory whatever ``samples``.
_KERNEL_BLOCK = 4096


def estimate_kernel(model: MatrixModel, z, zp, horizon: int, samples: int,
                    seed: int, h_max: float | None = None) -> KernelEstimate:
    """Monte Carlo estimate of the coupling kernel at one pair of states.

    Averages sum_{t <= horizon} H(a_t) - H(b_t) over ``samples`` coupled chain
    pairs from (z, z'); its mean is g_h(z) - g_h(z'), g_h = sum_{i <= h} P^i X.
    The samples step in lockstep, _KERNEL_BLOCK at a time, as arrays of
    support positions that gather H from the outcome tensor, so a model
    above its cutoff raises PreconditionError.  ``h_max`` (max ||H||,
    computed when not given) sets the truncation bound.  Every sample of
    block k draws J and one replacement per coordinate at every step, met or
    not, from the seed's Philox stream jumped k times, so the draws depend
    only on (seed, step) and swapping (z, z') negates the estimate bitwise.
    Stream version 2: version 1 seeded one generator per sample.
    """
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    if samples < 1:
        raise ParameterError(f"samples must be >= 1, got {samples}")
    dist = model.dist
    n = dist.n
    d = model.d
    z = tuple(float(v) for v in z)
    zp = tuple(float(v) for v in zp)
    if len(z) != n or len(zp) != n:
        raise ParameterError(f"states need {n} coordinates, got {len(z)} and {len(zp)}")
    hs = outcome_stack(model.H_tensor())
    if h_max is None:
        h_max = model.max_h_norm()
    starts = [np.unravel_index(dist.index(s), dist.shape) for s in (z, zp)]

    def at(rows):
        return hs[np.ravel_multi_index(tuple(rows.T), dist.shape)]

    bitgen = np.random.Philox(int(seed))
    acc = np.zeros((d, d), dtype=np.complex128)
    acc_sq = 0.0
    for k, lo in enumerate(range(0, samples, _KERNEL_BLOCK)):
        rng = np.random.Generator(bitgen.jumped(k))
        m = min(_KERNEL_BLOCK, samples - lo)
        a, b = (np.tile(s, (m, 1)) for s in starts)
        total = np.repeat(at(a[:1]) - at(b[:1]), m, axis=0)
        live = np.flatnonzero((a != b).any(axis=1))
        for _ in range(horizon):
            if live.size == 0:
                break
            j = rng.integers(0, n, m)
            v = np.column_stack([c.sample_index(rng, m) for c in dist.coords])[np.arange(m), j]
            a[live, j[live]] = b[live, j[live]] = v[live]
            live = live[(a[live] != b[live]).any(axis=1)]
            total[live] += at(a[live]) - at(b[live])
        # the sum along axis 0 adds the samples one after another
        acc += total.sum(axis=0)
        acc_sq += float(np.vdot(total, total).real)
    est = acc / samples
    if samples > 1:
        var = max(0.0, acc_sq / samples - float(np.linalg.norm(est)) ** 2)
        se = math.sqrt(var / (samples - 1))
    else:
        se = math.inf
    trunc = 2.0 * h_max * n * n * (1.0 - 1.0 / n) ** (horizon + 1)
    return KernelEstimate(z, zp, horizon, samples, int(seed),
                          HermitianMatrix(est), trunc, se)


class EstimatedKernel:
    """Kernel served by on-demand truncated estimation, one pair at a time.

    The per-pair seed is a digest of the unordered pair, and the draws of
    ``estimate_kernel`` depend only on (seed, step), so querying (z, z') and
    (z', z) replays the same coupled chains and the answers negate bitwise.
    Estimates are cached.
    """

    def __init__(self, model: MatrixModel, horizon: int, samples: int, seed: int):
        self.model = model
        self.horizon = int(horizon)
        self.samples = int(samples)
        self.seed = int(seed)
        self.h_max = model.max_h_norm()
        self._cache: dict = {}

    def details(self, z, zp) -> KernelEstimate:
        z = tuple(float(v) for v in z)
        zp = tuple(float(v) for v in zp)
        key = (min(z, zp), max(z, zp))
        got = self._cache.get(key)
        if got is None:
            got = estimate_kernel(self.model, key[0], key[1], self.horizon,
                                  self.samples, _pair_seed(self.seed, *key),
                                  h_max=self.h_max)
            self._cache[key] = got
        return got

    def at(self, z, zp) -> np.ndarray:
        z = tuple(float(v) for v in z)
        zp = tuple(float(v) for v in zp)
        if z == zp:
            return np.zeros((self.model.d, self.model.d), dtype=np.complex128)
        return self.details(z, zp).at(z, zp)

    def radius(self, z, zp) -> float:
        if tuple(z) == tuple(zp):
            return 0.0
        est = self.details(z, zp)
        return est.se_norm + est.truncation_error_bound

    def on_neighbours(self, j: int, v: int) -> np.ndarray:
        """K(z, z_{j<-v}) for every outcome z, estimated pair by pair."""
        return self._on_neighbours(self.at, j, v)

    def radius_on_neighbours(self, j: int, v: int) -> np.ndarray:
        """The error radius of every pair (z, z_{j<-v}), as an outcome tensor."""
        return self._on_neighbours(self.radius, j, v)

    def _on_neighbours(self, fn: Callable, j: int, v: int) -> np.ndarray:
        dist = self.model.dist
        value = float(dist.coords[j].values[v])
        out = np.array([fn(z, self.model.replace(z, j, value)) for z, _ in dist.outcomes()])
        return out.reshape(dist.shape + out.shape[1:])


# ---------------------------------------------------------------------------
# conditional variances and identities


def conditional_variance_map(model: MatrixModel, kernel) -> tuple:
    """V_X = E[(X-X')^2|Z=z]/2 and V^K = E[K(Z,Z')^2|Z=z]/2 at every outcome,
    as outcome tensors, summed over (J, replacement) exactly."""
    _require_kernel(model, kernel)
    X = model.X_tensor()
    return (replacement_sum(model.dist, lambda j, v: _square(X - neighbour(X, j, v)),
                            pair_law=True) / 2,
            replacement_sum(model.dist, lambda j, v: _square(kernel.on_neighbours(j, v)),
                            pair_law=True) / 2)


def conditional_variances(model: MatrixModel, kernel, z) -> tuple:
    """(V_X(z), V^K(z)) as HermitianMatrix."""
    i = model.dist.index(z)
    return tuple(HermitianMatrix(outcome_stack(t)[i])
                 for t in conditional_variance_map(model, kernel))


@dataclass(frozen=True)
class SteinCheck:
    residual: float
    radius: float


def check_stein_identity(model: MatrixModel, kernel) -> SteinCheck:
    """max_z || E[K(z, Z')|Z=z] - X(z) ||, with an MC radius for estimates.

    The conditional law of Z' given Z=z replaces a uniform coordinate J by an
    independent copy; on finite models the expectation is an exact sum.  For
    an EstimatedKernel the radius is the largest accumulated standard-error
    plus truncation budget over z; exact kernels report radius 0.
    """
    _require_kernel(model, kernel)
    drift = replacement_sum(model.dist, kernel.on_neighbours, pair_law=True)
    worst = float(np.max(_opnorms(drift - model.X_tensor())))
    radius = 0.0
    if isinstance(kernel, EstimatedKernel):
        radius = float(np.max(replacement_sum(model.dist, kernel.radius_on_neighbours,
                                              pair_law=True)))
    return SteinCheck(worst, radius)


def exchangeable_pairs_identity(model: MatrixModel, kernel, F: Callable) -> float:
    """|| E[X F(X)] - E[K(Z,Z')(F(X) - F(X'))]/2 || by full enumeration."""
    _require_kernel(model, kernel)
    X = model.X_tensor()
    fx = np.array([np.asarray(F(x), dtype=np.complex128)
                   for x in outcome_stack(X)]).reshape(X.shape)

    def term(j, v):
        return model.expect(kernel.on_neighbours(j, v) @ (fx - neighbour(fx, j, v)))

    rhs = 0.5 * replacement_sum(model.dist, term, pair_law=True)
    return _opnorm(model.expect(X @ fx) - rhs)


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
    g, n = kernel.g, model.dist.n
    anti = asym = 0.0
    for j, coord in enumerate(model.dist.coords):
        for v in range(len(coord)):
            nb = neighbour(g, j, v)
            anti = max(anti, float(np.max(np.abs((g - nb) + (nb - g)))))
        base = np.ones(())
        for k, c in enumerate(model.dist.coords):
            base = base[..., None] * (np.ones(len(c)) if k == j else c.probs)
        # cell[z, b] = P(z, z_{j<-b}); axes j and b swapped give P(z_{j<-b}, z)
        pa = coord.probs.reshape((-1,) + (1,) * (n - j))
        cell = base[..., None] * (pa * coord.probs) / n
        asym = max(asym, float(np.max(np.abs(cell - cell.swapaxes(j, -1)))))
    return anti, asym


def r_psi(model: MatrixModel, kernel, psi: float, s_grid) -> dict:
    """r(psi) = (1/psi) min over s of log E tr-bar exp((psi/2)(s V_X + V^K / s)).

    Expectation is exact on finite models.  s values whose exponent would
    overflow are skipped and reported.
    """
    if psi <= 0:
        raise ParameterError(f"psi must be positive, got {psi}")
    s_grid = [float(s) for s in s_grid]
    if not s_grid or any(s <= 0 for s in s_grid):
        raise ParameterError("s_grid must be nonempty and positive")
    vx, vk = (outcome_stack(t) for t in conditional_variance_map(model, kernel))
    pr = model.dist.probabilities().ravel()
    best = math.inf
    best_s = None
    skipped = []
    for s in s_grid:
        w = np.linalg.eigvalsh((psi / 2.0) * (s * vx + vk / s))
        if np.max(w[:, -1]) > 700.0:
            skipped.append(s)
            continue
        val = math.log(float(pr @ np.mean(np.exp(w), axis=1)))
        if val < best:
            best, best_s = val, s
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

    def to_jsonl(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "coupling_time": self.coupling_time,
            "first_all_drawn": self.first_all_drawn,
            "draws": [[int(j), float(v)] for j, v in self.draws],
            "trajectory": [[list(a), list(b)] for a, b in self.trajectory],
            "difference_norms": self.difference_norms,
        }, sort_keys=True)


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
