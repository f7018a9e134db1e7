"""Exchangeable pairs, kernels, couplings, and variance proxies.

Models are product distributions Z = (Z_1, ..., Z_n) with a Hermitian-valued
map H; the centered matrix of interest is X = H(Z) - E H(Z).  Everything is
exact on finite product spaces below a cardinality cutoff, as sums over
single-coordinate replacements of the outcome tensor (MatrixModel.H_tensor),
and seeded Monte Carlo otherwise.
"""
from __future__ import annotations

import bisect
import functools
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
    _count,
    _dilations,
    _field,
    _finite,
    _grid,
    _json_parts,
    _opnorm,
    _opnorms,
    _real,
    _rng,
)

# Above this product-space cardinality, enumeration gives way to Monte Carlo.
ENUM_CUTOFF = 100_000

# the samples and the seed of the Monte Carlo mean of a model above the cutoff
_MEAN_MC_SAMPLES = 20_000
_MEAN_SEED = 0

_COMPARE_MAX = 64  # above this many values, a coordinate's array of draws is binary-searched
_HORIZON_TOL = 1e-10  # the truncation error default_horizon aims below


def _kept(owner, attr: str, build: Callable) -> np.ndarray:
    """owner.<attr>, built by build() on first use and kept with writes
    refused: how every outcome tensor, exact map and spectrum is held."""
    if getattr(owner, attr) is None:
        setattr(owner, attr, build())
        getattr(owner, attr).setflags(write=False)
    return getattr(owner, attr)


# ---------------------------------------------------------------------------
# product distributions


class FiniteCoord:
    """A finite coordinate support: values with probabilities summing to 1."""

    __slots__ = ("values", "probs", "_cuts", "_cut_list")

    def __init__(self, pairs):
        try:
            pairs = [tuple(pair) for pair in pairs]
        except TypeError:
            pairs = None
        if pairs is None or any(len(pair) != 2 for pair in pairs):
            raise ParameterError("a coordinate must list (value, probability) pairs")
        vals, probs = [], []
        for v, p in pairs:
            vals.append(_real(v, "coordinate value"))
            probs.append(_real(p, "probability", 0))
        self.values, self.probs = np.array(vals), np.array(probs)
        if not abs(self.probs.sum() - 1.0) <= 1e-12:
            raise ParameterError(f"probabilities must sum to 1, got {probs}")
        self._cuts = np.cumsum(self.probs)[:-1]  # the thresholds; the last sum, near 1, is none
        self._cut_list = self._cuts.tolist()

    def sample_index(self, rng: np.random.Generator, size=None):
        """Positions in ``values`` of draws from the coordinate's law: for each
        u = rng.random(size), the number of thresholds at or below u, which is
        min(searchsorted(cumsum(probs), u, "right"), len(values) - 1)."""
        u = rng.random(size)
        if size is None:
            return bisect.bisect_right(self._cut_list, u)
        if len(self.values) > _COMPARE_MAX:
            return np.searchsorted(self._cuts, u, side="right")
        return (u >= self._cuts.reshape((-1,) + (1,) * u.ndim)).sum(axis=0)

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
        # read on every locate and every MatrixModel.exact test
        self._shape = tuple(len(c) for c in self.coords) if self.finite else None
        self._probs = None  # kept by probabilities()
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
        return _kept(self, "_probs", lambda: functools.reduce(
            np.multiply.outer, [c.probs for c in self.coords], np.ones(())))

    def locate(self, zs) -> np.ndarray:
        """Positions in outcomes() order of the rows of ``zs``, an (m, n) array."""
        shape = self.shape
        zs = _row_array(zs, self.n)
        q = _coord_keys(np.arange(self.n), zs)
        pos = np.minimum(np.searchsorted(self._keys, q), len(self._keys) - 1)
        found = (self._keys[pos] == q).all(axis=1)
        if not found.all():
            raise ParameterError(f"{tuple(zs[np.argmin(found)].tolist())!r} is not an outcome")
        return np.ravel_multi_index(self._digits[pos].T, shape)

    def sample(self, rng: np.random.Generator) -> tuple:
        return tuple(float(c.sample(rng)) for c in self.coords)

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` outcome rows: each coordinate's ``count`` draws in turn,
        written as floats into its column of one (count, n) array."""
        zs = np.empty((count, self.n))
        for j, c in enumerate(self.coords):
            zs[:, j] = c.sample(rng, count)
        return zs

    def sample_outcomes(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """The draws of sample_many as positions in outcomes() order, built one
        coordinate at a time; exact integers, so np.ravel_multi_index's."""
        flat = np.zeros(count, dtype=np.intp)
        for c, size in zip(self.coords, self.shape):
            flat *= size
            flat += c.sample_index(rng, count)
        return flat

    def _outcome_rows(self) -> np.ndarray:
        """Every outcome as a row of an (S, n) float array, in outcomes() order:
        coordinate j's values broadcast along axis j of the support grid."""
        grid = np.empty(self.shape + (self.n,))
        for j, c in enumerate(self.coords):
            grid[..., j] = c.values.reshape((-1,) + (1,) * (self.n - 1 - j))
        return grid.reshape(-1, self.n)

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
        return cls([FiniteCoord(pairs) for pairs in _field(obj, "coords", "dist", list)])


# ---------------------------------------------------------------------------
# matrix models


def _zkey(z) -> str:
    return json.dumps([float(v) for v in z])


def _row_array(zs, n: int) -> np.ndarray:
    """``zs`` as an (m, n) float array, or the ParameterError of a row of another width."""
    try:
        zs = np.asarray(zs, dtype=float)
    except (TypeError, ValueError):
        zs = None
    if zs is None or zs.ndim != 2 or zs.shape[1] != n:
        raise ParameterError(f"outcome rows must be rows of {n} numbers")
    return zs


def _rows(H: Callable, zs, n: int, shape: tuple,
          finish: Callable = lambda hs: hs) -> np.ndarray:
    """H at the outcome rows ``zs`` of n numbers each: a finite float64 stack
    of ``shape``, complex128 if H is.

    H runs on _ROW_BLOCK rows at a time; each block is checked, finished, and
    written into one stack, upcast once if a later block is complex.  H maps
    rows row by row, so the blocks give the bits of one call on all rows; at
    most one block, the stack is the finished H's own.
    """
    zs = _row_array(zs, n)
    out = None
    for lo in range(0, max(len(zs), 1), _ROW_BLOCK):
        block = zs[lo:lo + _ROW_BLOCK]
        hs = np.asarray(H(block))
        hs = hs.astype(np.complex128 if np.iscomplexobj(hs) else np.float64, copy=False)
        if hs.shape != (len(block),) + shape:
            raise ShapeError(f"H returned shape {hs.shape}, expected {(len(block),) + shape}")
        hs = finish(_finite(hs))
        if len(block) == len(zs):
            return hs
        if out is None:
            out = np.empty((len(zs),) + shape, hs.dtype)
        out = out.astype(np.result_type(out, hs), copy=False)
        out[lo:lo + _ROW_BLOCK] = hs
    return out


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
        self.d = _count(d, "d")
        self.name = name or "model"
        self._mean = None
        self.mean_provenance = None
        self._h_cache: dict = {}  # never written; perfbench's H hook reads it
        self._tensor = self._x_tensor = self._v_map = self._x_spectra = self._v_spectra = None

    # -- evaluation

    def H(self, z) -> np.ndarray:
        """H at one outcome: one row of ``H_rows``."""
        return self.H_rows([z])[0]

    def H_rows(self, zs) -> np.ndarray:
        """H at each row of ``zs`` (an array, or outcome tuples), shape
        (len(zs), d, d): _rows's blocks of H, each symmetrised as it is written."""
        return _rows(self._H, zs, self.dist.n, (self.d, self.d),
                     lambda hs: (hs + hs.conj().swapaxes(-1, -2)) / 2)

    @property
    def exact(self) -> bool:
        return self.dist.finite and self.dist.cardinality <= ENUM_CUTOFF

    def H_tensor(self) -> np.ndarray:
        """The outcome tensor: H over the support, shape (|V_1|, ..., |V_n|, d, d).

        Built through ``H_rows`` over every outcome on first use, and kept.
        """
        if self._tensor is None and not self.exact:
            raise PreconditionError("outcome tensors need a finite model under the cutoff")
        return _kept(self, "_tensor", lambda: self.H_rows(
            self.dist._outcome_rows()).reshape(self.dist.shape + (self.d, self.d)))

    def X_tensor(self) -> np.ndarray:
        """X = H - E H over the support, as an outcome tensor: built on first
        use, and kept read-only, as H_tensor is."""
        return _kept(self, "_x_tensor", lambda: self.H_tensor() - self.mean())

    def X_spectra(self) -> np.ndarray:
        """The ascending eigenvalues of X, one row per outcome in outcomes()
        order: one batched eigvalsh of X_tensor on first use, kept read-only."""
        return _kept(self, "_x_spectra",
                     lambda: np.linalg.eigvalsh(outcome_stack(self.X_tensor())))

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
        """Draw ``count`` centered samples X = H(Z) - E H(Z), shape (count, d, d),
        subtracting the mean in place."""
        xs = self.H_rows(self.dist.sample_many(_rng(seed), _count(count, "count")))
        mean = self.mean()
        xs = xs.astype(np.result_type(xs, mean), copy=False)  # real rows, complex mean
        xs -= mean
        return xs

    # -- coordinate surgery

    def replace(self, z: tuple, j: int, v: float) -> tuple:
        out = list(z)
        out[j] = float(v)
        return tuple(out)

    def to_json(self) -> dict:
        if not self.dist.finite:
            raise PreconditionError("only finite models serialize")
        zs = self.dist._outcome_rows()
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
        dist = ProductDistribution.from_json(_field(obj, "dist", "model"))
        d = _count(_field(obj, "d", "model"), "d")
        table = _field(obj, "H", "model")
        # a table smaller than the support fails before the support is enumerated
        keys = len(table) >= dist.cardinality and [_zkey(z) for z in dist._outcome_rows()]
        if not keys or any(key not in table for key in keys):
            raise ParameterError("the H table does not cover every outcome of dist")
        parts = np.stack([_json_parts(table[key], "H", d, d).real for key in keys])
        return _table_model(dist, parts, d, obj.get("name", "model"))


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
        self.rows, self.cols = _count(rows, "rows"), _count(cols, "cols")
        self.name = name or "rect_model"
        self._mean = None

    def H_rows(self, zs) -> np.ndarray:
        return _rows(self._H, zs, self.dist.n, (self.rows, self.cols))

    H, X, exact = MatrixModel.H, MatrixModel.X, MatrixModel.exact

    def mean(self) -> np.ndarray:
        if self._mean is None:
            if not self.exact:
                raise PreconditionError("rectangular models are enumerated exactly only")
            hs = self.H_rows(self.dist._outcome_rows())
            # the sum along axis 0 adds the outcomes one after another
            self._mean = (self.dist.probabilities().reshape(-1, 1, 1) * hs).sum(axis=0)
        return self._mean


def dilate_model(model: RectangularModel) -> MatrixModel:
    """Hermitian model whose H is the dilation of the rectangular H."""
    return MatrixModel(model.dist, lambda zs: _dilations(model.H_rows(zs)),
                       model.rows + model.cols, name=f"dilated({model.name})")


# ---------------------------------------------------------------------------
# builtins


def hypercube_sum(n: int, d: int = 2) -> MatrixModel:
    """H(z) = (sum_j z_j) E_11 on uniform {+-1}^n; E H = 0."""
    n, d = _count(n, "n"), _count(d, "d")

    def H(zs):
        out = np.zeros((zs.shape[0], d, d))
        out[:, 0, 0] = zs.sum(axis=1)
        return out

    return MatrixModel(ProductDistribution.uniform_pm1(n), H, d,
                       name=f"hypercube_sum(n={n},d={d})")


def bounded_diff_demo(n: int = 3, d: int = 2) -> MatrixModel:
    """H(z) = sum_j z_j M_j with fixed Hermitian M_j and z uniform on {+-1}^n."""
    n, d = _count(n, "n"), _count(d, "d")
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
    p, n, L = _count(p, "p"), _count(n, "n"), _real(L, "L", 0, strict=True)
    Bh = HermitianMatrix(np.eye(n) if B is None else B, "B", n)
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
    n = _count(n, "n")

    def H(zs):
        z0, z1, z2 = np.hstack([zs, np.ones((len(zs), 2))])[:, :3].T  # missing ones read 1
        return np.stack([[z0, z1, z2], [z2 * z0, z0 * z1, z1 * z2]]).transpose(2, 0, 1)

    return RectangularModel(ProductDistribution.uniform_pm1(n), H, 2, 3,
                            name=f"rect_demo(n={n})")


def random_finite_model(n: int, d: int, seed: int) -> MatrixModel:
    """Binary-coordinate model with an independent random Hermitian per outcome."""
    n, d, seed = _count(n, "n"), _count(d, "d"), _count(seed, "seed", 0)
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
        self.seed = _count(seed, "seed", 0)
        self._gen = _rng(self.seed)

    def sample(self) -> tuple:
        model = self.model
        z = model.dist.sample(self._gen)
        j = int(self._gen.integers(0, model.dist.n))
        v = float(model.dist.coords[j].sample(self._gen))
        return z, model.replace(z, j, v)

    def joint_pmf(self) -> dict:
        """Exact joint pmf of (Z, Z') as a dict keyed by the pair of tuples:
        the cells of _pair_cells, outcome by outcome and coordinate by
        coordinate, so the table is symmetric under swap bitwise."""
        model = self.model
        if not model.exact:
            raise PreconditionError("joint pmf needs a finite model")
        values = [c.values.tolist() for c in model.dist.coords]
        cells = list(_pair_cells(model.dist))
        pmf: dict = {}
        for idx, z in zip(np.ndindex(model.dist.shape), itertools.product(*values)):
            for j, cell in enumerate(cells):
                for b, p in zip(values[j], cell[idx]):
                    key = (z, z[:j] + (b,) + z[j + 1:])
                    pmf[key] = pmf.get(key, 0.0) + p
        return pmf


# ---------------------------------------------------------------------------
# replacement pairs


def outcome_stack(T: np.ndarray) -> np.ndarray:
    """An outcome tensor as a flat stack of shape (S, ...) in outcomes() order."""
    return T.reshape((-1,) + T.shape[-2:])


def _square(a: np.ndarray) -> np.ndarray:
    return a @ a


def _pairs(dist: ProductDistribution, *Ts):
    """Each pair of values u < v of each coordinate j, j first, as (p_u, p_v,
    the slices z_j = u of the outcome tensors Ts, their slices z_j = v): the
    transitions z -> z_{j<-v} of the exchangeable pair and their reverses."""
    for j, c in enumerate(dist.coords):
        before = (slice(None),) * j
        for u, v in itertools.combinations(range(len(c)), 2):
            yield (c.probs[u], c.probs[v], [T[before + (u,)] for T in Ts],
                   [T[before + (v,)] for T in Ts])


def _pair_sum(dist: ProductDistribution, acc: np.ndarray, term: Callable, *Ts,
              n: int = 1, odd: bool = False) -> np.ndarray:
    """The sum over every transition z -> z_{j<-v} of p_{j,v}/n times
    term(T(z) - T(z_{j<-v}) for T in Ts), added into the outcome tensor acc.

    Each pair's term is formed once, from the differences of its slices u and
    v, and added into slice u with weight p_v/n and into slice v with weight
    p_u/n, so each slice takes its terms v by v with the exact zero at
    z_j = v skipped: bit for bit the per-replacement sum, as an accumulator
    started at +0.0 never holds -0.0.  An odd term, such as the difference
    itself, is subtracted at v, since IEEE subtraction and scaling are
    exactly odd.
    """
    at_v = np.subtract if odd else np.add
    for p_u, p_v, (a_u, *t_u), (a_v, *t_v) in _pairs(dist, acc, *Ts):
        k = term(*map(np.subtract, t_u, t_v))
        a_u += (p_v / n) * k
        at_v(a_v, (p_u / n) * k, out=a_v)
    return acc


def _pair_cells(dist: ProductDistribution):
    """For each coordinate j, the tensor cell[z, b] = P(z, z_{j<-b}) of the
    pair's joint pmf, shape ``shape`` + (|V_j|,), each cell formed as
    base * (p_a * p_b) / n with the replaced coordinate's two probabilities
    multiplied first, so that a cell and its swap are equal bitwise."""
    for j, coord in enumerate(dist.coords):
        base = np.ones(())
        for k, c in enumerate(dist.coords):
            base = base[..., None] * (np.ones(len(c)) if k == j else c.probs)
        pa = coord.probs.reshape((-1,) + (1,) * (dist.n - j))
        yield base[..., None] * (pa * coord.probs) / dist.n


def _replacement_squares(dist: ProductDistribution, T: np.ndarray) -> np.ndarray:
    """The sum over every replacement z -> z_{j<-v} of p_{j,v} (T - T_{j<-v})^2,
    an outcome tensor."""
    return _pair_sum(dist, np.zeros_like(T), _square, T)


def _drift(dist: ProductDistribution, g: np.ndarray) -> np.ndarray:
    """E[K(Z, Z') | Z = z] = E[g(z) - g(Z') | Z = z] at every outcome, K the
    kernel of the outcome tensor g, under the pair law p_{j,v}/n."""
    return _pair_sum(dist, np.zeros_like(g), lambda k: k, g, n=dist.n, odd=True)


def _require_kernel(model: MatrixModel, kernel) -> None:
    """The exact kernel checks need an enumerable model and a kernel built for it."""
    if not model.exact:
        raise PreconditionError("kernel checks enumerate finite models under the cutoff")
    if kernel.model is not model:
        raise PreconditionError("kernel was built for a different model")


# ---------------------------------------------------------------------------
# variance proxy


def variance_proxy_map(model: MatrixModel) -> np.ndarray:
    """V = (1/2) sum_j E_v (H - H_{j<-v})^2 at every outcome, as an outcome
    tensor: built on first use, and kept read-only on the model."""
    return _kept(model, "_v_map",
                 lambda: _replacement_squares(model.dist, model.H_tensor()) / 2.0)


def variance_proxy_spectra(model: MatrixModel) -> np.ndarray:
    """The eigenvalues of V, one row per outcome, kept beside V as X_spectra is."""
    return _kept(model, "_v_spectra",
                 lambda: np.linalg.eigvalsh(outcome_stack(variance_proxy_map(model))))


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
        return HermitianMatrix(outcome_stack(variance_proxy_map(model))[model.dist.locate([z])[0]])
    if samples is None or seed is None:
        raise ParameterError("models that cannot be enumerated need samples and seed")
    samples = _count(samples, "samples")
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
        i, ip = self.model.dist.locate([z, zp])
        g = outcome_stack(self.g)
        return g[i] - g[ip]


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


def default_horizon(n: int, h_max: float) -> int:
    """Smallest I with n (1 - 1/n)^(I/2) * 2 h_max < _HORIZON_TOL."""
    if n == 1:
        return 1
    ratio = 1.0 - 1.0 / n
    lead = 2.0 * n * h_max
    if lead < _HORIZON_TOL:
        return 1
    # solve lead * ratio^(I/2) < _HORIZON_TOL
    need = 2.0 * math.log(_HORIZON_TOL / lead) / math.log(ratio)
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

# Rows per call of H in _rows, so that evaluating H holds one output stack and
# one block's intermediates, however many rows it is given.
_ROW_BLOCK = 4096


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
    dist = model.dist
    hs = outcome_stack(model.H_tensor())
    size = np.array(dist.shape)
    stride = np.array([math.prod(dist.shape[j + 1:]) for j in range(dist.n)])
    per = max(starts.size, 2 * _KERNEL_BLOCK) // starts.size
    bitgen = _rng(seed).bit_generator
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
    horizon, samples = _count(horizon, "horizon"), _count(samples, "samples")
    seed = _count(seed, "seed", 0)
    z = tuple(float(v) for v in z)
    zp = tuple(float(v) for v in zp)
    # locate() rejects a state off the support, of any length
    starts = model.dist.locate([z, zp])
    acc = 0.0
    acc_sq = 0.0
    for sums in _chain_sums(model, starts, horizon, samples, seed):
        diff = sums[:, 0] - sums[:, 1]
        # the sum along axis 0 adds the samples one after another
        acc = acc + diff.sum(axis=0)
        acc_sq += float(np.vdot(diff, diff).real)
    est = acc * (1.0 / samples)
    return KernelEstimate(z, zp, horizon, samples, seed, HermitianMatrix(est),
                          _truncation_bound(model, horizon),
                          float(_standard_error(acc_sq, est, samples)))


class EstimatedKernel(_OutcomeKernel):
    """The truncated kernel g_h(z) - g_h(z'), estimated on every pair at once.

    One run of _chain_sums from all S outcomes: ``g`` is the mean chain sum,
    and the error radius of each replacement pair (z, z_{j<-v}) is its
    standard error, from the per-sample second moments of G(z) - G(z_{j<-v}),
    plus the truncation bound (0 where z_j = v).  Each unordered pair's
    radius and operator norm are formed once and added into the error budget
    by one _pair_sum.  Stream version 3: every pair shares the seed's one stream.
    """

    def __init__(self, model: MatrixModel, horizon: int, samples: int, seed: int):
        # one sample has no standard error, so no error radius
        horizon, samples = _count(horizon, "horizon"), _count(samples, "samples", 2)
        self.model = model
        dist = model.dist
        total = 0.0
        sq = itertools.repeat(0.0)  # per pair, the squared norms of G_u - G_v over the samples
        for sums in _chain_sums(model, np.arange(dist.cardinality), horizon, samples, seed):
            G = sums.reshape((len(sums),) + dist.shape + sums.shape[-2:])
            total = total + G.sum(axis=0)
            # the samples' axis moved behind the outcome axes, which _pairs slices
            sq = [s + np.sum(np.abs(a - b) ** 2, axis=(-3, -2, -1))
                  for s, (_, _, (a,), (b,)) in zip(sq, _pairs(dist, np.moveaxis(G, 0, dist.n)))]
        self.g = total * (1.0 / samples)  # as numpy divides a complex total
        trunc = _truncation_bound(model, horizon)
        sqs = iter(sq)  # _pair_sum walks the pairs in _pairs's order

        def budget(k):  # the pair's terms of E[r | Z=z] and E[(2 ||K|| r + r^2)/2 | Z=z]
            r = _standard_error(next(sqs), k, samples) + trunc
            return np.stack([r, (2.0 * _opnorms(k) * r + r * r) / 2.0], axis=-1)

        both = _pair_sum(dist, np.zeros(dist.shape + (2,)), budget, self.g, n=dist.n)
        self.stein_radius, self.inflation = map(float, np.max(both.reshape(-1, 2), axis=0))


# ---------------------------------------------------------------------------
# conditional variances and identities


def _vk_map(model: MatrixModel, kernel) -> np.ndarray:
    """V^K, the sum behind V over g times 1/n, kept read-only on the kernel."""
    _require_kernel(model, kernel)
    return _kept(kernel, "_vk", lambda: _replacement_squares(
        model.dist, kernel.g) / 2.0 * (1.0 / model.dist.n))


def conditional_variance_map(model: MatrixModel, kernel) -> tuple:
    """V_X = E[(X-X')^2|Z=z]/2 and V^K = E[K(Z,Z')^2|Z=z]/2 at every outcome,
    as outcome tensors.  The pair replaces one uniform coordinate of n, so V_X
    is the model's V times 1/n, the product numpy forms for a complex V / n."""
    vk = _vk_map(model, kernel)
    return variance_proxy_map(model) * (1.0 / model.dist.n), vk


def conditional_variances(model: MatrixModel, kernel, z) -> tuple:
    """(V_X(z), V^K(z)) as HermitianMatrix, the entries of conditional_variance_map at z."""
    vk = outcome_stack(_vk_map(model, kernel))
    i = model.dist.locate([z])[0]
    v = outcome_stack(variance_proxy_map(model))[i]
    return HermitianMatrix(v * (1.0 / model.dist.n)), HermitianMatrix(vk[i])


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
    worst = float(np.max(_opnorms(_drift(model.dist, kernel.g) - model.X_tensor())))
    return SteinCheck(worst, kernel.stein_radius)


def exchangeable_pairs_identity(model: MatrixModel, kernel, F: Callable) -> float:
    """|| E[X F(X)] - E[K(Z,Z')(F(X) - F(X'))]/2 || by full enumeration.  F takes
    the outcome tensor of X and returns F of each matrix, or one d x d matrix."""
    _require_kernel(model, kernel)
    X = model.X_tensor()
    fx = F(X)
    if np.shape(fx) not in (X.shape, X.shape[-2:]):
        raise ShapeError(f"F returned shape {np.shape(fx)}, expected {X.shape} or {X.shape[-2:]}")
    if np.shape(fx) != X.shape:
        return _opnorm(model.expect(X @ fx))  # F(X) - F(X') is exactly 0: no pair walk
    # E[K(Z,Z')(F(X) - F(X')) | Z = z]: the product is even in the pair, as
    # (-A)(-B) = AB bit for bit
    acc = _pair_sum(model.dist, np.zeros(X.shape, np.result_type(kernel.g, fx)), np.matmul,
                    kernel.g, fx, n=model.dist.n)
    return _opnorm(model.expect(X @ fx) - 0.5 * model.expect(acc))


def kernel_mean_norm(model: MatrixModel, kernel) -> float:
    """|| E K(Z, Z') || over the joint exchangeable-pair law: the mean of the
    Stein drift E[K(Z, Z') | Z], by the tower property."""
    _require_kernel(model, kernel)
    return _opnorm(model.expect(_drift(model.dist, kernel.g)))


def pair_asymmetries(model: MatrixModel, kernel: ExactKernel) -> tuple:
    """max |K(z, z') + K(z', z)| and max |P(z, z') - P(z', z)| over the
    replacement pairs z' = z_{j<-v}, the support of the exchangeable pair.

    Both sweep outcome tensors, never the S x S table.  P is read off the
    cells of _pair_cells, which ExchangeablePair.joint_pmf reads too: in
    cell[z, b] = P(z, z_{j<-b}), axes j and b swapped give P(z_{j<-b}, z),
    so on a correct model both maxima are 0 bitwise.
    """
    _require_kernel(model, kernel)
    anti = max([0.0] + [float(np.max(np.abs((a - b) + (b - a))))
                        for _, _, (a,), (b,) in _pairs(model.dist, kernel.g)])
    asym = max(float(np.max(np.abs(cell - cell.swapaxes(j, -1))))
               for j, cell in enumerate(_pair_cells(model.dist)))
    return anti, asym


_S_BLOCK = 8192  # matrices per eigvalsh stack of r_psi; a block holds at least one s


def r_psi(model: MatrixModel, kernel, psi: float, s_grid) -> dict:
    """r(psi) = (1/psi) min over s of log E tr-bar exp((psi/2)(s V_X + V^K / s)).

    Expectation is exact on finite models.  s values whose exponent would
    overflow are skipped and reported.  The grid goes in blocks of s values,
    each broadcast through s V_X + V^K (1/s) and decomposed by one eigvalsh
    of the (block, S, d, d) stack: the per-s form bit for bit.
    """
    psi = _real(psi, "psi", 0, strict=True)
    s_grid = _grid(s_grid, "s", least=0, strict=True)
    vx, vk = (outcome_stack(t) for t in conditional_variance_map(model, kernel))
    pr = model.dist.probabilities().ravel()
    best = math.inf
    best_s = None
    skipped = []
    per = max(1, _S_BLOCK // len(vx))
    for lo in range(0, len(s_grid), per):
        s = np.array(s_grid[lo:lo + per], dtype=float)
        sa = s.reshape(-1, 1, 1, 1)
        w = np.linalg.eigvalsh((psi / 2.0) * (sa * vx + vk * (1.0 / sa)))
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
    first such step (0 if the starts agree, -1 if max_steps runs out).  H runs
    once, on every state of the trajectory stacked.
    """
    z = tuple(float(v) for v in z)
    zp = tuple(float(v) for v in zp)
    n = model.dist.n
    _row_array([z, zp], n)  # starts of another width fail before the first step
    seed, max_steps = _count(seed, "seed", 0), _count(max_steps, "max_steps", 0)
    rng = _rng(seed)
    a, b = z, zp
    traj = [(a, b)]
    draws = []
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
        drawn.add(j)
        if first_all < 0 and len(drawn) == n:
            first_all = step
        if coupling_time < 0 and a == b:
            coupling_time = step
        if coupling_time >= 0 and first_all >= 0:
            break
    hs = model.H_rows(np.array(traj).reshape(-1, n)).reshape(len(traj), 2, model.d, model.d)
    return CouplingRun(traj, draws, coupling_time, first_all, seed,
                       _opnorms(hs[:, 0] - hs[:, 1]).tolist())


def sample_coupling_times(n: int, runs: int, seed: int,
                          max_steps: int = 1_000_000) -> np.ndarray:
    """Coupling times for ``runs`` antipodal starts, in bulk.

    The chains meet exactly when the uniform draw stream has covered every
    coordinate, all of which differ at the start, so the bulk simulation
    reduces to coverage scans over shared draw arrays (see
    _accel.coverage_times).
    """
    return _accel.coverage_times(_count(n, "n"), _count(runs, "runs", 0), seed,
                                 max_steps=_count(max_steps, "max_steps", 0))


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
