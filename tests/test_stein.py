"""Models, exchangeable pairs, kernels, and the coupling simulators.

The oracles here are brute-force loops written against the definitions, kept
independent of the library's own enumeration helpers.
"""
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matconc import stein, verify
from matconc.matcore import (
    HermitianMatrix,
    ParameterError,
    PreconditionError,
    _opnorm,
    _opnorms,
)
from matconc.stein import (
    EstimatedKernel,
    ExactKernel,
    ExchangeablePair,
    FiniteCoord,
    MatrixModel,
    ProductDistribution,
    check_stein_identity,
    compound_covariance,
    conditional_variances,
    coupling_premise_bound,
    default_horizon,
    dilate_model,
    estimate_kernel,
    exchangeable_pairs_identity,
    hypercube_sum,
    kernel_mean_norm,
    pair_asymmetries,
    r_psi,
    random_finite_model,
    rect_demo,
    sample_coupling_times,
    simulate_kernel_coupling,
    variance_proxy,
    variance_proxy_map,
)

EXACT = 1e-10


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def brute_variance_proxy(model, z):
    """(1/2) sum_j E_v (H(z) - H(z_{j<-v}))^2 straight from the definition,
    with H evaluated one row at a time, not read off the outcome tensor."""
    z = tuple(z)
    acc = np.zeros((model.d, model.d), dtype=np.complex128)
    for j, coord in enumerate(model.dist.coords):
        for v, p in zip(coord.values, coord.probs):
            d = model.H_rows([z])[0] - model.H_rows([model.replace(z, j, float(v))])[0]
            acc += p * (d @ d)
    return acc / 2.0


def oracle_compound_covariance_H(p, n, B):
    """Compound covariance's H as the complex product Z B Z*, Z upcast to complex."""
    Ba = HermitianMatrix(B).a

    def H(zs):
        Z = zs.reshape(-1, p, n).astype(np.complex128)
        return Z @ Ba @ np.conj(Z).swapaxes(-1, -2)

    return H


def iterative_kernel_table(model, tol=1e-14, max_iter=20_000):
    """K = sum_i T^i D_0 with D_0(z, z') = H(z) - H(z') and T the pair-chain
    averaging operator on (S, S, d, d) tables, iterated to convergence."""
    outs = [z for z, _ in model.dist.outcomes()]
    index = {z: i for i, z in enumerate(outs)}
    n = model.dist.n
    H = np.stack([model.H(z) for z in outs])
    M = H[:, None] - H[None, :]
    scale = max(1.0, float(np.max(np.abs(M))))
    reps = [[np.array([index[model.replace(z, j, float(v))] for z in outs])
             for v in coord.values] for j, coord in enumerate(model.dist.coords)]
    K = np.zeros_like(M)
    for _ in range(max_iter):
        K += M
        if float(np.max(np.abs(M))) <= tol * scale:
            return K
        nxt = np.zeros_like(M)
        for j, coord in enumerate(model.dist.coords):
            for r, p in zip(reps[j], coord.probs):
                nxt += (p / n) * M[np.ix_(r, r)]
        M = nxt
    raise AssertionError("kernel iteration did not converge")


def truncated_kernel(model, h):
    """g_h = sum_{i<=h} P^i X by h applications of P = (1/n) sum_j E_j, each
    E_j the probability-weighted mean along axis j (kept, so it broadcasts)."""
    n = model.dist.n
    term = model.X_tensor()
    g = term.copy()
    for _ in range(h):
        nxt = np.zeros_like(term)
        for j, coord in enumerate(model.dist.coords):
            p = coord.probs.reshape((1,) * j + (-1,) + (1,) * (term.ndim - j - 1))
            nxt = nxt + (p * term).sum(axis=j, keepdims=True) / n
        term = nxt
        g = g + term
    return stein.outcome_stack(g)


def oracle_kernel_estimate(model, z, zp, horizon, samples, seed):
    """(mean, standard error) of sum_t H(a_t) - H(b_t) over coupled chain pairs
    from (z, z'), stepping the pair alone as arrays of support positions: block
    k of stein._KERNEL_BLOCK samples draws J and one replacement per
    coordinate for every sample at every step, from the seed's Philox stream
    jumped k times, and a sample stops adding once its chains have met."""
    dist = model.dist
    n, d = dist.n, model.d
    hs = stein.outcome_stack(model.H_tensor())
    starts = [np.unravel_index(dist.index(s), dist.shape) for s in (z, zp)]

    def at(rows):
        return hs[np.ravel_multi_index(tuple(rows.T), dist.shape)]

    bitgen = np.random.Philox(int(seed))
    acc = np.zeros((d, d), dtype=np.complex128)
    acc_sq = 0.0
    for k, lo in enumerate(range(0, samples, stein._KERNEL_BLOCK)):
        rng = np.random.Generator(bitgen.jumped(k))
        m = min(stein._KERNEL_BLOCK, samples - lo)
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
        acc += total.sum(axis=0)
        acc_sq += float(np.vdot(total, total).real)
    est = acc / samples
    var = max(0.0, acc_sq / samples - float(np.linalg.norm(est)) ** 2)
    return est, math.sqrt(var / (samples - 1))


def oracle_coverage_times(n, needed, runs, seed, max_steps=1_000_000, chunk=16):
    """The coverage scan one draw column at a time, over the same Philox stream.

    Stream version 2: each block draws (step, open runs) for the runs open at
    its start, in int64, so the scan's int32 draws are checked as well.
    """
    needed = np.asarray(needed, dtype=np.bool_)
    times = np.full(runs, -1, dtype=np.int64)
    if not needed.any():
        times[:] = 0
        return times
    rng = _rng(seed)
    seen = np.zeros((runs, n), dtype=np.bool_)
    remaining = np.full(runs, int(needed.sum()), dtype=np.int64)
    offset = 0
    while offset < max_steps and np.any(times < 0):
        step = min(chunk, max_steps - offset)
        rows = np.flatnonzero(times < 0)
        draws = rng.integers(0, n, size=(step, rows.size), dtype=np.int64)
        for c in range(step):
            j = draws[c]
            hit = (times[rows] < 0) & needed[j] & ~seen[rows, j]
            seen[rows[hit], j[hit]] = True
            remaining[rows[hit]] -= 1
            times[rows[hit & (remaining[rows] == 0)]] = offset + c + 1
        offset += step
    return times


def coverage_cdf(n, m, tmax):
    """P(T <= t) for t = 0..tmax, T the first time m given coordinates of n are drawn.

    Inclusion-exclusion, sum_k (-1)^k C(m, k) (1 - k/n)^t, summed in exact
    integers and divided once, so no cancellation.
    """
    powers = [1] * (m + 1)  # (n - k)^t
    cdf = []
    for t in range(tmax + 1):
        total = sum((-1) ** k * math.comb(m, k) * p for k, p in enumerate(powers))
        cdf.append(total / n ** t)
        powers = [p * (n - k) for k, p in enumerate(powers)]
    return np.array(cdf)


def table_H(table):
    """A batched H that looks each outcome row up in a dict keyed by outcome tuples."""
    return lambda zs: np.stack([table[tuple(z)] for z in zs.tolist()])


def oracle_finite_draws(coord, rng, count):
    """Inverse-CDF draws from a finite coordinate, as the sampler has always made them."""
    idx = np.searchsorted(np.cumsum(coord.probs), rng.random(count), side="right")
    return coord.values[np.minimum(idx, len(coord.values) - 1)]


def unsorted_three_valued_model():
    """A non-uniform three-valued coordinate whose support is not in sorted order."""
    coords = [FiniteCoord([(2.0, 0.3), (-1.0, 0.2), (0.5, 0.5)]),
              FiniteCoord([(1.0, 0.5), (-1.0, 0.5)])]
    rng = _rng(43)
    table = {}
    for z, _ in ProductDistribution(coords).outcomes():
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        table[z] = g + g.conj().T
    return MatrixModel(ProductDistribution(coords), table_H(table), 3,
                       name="unsorted_three_valued")


def three_valued_model():
    """Non-uniform coordinates with three values each, one of probability 0."""
    coords = [FiniteCoord([(-1.0, 0.2), (0.0, 0.5), (2.0, 0.3)]),
              FiniteCoord([(0.0, 0.25), (1.0, 0.75)]),
              FiniteCoord([(-2.0, 0.0), (1.0, 0.4), (3.0, 0.6)])]
    rng = _rng(41)
    table = {}
    for z, _ in ProductDistribution(coords).outcomes():
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        table[z] = (g + g.conj().T) / 2
    return MatrixModel(ProductDistribution(coords), table_H(table), 2,
                       name="three_valued")


# models whose pointwise variance proxies are checked against their maps
POINT_MODELS = [
    lambda: random_finite_model(3, 2, seed=9), lambda: hypercube_sum(4),
    lambda: stein.compound_covariance(2, 3), three_valued_model,
    unsorted_three_valued_model, lambda: dilate_model(rect_demo(3)),
]


def refuse_whole_map(*args, **kwargs):
    raise AssertionError("a whole map built for one outcome")


def real_random_model(n, d, seed):
    """random_finite_model's draw with every imaginary part set to 0: a real table."""
    dist = ProductDistribution.uniform_pm1(n)
    parts = _rng(seed).standard_normal((dist.cardinality, 2, d, d))
    parts[:, 1] = 0.0
    return stein._table_model(dist, parts, d, f"real_random(n={n},d={d},seed={seed})")


def complex_twin(model):
    """The model with H upcast to complex: the reference for a real model's stacks."""
    return MatrixModel(model.dist, lambda zs: np.asarray(model._H(zs), dtype=np.complex128),
                       model.d, name=model.name)


# models whose H is real, under both entry laws of compound covariance
REAL_MODELS = [
    lambda: hypercube_sum(6), lambda: hypercube_sum(4, d=4),
    lambda: stein.compound_covariance(2, 3), lambda: stein.compound_covariance(3, 2),
    lambda: stein.compound_covariance(2, 3, B=np.diag([1.0, 2.0, 0.5]) + 0.3),
    lambda: stein.compound_covariance(2, 3, entry_dist="uniform"),
    lambda: stein.compound_covariance(3, 2, entry_dist="uniform"),
    lambda: dilate_model(rect_demo(3)), lambda: real_random_model(3, 2, seed=4),
]
COMPLEX_MODELS = [
    lambda: stein.bounded_diff_demo(3), lambda: random_finite_model(3, 2, seed=0),
    lambda: stein.compound_covariance(2, 2, B=np.array([[1.0, 0.5j], [-0.5j, 2.0]])),
]


def oracle_pairs_identity(model, kernel, F):
    """exchangeable_pairs_identity with F called one outcome at a time, each
    value cast to complex, as the per-outcome form called it."""
    X = model.X_tensor()
    fx = np.array([np.asarray(F(x), dtype=np.complex128)
                   for x in stein.outcome_stack(X)]).reshape(X.shape)

    def term(j, v):
        return model.expect(kernel.on_neighbours(j, v) @ (fx - stein.neighbour(fx, j, v)))

    rhs = 0.5 * stein.replacement_sum(model.dist, term, pair_law=True)
    return _opnorm(model.expect(X @ fx) - rhs)


def oracle_replacement_squares(dist, T, pair_law=False):
    """The per-replacement form of the squares behind V, V_X and V^K:
    (T - neighbour(T, j, v))^2 over the whole outcome tensor for every (j, v),
    the exact zeros at z_j = v included, added by replacement_sum."""
    def term(j, v):
        diff = T - stein.neighbour(T, j, v)
        return diff @ diff

    return stein.replacement_sum(dist, term, pair_law)


def oracle_replacement_pairs_identity(model, kernel, F):
    """exchangeable_pairs_identity with the outcome tensor K (F(X) - F(X')) of
    every (j, v) formed over the whole support, zeros at z_j = v included."""
    X = model.X_tensor()
    fx = np.broadcast_to(F(X), X.shape)

    def term(j, v):
        return model.expect(kernel.on_neighbours(j, v) @ (fx - stein.neighbour(fx, j, v)))

    rhs = 0.5 * stein.replacement_sum(model.dist, term, pair_law=True)
    return _opnorm(model.expect(X @ fx) - rhs)


def oracle_estimated_radii(model, horizon, samples, seed):
    """EstimatedKernel's g and the error radius of every replacement pair, as an
    outcome tensor per (j, v), with the squared norms of G - neighbour(G, j, v)
    summed over the whole outcome tensor for every (j, v), one after another."""
    dist = model.dist
    pairs = [(j, v) for j, c in enumerate(dist.coords) for v in range(len(c))]
    total = 0.0
    sq = dict.fromkeys(pairs, 0.0)
    for sums in stein._chain_sums(model, np.arange(dist.cardinality), horizon, samples, seed):
        G = sums.reshape((len(sums),) + dist.shape + sums.shape[-2:])
        total = total + G.sum(axis=0)
        for j, v in pairs:
            diff = G - stein.neighbour(G, j + 1, v)
            sq[j, v] = sq[j, v] + np.sum(np.abs(diff) ** 2, axis=(0, -2, -1))
    g = total * (1.0 / samples)
    trunc = stein._truncation_bound(model, horizon)
    radius = {}
    for j, v in pairs:
        moved = np.arange(len(dist.coords[j])).reshape((-1,) + (1,) * (dist.n - 1 - j))
        se = stein._standard_error(sq[j, v], g - stein.neighbour(g, j, v), samples)
        radius[j, v] = np.where(moved != v, se + trunc, 0.0)
    return g, radius


def oracle_error_budget(model, horizon, samples, seed):
    """EstimatedKernel's (stein_radius, inflation) from oracle_estimated_radii,
    each per-pair tensor added over the whole outcome tensor by replacement_sum."""
    g, radius = oracle_estimated_radii(model, horizon, samples, seed)

    def inflation_term(j, v):  # E[(2 ||K|| r + r^2)/2 | Z=z], r the pair's error radius
        r = radius[j, v]
        knorm = _opnorms(g - stein.neighbour(g, j, v))
        return (2.0 * knorm * r + r * r) / 2.0

    budget = (stein.replacement_sum(model.dist, lambda j, v: radius[j, v], pair_law=True),
              stein.replacement_sum(model.dist, inflation_term, pair_law=True))
    return tuple(float(np.max(b)) for b in budget)


def mixed_support_model(seed, d=2, complex_table=True):
    """A seeded random table on coordinates of 1, 2, 3 and 4 values with
    unequal probabilities, complex or real."""
    coords = [FiniteCoord([(0.5, 1.0)]),
              FiniteCoord([(-1.0, 0.3), (2.0, 0.7)]),
              FiniteCoord([(0.0, 0.2), (1.0, 0.5), (-3.0, 0.3)]),
              FiniteCoord([(-1.0, 0.1), (0.0, 0.4), (1.0, 0.3), (4.0, 0.2)])]
    dist = ProductDistribution(coords)
    parts = _rng(seed).standard_normal((dist.cardinality, 2, d, d))
    if not complex_table:
        parts[:, 1] = 0.0
    return stein._table_model(dist, parts, d, f"mixed_support(seed={seed})")


class TestDistributions:
    def test_finite_coord_rejects_bad_probs(self):
        with pytest.raises(ParameterError):
            FiniteCoord([(1.0, 0.6), (-1.0, 0.5)])
        with pytest.raises(ParameterError):
            FiniteCoord([(1.0, 1.2), (-1.0, -0.2)])

    def test_outcome_probabilities_sum_to_one(self):
        dist = ProductDistribution.uniform_pm1(3)
        outs = list(dist.outcomes())
        assert len(outs) == 8
        assert abs(sum(p for _, p in outs) - 1.0) < 1e-14

    def test_sample_many_reproducible(self):
        dist = ProductDistribution.uniform_pm1(4)
        a = dist.sample_many(_rng(5), 64)
        b = dist.sample_many(_rng(5), 64)
        assert np.array_equal(a, b)
        assert set(np.unique(a)) <= {-1.0, 1.0}

    def test_sample_many_matches_inverse_cdf_oracle(self):
        for dist in (ProductDistribution.uniform_pm1(4), three_valued_model().dist,
                     unsorted_three_valued_model().dist):
            rng = _rng(6)
            want = np.column_stack([oracle_finite_draws(c, rng, 500) for c in dist.coords])
            assert np.array_equal(dist.sample_many(_rng(6), 500), want)

    def test_tensor_layout_matches_outcomes(self):
        dist = three_valued_model().dist
        outs = list(dist.outcomes())
        assert dist.shape == (3, 2, 3) and dist.cardinality == len(outs)
        assert np.array_equal(dist.probabilities().ravel(), [p for _, p in outs])
        assert [dist.index(z) for z, _ in outs] == list(range(len(outs)))
        with pytest.raises(ParameterError):
            dist.index((5.0, 0.0, 1.0))

    @pytest.mark.parametrize("build", [three_valued_model, unsorted_three_valued_model])
    def test_locate_is_the_outcome_position(self, build):
        dist = build().dist
        position = {z: i for i, (z, _) in enumerate(dist.outcomes())}
        zs = dist.sample_many(_rng(7), 200)
        assert np.array_equal(dist.locate(zs), [position[tuple(z)] for z in zs.tolist()])

    def test_locate_on_a_large_support(self):
        # one coordinate of 10^4 values, shuffled, with an infinity among them
        values = _rng(8).permutation(10_000).astype(float)
        values[17] = np.inf
        dist = ProductDistribution([FiniteCoord([(v, 1e-4) for v in values])])
        order = _rng(9).permutation(10_000)
        assert np.array_equal(dist.locate(values[order, None]), order)
        with pytest.raises(ParameterError):
            dist.locate([[0.5]])

    @pytest.mark.parametrize("rows", [
        [(-1.0, 0.0, 1.0), (5.0, 0.0, 1.0)],  # the second row is off the support
        [(-1.0, 0.0)],                        # too short
        [(-1.0, 0.0, 1.0, 1.0)],              # too long
        [(-1.0, 0.0, 1.0), (-1.0, 0.0)],      # ragged
        [("a", 0.0, 1.0)],                    # not a number
    ])
    def test_locate_and_index_reject_non_outcome_rows(self, rows):
        dist = three_valued_model().dist
        with pytest.raises(ParameterError):
            dist.locate(rows)
        with pytest.raises(ParameterError):
            dist.index(rows[-1])

    def test_roundtrip_json(self):
        dist = ProductDistribution.uniform_pm1(2)
        back = ProductDistribution.from_json(dist.to_json())
        for got, want in zip(back.coords, dist.coords):
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.probs, want.probs)


class TestModels:
    def test_hypercube_sum_H(self):
        m = hypercube_sum(3)
        h = m.H((1.0, 1.0, -1.0))
        want = np.zeros((2, 2))
        want[0, 0] = 1.0
        np.testing.assert_array_equal(h, want)

    def test_mean_is_exact_zero(self):
        m = hypercube_sum(3)
        np.testing.assert_allclose(m.mean(), 0.0, atol=1e-15)
        assert m.mean_provenance == {"method": "exact"}

    def test_sample_X_matches_H_minus_mean(self):
        m = hypercube_sum(3)
        xs = m.sample_X(16, seed=2)
        zs = m.dist.sample_many(_rng(2), 16)
        for x, z in zip(xs, zs):
            np.testing.assert_allclose(x, m.H(tuple(z)) - m.mean(), atol=1e-14)

    @pytest.mark.parametrize("build", [
        lambda: dilate_model(rect_demo(3)),
        lambda: random_finite_model(4, 2, seed=0),
        lambda: random_finite_model(4, 2, seed=1),
        unsorted_three_valued_model,
    ])
    def test_sample_X_is_H_minus_mean_bitwise(self, build):
        # sample_X maps every draw in one H_rows call; the reference maps one
        # draw a call
        xs = build().sample_X(600, seed=8)
        ref = build()
        zs = ref.dist.sample_many(_rng(8), 600)
        assert np.array_equal(xs, np.stack([ref.H_rows([z])[0] - ref.mean() for z in zs]))

    @pytest.mark.parametrize("build", [
        lambda: hypercube_sum(3), lambda: hypercube_sum(8), lambda: hypercube_sum(16),
        lambda: hypercube_sum(3, d=3), lambda: stein.bounded_diff_demo(3),
        lambda: stein.bounded_diff_demo(5, d=3), lambda: stein.compound_covariance(2, 3),
        lambda: stein.compound_covariance(3, 2), lambda: stein.compound_covariance(2, 4),
        lambda: stein.compound_covariance(2, 3, B=np.diag([1.0, 2.0, 0.5]) + 0.3),
    ])
    def test_batched_tensor_is_the_per_outcome_stack(self, build):
        m = build()
        oracle = np.stack([m.H_rows([z])[0] for z, _ in m.dist.outcomes()])
        assert np.array_equal(m.H_tensor(), oracle.reshape(m.dist.shape + (m.d, m.d)))

    @pytest.mark.parametrize("cutoff", [stein.ENUM_CUTOFF, 1])
    def test_batched_H_of_the_wrong_shape_is_a_shape_error(self, cutoff, monkeypatch):
        # exact models meet it building the tensor, the others on the rows drawn
        monkeypatch.setattr(stein, "ENUM_CUTOFF", cutoff)
        m = MatrixModel(ProductDistribution.uniform_pm1(2),
                        lambda zs: np.zeros((len(zs), 3, 2)), 2)
        calls = [lambda: m.H((1.0, -1.0)), m.mean, lambda: m.sample_X(5, seed=1)]
        if cutoff > 1:
            calls.append(m.H_tensor)
        for call in calls:
            with pytest.raises(stein.ShapeError, match="expected"):
                call()

    def test_table_H_rejects_a_non_outcome(self):
        m = random_finite_model(3, 2, seed=4)
        z = (1.0, -1.0, 1.0)
        assert np.array_equal(m.H(z), stein.outcome_stack(m.H_tensor())[m.dist.index(z)])
        assert m.H(z) is m.H(z)
        with pytest.raises(ParameterError):
            m.H((0.5, -1.0, 1.0))

    @pytest.mark.parametrize("n, d, seed", [(1, 1, 0), (3, 2, 7), (5, 3, 12)])
    def test_random_finite_tensor_is_the_per_outcome_draw(self, n, d, seed):
        # the stream one d x d real then imaginary part per outcome has always drawn
        rng = _rng(seed)
        want = []
        for _ in range(2 ** n):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            want.append((g + g.conj().T) / 2)
        m = random_finite_model(n, d, seed)
        assert np.array_equal(stein.outcome_stack(m.H_tensor()), np.stack(want))
        back = MatrixModel.from_json(json.loads(json.dumps(m.to_json())))
        assert np.array_equal(back.H_tensor(), m.H_tensor())

    @pytest.mark.parametrize("n, d", [(1, 1), (3, 2), (5, 3)])
    def test_bounded_diff_matrices_are_the_per_coordinate_draw(self, n, d):
        rng = _rng(20_240_501)
        want = []
        for _ in range(n):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            want.append((g + g.conj().T) / 2)
        # H is linear in z, so the unit rows read off M_1, ..., M_n
        assert np.array_equal(stein.bounded_diff_demo(n, d).H_rows(np.eye(n)), np.stack(want))

    def test_rectangular_mean_is_the_outcome_sum(self):
        rm = rect_demo(4)
        acc = np.zeros((2, 3), dtype=complex)
        for z, p in rm.dist.outcomes():
            acc += p * rm.H_rows([z])[0]
        assert np.array_equal(rm.mean(), acc)
        bad = stein.RectangularModel(rm.dist, lambda zs: np.zeros((len(zs), 3, 2)), 2, 3)
        with pytest.raises(stein.ShapeError):
            bad.mean()

    def test_non_numeric_B_is_a_parameter_error(self):
        # B taken positionally: a typed error, not numpy's bare ValueError
        with pytest.raises(ParameterError, match="must be numbers"):
            compound_covariance(2, 3, "uniform")

    def test_X_tensor_is_built_once_and_kept_read_only(self):
        m = random_finite_model(3, 2, seed=2)
        X = m.X_tensor()
        assert m.X_tensor() is X
        assert not X.flags.writeable
        assert np.array_equal(X, m.H_tensor() - m.mean())

    def test_only_exact_models_cache_H(self):
        exact = hypercube_sum(3)
        exact.H((1.0, -1.0, 1.0))
        assert len(exact._h_cache) == 1
        m = stein.compound_covariance(2, 3, entry_dist="uniform")
        m.mean()
        m.sample_X(50, seed=1)
        variance_proxy(m, TestMonteCarloBranches.Z, samples=200, seed=2)
        assert m._h_cache == {}

    def test_model_json_roundtrip(self):
        m = random_finite_model(2, 2, seed=3)
        back = MatrixModel.from_json(m.to_json())
        for z, _ in m.dist.outcomes():
            np.testing.assert_allclose(back.H(z), m.H(z), atol=1e-15)

    def test_max_h_norm_needs_enumeration(self, monkeypatch):
        m = hypercube_sum(3)
        monkeypatch.setattr(stein, "ENUM_CUTOFF", 2)  # force the large-model path
        with pytest.raises(PreconditionError):
            m.max_h_norm()

    def test_dilated_rect_model(self):
        rm = rect_demo(3)
        dm = dilate_model(rm)
        assert dm.d == rm.rows + rm.cols
        z, _ = next(iter(dm.dist.outcomes()))
        h = dm.H(z)
        np.testing.assert_allclose(h[:rm.rows, rm.rows:], rm.H(z), atol=1e-14)


class TestModelDtype:
    """Stacks keep the dtype of H, from H_rows to the kernels."""

    Z = (0.3, -0.7, 0.9, 0.1, -0.4, 0.6)

    @staticmethod
    def stacks(m):
        """The sampled stacks of a model and, on an exact model, its outcome
        tensors, V, (V_X, V^K) and the g of both kernels."""
        out = {"H_rows": m.H_rows(m.dist.sample_many(_rng(3), 50)), "mean": m.mean(),
               "sample_X": m.sample_X(50, seed=4)}
        if m.exact:
            k = ExactKernel(m)
            out.update(H_tensor=m.H_tensor(), X_tensor=m.X_tensor(), V=variance_proxy_map(m),
                       g=k.g, g_estimated=EstimatedKernel(m, horizon=6, samples=20, seed=5).g)
            out["V_X"], out["V_K"] = stein.conditional_variance_map(m, k)
        return out

    @pytest.mark.parametrize("build", REAL_MODELS)
    def test_real_models_keep_real_stacks(self, build):
        for name, t in self.stacks(build()).items():
            assert t.dtype == np.float64, name

    @pytest.mark.parametrize("build", COMPLEX_MODELS)
    def test_complex_models_stay_complex(self, build):
        for name, t in self.stacks(build()).items():
            assert t.dtype == np.complex128, name

    @pytest.mark.parametrize("build", REAL_MODELS)
    def test_real_stacks_equal_the_complex_twin_bitwise(self, build):
        m = build()
        twin = complex_twin(m)
        ref = self.stacks(twin)
        for name, t in self.stacks(m).items():
            assert np.array_equal(t, ref[name]), name
        if m.exact:
            for z in itertools.islice((z for z, _ in m.dist.outcomes()), 0, None, 5):
                assert np.array_equal(variance_proxy(m, z).a, variance_proxy(twin, z).a)
        else:
            assert np.array_equal(variance_proxy(m, self.Z[:m.dist.n], samples=300, seed=2).a,
                                  variance_proxy(twin, self.Z[:m.dist.n], samples=300, seed=2).a)

    def test_a_table_with_no_imaginary_part_is_held_real(self):
        real = MatrixModel.from_json(hypercube_sum(3).to_json())
        assert real.H_tensor().dtype == np.float64
        assert np.array_equal(real.H_tensor(), hypercube_sum(3).H_tensor())
        assert random_finite_model(3, 2, seed=1).H_tensor().dtype == np.complex128

    def test_dilation_of_a_real_block_is_real(self):
        rm = rect_demo(3)
        zs = rm.dist.sample_many(_rng(6), 20)
        assert rm.H_rows(zs).dtype == np.float64
        assert dilate_model(rm).H_rows(zs).dtype == np.float64
        complex_block = stein.RectangularModel(rm.dist, lambda zs: 1j * rm.H_rows(zs), 2, 3)
        assert dilate_model(complex_block).H_rows(zs).dtype == np.complex128


class TestExpect:
    """expect is the (1, S) x (S, ...) product np.tensordot runs, bit for bit."""

    @staticmethod
    def tensors(m):
        rng = _rng(17)
        X = m.X_tensor()
        a = rng.standard_normal((m.d, m.d))
        return {"H": m.H_tensor(), "X": X, "complex": X * (1.0 + 0.5j),
                "X@X": X @ X, "broadcast": np.broadcast_to(a, X.shape),
                "broadcast_complex": np.broadcast_to(a + 1j * a.T, X.shape),
                "swapped": X.swapaxes(-1, -2), "scalar": rng.standard_normal(m.dist.shape),
                "scalar_complex": rng.standard_normal(m.dist.shape) * 1j}

    @pytest.mark.parametrize("build", [
        lambda: hypercube_sum(1), lambda: hypercube_sum(5), lambda: hypercube_sum(4, d=4),
        lambda: stein.bounded_diff_demo(3), lambda: random_finite_model(3, 3, seed=2),
        lambda: stein.compound_covariance(2, 3), three_valued_model,
        unsorted_three_valued_model,
    ])
    def test_equals_tensordot_bitwise(self, build):
        m = build()
        probs = m.dist.probabilities()
        for name, T in self.tensors(m).items():
            got, want = m.expect(T), np.tensordot(probs, T, axes=m.dist.n)
            assert (got.shape, got.dtype) == (want.shape, want.dtype), name
            assert got.tobytes() == want.tobytes(), name


class TestVarianceProxy:
    def test_hypercube_closed_form(self):
        # every coordinate flip moves H by (z_j - v) E11, so V = (n/2) * E[(z_j-v)^2] E11 summed
        m = hypercube_sum(3)
        v = variance_proxy(m, (1.0, 1.0, 1.0)).a
        want = np.zeros((2, 2))
        want[0, 0] = 3.0
        np.testing.assert_allclose(v, want, atol=1e-14)

    def test_matches_brute_force_on_random_model(self):
        m = random_finite_model(3, 3, seed=11)
        for z, _ in m.dist.outcomes():
            np.testing.assert_allclose(
                variance_proxy(m, z).a, brute_variance_proxy(m, z), atol=1e-12)

    def test_tensor_is_bit_identical_to_pointwise_sum(self):
        models = [random_finite_model(4, 3, seed=0), random_finite_model(7, 2, seed=1),
                  stein.bounded_diff_demo(3), stein.compound_covariance(2, 3),
                  three_valued_model()]
        for m in models:
            brute = np.stack([brute_variance_proxy(m, z) for z, _ in m.dist.outcomes()])
            tensor = variance_proxy_map(m)
            assert tensor.shape == m.dist.shape + (m.d, m.d)
            assert np.array_equal(stein.outcome_stack(tensor), brute), m.name

    @pytest.mark.parametrize("build", POINT_MODELS)
    def test_point_is_the_map_entry_bitwise(self, build, monkeypatch):
        m = build()
        vm = stein.outcome_stack(variance_proxy_map(m))
        # a point reads the kept map, never builds it again
        monkeypatch.setattr(stein, "_replacement_squares", refuse_whole_map)
        for i, (z, _) in enumerate(m.dist.outcomes()):
            assert np.array_equal(variance_proxy(m, z).a, HermitianMatrix(vm[i]).a), z

    def test_map_covers_support(self):
        m = random_finite_model(3, 2, seed=9)
        vm = variance_proxy_map(m)
        assert vm.shape == (2, 2, 2, 2, 2)
        for z, _ in m.dist.outcomes():
            # variance_proxy is the tensor entry, symmetrised by HermitianMatrix
            v = vm[tuple(int(x > 0) for x in z)]
            assert np.array_equal((v + v.conj().T) / 2, variance_proxy(m, z).a)


class TestMonteCarloBranches:
    """Sampled coordinates: compound covariance with U[-1, 1] entries."""

    Z = (0.3, -0.7, 0.9, 0.1, -0.4, 0.6)

    def test_sampled_coordinates(self):
        m = stein.compound_covariance(2, 3, entry_dist="uniform")
        assert not m.dist.finite and not m.exact
        assert all(isinstance(c, stein.SampledCoord) for c in m.dist.coords)
        draws = m.dist.coords[0].sample(_rng(3), 1000)
        assert draws.shape == (1000,) and np.all(np.abs(draws) <= 1.0)
        assert np.array_equal(draws, m.dist.coords[0].sample(_rng(3), 1000))
        with pytest.raises(PreconditionError):
            m.dist.cardinality
        with pytest.raises(PreconditionError):
            m.H_tensor()

    def test_mean_and_provenance(self, monkeypatch):
        # E Z Z* = n sigma2 I = I for 3 columns of U[-1, 1] entries (sigma2 = 1/3);
        # 20000 samples give each entry a standard error near 0.004
        m = stein.compound_covariance(2, 3, entry_dist="uniform")
        mean = m.mean()
        assert m.mean_provenance == {"method": "mc", "samples": 20_000, "seed": 0}
        np.testing.assert_allclose(mean, np.eye(2), rtol=0, atol=0.02)
        assert np.array_equal(stein.compound_covariance(2, 3, entry_dist="uniform").mean(),
                              mean)
        monkeypatch.setattr(stein, "_MEAN_SEED", 1)
        other = stein.compound_covariance(2, 3, entry_dist="uniform")
        assert not np.array_equal(other.mean(), mean)
        assert other.mean_provenance["seed"] == 1

    @staticmethod
    def per_sample_mean(m):
        acc = np.zeros((m.d, m.d), dtype=complex)
        for z in m.dist.sample_many(_rng(stein._MEAN_SEED), stein._MEAN_MC_SAMPLES):
            acc += m.H(tuple(z))
        return acc / stein._MEAN_MC_SAMPLES

    @staticmethod
    def non_hermitian_batch_model():
        """A batched H that is not Hermitian."""
        def H(zs):
            out = np.zeros((len(zs), 2, 2), dtype=complex)
            out[:, 0, 0], out[:, 0, 1], out[:, 1, 1] = zs[:, 0], zs[:, 1], zs[:, 2] * zs[:, 1]
            return out

        dist = stein.compound_covariance(1, 3, entry_dist="uniform").dist
        return MatrixModel(dist, H, 2)

    def test_batched_mean_is_the_per_sample_sum(self):
        # the batched mean symmetrises the batch and adds the samples in draw order
        m = self.non_hermitian_batch_model()
        assert np.array_equal(m.mean(), self.per_sample_mean(m))
        # compound covariance batches by the matmul H makes per sample
        cc = stein.compound_covariance(2, 3, entry_dist="uniform")
        assert np.array_equal(cc.mean(), self.per_sample_mean(cc))

    def test_sample_X_symmetrises_a_batched_H(self):
        m = self.non_hermitian_batch_model()
        xs = m.sample_X(300, seed=1)
        assert np.array_equal(xs, xs.conj().swapaxes(-1, -2))
        zs = m.dist.sample_many(_rng(1), 300)
        assert np.array_equal(xs, np.stack([m.H(tuple(z)) for z in zs]) - m.mean())

    @staticmethod
    def per_draw_variance_proxy(m, z, samples, seed):
        """The sampled variance proxy with one H call per draw, in draw order."""
        hz = m.H(z)
        acc = np.zeros_like(hz)
        rng = _rng(seed)
        for j, coord in enumerate(m.dist.coords):
            sub = np.zeros_like(hz)
            for v in np.atleast_1d(coord.sample(rng, samples)):
                diff = hz - m.H(m.replace(z, j, float(v)))
                sub += diff @ diff
            acc += sub / samples
        return acc / 2.0

    def test_batched_variance_proxy_is_the_per_draw_sum(self, monkeypatch):
        # compound covariance batches by the matmul H makes per draw
        cc = stein.compound_covariance(2, 3, entry_dist="uniform")
        got = variance_proxy(cc, self.Z, samples=4000, seed=5).a
        ref = self.per_draw_variance_proxy(cc, self.Z, 4000, 5)
        assert np.array_equal(got, ref)
        # hypercube_sum batches in exact arithmetic
        hc = hypercube_sum(3)
        monkeypatch.setattr(stein, "ENUM_CUTOFF", 2)
        z = (1.0, -1.0, 1.0)
        assert np.array_equal(variance_proxy(hc, z, samples=300, seed=2).a,
                              self.per_draw_variance_proxy(hc, z, 300, 2))

    def test_variance_proxy_against_quadrature(self):
        m = stein.compound_covariance(2, 3, entry_dist="uniform")
        # each coordinate's expectation is of a degree-4 polynomial in the
        # replaced entry, which 4-point Gauss-Legendre integrates exactly
        nodes, weights = np.polynomial.legendre.leggauss(4)
        hz = m.H(self.Z)
        ref = np.zeros((2, 2), dtype=complex)
        for j in range(m.dist.n):
            for x, w in zip(nodes, weights):
                diff = hz - m.H(m.replace(self.Z, j, x))
                ref += (w / 2) * (diff @ diff)
        ref /= 2
        v = variance_proxy(m, self.Z, samples=4000, seed=5).a
        # relative errors over seeds 0..4 were 0.005-0.013
        assert np.linalg.norm(v - ref) <= 0.05 * np.linalg.norm(ref)
        assert np.array_equal(variance_proxy(m, self.Z, samples=4000, seed=5).a, v)
        with pytest.raises(ParameterError):
            variance_proxy(m, self.Z)


def _cc_B(kind, n, seed):
    """B = I, a real symmetric, a PSD or a complex Hermitian n x n matrix."""
    if kind == "I":
        return np.eye(n)
    g = _rng(seed).standard_normal((2, n, n))
    return {"sym": (g[0] + g[0].T) / 2, "psd": g[0] @ g[0].T,
            "herm": (g[0] + 1j * g[1] + (g[0] - 1j * g[1]).T) / 2}[kind]


CC_SHAPES = [(1, 1), (2, 3), (3, 2), (2, 4), (4, 4), (3, 5)]
CC_BS = ["I", "sym", "psd", "herm"]


class TestCompoundCovariance:
    """Z B Z* in real arithmetic for a real B, bit for bit the complex product."""

    @staticmethod
    def with_oracle(m, p, n, B):
        return MatrixModel(m.dist, oracle_compound_covariance_H(p, n, B), p)

    @pytest.mark.parametrize("kind", CC_BS)
    @pytest.mark.parametrize("p,n", CC_SHAPES)
    def test_H_rows_is_the_complex_product_bitwise(self, p, n, kind):
        for seed in range(8):
            B = _cc_B(kind, n, seed)
            for entry_dist in ("pm1", "uniform"):
                m = compound_covariance(p, n, B=B, entry_dist=entry_dist)
                ref = self.with_oracle(m, p, n, B)
                for count in (1, 7, 20_000):
                    # rows drawn in one call: sampling each +-1 coordinate
                    # apart costs more than the products compared
                    zs = _rng(seed).uniform(-1.0, 1.0, (count, p * n))
                    if entry_dist == "pm1":
                        zs = np.where(zs < 0, -1.0, 1.0)
                    assert np.array_equal(m.H_rows(zs), ref.H_rows(zs))

    def test_monte_carlo_mean_is_the_complex_product_bitwise(self, monkeypatch):
        for mean_seed in range(4):
            monkeypatch.setattr(stein, "_MEAN_SEED", mean_seed)
            m = compound_covariance(2, 3, entry_dist="uniform")
            ref = self.with_oracle(m, 2, 3, np.eye(3))
            assert np.array_equal(m.mean(), ref.mean())

    @pytest.mark.parametrize("kind", CC_BS)
    @pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (2, 4)])
    def test_pm1_tensor_is_the_complex_product_bitwise(self, p, n, kind):
        B = _cc_B(kind, n, 3)
        m = compound_covariance(p, n, B=B)
        assert np.array_equal(m.H_tensor(), self.with_oracle(m, p, n, B).H_tensor())

    @pytest.mark.parametrize("kind", CC_BS)
    def test_real_B_keeps_H_real(self, kind):
        m = compound_covariance(2, 3, B=_cc_B(kind, 3, 0), entry_dist="uniform")
        hs = m._H(m.dist.sample_many(_rng(1), 5))
        assert np.iscomplexobj(hs) == (kind == "herm")

    @pytest.mark.parametrize("entry_dist", ["pm1", "uniform"])
    @pytest.mark.parametrize("L", [math.nan, math.inf, 0.0, -1.0])
    def test_L_must_be_finite_and_positive(self, L, entry_dist):
        with pytest.raises(ParameterError, match="finite L > 0"):
            compound_covariance(2, 3, entry_dist=entry_dist, L=L)


class TestExchangeablePair:
    def test_joint_pmf_total_and_swap_symmetry(self):
        m = random_finite_model(2, 2, seed=7)
        pair = ExchangeablePair(m, seed=1)
        pmf = pair.joint_pmf()
        assert abs(sum(pmf.values()) - 1.0) < 1e-12
        for (za, zb), p in pmf.items():
            assert pmf[(zb, za)] == p  # bitwise, not approximate

    def test_joint_pmf_marginal(self):
        m = hypercube_sum(2)
        pmf = ExchangeablePair(m, seed=1).joint_pmf()
        marg: dict = {}
        for (za, _), p in pmf.items():
            marg[za] = marg.get(za, 0.0) + p
        for _, p in marg.items():
            assert abs(p - 0.25) < 1e-14

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pair_asymmetries_vanish_bitwise(self, seed):
        # random probabilities, so a product taken in another order than
        # joint_pmf's would round differently in the two cells of a pair
        rng = _rng(seed)
        coords = []
        for m in (3, 2, 4, 3):
            p = rng.random(m)
            p /= p.sum()
            coords.append(FiniteCoord(zip(rng.standard_normal(m), p)))
        dist = ProductDistribution(coords)
        table = {z: np.diag(rng.standard_normal(2)) for z, _ in dist.outcomes()}
        model = MatrixModel(dist, table_H(table), 2)
        assert pair_asymmetries(model, ExactKernel(model)) == (0.0, 0.0)

    def test_sample_reproducible(self):
        m = hypercube_sum(3)
        a = [ExchangeablePair(m, seed=9).sample() for _ in range(1)][0]
        b = [ExchangeablePair(m, seed=9).sample() for _ in range(1)][0]
        assert a == b
        z, zp = a
        assert sum(x != y for x, y in zip(z, zp)) <= 1


class TestExactKernel:
    def test_closed_form_on_sum_model(self):
        # replacing a uniform coordinate contracts the difference of sums by
        # (1 - 1/n) per step, so the series sums to n * (H(z) - H(z'))
        for n in (2, 3, 4):
            m = hypercube_sum(n)
            k = ExactKernel(m)
            for z, _ in m.dist.outcomes():
                for zp, _ in m.dist.outcomes():
                    want = n * (m.H(z) - m.H(zp))
                    np.testing.assert_allclose(k.at(z, zp), want, atol=1e-9)

    def test_matches_iterative_oracle(self):
        models = [hypercube_sum(2), hypercube_sum(4), random_finite_model(3, 2, seed=23),
                  random_finite_model(4, 3, seed=0), stein.bounded_diff_demo(3),
                  stein.compound_covariance(2, 2), three_valued_model()]
        for m in models:
            k = ExactKernel(m)
            S, d = m.dist.cardinality, m.d
            assert k.table.shape == (S, S, d, d) and k.iterations == 0
            np.testing.assert_allclose(k.table, iterative_kernel_table(m), rtol=0,
                                       atol=1e-12, err_msg=m.name)

    def test_poisson_solution_of_sum_model(self):
        # X = sum_j z_j E_11 is a pure first-order Hoeffding component, so g = n X
        m = hypercube_sum(10)
        assert np.array_equal(ExactKernel(m).g, 10 * m.X_tensor())

    def test_antisymmetry_is_bitwise(self):
        m = random_finite_model(3, 2, seed=23)
        k = ExactKernel(m)
        swapped = np.transpose(k.table, (1, 0, 2, 3))
        assert np.array_equal(k.table, -swapped)

    def test_stein_identity_exact_kernel(self):
        for m in (hypercube_sum(2), hypercube_sum(3), random_finite_model(3, 2, seed=5)):
            chk = check_stein_identity(m, ExactKernel(m))
            assert chk.residual <= EXACT
            assert chk.radius == 0.0

    def test_kernel_centering(self):
        m = random_finite_model(2, 2, seed=13)
        assert kernel_mean_norm(m, ExactKernel(m)) <= EXACT

    def test_difference_kernel_scaling(self):
        # the sum model is a Stein pair with alpha = 1/n, so K = (X - X')/alpha = 3 (X - X')
        m = hypercube_sum(3)
        ek = ExactKernel(m)
        for z, _ in m.dist.outcomes():
            for zp, _ in m.dist.outcomes():
                assert np.array_equal(ek.at(z, zp), 3 * (m.X(z) - m.X(zp)))

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(2, 3), d=st.integers(1, 2), seed=st.integers(0, 10**5))
    def test_stein_identity_property(self, n, d, seed):
        m = random_finite_model(n, d, seed=seed)
        assert check_stein_identity(m, ExactKernel(m)).residual <= 1e-8


class TestEstimatedKernel:
    def test_horizon_validation(self):
        m = hypercube_sum(2)
        with pytest.raises(ParameterError):
            estimate_kernel(m, (1.0, 1.0), (-1.0, -1.0), horizon=0, samples=10, seed=1)

    def test_default_horizon_rule(self):
        n, h = 4, 2.0
        i = default_horizon(n, h)
        decay = lambda k: n * (1.0 - 1.0 / n) ** (k / 2.0) * 2.0 * h
        assert decay(i) < 1e-10 <= decay(i - 1)

    def test_estimate_brackets_exact_value(self):
        m = hypercube_sum(2)
        z, zp = (1.0, 1.0), (-1.0, 1.0)
        exact = ExactKernel(m).at(z, zp)
        est = estimate_kernel(m, z, zp, horizon=default_horizon(2, 2.0),
                              samples=3000, seed=17)
        err = _opnorm(est.estimate.a - exact)
        assert err <= 5 * est.se_norm + est.truncation_error_bound

    def test_swap_negates_bitwise(self):
        m = hypercube_sum(2)
        ek = EstimatedKernel(m, horizon=8, samples=50, seed=3)
        z, zp = (1.0, -1.0), (-1.0, 1.0)
        assert np.array_equal(ek.at(z, zp), -ek.at(zp, z))
        assert np.array_equal(ek.at(z, z), np.zeros((2, 2)))

    def test_stein_identity_with_estimates(self):
        m = hypercube_sum(2)
        ek = EstimatedKernel(m, horizon=60, samples=2000, seed=29)
        chk = check_stein_identity(m, ek)
        assert chk.radius > 0
        assert math.isfinite(chk.residual)
        assert chk.residual <= 5 * chk.radius

    def test_swap_negates_estimate_kernel_bitwise(self):
        m = random_finite_model(3, 2, seed=4)
        z, zp = (1.0, -1.0, 1.0), (-1.0, -1.0, -1.0)
        fwd = estimate_kernel(m, z, zp, horizon=30, samples=700, seed=12)
        back = estimate_kernel(m, zp, z, horizon=30, samples=700, seed=12)
        assert np.array_equal(fwd.estimate.a, -back.estimate.a)
        assert fwd.se_norm == back.se_norm
        same = estimate_kernel(m, z, z, horizon=30, samples=700, seed=12)
        assert np.array_equal(same.estimate.a, np.zeros((2, 2))) and same.se_norm == 0.0

    @pytest.mark.parametrize("block", [7, stein._KERNEL_BLOCK])
    def test_draws_are_shared_by_every_pair(self, block, monkeypatch):
        # all three pairs replay one (J, replacement) stream, so per sample the
        # summed differences telescope: K(z, z'') = K(z, z') + K(z', z'')
        monkeypatch.setattr(stein, "_KERNEL_BLOCK", block)
        m = three_valued_model()
        zs = [z for z, _ in m.dist.outcomes()]
        z, zp, zpp = zs[0], zs[7], zs[-1]

        def est(a, b):
            return estimate_kernel(m, a, b, horizon=25, samples=40, seed=3).estimate.a

        np.testing.assert_allclose(est(z, zpp), est(z, zp) + est(zp, zpp),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("build", [
        lambda: hypercube_sum(3),
        lambda: random_finite_model(3, 2, seed=4),
        unsorted_three_valued_model,
    ])
    def test_model_above_its_cutoff_is_rejected(self, build, monkeypatch):
        # the estimator gathers H from the outcome tensor, which only an
        # enumerable model has
        m = build()
        assert m.exact
        zs = [z for z, _ in m.dist.outcomes()]
        monkeypatch.setattr(stein, "ENUM_CUTOFF", 2)
        assert not m.exact
        with pytest.raises(PreconditionError):
            estimate_kernel(m, zs[0], zs[1], horizon=12, samples=23, seed=9)
        with pytest.raises(PreconditionError):
            EstimatedKernel(m, horizon=12, samples=23, seed=9)

    def test_memory_is_one_block(self, monkeypatch):
        monkeypatch.setattr(stein, "_KERNEL_BLOCK", 256)
        m = hypercube_sum(3, d=4)

        def peak(samples):
            tracemalloc.start()
            try:
                estimate_kernel(m, (1.0, 1.0, 1.0), (-1.0, -1.0, -1.0), horizon=60,
                                samples=samples, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # builds the outcome tensor and H's memo outside the measurement
        assert peak(40 * 256) <= 1.5 * peak(256)

    def test_estimated_kernel_memory_is_one_block(self, monkeypatch):
        # S = 8 chains a sample: a block holds 2 * 256 / 8 = 64 samples
        monkeypatch.setattr(stein, "_KERNEL_BLOCK", 256)
        m = hypercube_sum(3, d=4)

        def peak(samples):
            tracemalloc.start()
            try:
                EstimatedKernel(m, horizon=60, samples=samples, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)
        assert peak(40 * 64) <= 1.5 * peak(64)

    MODELS = [lambda: random_finite_model(3, 2, seed=4), three_valued_model,
              unsorted_three_valued_model]

    @pytest.mark.parametrize("block", [7, stein._KERNEL_BLOCK])
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("build", MODELS)
    def test_estimates_match_the_pair_oracle(self, build, seed, block, monkeypatch):
        monkeypatch.setattr(stein, "_KERNEL_BLOCK", block)
        m = build()
        zs = [z for z, _ in m.dist.outcomes()]
        for z, zp in [(zs[0], zs[-1]), (zs[1], zs[len(zs) // 2]), (zs[2], zs[2])]:
            est, se = oracle_kernel_estimate(m, z, zp, horizon=30, samples=40, seed=seed)
            got = estimate_kernel(m, z, zp, horizon=30, samples=40, seed=seed)
            scale = max(float(np.max(np.abs(est))), 1e-300)
            assert np.max(np.abs(got.estimate.a - est)) <= 1e-12 * scale
            assert abs(got.se_norm - se) <= 1e-12 * max(se, 1e-300)

    @pytest.mark.parametrize("build", MODELS)
    def test_estimated_kernel_matches_estimate_kernel(self, build):
        # at most 2 * _KERNEL_BLOCK / S samples fit one block of both, so the
        # pairs replay estimate_kernel's draws at the same seed; the radii are
        # those of the oracle that the kernel's error budget is checked against
        m = build()
        ek = EstimatedKernel(m, horizon=20, samples=300, seed=5)
        _, radii = oracle_estimated_radii(m, 20, 300, 5)
        zs = [z for z, _ in m.dist.outcomes()]
        for j, coord in enumerate(m.dist.coords):
            for v, value in enumerate(coord.values):
                on = stein.outcome_stack(ek.on_neighbours(j, v))
                radius = radii[j, v].ravel()
                for i, z in enumerate(zs):
                    zp = m.replace(z, j, value)
                    if z == zp:
                        assert np.array_equal(on[i], np.zeros((m.d, m.d))) and radius[i] == 0
                        continue
                    est = estimate_kernel(m, z, zp, horizon=20, samples=300, seed=5)
                    scale = float(np.max(np.abs(est.estimate.a)))
                    assert np.max(np.abs(on[i] - est.estimate.a)) <= 1e-12 * scale
                    want = est.se_norm + est.truncation_error_bound
                    assert abs(radius[i] - want) <= 1e-12 * want

    def test_states_off_the_support_are_rejected(self):
        m = hypercube_sum(3)
        for z in [(1.0, 1.0, 0.5), (1.0, 1.0), (1.0, 1.0, 1.0, 1.0)]:
            with pytest.raises(ParameterError):
                estimate_kernel(m, z, (1.0, 1.0, 1.0), horizon=5, samples=10, seed=1)
            with pytest.raises(ParameterError):
                EstimatedKernel(m, horizon=5, samples=10, seed=1).at((1.0, 1.0, 1.0), z)


class TestKernelAgainstTruth:
    """The estimator's mean is the truncated kernel g_h(z) - g_h(z')."""

    MODELS = {
        "hypercube": lambda: hypercube_sum(3),
        "random": lambda: random_finite_model(3, 2, seed=8),
        "bounded_diff": lambda: stein.bounded_diff_demo(3),
        "three_valued": three_valued_model,
        "unsorted": unsorted_three_valued_model,
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_truncated_kernel_reaches_the_poisson_solution(self, name):
        m = self.MODELS[name]()
        g = stein.outcome_stack(ExactKernel(m).g)
        assert np.max(np.abs(truncated_kernel(m, 400) - g)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_estimates_lie_near_the_truncated_kernel(self, name):
        m = self.MODELS[name]()
        zs = [z for z, _ in m.dist.outcomes()]
        pairs = [(0, 1), (0, len(zs) // 2), (1, len(zs) - 1)]
        exact = stein.outcome_stack(ExactKernel(m).g)
        for h in (2, 5, 40):
            g = truncated_kernel(m, h)
            for i, k in pairs:
                est = estimate_kernel(m, zs[i], zs[k], horizon=h, samples=4000,
                                      seed=100 * h + k)
                assert np.linalg.norm(est.estimate.a - (g[i] - g[k])) <= 5 * est.se_norm
                tail = (exact[i] - exact[k]) - (g[i] - g[k])
                assert _opnorm(tail) <= est.truncation_error_bound, (h, i, k)


class TestConditionalVariances:
    def test_vx_matches_joint_pmf_brute_force(self):
        m = random_finite_model(2, 2, seed=31)
        pair = ExchangeablePair(m, seed=1)
        pmf = pair.joint_pmf()
        k = ExactKernel(m)
        for z, pz in m.dist.outcomes():
            v_x, _ = conditional_variances(m, k, z)
            acc = np.zeros((2, 2), dtype=np.complex128)
            for (za, zb), p in pmf.items():
                if za == z:
                    d = m.X(za) - m.X(zb)
                    acc += (p / pz) * (d @ d)
            np.testing.assert_allclose(v_x.a, acc / 2.0, atol=1e-12)

    @pytest.mark.parametrize("build", POINT_MODELS)
    def test_point_is_the_map_entry_bitwise(self, build, monkeypatch):
        m = build()
        for k in (ExactKernel(m), EstimatedKernel(m, horizon=6, samples=4, seed=2)):
            maps = [stein.outcome_stack(t) for t in stein.conditional_variance_map(m, k)]
            # a point reads the kept maps, never builds them again
            with monkeypatch.context() as patch:
                patch.setattr(stein, "_replacement_squares", refuse_whole_map)
                points = [conditional_variances(m, k, z) for z, _ in m.dist.outcomes()]
            for i, got_pair in enumerate(points):
                for got, want in zip(got_pair, maps):
                    assert np.array_equal(got.a, HermitianMatrix(want[i]).a), i

    def test_vk_psd(self):
        m = hypercube_sum(3)
        k = ExactKernel(m)
        _, v_k = conditional_variances(m, k, (1.0, 1.0, 1.0))
        assert np.linalg.eigvalsh(v_k.a)[0] >= -1e-12

    def test_pair_model_mismatch_rejected(self):
        # same support, other H: a kernel of m1 would give m2 a spurious residual;
        # it is refused before, and after, the kernel keeps its maps
        m1, m2 = random_finite_model(3, 2, 1), random_finite_model(3, 2, 2)
        z = (1.0, 1.0, 1.0)
        for kernel in (ExactKernel(m1), EstimatedKernel(m1, horizon=4, samples=5, seed=1)):
            calls = [
                lambda: stein.conditional_variance_map(m2, kernel),
                lambda: conditional_variances(m2, kernel, z),
                lambda: check_stein_identity(m2, kernel),
                lambda: exchangeable_pairs_identity(m2, kernel, lambda x: x),
                lambda: kernel_mean_norm(m2, kernel),
                lambda: pair_asymmetries(m2, kernel),
                lambda: r_psi(m2, kernel, psi=1.0, s_grid=[1.0]),
                lambda: verify.verify_kernel_poly_moments(m2, kernel, [1], [1.0]),
                lambda: verify.variance_domination(m2, kernel),
            ]
            for kept in (False, True):
                if kept:
                    stein.conditional_variance_map(m1, kernel)
                for call in calls:
                    with pytest.raises(PreconditionError, match="different model"):
                        call()


class TestKeptMaps:
    """V is built once per model and (V_X, V^K) once per kernel, then kept
    read-only and read by every check and point."""

    @staticmethod
    def count_builds(monkeypatch) -> list:
        built = []
        squares = stein._replacement_squares

        def counted(*args, **kwargs):
            built.append(args[1])
            return squares(*args, **kwargs)

        monkeypatch.setattr(stein, "_replacement_squares", counted)
        return built

    @pytest.mark.parametrize("build", [lambda: hypercube_sum(3), lambda: mixed_support_model(3)])
    def test_each_map_is_built_once(self, build, monkeypatch):
        built = self.count_builds(monkeypatch)
        m = build()
        verify.verify_poly_efron_stein(m, [1, 2])
        verify.verify_exp_efron_stein(m, [-0.1, 0.1], [1.0])
        for z, _ in m.dist.outcomes():
            variance_proxy(m, z)
        assert len(built) == 1 and built[0] is m.H_tensor()  # V
        for k in (ExactKernel(m), EstimatedKernel(m, horizon=6, samples=20, seed=1)):
            built.clear()
            verify.verify_kernel_poly_moments(m, k, [1, 2], verify.DEFAULT_S_GRID)
            verify.variance_domination(m, k)
            r_psi(m, k, 1.0, verify.DEFAULT_S_GRID)
            for z, _ in m.dist.outcomes():
                conditional_variances(m, k, z)
            assert len(built) == 1 and built[0] is k.g  # V^K; V_X is read off V

    def test_maps_are_kept_read_only(self):
        m = mixed_support_model(3)
        k = ExactKernel(m)
        v = variance_proxy_map(m)
        vx, vk = stein.conditional_variance_map(m, k)
        assert variance_proxy_map(m) is v  # V, on the model
        assert stein.conditional_variance_map(m, k)[1] is vk  # V^K, on the kernel
        # a second kernel of the model keeps its own V^K
        assert stein.conditional_variance_map(m, ExactKernel(m))[1] is not vk
        for T in (v, vk):
            assert not T.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                T[...] = 0.0
        # V_X is not kept: each call reads a fresh product off V
        want = vx.tobytes()
        vx[...] = 0.0
        assert stein.conditional_variance_map(m, k)[0].tobytes() == want


class TestExchangeablePairsIdentity:
    def test_polynomial_test_functions(self):
        m = hypercube_sum(2)
        k = ExactKernel(m)
        for F in (lambda x: np.eye(2), lambda x: x, lambda x: x @ x @ x):
            assert exchangeable_pairs_identity(m, k, F) <= EXACT

    @pytest.mark.parametrize("build", [
        lambda: real_random_model(3, 2, seed=1), lambda: random_finite_model(3, 2, seed=1),
        lambda: stein.bounded_diff_demo(3),
    ])
    def test_one_call_of_F_equals_the_per_outcome_oracle(self, build):
        # models with a nonzero roundoff residual, so that the comparison has bits to compare
        m = build()
        k = ExactKernel(m)
        for F in (lambda x: np.eye(m.d), lambda x: x, lambda x: x @ x @ x):
            got = exchangeable_pairs_identity(m, k, F)
            assert got == oracle_pairs_identity(m, k, F)
            assert 0.0 < got <= EXACT

    def test_value_of_another_shape_is_a_shape_error(self):
        m = hypercube_sum(3)
        k = ExactKernel(m)
        # one matrix row per outcome would broadcast along a matrix axis, and a
        # flat (S, d, d) stack does not broadcast at all
        for F in (lambda x: x[..., :1, :], stein.outcome_stack):
            with pytest.raises(stein.ShapeError, match="F returned shape"):
                exchangeable_pairs_identity(m, k, F)


# real and complex models on coordinates of 1 to 4 values, uniform or not
PAIR_MODELS = [
    lambda: mixed_support_model(3), lambda: mixed_support_model(4, d=3, complex_table=False),
    lambda: random_finite_model(4, 3, seed=2), lambda: real_random_model(3, 2, seed=5),
    lambda: hypercube_sum(4), lambda: stein.bounded_diff_demo(3),
    lambda: stein.compound_covariance(3, 2), lambda: dilate_model(rect_demo(3)),
    three_valued_model, unsorted_three_valued_model,
]


class TestReplacementPairs:
    """Each unordered replacement pair's product is formed once, and every
    map equals the per-replacement full-tensor form bit for bit (tobytes
    also tells -0.0 from 0.0)."""

    @pytest.mark.parametrize("build", PAIR_MODELS)
    def test_squares_are_the_per_replacement_form_bitwise(self, build):
        m = build()
        for T in (m.H_tensor(), m.X_tensor(), ExactKernel(m).g):
            got = stein._replacement_squares(m.dist, T)
            assert got.tobytes() == oracle_replacement_squares(m.dist, T).tobytes()

    @pytest.mark.parametrize("build", PAIR_MODELS)
    def test_maps_are_the_per_replacement_form_bitwise(self, build):
        m = build()
        k = ExactKernel(m)
        v = variance_proxy_map(m)
        assert v.tobytes() == (oracle_replacement_squares(m.dist, m.H_tensor()) / 2.0).tobytes()
        vx, vk = stein.conditional_variance_map(m, k)
        assert vx.tobytes() == (v * (1.0 / m.dist.n)).tobytes()
        want = oracle_replacement_squares(m.dist, k.g) / 2.0 * (1.0 / m.dist.n)
        assert vk.tobytes() == want.tobytes()

    @pytest.mark.parametrize("build", PAIR_MODELS)
    def test_vx_is_v_over_n(self, build):
        # the pair replaces one uniform coordinate of n, so E[(X - X')^2 | Z]/2 is V/n;
        # the X-based sum differs from V * (1/n) in rounding only
        m = build()
        vx, _ = stein.conditional_variance_map(m, ExactKernel(m))
        want = oracle_replacement_squares(m.dist, m.X_tensor(), pair_law=True) / 2
        assert np.max(np.abs(vx - want)) <= 1e-15 * np.max(np.abs(variance_proxy_map(m)))

    @pytest.mark.parametrize("build", PAIR_MODELS)
    def test_pairs_identity_is_the_per_replacement_form(self, build):
        m = build()
        k = ExactKernel(m)
        for F in (lambda x: np.eye(m.d), lambda x: x, lambda x: x @ x @ x):
            got = exchangeable_pairs_identity(m, k, F)
            assert got == oracle_replacement_pairs_identity(m, k, F)
            # the per-outcome oracle casts F to complex, which rounds a real
            # model's products differently; a complex model has no cast to differ by
            if m.H_tensor().dtype == np.complex128:
                assert got == oracle_pairs_identity(m, k, F)
            else:
                assert got == pytest.approx(oracle_pairs_identity(m, k, F), abs=EXACT)

    @pytest.mark.parametrize("build", PAIR_MODELS)
    def test_each_unordered_pair_is_squared_once(self, build, monkeypatch):
        m = build()
        squared = []

        def counting_square(a):
            squared.append(math.prod(a.shape[:-2]))
            return a @ a

        monkeypatch.setattr(stein, "_square", counting_square)
        S = m.dist.cardinality
        per_map = sum((size - 1) * S // 2 for size in m.dist.shape)
        variance_proxy_map(m)
        assert sum(squared) == per_map
        squared.clear()
        stein.conditional_variance_map(m, ExactKernel(m))
        assert sum(squared) == per_map  # V^K alone: V_X is read off V

    @pytest.mark.parametrize("samples,block", [(40, 16), (3000, stein._KERNEL_BLOCK)])
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("build", PAIR_MODELS)
    def test_error_budget_is_the_per_replacement_form_bitwise(self, build, seed, samples,
                                                              block, monkeypatch):
        monkeypatch.setattr(stein, "_KERNEL_BLOCK", block)  # sums over several blocks
        m = build()
        k = EstimatedKernel(m, horizon=8, samples=samples, seed=seed)
        want = oracle_error_budget(m, 8, samples, seed)
        assert (k.stein_radius, k.inflation) == want
        assert min(want) > 0.0
        assert check_stein_identity(m, k).radius == k.stein_radius


def oracle_r_psi(model, kernel, psi, s_grid):
    """r_psi with one eigvalsh per s: the reference for the blocked s-grid."""
    vx, vk = (stein.outcome_stack(t) for t in stein.conditional_variance_map(model, kernel))
    pr = model.dist.probabilities().ravel()
    best, best_s, skipped = math.inf, None, []
    for s in map(float, s_grid):
        w = np.linalg.eigvalsh((psi / 2.0) * (s * vx + vk * (1.0 / s)))
        if np.max(w[:, -1]) > 700.0:
            skipped.append(s)
            continue
        val = math.log(float(pr @ np.mean(np.exp(w), axis=1)))
        if val < best:
            best, best_s = val, s
    return {"r": best / psi if best < math.inf else math.inf,
            "argmin_s": best_s, "skipped_s": skipped}


class TestRPsi:
    def test_finite_and_grid_argmin(self):
        m = hypercube_sum(2)
        k = ExactKernel(m)
        out = r_psi(m, k, psi=1.0, s_grid=[0.5, 1.0, 2.0])
        assert math.isfinite(out["r"])
        assert out["argmin_s"] in (0.5, 1.0, 2.0)

    def test_overflow_values_skipped(self):
        m = hypercube_sum(2)
        k = ExactKernel(m)
        out = r_psi(m, k, psi=1.0, s_grid=[1.0, 1e300])
        assert 1e300 in out["skipped_s"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_s_is_rejected(self, bad):
        m = hypercube_sum(2)
        k = ExactKernel(m)
        for s_grid in ([bad], [1.0, bad], [bad, 1.0]):
            with pytest.raises(ParameterError, match="finite"):
                r_psi(m, k, psi=1.0, s_grid=s_grid)

    @pytest.mark.parametrize("build", [
        lambda: hypercube_sum(3), lambda: stein.compound_covariance(2, 3),
        lambda: random_finite_model(3, 2, seed=5), lambda: stein.bounded_diff_demo(3),
    ])
    @pytest.mark.parametrize("psi", [1.0, 4.0])
    @pytest.mark.parametrize("s_grid", [
        verify.DEFAULT_S_GRID, (0.5, 1.0, 2.0), (1e300, 1.0, 2.0, 1e300, 0.5),
    ])
    @pytest.mark.parametrize("per_block", [None, 2])
    def test_equals_the_per_s_oracle(self, build, psi, s_grid, per_block, monkeypatch):
        m = build()
        if per_block is not None:  # several blocks, the last one shorter
            monkeypatch.setattr(stein, "_S_BLOCK", per_block * m.dist.cardinality)
        k = ExactKernel(m)
        got, want = r_psi(m, k, psi, s_grid), oracle_r_psi(m, k, psi, s_grid)
        assert json.dumps(got) == json.dumps(want)
        assert got["skipped_s"].count(1e300) == s_grid.count(1e300)


class TestCoupling:
    def test_pathwise_meet_before_full_refresh(self):
        m = hypercube_sum(3)
        for seed in range(20):
            run = simulate_kernel_coupling(m, (1.0,) * 3, (-1.0,) * 3, 500, seed)
            assert 0 < run.coupling_time <= run.first_all_drawn
            # shared replacements never increase the number of differing coords
            for (a0, b0), (a1, b1) in zip(run.trajectory, run.trajectory[1:]):
                before = sum(x != y for x, y in zip(a0, b0))
                after = sum(x != y for x, y in zip(a1, b1))
                assert after <= before

    def test_equal_starts_couple_immediately(self):
        m = hypercube_sum(2)
        run = simulate_kernel_coupling(m, (1.0, 1.0), (1.0, 1.0), 100, 0)
        assert run.coupling_time == 0

    def test_mean_against_coupon_collector(self):
        # E T = n H_n for antipodal starts; 5 sigma guard at 3000 runs
        times = sample_coupling_times(2, 3000, seed=21)
        mean, se = times.mean(), times.std(ddof=1) / math.sqrt(len(times))
        assert abs(mean - 3.0) <= 5 * se

    def test_masked_start_reduces_time(self):
        mask = np.array([True, False, False])
        times = sample_coupling_times(3, 2000, seed=22, diff_mask=mask)
        # a single differing coordinate couples at a geometric(1/3) time, mean 3
        assert abs(times.mean() - 3.0) <= 5 * times.std(ddof=1) / math.sqrt(2000)

    @pytest.mark.parametrize("n,mask,runs,chunk,max_steps", [
        (1, "all", 1, 64, 1_000_000),
        (1, "empty", 5, 64, 10),
        (2, "all", 2000, 64, 1_000_000),
        (5, "single", 300, 7, 1_000_000),
        (8, "all", 2000, 3, 20),
        (63, "random", 500, 33, 1_000_000),
        (64, "all", 200, 64, 150),
        (65, "single", 100, 64, 1_000),
        (65, "all", 300, 17, 1_000_000),
        (128, "random", 1000, 129, 1_000_000),
        (130, "all", 50, 31, 700),
        (130, "empty", 3, 64, 5),
        # each side of the 8-, 16- and 32-bit word limits, whole chunks only
        (8, "all", 500, 16, 48),
        (8, "random", 500, 64, 1024),
        (9, "all", 400, 32, 1024),
        (9, "random", 400, 5, 20),
        (16, "all", 300, 64, 1024),
        (16, "random", 300, 8, 40),
        (17, "all", 300, 64, 128),
        (17, "random", 300, 17, 1020),
        (32, "all", 200, 64, 1024),
        (32, "random", 200, 10, 100),
        (33, "all", 200, 33, 99),
        (33, "random", 200, 64, 1024),
    ])
    def test_coverage_scan_matches_column_oracle(self, n, mask, runs, chunk, max_steps):
        needed = {"all": np.ones(n, bool), "empty": np.zeros(n, bool),
                  "single": np.arange(n) == n - 1,
                  "random": _rng(n).random(n) < 0.4}[mask]
        got = stein._accel.coverage_times(n, needed, runs, 17, max_steps=max_steps,
                                          chunk=chunk)
        assert np.array_equal(got, oracle_coverage_times(n, needed, runs, 17,
                                                         max_steps, chunk))
        if max_steps < 1_000:
            assert np.any(got == -1) or mask == "empty"

    def test_coverage_scan_random_cases(self):
        r = np.random.default_rng(3)
        for case in range(40):
            n = int(r.integers(1, 131))
            needed = r.random(n) < r.random()
            runs = int(r.integers(1, 400))
            chunk = 2 * int(r.integers(0, 50)) + 1
            max_steps = int(r.integers(1, 600))
            assert np.array_equal(
                stein._accel.coverage_times(n, needed, runs, case, max_steps, chunk),
                oracle_coverage_times(n, needed, runs, case, max_steps, chunk)), case

    @pytest.mark.parametrize("n,total,longest", [
        (2, 75_009, 17), (3, 138_313, 27), (5, 284_315, 57), (8, 543_366, 94)])
    def test_coupling_stream_is_pinned(self, n, total, longest):
        times = sample_coupling_times(n, 25_000, seed=n)
        assert (int(times.sum()), int(times.max())) == (total, longest)

    @pytest.mark.parametrize("n,needed", [
        (2, None), (5, None), (8, None), (3, [True, False, True]), (70, None)])
    def test_coverage_times_follow_the_exact_law(self, n, needed):
        # holds for any stream version; the DKW band is exceeded with
        # probability at most 1e-6
        runs = 100_000
        needed = np.ones(n, bool) if needed is None else np.array(needed)
        times = stein._accel.coverage_times(n, needed, runs, seed=n)
        assert times.min() >= 0
        cdf = coverage_cdf(n, int(needed.sum()), int(times.max()))
        empirical = np.cumsum(np.bincount(times)) / runs
        assert np.max(np.abs(empirical - cdf)) <= math.sqrt(math.log(2 / 1e-6) / (2 * runs))

    def test_coverage_memory_is_below_a_full_block(self):
        # a (runs, 64) int32 block for every run, as stream version 1 drew
        tracemalloc.start()
        try:
            stein._accel.coverage_times(8, np.ones(8, bool), 200_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000 * 64 * 4

    @pytest.mark.parametrize("build,z,zp", [
        (lambda: hypercube_sum(5), (1.0,) * 5, (-1.0,) * 5),
        (lambda: compound_covariance(2, 3), (1.0,) * 6, (-1.0,) * 6)])
    def test_difference_norms_are_the_per_step_norms(self, build, z, zp):
        m = build()
        for seed in range(30):
            run = simulate_kernel_coupling(m, z, zp, 1000, seed)
            assert run.difference_norms == [_opnorm(m.H(a) - m.H(b))
                                            for a, b in run.trajectory]

    def test_sample_coupling_times_matches_oracle(self):
        for n in (2, 3, 5, 8):
            assert np.array_equal(sample_coupling_times(n, 2000, seed=n),
                                  oracle_coverage_times(n, np.ones(n, bool), 2000, n))

    def test_premise_constant(self):
        m = hypercube_sum(3)
        out = coupling_premise_bound(m)
        assert out["checked"]
        assert abs(out["L"] - 2.0 * 3.0 * 3.0 * (1.0 + math.log(3.0))) < 1e-12
