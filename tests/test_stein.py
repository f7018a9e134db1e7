"""Models, exchangeable pairs, kernels, and the coupling simulators.

The oracles here are brute-force loops written against the definitions, kept
independent of the library's own enumeration helpers.
"""
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matconc import stein, verify
from matconc.matcore import ParameterError, PreconditionError, _opnorm
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
    """(1/2) sum_j E_v (H(z) - H(z_{j<-v}))^2 straight from the definition."""
    z = tuple(z)
    acc = np.zeros((model.d, model.d), dtype=np.complex128)
    for j, coord in enumerate(model.dist.coords):
        for v, p in zip(coord.values, coord.probs):
            d = model.H(z) - model.H(model.replace(z, j, float(v)))
            acc += p * (d @ d)
    return acc / 2.0


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
    return MatrixModel(ProductDistribution(coords), lambda z: table[tuple(z)], 3,
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
    return MatrixModel(ProductDistribution(coords), lambda z: table[tuple(z)], 2,
                       name="three_valued")


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
        # sample_X reads the outcome tensor; the reference calls H per sample
        xs = build().sample_X(600, seed=8)
        ref = build()
        zs = ref.dist.sample_many(_rng(8), 600)
        assert np.array_equal(xs, np.stack([ref.H(tuple(z)) - ref.mean() for z in zs]))

    @pytest.mark.parametrize("build", [
        lambda: hypercube_sum(3), lambda: hypercube_sum(8), lambda: hypercube_sum(16),
        lambda: hypercube_sum(3, d=3), lambda: stein.bounded_diff_demo(3),
        lambda: stein.bounded_diff_demo(5, d=3), lambda: stein.compound_covariance(2, 3),
        lambda: stein.compound_covariance(3, 2), lambda: stein.compound_covariance(2, 4),
        lambda: stein.compound_covariance(2, 3, B=np.diag([1.0, 2.0, 0.5]) + 0.3),
    ])
    def test_batched_tensor_is_the_per_outcome_stack(self, build):
        m = build()
        oracle = np.stack([m.H(z) for z, _ in m.dist.outcomes()])
        assert np.array_equal(m.H_tensor(), oracle.reshape(m.dist.shape + (m.d, m.d)))

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

    def test_max_h_norm_needs_enumeration(self):
        m = hypercube_sum(3)
        m.enum_cutoff = 2  # force the large-model path
        with pytest.raises(PreconditionError):
            m.max_h_norm()

    def test_dilated_rect_model(self):
        rm = rect_demo(3)
        dm = dilate_model(rm)
        assert dm.d == rm.rows + rm.cols
        z, _ = next(iter(dm.dist.outcomes()))
        h = dm.H(z)
        np.testing.assert_allclose(h[:rm.rows, rm.rows:], rm.H(z), atol=1e-14)


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

    def test_mean_and_provenance(self):
        # E Z Z* = n sigma2 I = I for 3 columns of U[-1, 1] entries (sigma2 = 1/3);
        # 20000 samples give each entry a standard error near 0.004
        m = stein.compound_covariance(2, 3, entry_dist="uniform")
        mean = m.mean()
        assert m.mean_provenance == {"method": "mc", "samples": 20_000, "seed": 0}
        np.testing.assert_allclose(mean, np.eye(2), rtol=0, atol=0.02)
        assert np.array_equal(stein.compound_covariance(2, 3, entry_dist="uniform").mean(),
                              mean)
        other = stein.compound_covariance(2, 3, entry_dist="uniform")
        other.mean_seed = 1
        assert not np.array_equal(other.mean(), mean)
        assert other.mean_provenance["seed"] == 1

    @staticmethod
    def per_sample_mean(m):
        acc = np.zeros((m.d, m.d), dtype=complex)
        for z in m.dist.sample_many(_rng(m.mean_seed), m.mean_samples):
            acc += m.H(tuple(z))
        return acc / m.mean_samples

    @staticmethod
    def non_hermitian_batch_model():
        """A batched H that is not Hermitian, computed entry for entry as H is."""
        def H(z):
            return np.array([[z[0], z[1]], [0.0, z[2] * z[1]]], dtype=complex)

        def H_batch(zs):
            out = np.zeros((len(zs), 2, 2), dtype=complex)
            out[:, 0, 0], out[:, 0, 1], out[:, 1, 1] = zs[:, 0], zs[:, 1], zs[:, 2] * zs[:, 1]
            return out

        dist = stein.compound_covariance(1, 3, entry_dist="uniform").dist
        return MatrixModel(dist, H, 2, H_batch=H_batch)

    def test_batched_mean_is_the_per_sample_sum(self):
        # the batched mean symmetrises the batch and adds the samples in draw order
        m = self.non_hermitian_batch_model()
        assert np.array_equal(m.mean(), self.per_sample_mean(m))
        # compound covariance batches by the matmul H makes per sample
        cc = stein.compound_covariance(2, 3, entry_dist="uniform")
        assert np.array_equal(cc.mean(), self.per_sample_mean(cc))
        unbatched = MatrixModel(cc.dist, cc._H, 2)
        assert np.array_equal(unbatched.mean(), self.per_sample_mean(cc))

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

    def test_batched_variance_proxy_is_the_per_draw_sum(self):
        # compound covariance batches by the matmul H makes per draw
        cc = stein.compound_covariance(2, 3, entry_dist="uniform")
        got = variance_proxy(cc, self.Z, samples=4000, seed=5).a
        ref = self.per_draw_variance_proxy(cc, self.Z, 4000, 5)
        assert np.array_equal(got, ref)
        unbatched = MatrixModel(cc.dist, cc._H, 2)
        assert np.array_equal(variance_proxy(unbatched, self.Z, samples=4000, seed=5).a,
                              ref)
        # hypercube_sum batches in exact arithmetic
        hc = hypercube_sum(3)
        hc.enum_cutoff = 2
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
        model = MatrixModel(dist, lambda z: table[tuple(z)], 2)
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
    def test_model_above_its_cutoff_is_rejected(self, build):
        # the estimator gathers H from the outcome tensor, which only an
        # enumerable model has
        exact, sampled = build(), build()
        sampled.enum_cutoff = 2
        assert exact.exact and not sampled.exact
        zs = [z for z, _ in exact.dist.outcomes()]
        for h_max in (None, exact.max_h_norm()):
            with pytest.raises(PreconditionError):
                estimate_kernel(sampled, zs[0], zs[1], horizon=12, samples=23, seed=9,
                                h_max=h_max)
        with pytest.raises(PreconditionError):
            EstimatedKernel(sampled, horizon=12, samples=23, seed=9)

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

    def test_vk_psd(self):
        m = hypercube_sum(3)
        k = ExactKernel(m)
        _, v_k = conditional_variances(m, k, (1.0, 1.0, 1.0))
        assert np.linalg.eigvalsh(v_k.a)[0] >= -1e-12

    def test_pair_model_mismatch_rejected(self):
        # same support, other H: a kernel of m1 would give m2 a spurious residual
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
            for call in calls:
                with pytest.raises(PreconditionError, match="different model"):
                    call()


class TestExchangeablePairsIdentity:
    def test_polynomial_test_functions(self):
        m = hypercube_sum(2)
        k = ExactKernel(m)
        for F in (lambda x: np.eye(2), lambda x: x, lambda x: x @ x @ x):
            assert exchangeable_pairs_identity(m, k, F) <= EXACT


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

    def test_jsonl_roundtrip(self):
        m = hypercube_sum(2)
        run = simulate_kernel_coupling(m, (1.0, 1.0), (-1.0, -1.0), 100, 4)
        rec = json.loads(run.to_jsonl())
        assert rec["coupling_time"] == run.coupling_time
        assert len(rec["trajectory"]) == len(run.trajectory)

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
