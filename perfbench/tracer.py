"""Span tracer for the traced benchmark pass.

The tracer wraps public functions of the matconc layers from outside the
package.  Because ``verify``, ``stein``, ``bounds`` and ``cli`` import
matcore names with ``from .matcore import ...``, wrapping ``matcore.<name>``
alone would miss their calls, so each wrapper is bound in every module that
holds the original.  Methods are wrapped on their class.  LAPACK calls are
counted at ``numpy.linalg``.  Nothing is wrapped unless ``install`` runs, so
untraced passes execute the package as shipped.

A span is ``[name, start, end, parent, job, attrs]``.  Spans are recorded
only while a job runs (``job`` is its id); a worker thread with no open span
of its own takes the main thread's innermost open span as parent.  Very hot
calls (``MatrixModel.H`` and the outcome iterator) are counted, not spanned.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import json
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job = None
        self._local = threading.local()
        self._main_stack: list = []
        self._main_ident = threading.get_ident()
        self._lock = threading.Lock()
        self._undo: list = []

    # -- recording

    def _stack(self) -> list:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, attrs=None):
        """Wrap ``fn`` so each call inside a job records a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            rec = [name, 0.0, 0.0, parent, self.job,
                   attrs(*args, **kwargs) if attrs else None]
            with self._lock:
                idx = len(self.spans)
                self.spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def count(self, key: str, k: int = 1) -> None:
        if self.job is not None:
            with self._lock:
                self.counts[key] += k

    def maximum(self, key: str, value) -> None:
        if self.job is not None:
            with self._lock:
                self.counts[key] = max(self.counts[key], value)

    def job_span(self, job_id: str):
        """Context manager: the root span of one timed job."""
        tracer = self

        class _Root:
            def __enter__(self):
                tracer.job = job_id
                self.rec = ["bench.job", 0.0, 0.0, None, job_id, None]
                tracer._main_stack.append(len(tracer.spans))
                tracer.spans.append(self.rec)
                self.rec[1] = time.perf_counter()
                return self.rec

            def __exit__(self, *exc):
                self.rec[2] = time.perf_counter()
                tracer._main_stack.pop()
                tracer.job = None
                return False

        return _Root()

    # -- binding

    def patch(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def rebind(self, modules, original, wrapped) -> None:
        """Bind ``wrapped`` wherever a module holds ``original``."""
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps(["counts", dict(self.counts)]) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the matconc layers and numpy.linalg for ``tracer``."""
    import numpy as np

    from matconc import bounds, cli, matcore, stein, verify

    mods = (matcore, stein, verify, bounds, cli)

    def fn(mod, name, span, attrs=None):
        orig = getattr(mod, name)
        tracer.rebind(mods, orig, tracer.span(span, orig, attrs and attrs(orig)))

    def meth(cls, name, span, attrs=None):
        orig = cls.__dict__[name]
        tracer.patch(cls, name, tracer.span(span, orig, attrs and attrs(orig)))

    # matcore
    meth(matcore.HermitianMatrix, "__init__", "matcore.hermitian_init")
    meth(matcore.RectMatrix, "__init__", "matcore.rect_init")
    fn(matcore, "matrix_function", "matcore.matrix_function")
    fn(matcore, "eigh_canonical", "matcore.eigh_canonical")
    fn(matcore, "schatten_norm", "matcore.schatten_norm")
    fn(matcore, "dilation", "matcore.dilation")
    fn(matcore, "psd_leq", "matcore.psd_leq")
    for name in ("left_mult_op", "right_mult_op", "compose", "superop_function",
                 "superop_abs"):
        fn(matcore, name, "matcore.superop")
    for name in ("__init__", "apply", "compose"):
        meth(matcore.SuperOperator, name, "matcore.superop")

    # LAPACK, counted where numpy exposes it
    for name in ("eigh", "eigvalsh"):
        tracer.patch(np.linalg, name, tracer.span("lapack.eig", getattr(np.linalg, name)))
    tracer.patch(np.linalg, "svd", tracer.span("lapack.svd", np.linalg.svd))
    norm = np.linalg.norm
    norm_span = tracer.span("lapack.svd", norm)

    def traced_norm(x, ord=None, *args, **kwargs):
        if ord in (2, -2, "nuc") and np.ndim(x) >= 2:
            return norm_span(x, ord, *args, **kwargs)
        return norm(x, ord, *args, **kwargs)

    tracer.patch(np.linalg, "norm", traced_norm)

    # stein
    kernel_init = stein.ExactKernel.__dict__["__init__"]

    def counted_kernel_init(self, model, *args, **kwargs):
        kernel_init(self, model, *args, **kwargs)
        tracer.count("stein.exact_kernel.iterations", self.iterations)
        tracer.maximum("stein.exact_kernel.table_bytes_max", self.table.nbytes)

    tracer.patch(stein.ExactKernel, "__init__", tracer.span(
        "stein.exact_kernel", counted_kernel_init, model_size(kernel_init)))
    for name in ("variance_proxy", "variance_proxy_map"):
        fn(stein, name, "stein.variance_proxy")
    for name in ("conditional_variances", "conditional_variance_map"):
        fn(stein, name, "stein.conditional_variances")
    for name in ("check_stein_identity", "exchangeable_pairs_identity",
                 "kernel_mean_norm"):
        fn(stein, name, "stein.identities")
    fn(stein, "sample_coupling_times", "stein.coupling_times",
       arguments("n", "runs"))
    fn(stein, "simulate_kernel_coupling", "stein.pathwise")
    meth(stein.MatrixModel, "sample_X", "stein.sample_X", arguments("count"))
    meth(stein.MatrixModel, "mean", "stein.mean")
    meth(stein.MatrixModel, "max_h_norm", "stein.max_h_norm")
    fn(stein, "estimate_kernel", "stein.estimated_kernel")
    meth(stein.EstimatedKernel, "__init__", "stein.estimated_kernel")
    meth(stein.ExchangeablePair, "joint_pmf", "stein.pair")
    for name in ("hypercube_sum", "bounded_diff_demo", "compound_covariance",
                 "rect_demo", "random_finite_model", "dilate_model"):
        fn(stein, name, "stein.model_build")

    h = stein.MatrixModel.__dict__["H"]

    def counted_h(self, z):
        tracer.count("stein.H.calls")
        if tuple(z) in self._h_cache:
            tracer.count("stein.H.hits")
        return h(self, z)

    tracer.patch(stein.MatrixModel, "H", counted_h)
    outcomes = stein.ProductDistribution.__dict__["outcomes"]

    def counted_outcomes(self):
        for item in outcomes(self):
            tracer.count("stein.outcomes")
            yield item

    tracer.patch(stein.ProductDistribution, "outcomes", counted_outcomes)

    # verify
    suites = {"fuzz_pmvti": "pmvti", "fuzz_emvti": "emvti",
              "fuzz_young_commuting": "young_commuting",
              "fuzz_operator_cs": "operator_cs",
              "fuzz_matrix_entropy_young": "matrix_entropy_young",
              "explore_conjecture": "conjecture"}
    for name, suite in suites.items():
        fn(verify, name, f"verify.fuzz.{suite}", arguments("trials"))
    for name in ("eval_pmvti", "eval_emvti", "eval_young_commuting",
                 "eval_operator_cs", "eval_matrix_entropy_young", "eval_conjecture"):
        fn(verify, name, "verify.fuzz.eval")
    fn(verify, "merge_fuzz_reports", "verify.fuzz.merge")
    fn(verify, "replay_case", "verify.replay")
    exact = {"verify_poly_efron_stein": "poly_es", "verify_exp_efron_stein": "exp_es",
             "verify_kernel_poly_moments": "kernel_poly",
             "variance_domination": "var_dom"}
    for name, short in exact.items():
        fn(verify, name, f"verify.exact.{short}", model_size)
    fn(verify, "empirical_tail", "verify.tail", arguments("samples"))
    fn(verify, "sample_statistics", "verify.tail.stats")

    # bounds: a curve's raw formula is a per-instance callable
    make_curve = bounds.make_curve

    def traced_make_curve(*args, **kwargs):
        curve = make_curve(*args, **kwargs)
        curve.raw = tracer.span("bounds.curve_point", curve.raw)
        return curve

    tracer.rebind(mods, make_curve, tracer.span("bounds.curve", traced_make_curve))
    for name in ("write_csv", "sample"):
        meth(bounds.BoundCurve, name, "bounds.curve")
    for name in ("chebyshev_tail", "laplace_bounds", "gaussexp_bounds",
                 "efron_stein_poly_rhs", "efron_stein_exp_rhs",
                 "self_bounded_bounds", "bounded_diff_sigma", "bounded_diff_bounds",
                 "dobrushin_bounds", "compound_cov_bounds", "compound_psd_mgf",
                 "haar_bounds", "rectangularize"):
        fn(bounds, name, "bounds.formula")

    # cli
    fn(cli, "main", "cli.main")


def arguments(*names):
    """Span attributes: the named arguments of the wrapped function."""

    def make(orig):
        sig = inspect.signature(orig)

        def attrs(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            return {k: bound.get(k) for k in names}

        return attrs

    return make


def model_size(orig):
    """Span attributes: outcome-space size S and name of the model argument."""
    sig = inspect.signature(orig)

    def attrs(*args, **kwargs):
        model = sig.bind(*args, **kwargs).arguments["model"]
        dist = model.dist
        return {"S": dist.cardinality if dist.finite else None, "model": model.name}

    return attrs


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list) -> tuple:
    """Per-span self time, and the total time children overlap each other.

    Self time is a span's duration minus the union of its children's
    intervals.  Children of one parent overlap only when they ran on
    different threads; the sum of all self times equals the root spans'
    total plus that overlap.
    """
    children = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[3] is not None:
            children[rec[3]].append(i)
    selfs = [0.0] * len(spans)
    overlap = 0.0
    for i, rec in enumerate(spans):
        kids = sorted((spans[k][1], spans[k][2]) for k in children.get(i, ()))
        covered = 0.0
        total = 0.0
        cur_s = cur_e = None
        for s, e in kids:
            total += e - s
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        selfs[i] = (rec[2] - rec[1]) - covered
        overlap += total - covered
    return selfs, overlap
