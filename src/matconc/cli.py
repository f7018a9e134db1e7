"""Experiment runner: models + bounds + verifiers behind reproducible verbs.

Reports are JSON (checks) or CSV (curves) with stable key order and no
timestamps, so a rerun with the same config and seed is byte-identical.
Exit codes: 0 pass, 1 internal error, 2 verification failure, 3 configuration
error.
"""
from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from . import bounds, stein, verify
from .matcore import (
    DomainError,
    ParameterError,
    PreconditionError,
    ShapeError,
)

SCHEMA_VERSION = verify.SCHEMA_VERSION


class VerificationFailure(Exception):
    """A check ran to completion and did not pass."""


# ---------------------------------------------------------------------------
# parsing and plumbing


def _as(kind, value, what: str | None = None):
    """kind(value) for a value read from the config; failure is a config error."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"cannot read {value!r} as {what or kind.__name__}") from exc


def _parse_grid(text: str) -> list:
    """A t-grid: either 'start:stop:step' (inclusive) or comma-separated."""
    text = str(text)
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ParameterError(f"grid must be start:stop:step, got {text!r}")
        start, stop, step = (_as(float, p) for p in parts)
        if step <= 0 or stop < start:
            raise ParameterError(f"bad grid {text!r}")
        steps = (stop - start) / step
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ParameterError(f"grid step {step!r} does not divide [{start!r}, {stop!r}]")
        count = int(round(steps)) + 1
        return [float(v) for v in np.linspace(start, stop, count)]
    return [_as(float, p) for p in text.split(",") if p.strip()]


def _parse_ints(text) -> list:
    """Integer list: '1:6' (inclusive range), '3', or '1,2,5'."""
    if isinstance(text, int):
        return [text]
    if isinstance(text, (list, tuple)):
        return [_as(int, v) for v in text]
    text = str(text)
    if ":" in text:
        lo, hi = (_as(int, p) for p in text.split(":", 1))
        if hi < lo:
            raise ParameterError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [_as(int, p) for p in text.split(",") if p.strip()]


def _parse_floats(text) -> list:
    if isinstance(text, (int, float)):
        return [_as(float, text)]
    if isinstance(text, (list, tuple)):
        return [_as(float, v) for v in text]
    return [_as(float, p) for p in str(text).split(",") if p.strip()]


def _plain(obj):
    """Recursively coerce numpy scalars/arrays so json.dumps stays happy."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _emit_json(report: dict, out: str | None) -> None:
    text = json.dumps(_plain(report), sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ParameterError("config file must hold a JSON object")
    return cfg


def _merge_config(cfg: dict, flags: dict, extra: frozenset = frozenset()) -> dict:
    """Config-file values overridden by explicitly passed flags.

    A config key is a flag's parameter name (the flag with ``-`` as ``_``);
    ``extra`` names the keys a verb reads from the config only.
    """
    unknown = set(cfg) - set(flags) - extra
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(cfg)
    for k, v in flags.items():
        if v is not None:
            merged[k] = v
    return merged


def _get(cfg: dict, key: str, kind, default):
    """cfg[key] read as kind, or ``default`` where the key is unset: an explicit 0 stays 0."""
    value = cfg.get(key)
    return default if value is None else _as(kind, value)


def _require_seed(cfg: dict) -> int:
    seed = cfg.get("seed")
    if seed is None:
        raise ParameterError("seed is required for stochastic verbs")
    return _as(int, seed)


# ---------------------------------------------------------------------------
# model registry


def _build_model(cfg: dict):
    if cfg.get("model_file"):
        with open(cfg["model_file"]) as fh:
            obj = json.load(fh)
        try:
            return stein.MatrixModel.from_json(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"malformed model file: {exc!r}") from exc
    name = cfg.get("model")
    if name is None:
        raise ParameterError("a model name or a model file is required")
    n = cfg.get("n")
    d = cfg.get("d")

    def geti(v, fallback):
        return _as(int, v) if v is not None else fallback

    if name == "hypercube_sum":
        return stein.hypercube_sum(geti(n, 3), geti(d, 2))
    if name == "bounded_diff":
        return stein.bounded_diff_demo(geti(n, 3), geti(d, 2))
    if name == "compound_covariance":
        return stein.compound_covariance(geti(cfg.get("rows"), 2), geti(n, 3))
    if name == "rect_demo":
        return stein.dilate_model(stein.rect_demo(geti(n, 3)))
    if name == "random_finite":
        return stein.random_finite_model(geti(n, 3), geti(d, 2),
                                         geti(cfg.get("model_seed"), 0))
    raise ParameterError(f"unknown model {name!r}")


# ---------------------------------------------------------------------------
# bound curves from config

# curve parameters that no flag sets: bound and tail read them from the config
_CURVE_KEYS = frozenset({"D", "B", "L", "R", "S", "p", "n", "tv_seq"})


def _build_curve(cfg: dict) -> bounds.BoundCurve:
    name = cfg.get("name")
    if name is None:
        raise ParameterError("a bound name is required")

    def need(*keys):
        missing = [k for k in keys if cfg.get(k) is None]
        if missing:
            raise ParameterError(f"bound {name!r} needs {missing}")
        return [cfg[k] for k in keys]

    if name in ("gaussexp", "self_bounded"):
        d, v, c = need("d", "v", "c")
        return bounds.make_curve(name, d=_as(int, d), v=_as(float, v), c=_as(float, c))
    if name == "bounded_diff":
        d, s2 = need("d", "sigma2")
        return bounds.make_curve(name, d=_as(int, d), sigma2=_as(float, s2))
    if name == "dobrushin":
        d, s2, D = need("d", "sigma2", "D")
        return bounds.make_curve(name, d=_as(int, d), sigma2=_as(float, s2),
                                 D=_as(lambda v: np.array(v, dtype=float), D, "a real matrix"))
    if name == "compound_cov":
        p, n = need("p", "n")
        p, n = _as(int, p), _as(int, n)
        sigma2 = _as(float, cfg.get("sigma2", 1.0))
        L = _as(float, cfg.get("L", 1.0))
        B = cfg.get("B")
        Bm = (np.eye(n) if B in (None, "I")
              else _as(lambda v: np.array(v, dtype=complex), B, "a complex matrix"))
        spec = bounds.CompoundCovSpec(p, n, sigma2, L, bounds.HermitianMatrix(Bm))
        return bounds.make_curve(name, spec=spec)
    if name == "haar":
        R, S, tv, d = need("R", "S", "tv_seq", "d")
        return bounds.make_curve(name, R=_as(float, R), S=_as(float, S),
                                 tv_seq=_parse_floats(tv), d=_as(int, d))
    raise ParameterError(f"unknown bound name {name!r}")


# ---------------------------------------------------------------------------
# verbs


@click.group()
def cli():
    """Matrix concentration toolkit."""


@cli.command()
@click.option("--config", "config_path", default=None, type=str)
@click.option("--name", default=None, type=str)
@click.option("--d", default=None, type=int)
@click.option("--v", default=None, type=float)
@click.option("--c", default=None, type=float)
@click.option("--sigma2", default=None, type=float)
@click.option("--t", default=None, type=str)
@click.option("--out", default=None, type=str)
def bound(config_path, **flags):
    """Evaluate a closed-form tail bound over a t-grid, as CSV."""
    cfg = _merge_config(_load_config(config_path), flags, _CURVE_KEYS)
    curve = _build_curve(cfg)
    grid = _parse_grid(cfg.get("t") or "0:4:0.1")
    target = cfg.get("out")
    if target:
        with open(target, "w") as fh:
            curve.write_csv(fh, grid)
    else:
        curve.write_csv(sys.stdout, grid)


def _kernel_identities_report(model) -> dict:
    kern = stein.ExactKernel(model)
    ident = stein.check_stein_identity(model, kern)
    anti, asym = stein.pair_asymmetries(model, kern)

    def f_ident(x):
        return np.eye(model.d)

    def f_linear(x):
        return x

    def f_cube(x):
        return x @ x @ x

    pairs = {
        "I": stein.exchangeable_pairs_identity(model, kern, f_ident),
        "X": stein.exchangeable_pairs_identity(model, kern, f_linear),
        "X3": stein.exchangeable_pairs_identity(model, kern, f_cube),
    }
    centering = stein.kernel_mean_norm(model, kern)
    tol = verify.EXACT_TOL
    ok = (ident.residual <= tol and centering <= tol and anti == 0.0
          and asym == 0.0 and all(r <= tol for r in pairs.values()))
    return {
        "schema_version": SCHEMA_VERSION,
        "check": "kernel_identities",
        "model": model.name,
        "stein_residual": ident.residual,
        "stein_radius": ident.radius,
        "pairs_identity": pairs,
        "antisymmetry_max": anti,
        "centering_norm": centering,
        "pmf_asymmetry": asym,
        "kernel_iterations": kern.iterations,
        "tolerance": tol,
        "pass": bool(ok),
    }


@cli.command("verify")
@click.option("--config", "config_path", default=None, type=str)
@click.option("--check", default=None, type=str)
@click.option("--model", default=None, type=str)
@click.option("--model-file", default=None, type=str)
@click.option("--n", default=None, type=int)
@click.option("--d", default=None, type=int)
@click.option("--rows", default=None, type=int)
@click.option("--model-seed", default=None, type=int)
@click.option("--p", default=None, type=str)
@click.option("--theta", default=None, type=str)
@click.option("--psi", default=None, type=str)
@click.option("--s", default=None, type=str)
@click.option("--kernel", default=None, type=str)
@click.option("--horizon", default=None, type=int)
@click.option("--samples", default=None, type=int)
@click.option("--seed", default=None, type=int)
@click.option("--out", default=None, type=str)
def verify_cmd(config_path, **flags):
    """Run an exact verification check; exit 0 iff it passes."""
    cfg = _merge_config(_load_config(config_path), flags)
    check = cfg.get("check")
    if check is None:
        raise ParameterError("--check is required")
    mdl = _build_model(cfg)
    if check == "poly_efron_stein":
        report = verify.verify_poly_efron_stein(mdl, _parse_ints(cfg.get("p") or "1,2,3"))
    elif check == "exp_efron_stein":
        report = verify.verify_exp_efron_stein(
            mdl,
            _parse_floats(cfg.get("theta") or "-0.3,-0.1,0.1,0.3"),
            _parse_floats(cfg.get("psi") or "1,4"),
        )
    elif check == "kernel_poly_moments":
        kind = cfg.get("kernel") or "exact"
        if kind == "exact":
            kern = stein.ExactKernel(mdl)
        elif kind == "estimated":
            horizon = _get(cfg, "horizon", int, None)
            if horizon is None:
                horizon = stein.default_horizon(mdl.dist.n, mdl.max_h_norm())
            kern = stein.EstimatedKernel(mdl, horizon=horizon,
                                         samples=_get(cfg, "samples", int, 200),
                                         seed=_require_seed(cfg))
        else:
            raise ParameterError(f"unknown kernel kind {kind!r}")
        s_grid = (_parse_floats(cfg["s"]) if cfg.get("s")
                  else list(verify.DEFAULT_S_GRID))
        report = verify.verify_kernel_poly_moments(
            mdl, kern, _parse_ints(cfg.get("p") or "1,2"), s_grid)
    elif check == "kernel_identities":
        report = _kernel_identities_report(mdl)
    else:
        raise ParameterError(f"unknown check {check!r}")
    _emit_json(report, cfg.get("out"))
    if not report["pass"]:
        raise VerificationFailure(f"{check} failed")


def _run_fuzz(ineq: str, dims, cfg: dict, trials: int, seed: int, jobs: int):
    qs = _parse_ints(cfg.get("q") or "1:7")
    ss = _parse_floats(cfg.get("s") or "0.25,1,4")
    p = _get(cfg, "p", float, 2.0)
    size = _get(cfg, "ensemble_size", int, 8)

    def one(count, chunk_seed):
        if ineq == "pmvti":
            return verify.fuzz_pmvti(dims, qs, ss, count, chunk_seed)
        if ineq == "emvti":
            return verify.fuzz_emvti(dims, ss, count, chunk_seed)
        if ineq == "young_commuting":
            return verify.fuzz_young_commuting(dims, p, count, chunk_seed)
        if ineq == "operator_cs":
            return verify.fuzz_operator_cs(dims, count, chunk_seed)
        if ineq == "matrix_entropy_young":
            return verify.fuzz_matrix_entropy_young(dims, size, count, chunk_seed)
        raise ParameterError(f"unknown inequality {ineq!r}")

    counts = [trials // jobs + (1 if i < trials % jobs else 0) for i in range(jobs)]
    tasks = [(c, seed + 7919 * i) for i, c in enumerate(counts) if c > 0]
    if not tasks:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if len(tasks) == 1:
        return one(*tasks[0])
    # the chunks run one after another: a batched sweep keeps its core busy,
    # so threads would only contend for it
    return verify.merge_fuzz_reports([one(*t) for t in tasks])


@cli.command()
@click.option("--config", "config_path", default=None, type=str)
@click.option("--ineq", default=None, type=str)
@click.option("--trials", default=None, type=int)
@click.option("--seed", default=None, type=int)
@click.option("--d", default=None, type=str)
@click.option("--q", default=None, type=str)
@click.option("--s", default=None, type=str)
@click.option("--p", default=None, type=float)
@click.option("--ensemble-size", default=None, type=int)
@click.option("--jobs", default=None, type=int)
@click.option("--out", default=None, type=str)
def fuzz(config_path, **flags):
    """Fuzz one trace inequality; exit 0 iff min slack clears the threshold."""
    cfg = _merge_config(_load_config(config_path), flags)
    name = cfg.get("ineq")
    if name is None:
        raise ParameterError("--ineq is required")
    trials = _get(cfg, "trials", int, 0)
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    seed = _require_seed(cfg)
    jobs = _get(cfg, "jobs", int, 1)
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    dims = _parse_ints(cfg.get("d") or "1:6")
    report = _run_fuzz(name, dims, cfg, trials, seed, jobs)
    _emit_json(report.to_json(), cfg.get("out"))
    if not report.passed:
        raise VerificationFailure(f"fuzz {name} min_slack {report.min_slack}")


@cli.command()
@click.option("--config", "config_path", default=None, type=str)
@click.option("--trials", default=None, type=int)
@click.option("--seed", default=None, type=int)
@click.option("--d", default=None, type=str)
@click.option("--q", default=None, type=str)
@click.option("--s", default=None, type=str)
@click.option("--out", default=None, type=str)
def conjecture(config_path, **flags):
    """Sweep the signed trace-inequality forms; always exits 0 on completion."""
    cfg = _merge_config(_load_config(config_path), flags)
    trials = _get(cfg, "trials", int, 0)
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    seed = _require_seed(cfg)
    report = verify.explore_conjecture(
        _parse_ints(cfg.get("d") or "1:6"),
        _parse_ints(cfg.get("q") or "1:3"),
        _parse_floats(cfg.get("s") or "1"),
        trials,
        seed,
    )
    _emit_json(report.to_json(), cfg.get("out"))


@cli.command()
@click.option("--config", "config_path", default=None, type=str)
@click.option("--n", default=None, type=int)
@click.option("--runs", default=None, type=int)
@click.option("--seed", default=None, type=int)
@click.option("--max-steps", default=None, type=int)
@click.option("--pathwise-runs", default=None, type=int)
@click.option("--out", default=None, type=str)
def couple(config_path, **flags):
    """Coupling-time statistics for antipodal starts on the hypercube."""
    cfg = _merge_config(_load_config(config_path), flags)
    n = _get(cfg, "n", int, 0)
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    runs = _get(cfg, "runs", int, 0)
    if runs < 2:
        raise ParameterError(f"runs must be >= 2, got {runs}")
    seed = _require_seed(cfg)
    max_steps = _get(cfg, "max_steps", int, 1_000_000)
    pw_runs = _get(cfg, "pathwise_runs", int, 100)
    if max_steps < 1 or pw_runs < 1:
        raise ParameterError(f"max_steps and pathwise_runs must be >= 1, "
                             f"got {max_steps} and {pw_runs}")
    times = stein.sample_coupling_times(n, runs, seed, max_steps=max_steps)
    if np.any(times < 0):
        raise VerificationFailure("some runs exhausted max_steps before coupling")
    mean = float(times.mean())
    se = float(times.std(ddof=1)) / math.sqrt(runs)
    expected = n * sum(1.0 / k for k in range(1, n + 1))
    # se = 0 when every run couples at the same step (n = 1)
    dev = abs(mean - expected) / se if se > 0 else (0.0 if mean == expected else math.inf)

    model = stein.hypercube_sum(n)
    z = tuple(1.0 for _ in range(n))
    zp = tuple(-1.0 for _ in range(n))
    pathwise_ok = True
    for i in range(pw_runs):
        run = stein.simulate_kernel_coupling(model, z, zp, max_steps, seed + 1 + i)
        if run.coupling_time < 0 or run.first_all_drawn < 0:
            raise VerificationFailure("pathwise run exhausted max_steps")
        if run.coupling_time > run.first_all_drawn:
            pathwise_ok = False
    report = {
        "schema_version": SCHEMA_VERSION,
        "verb": "couple",
        "n": n,
        "runs": runs,
        "seed": seed,
        "mean": mean,
        "std_error": se,
        "expected": expected,
        "deviation_sigmas": dev,
        "max_time": int(times.max()),
        "min_time": int(times.min()),
        "pathwise_runs": pw_runs,
        "pathwise_ok": pathwise_ok,
        "pass": bool(dev <= 3.0 and pathwise_ok),
    }
    _emit_json(report, cfg.get("out"))
    if not report["pass"]:
        raise VerificationFailure(f"coupling statistics off by {dev:.2f} sigma")


@cli.command()
@click.option("--config", "config_path", default=None, type=str)
@click.option("--model", default=None, type=str)
@click.option("--model-file", default=None, type=str)
@click.option("--n", default=None, type=int)
@click.option("--d", default=None, type=int)
@click.option("--rows", default=None, type=int)
@click.option("--model-seed", default=None, type=int)
@click.option("--bound", "name", default=None, type=str)
@click.option("--v", default=None, type=float)
@click.option("--c", default=None, type=float)
@click.option("--sigma2", default=None, type=float)
@click.option("--samples", default=None, type=int)
@click.option("--seed", default=None, type=int)
@click.option("--t", default=None, type=str)
@click.option("--alpha", default=None, type=float)
@click.option("--statistic", default=None, type=str)
@click.option("--out", default=None, type=str)
def tail(config_path, **flags):
    """Empirical survival vs a bound curve; exit 0 iff dominated everywhere."""
    cfg = _merge_config(_load_config(config_path), flags, _CURVE_KEYS)
    mdl = _build_model(cfg)
    curve = _build_curve(cfg) if cfg.get("name") else None
    samples = _get(cfg, "samples", int, 0)
    seed = _require_seed(cfg)
    comparison = verify.empirical_tail(
        mdl,
        samples,
        _parse_grid(cfg.get("t") or "0:8:0.25"),
        seed,
        curve=curve,
        alpha=_get(cfg, "alpha", float, 0.01),
        statistic=cfg.get("statistic") or "lmax",
    )
    report = comparison.to_json()
    report["model"] = mdl.name
    _emit_json(report, cfg.get("out"))
    if not comparison.dominated:
        raise VerificationFailure(
            f"bound violated at t = {comparison.violations}")


@cli.command()
@click.option("--config", "config_path", default=None, type=str)
@click.option("--case", default=None, type=str)
@click.option("--out", default=None, type=str)
def replay(config_path, **flags):
    """Re-evaluate a serialized fuzz worst case bit-exactly."""
    cfg = _merge_config(_load_config(config_path), flags)
    path = cfg.get("case")
    if path is None:
        raise ParameterError("--case is required")
    with open(path) as fh:
        payload = json.load(fh)
    case = payload.get("worst_case", payload)
    if not isinstance(case, dict) or "ineq" not in case:
        raise ParameterError("no replayable case in file")
    result = verify.replay_case(case)
    result["schema_version"] = SCHEMA_VERSION
    _emit_json(result, cfg.get("out"))
    advisory = str(case["ineq"]).startswith("conjecture")
    if not advisory and result["slack"] < -verify.FUZZ_TOL:
        raise VerificationFailure(f"replayed slack {result['slack']}")


# ---------------------------------------------------------------------------
# entry point

_CONFIG_ERRORS = (
    ParameterError,
    PreconditionError,
    ShapeError,
    DomainError,
    OSError,
    json.JSONDecodeError,
)


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except VerificationFailure as exc:
        sys.stderr.write(json.dumps(
            {"error": {"type": "verification", "message": str(exc)}},
            sort_keys=True) + "\n")
        return 2
    except click.UsageError as exc:
        sys.stderr.write(json.dumps(
            {"error": {"type": "config", "message": exc.format_message()}},
            sort_keys=True) + "\n")
        return 3
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.Abort:
        return 130
    except _CONFIG_ERRORS as exc:
        sys.stderr.write(json.dumps(
            {"error": {"type": "config", "message": str(exc)}},
            sort_keys=True) + "\n")
        return 3
    except Exception as exc:
        import traceback  # only on this path: it is not loaded otherwise

        sys.stderr.write(json.dumps(
            {"error": {"type": "internal", "message": f"{type(exc).__name__}: {exc}",
                       "traceback": traceback.format_exc()}},
            sort_keys=True) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
