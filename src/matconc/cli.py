"""Experiment runner: models + bounds + verifiers behind reproducible verbs.

Reports are JSON (checks) or CSV (curves) with stable key order and no
timestamps, so a rerun with the same config and seed is byte-identical.
Exit codes: 0 pass, 1 internal error, 2 verification failure, 3 configuration
error.
"""
from __future__ import annotations

import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import bounds, stein, verify
from .matcore import (
    DomainError,
    ParameterError,
    PreconditionError,
    ShapeError,
    _count,
    _integer,
    _real,
)

SCHEMA_VERSION = verify.SCHEMA_VERSION


class VerificationFailure(Exception):
    """A check ran to completion and did not pass."""


# ---------------------------------------------------------------------------
# parsing and plumbing


_GRID_POINTS_MAX = 1_000_000  # the most points a start:stop:step t-grid may have


def _parse_grid(text: str) -> list:
    """A t-grid of finite values: either 'start:stop:step' (inclusive) or comma-separated."""
    text = str(text)
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ParameterError(f"grid must be start:stop:step, got {text!r}")
        start, stop, step = (_real(p, "t") for p in parts)
        if step <= 0 or stop < start:
            raise ParameterError(f"bad grid {text!r}")
        steps = (stop - start) / step
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ParameterError(f"grid step {step!r} does not divide [{start!r}, {stop!r}]")
        count = int(round(steps)) + 1
        if count > _GRID_POINTS_MAX:
            raise ParameterError(f"grid {text!r} has {count} points, more than {_GRID_POINTS_MAX}")
        return [float(v) for v in np.linspace(start, stop, count)]
    return [_real(p, "t") for p in text.split(",") if p.strip()]


def _parse_ints(text) -> list:
    """Integer list: '1:6' (inclusive range), '3', or '1,2,5'."""
    if isinstance(text, (list, tuple)):
        return [_integer(v) for v in text]
    if not isinstance(text, str):
        return [_integer(text)]
    if ":" in text:
        lo, hi = (_integer(p) for p in text.split(":", 1))
        if hi < lo:
            raise ParameterError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [_integer(p) for p in text.split(",") if p.strip()]


def _parse_floats(text, what: str) -> list:
    """Reals ``what``: a list, one value, or comma-separated text."""
    if isinstance(text, str):
        text = [p for p in text.split(",") if p.strip()]
    return [_real(v, what) for v in (text if isinstance(text, (list, tuple)) else [text])]


def _json_default(obj):
    """numpy arrays and scalars for json.dumps; np.float64 is a float already."""
    if isinstance(obj, (np.ndarray, np.integer, np.bool_)):
        return obj.tolist()  # Python ints, bools and floats, nested as lists
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit_json(report: dict, out: str | None) -> None:
    _emit(json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n", out)


def _emit(text: str, out: str | None) -> None:
    """The report on stdout, or as the whole content of the file ``out``.

    The file is overwritten in place, then trimmed to the report's length
    where it was longer.  Opening with O_TRUNC would empty it first, and ext4
    flushes a file truncated to zero when it is closed: on an ext4 root that
    cost 85-185 us per report, against 4-7 us for writing in place.  A pipe,
    a tty or /dev/null has size 0, so it is never trimmed.  Reports are
    ASCII, so the bytes are those stdout would carry.
    """
    if not out:
        sys.stdout.write(text)
        return
    data = text.encode()
    with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        fh.flush()
        if os.fstat(fh.fileno()).st_size > len(data):
            os.ftruncate(fh.fileno(), len(data))


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ParameterError("config file must hold a JSON object")
    return cfg


class _Config(dict):
    """A verb's merged config, which records each key read through get."""

    def __init__(self, items):
        super().__init__(items)
        self.read = {"out"}

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _get(cfg: dict, key: str, kind, default):
    """cfg[key] read as kind (an int by matcore._integer, a real by matcore._real),
    or ``default`` where the key is unset: an explicit 0 stays 0."""
    value = cfg.get(key)
    if value is None:
        return default
    return _real(value, key) if kind is float else _integer(value)


def _reject_unread(cfg: _Config, what: str) -> None:
    """The one key rule of every verb, called once its inputs are parsed and
    before any kernel, sample, sweep or report: a set key it did not read is a
    config error.  The keys are named in the config's order, which run makes
    the verb's flag order, config-only keys last."""
    unread = [k for k, v in cfg.items() if v is not None and k not in cfg.read]
    if unread:
        raise ParameterError(f"{what} does not read {unread}")


def _require_seed(cfg: dict) -> int:
    seed = cfg.get("seed")
    if seed is None:
        raise ParameterError("seed is required for stochastic verbs")
    return _integer(seed)


# ---------------------------------------------------------------------------
# model registry


def _build_model(cfg: dict):
    """The model a model file holds, or the named builtin, from the keys it reads."""
    path = cfg.get("model_file")
    if path:
        with open(path) as fh:
            obj = json.load(fh)
        try:
            return stein.MatrixModel.from_json(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"malformed model file: {exc!r}") from exc
    name = cfg.get("model")
    if name is None:
        raise ParameterError("a model name or a model file is required")
    if name == "hypercube_sum":
        return stein.hypercube_sum(_get(cfg, "n", int, 3), _get(cfg, "d", int, 2))
    if name == "bounded_diff":
        return stein.bounded_diff_demo(_get(cfg, "n", int, 3), _get(cfg, "d", int, 2))
    if name == "compound_covariance":
        return stein.compound_covariance(_get(cfg, "rows", int, 2), _get(cfg, "n", int, 3))
    if name == "rect_demo":
        return stein.dilate_model(stein.rect_demo(_get(cfg, "n", int, 3)))
    if name == "random_finite":
        return stein.random_finite_model(_get(cfg, "n", int, 3), _get(cfg, "d", int, 2),
                                         _get(cfg, "model_seed", int, 0))
    raise ParameterError(f"unknown model {name!r}")


# ---------------------------------------------------------------------------
# bound curves from config

# curve parameters that no flag sets: bound and tail read them from the config
_CURVE_KEYS = frozenset({"D", "B", "L", "R", "S", "p", "n", "tv_seq"})


def _build_curve(cfg: dict) -> bounds.BoundCurve:
    """The curve ``name`` from the parameters bounds lists for it, or compound_cov
    from its spec: sigma2 and L default to 1, and B to the identity."""
    name = cfg.get("name")
    if name is None:
        raise ParameterError("a bound name is required")
    if name != "compound_cov":
        params = {k: cfg.get(k) for k in bounds._CURVE_PARAMS.get(name, ())}
        return bounds.make_curve(name, **{k: v for k, v in params.items() if v is not None})
    missing = [k for k in ("p", "n") if cfg.get(k) is None]
    if missing:
        raise ParameterError(f"{name} curve needs parameters {missing}")
    p, n, B = _get(cfg, "p", int, None), _get(cfg, "n", int, None), cfg.get("B")
    spec = bounds.CompoundCovSpec(p, n, _get(cfg, "sigma2", float, 1.0),
                                  _get(cfg, "L", float, 1.0), np.eye(n) if B in (None, "I") else B)
    return bounds.make_curve(name, spec=spec)


# ---------------------------------------------------------------------------
# verbs


def bound(cfg: _Config) -> None:
    """Evaluate a closed-form tail bound over a t-grid, as CSV."""
    curve = _build_curve(cfg)
    grid = _parse_grid(cfg.get("t") or "0:4:0.1")
    _reject_unread(cfg, f"bound {curve.name!r}")
    # a point that fails leaves no partial report behind, nor an emptied --out
    text = io.StringIO()
    curve.write_csv(text, grid)
    _emit(text.getvalue(), cfg.get("out"))


def _kernel_identities_report(model) -> dict:
    kern = stein.ExactKernel(model)
    ident = stein.check_stein_identity(model, kern)
    anti, asym = stein.pair_asymmetries(model, kern)
    forms = {
        "I": lambda x: np.eye(model.d),
        "X": lambda x: x,
        "X3": lambda x: x @ x @ x,
    }
    pairs = {k: stein.exchangeable_pairs_identity(model, kern, f) for k, f in forms.items()}
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


def _kernel(cfg: dict):
    """The kernel maker --kernel names: model -> ExactKernel or EstimatedKernel."""
    kind = cfg.get("kernel") or "exact"
    if kind == "exact":
        return stein.ExactKernel
    if kind != "estimated":
        raise ParameterError(f"unknown kernel kind {kind!r}")
    horizon = _get(cfg, "horizon", int, None)
    samples = _get(cfg, "samples", int, 200)
    seed = _require_seed(cfg)

    def estimated(mdl):
        h = stein.default_horizon(mdl.dist.n, mdl.max_h_norm()) if horizon is None else horizon
        return stein.EstimatedKernel(mdl, horizon=h, samples=samples, seed=seed)

    return estimated


def verify_cmd(cfg: _Config) -> None:
    """Run an exact verification check; exit 0 iff it passes."""
    check = cfg.get("check")
    if check is None:
        raise ParameterError("--check is required")
    if check == "poly_efron_stein":
        ps = _parse_ints(cfg.get("p") or "1,2,3")
        run = lambda mdl: verify.verify_poly_efron_stein(mdl, ps)
    elif check == "exp_efron_stein":
        thetas = _parse_floats(cfg.get("theta") or "-0.3,-0.1,0.1,0.3", "theta")
        psis = _parse_floats(cfg.get("psi") or "1,4", "psi")
        run = lambda mdl: verify.verify_exp_efron_stein(mdl, thetas, psis)
    elif check == "kernel_poly_moments":
        kernel = _kernel(cfg)
        ps = _parse_ints(cfg.get("p") or "1,2")
        ss = _parse_floats(cfg.get("s") or verify.DEFAULT_S_GRID, "s")
        run = lambda mdl: verify.verify_kernel_poly_moments(mdl, kernel(mdl), ps, ss)
    elif check == "kernel_identities":
        run = _kernel_identities_report
    else:
        raise ParameterError(f"unknown check {check!r}")
    mdl = _build_model(cfg)
    _reject_unread(cfg, f"check {check!r} on model {mdl.name!r}")
    report = run(mdl)
    _emit_json(report, cfg.get("out"))
    if not report["pass"]:
        raise VerificationFailure(f"{check} failed")


def _fuzz_suite(ineq: str, dims, cfg: dict):
    """verify.fuzz_<ineq> as (trials, seed) -> report, with the grids the suite reads."""
    if ineq == "pmvti":
        args = (_parse_ints(cfg.get("q") or "1:7"), _parse_floats(cfg.get("s") or "0.25,1,4", "s"))
    elif ineq == "emvti":
        args = (_parse_floats(cfg.get("s") or "0.25,1,4", "s"),)
    elif ineq == "young_commuting":
        args = (_get(cfg, "p", float, 2.0),)
    elif ineq == "operator_cs":
        args = ()
    elif ineq == "matrix_entropy_young":
        args = (_get(cfg, "ensemble_size", int, 8),)
    else:
        raise ParameterError(f"unknown inequality {ineq!r}")
    return functools.partial(getattr(verify, f"fuzz_{ineq}"), dims, *args)


def fuzz(cfg: _Config) -> None:
    """Fuzz one trace inequality; exit 0 iff min slack clears the threshold."""
    name = cfg.get("ineq")
    if name is None:
        raise ParameterError("--ineq is required")
    trials = _count(_get(cfg, "trials", int, 0), "trials")
    seed = _require_seed(cfg)
    jobs = _count(_get(cfg, "jobs", int, 1), "jobs")
    one = _fuzz_suite(name, _parse_ints(cfg.get("d") or "1:6"), cfg)
    _reject_unread(cfg, f"fuzz suite {name!r}")
    counts = [trials // jobs + (1 if i < trials % jobs else 0) for i in range(jobs)]
    tasks = [(c, seed + 7919 * i) for i, c in enumerate(counts) if c > 0]
    # the chunks run one after another: a batched sweep keeps its core busy,
    # so threads would only contend for it
    report = (one(*tasks[0]) if len(tasks) == 1
              else verify.merge_fuzz_reports([one(*t) for t in tasks]))
    _emit_json(report.to_json(), cfg.get("out"))
    if not report.passed:
        raise VerificationFailure(f"fuzz {name} min_slack {report.min_slack}")


def conjecture(cfg: _Config) -> None:
    """Sweep the signed trace-inequality forms; always exits 0 on completion."""
    trials = _get(cfg, "trials", int, 0)
    seed = _require_seed(cfg)
    grids = (_parse_ints(cfg.get("d") or "1:6"), _parse_ints(cfg.get("q") or "1:3"),
             _parse_floats(cfg.get("s") or "1", "s"))
    _reject_unread(cfg, "conjecture")
    report = verify.explore_conjecture(*grids, trials, seed)
    _emit_json(report.to_json(), cfg.get("out"))


def couple(cfg: _Config) -> None:
    """Coupling-time statistics for antipodal starts on the hypercube."""
    n = _get(cfg, "n", int, 0)
    runs = _count(_get(cfg, "runs", int, 0), "runs", 2)
    seed = _require_seed(cfg)
    max_steps = _count(_get(cfg, "max_steps", int, 1_000_000), "max_steps")
    pw_runs = _count(_get(cfg, "pathwise_runs", int, 100), "pathwise_runs")
    _reject_unread(cfg, "couple")
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


def tail(cfg: _Config) -> None:
    """Empirical survival vs a bound curve; exit 0 iff dominated everywhere."""
    mdl = _build_model(cfg)
    curve = _build_curve(cfg) if cfg.get("name") else None
    samples = _get(cfg, "samples", int, 0)
    seed = _require_seed(cfg)
    grid = _parse_grid(cfg.get("t") or "0:8:0.25")
    alpha = _get(cfg, "alpha", float, 0.01)
    statistic = cfg.get("statistic") or "lmax"
    _reject_unread(cfg, f"tail on model {mdl.name!r} with bound {cfg.get('name')!r}")
    comparison = verify.empirical_tail(mdl, samples, grid, seed, curve=curve, alpha=alpha,
                                       statistic=statistic)
    report = comparison.to_json()
    report["model"] = mdl.name
    _emit_json(report, cfg.get("out"))
    if not comparison.dominated:
        raise VerificationFailure(
            f"bound violated at t = {comparison.violations}")


def replay(cfg: _Config) -> None:
    """Re-evaluate a serialized fuzz worst case bit-exactly."""
    path = cfg.get("case")
    if path is None:
        raise ParameterError("--case is required")
    _reject_unread(cfg, "replay")
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
# the flag table and its parser

# the flags that name verify's and tail's model
_MODEL_FLAGS = {"model": str, "model_file": str, "n": int, "d": int, "rows": int,
                "model_seed": int}

# verb -> (its function, its flags in order as config key: type, its
# config-only keys).  A key's flag is the key with "_" as "-", except that
# tail's --bound sets name, the key bound's --name sets; every verb also takes
# --config, the path of a JSON config file.
_VERBS = {
    "bound": (bound, {"name": str, "d": int, "v": float, "c": float, "sigma2": float,
                      "t": str, "out": str}, _CURVE_KEYS),
    "verify": (verify_cmd, {"check": str, **_MODEL_FLAGS, "p": str, "theta": str,
                            "psi": str, "s": str, "kernel": str, "horizon": int,
                            "samples": int, "seed": int, "out": str}, frozenset()),
    "fuzz": (fuzz, {"ineq": str, "trials": int, "seed": int, "d": str, "q": str, "s": str,
                    "p": float, "ensemble_size": int, "jobs": int, "out": str}, frozenset()),
    "conjecture": (conjecture, {"trials": int, "seed": int, "d": str, "q": str, "s": str,
                                "out": str}, frozenset()),
    "couple": (couple, {"n": int, "runs": int, "seed": int, "max_steps": int,
                        "pathwise_runs": int, "out": str}, frozenset()),
    "tail": (tail, {**_MODEL_FLAGS, "name": str, "v": float, "c": float, "sigma2": float,
                    "samples": int, "seed": int, "t": str, "alpha": float, "statistic": str,
                    "out": str}, _CURVE_KEYS),
    "replay": (replay, {"case": str, "out": str}, frozenset()),
}

# verb -> {flag: (its config key, its type)}, where --config is (None, str)
_FLAGS = {verb: {"--config": (None, str), **{
    "--bound" if (verb, key) == ("tail", "name") else "--" + key.replace("_", "-"): (key, kind)
    for key, kind in flags.items()}} for verb, (_, flags, _) in _VERBS.items()}


def _help(verb: str | None) -> str:
    """The usage of ``verb``, or of the program where it is None."""
    if verb is None:
        rows = [f"  {name:<12}{fn.__doc__}" for name, (fn, _, _) in _VERBS.items()]
        return "\n".join(["usage: matconc VERB [--FLAG VALUE ...]", "", "verbs:", *rows, "",
                          "matconc VERB --help lists the flags of VERB.", ""])
    rows = [f"  {flag} {kind.__name__.upper()}" for flag, (_, kind) in _FLAGS[verb].items()]
    return "\n".join([f"usage: matconc {verb} [--FLAG VALUE ...]", "", _VERBS[verb][0].__doc__,
                      "", "flags:", *rows, ""])


def _split(args: list, flags: dict) -> tuple:
    """({config key: value}, positional args, whether --help is given) of ``args``:
    a flag of ``flags`` reads the next arg, whatever it is, or the text after
    its "=", the last of a repeated flag wins, and every arg after "--" is positional."""
    values, free, asked = {}, [], False
    rest = iter(args)
    for arg in rest:
        if arg == "--":
            free += rest
        elif arg[:1] != "-" or arg == "-":
            free.append(arg)
        elif arg == "--help":
            asked = True
        else:
            flag, eq, text = arg.partition("=")
            if flag not in flags:
                raise ParameterError(f"no such option {flag!r}")
            text = text if eq else next(rest, None)
            if text is None:
                raise ParameterError(f"option {flag!r} needs a value")
            key, kind = flags[flag]
            try:
                values[key] = kind(text)
            except ValueError:
                raise ParameterError(f"{flag} takes {kind.__name__} values, got {text!r}") from None
    return values, free, asked


def run(argv) -> None:
    """Run the verb ``argv`` names on its flags merged over its --config file.
    Every error reaches the caller; main maps it to an exit code."""
    args = list(argv)
    if args[:1] == ["--"]:  # the end of the program's options, before the verb
        del args[0]
    elif args[:1] == ["--help"]:
        sys.stdout.write(_help(None))
        return
    if not args or args[0] not in _VERBS:
        raise ParameterError(f"need a verb: {', '.join(_VERBS)}, got {args[:1]}; see --help")
    fn, keys, extra = _VERBS[args[0]]
    values, free, asked = _split(args[1:], _FLAGS[args[0]])
    if asked:
        sys.stdout.write(_help(args[0]))
        return
    if free:
        raise ParameterError(f"{args[0]} takes no positional arguments, got {free}")
    cfg = _load_config(values.pop(None, None))
    unknown = set(cfg) - set(keys) - extra
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    # the flags in table order, then the config-only keys; a given flag wins
    fn(_Config({**dict.fromkeys(keys), **cfg, **values}))


# ---------------------------------------------------------------------------
# entry point

_CONFIG_ERRORS = (ParameterError, PreconditionError, ShapeError, DomainError, OSError,
                  json.JSONDecodeError)


def _fail(code: int, kind: str, message: str, **extra) -> int:
    """Write the error to stderr as one JSON line, and return the exit code."""
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message, **extra}},
                                sort_keys=True) + "\n")
    return code


def main(argv=None) -> int:
    try:
        run(sys.argv[1:] if argv is None else argv)
    except VerificationFailure as exc:
        return _fail(2, "verification", str(exc))
    except KeyboardInterrupt:
        return 130
    except BrokenPipeError:
        # the reader of stdout has gone: what stdout still buffers goes to
        # /dev/null, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except _CONFIG_ERRORS as exc:
        return _fail(3, "config", str(exc))
    except Exception as exc:
        import traceback  # only on this path: it is not loaded otherwise

        return _fail(1, "internal", f"{type(exc).__name__}: {exc}",
                     traceback=traceback.format_exc())
    return 0


if __name__ == "__main__":
    sys.exit(main())
