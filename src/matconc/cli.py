"""Experiment runner: models + bounds + verifiers behind reproducible verbs.

Reports are JSON (checks) or CSV (curves) with stable key order and no
timestamps, so a rerun with the same config and seed is byte-identical.
Exit codes: 0 pass, 1 internal error, 2 verification failure, 3 configuration
error.
"""
from __future__ import annotations

import io
import json
import math
import os
import sys

import numpy as np

from . import _lazy, verify
from .matcore import (
    DomainError,
    ParameterError,
    PreconditionError,
    ShapeError,
    _count,
    _grid,
    _integer,
    _real,
)

# run on first use: the fuzz verbs read neither
bounds, stein = _lazy("bounds"), _lazy("stein")

# ---------------------------------------------------------------------------
# the readers of config keys: each is (value, key) -> the value read, whether the
# value is a flag's text or a config file's JSON value; its label in --help is
# the last word of its name


def _int(value, key: str) -> int:
    return _integer(value)


def _text(value, key: str) -> str:
    if not isinstance(value, str) or not value:
        raise ParameterError(f"{key} must be nonempty text, got {value!r}")
    return value


def _as_given(value, key: str):
    """D, B and tv_seq: bounds reads them with matcore._array and _real."""
    return value


def _json_file(value, key: str):
    """The JSON value the file at path ``value`` holds."""
    path = _text(value, key)
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8, not JSON
        raise ParameterError(f"cannot read {key} {path!r}: {exc}") from None


_GRID_POINTS_MAX = 1_000_000  # the most points a lo:hi or start:stop:step grid may have


def _grid_values(value, key: str, read):
    """A grid as matcore._grid reads it: a JSON list or one number as it is, and
    text as comma-separated values or a range, lo:hi (inclusive) of integers
    or start:stop:step (inclusive) of reals, of at most _GRID_POINTS_MAX points."""
    if not isinstance(value, str):
        return value
    if ":" not in value:
        return [p for p in value.split(",") if p.strip()]
    if read is _int:
        lo, hi = (_integer(p) for p in value.split(":", 1))
        count = hi - lo + 1
    else:
        parts = value.split(":")
        if len(parts) != 3:
            raise ParameterError(f"{key} grid must be start:stop:step, got {value!r}")
        start, stop, step = (_real(p, key) for p in parts)
        if step <= 0 or stop < start:
            raise ParameterError(f"bad {key} grid {value!r}")
        steps = (stop - start) / step
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ParameterError(
                f"{key} grid step {step!r} does not divide [{start!r}, {stop!r}]")
        count = int(round(steps)) + 1
    if count > _GRID_POINTS_MAX:
        raise ParameterError(f"{key} grid {value!r} has {count} points, "
                             f"more than {_GRID_POINTS_MAX}")
    return range(lo, hi + 1) if read is _int else np.linspace(start, stop, count).tolist()


def _int_grid(value, key: str) -> list:
    return _grid(_grid_values(value, key, _int), key, _int)


def _real_grid(value, key: str) -> list:
    return _grid(_grid_values(value, key, _real), key)


# ---------------------------------------------------------------------------
# plumbing


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


class _Config(dict):
    """A verb's merged config, which reads each key by the verb's reader for it
    and records each key read."""

    def __init__(self, items, readers: dict):
        super().__init__(items)
        self.readers, self.read = readers, set()

    def get(self, key, default=verify.REQUIRED):
        """The value of ``key``, or else ``default``, read by the key's reader;
        only an absent key or null is unset, and an unset key with no default
        is a config error that names it.  A default of None is returned as it is."""
        self.read.add(key)
        value = super().get(key)
        if value is None:
            if default is verify.REQUIRED:
                raise ParameterError(f"{key} is required")
            value = default
        return None if value is None else self.readers[key](value, key)


def _reject_unread(cfg: _Config, what: str) -> str | None:
    """The one key rule of every verb, called once its inputs are parsed and
    before any kernel, sample, sweep or report: a set key it did not read is a
    config error.  The keys are named in the config's order, which run makes
    the verb's flag order, config-only keys last.  Returns out, the report's
    path, which every verb reads last."""
    out = cfg.get("out", None)
    unread = [k for k, v in cfg.items() if v is not None and k not in cfg.read]
    if unread:
        raise ParameterError(f"{what} does not read {unread}")
    return out


# ---------------------------------------------------------------------------
# model registry


def _build_model(cfg: dict):
    """The model a model file holds, or the named builtin, from the keys it reads."""
    obj = cfg.get("model_file", None)
    if obj is not None:
        try:
            return stein.MatrixModel.from_json(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"malformed model file: {exc!r}") from exc
    name = cfg.get("model")
    if name == "hypercube_sum":
        return stein.hypercube_sum(cfg.get("n", 3), cfg.get("d", 2))
    if name == "bounded_diff":
        return stein.bounded_diff_demo(cfg.get("n", 3), cfg.get("d", 2))
    if name == "compound_covariance":
        return stein.compound_covariance(cfg.get("rows", 2), cfg.get("n", 3))
    if name == "rect_demo":
        return stein.dilate_model(stein.rect_demo(cfg.get("n", 3)))
    if name == "random_finite":
        return stein.random_finite_model(cfg.get("n", 3), cfg.get("d", 2),
                                         cfg.get("model_seed", 0))
    raise ParameterError(f"unknown model {name!r}")


# ---------------------------------------------------------------------------
# bound curves from config

# curve parameters that no flag sets: bound and tail read them from the config
_CURVE_KEYS = {"D": _as_given, "B": _as_given, "L": _real, "R": _real, "S": _real,
               "p": _int, "n": _int, "tv_seq": _as_given}


def _build_curve(cfg: dict) -> bounds.BoundCurve:
    """The curve ``name`` from the parameters bounds lists for it, or compound_cov
    from its spec: sigma2 and L default to 1, and B to the identity."""
    name = cfg.get("name")
    if name != "compound_cov":
        keys = bounds._CURVE_PARAMS.get(name, ())
        return bounds.make_curve(name, **{k: cfg.get(k) for k in keys})
    p, n, B = cfg.get("p"), cfg.get("n"), cfg.get("B", None)
    spec = bounds.CompoundCovSpec(p, n, cfg.get("sigma2", 1.0), cfg.get("L", 1.0),
                                  np.eye(n) if B in (None, "I") else B)
    return bounds.make_curve(name, spec=spec)


# ---------------------------------------------------------------------------
# verbs


def bound(cfg: _Config) -> None:
    """Evaluate a closed-form tail bound over a t-grid, as CSV."""
    curve = _build_curve(cfg)
    grid = cfg.get("t", "0:4:0.1")
    out = _reject_unread(cfg, f"bound {curve.name!r}")
    # a point that fails leaves no partial report behind, nor an emptied --out
    text = io.StringIO()
    curve.write_csv(text, grid)
    _emit(text.getvalue(), out)


def _row(table: dict, what: str, name: str, cfg: _Config) -> tuple:
    """call, and the values it reads, of the row ``name`` of a table of verify:
    a key given is read by its reader, an unset key is its default as it is."""
    if name not in table:
        raise ParameterError(f"unknown {what} {name!r}")
    keys, call, *reads = table[name]

    def get(key):
        value = cfg.get(key, keys[key] if keys[key] is verify.REQUIRED else None)
        return keys[key] if value is None else value

    return call, reads[0](get) if reads else [get(k) for k in keys]


def verify_cmd(cfg: _Config) -> None:
    """Run an exact verification check; exit 0 iff it passes."""
    check = cfg.get("check")
    call, values = _row(verify.CHECKS, "check", check, cfg)
    mdl = _build_model(cfg)
    out = _reject_unread(cfg, f"check {check!r} on model {mdl.name!r}")
    report = call(mdl, *values)
    _emit_json(report, out)
    if not report["pass"]:
        raise verify.VerificationFailure(f"{check} failed")


def fuzz(cfg: _Config) -> None:
    """Fuzz one trace inequality; exit 0 iff min slack clears the threshold."""
    name = cfg.get("ineq")
    trials, seed = _count(cfg.get("trials"), "trials"), cfg.get("seed")
    jobs = _count(cfg.get("jobs", 1), "jobs")
    call, values = _row(verify.FUZZ_SUITES, "inequality", name, cfg)
    out = _reject_unread(cfg, f"fuzz suite {name!r}")
    # a chunk past the last trial would run none: at most one chunk per trial
    counts = verify._shares(trials, min(jobs, trials))
    if len(counts) > 1 and counts[-1] < len(values[0]):  # every suite reads its d grid first
        raise ParameterError(f"--jobs {jobs} leaves a chunk of {counts[-1]} trials for the "
                             f"{len(values[0])} entries of the d grid: each chunk needs one "
                             "trial per entry")
    # the chunks run one after another: a batched sweep keeps its core busy,
    # so threads would only contend for it
    report = verify.merge_fuzz_reports(
        [call(*values, c, seed + 7919 * i) for i, c in enumerate(counts)])
    _emit_json(report.to_json(), out)
    if not report.passed:
        raise verify.VerificationFailure(f"fuzz {name} min_slack {report.min_slack}")


def conjecture(cfg: _Config) -> None:
    """Sweep the signed trace-inequality forms; always exits 0 on completion."""
    trials, seed = cfg.get("trials"), cfg.get("seed")
    grids = cfg.get("d", "1:6"), cfg.get("q", "1:3"), cfg.get("s", 1)
    out = _reject_unread(cfg, "conjecture")
    report = verify.explore_conjecture(*grids, trials, seed)
    _emit_json(report.to_json(), out)


def couple(cfg: _Config) -> None:
    """Coupling-time statistics for antipodal starts on the hypercube."""
    args = (cfg.get("n"), cfg.get("runs"), cfg.get("seed"), cfg.get("max_steps", 1_000_000),
            cfg.get("pathwise_runs", 100))
    out = _reject_unread(cfg, "couple")
    report = verify.coupling_statistics(*args)
    _emit_json(report, out)
    if not report["pass"]:
        raise verify.VerificationFailure(
            f"coupling statistics off by {report['deviation_sigmas']:.2f} sigma")


def tail(cfg: _Config) -> None:
    """Empirical survival vs a bound curve; exit 0 iff dominated everywhere."""
    mdl = _build_model(cfg)
    name = cfg.get("name", None)
    curve = None if name is None else _build_curve(cfg)
    samples, seed, grid = cfg.get("samples"), cfg.get("seed"), cfg.get("t", "0:8:0.25")
    alpha, statistic = cfg.get("alpha", 0.01), cfg.get("statistic", "lmax")
    out = _reject_unread(cfg, f"tail on model {mdl.name!r} with bound {name!r}")
    comparison = verify.empirical_tail(mdl, samples, grid, seed, curve=curve, alpha=alpha,
                                       statistic=statistic)
    report = comparison.to_json()
    report["model"] = mdl.name
    _emit_json(report, out)
    if not comparison.dominated:
        raise verify.VerificationFailure(f"bound violated at t = {comparison.violations}")


def replay(cfg: _Config) -> None:
    """Re-evaluate a serialized fuzz worst case bit-exactly."""
    payload = cfg.get("case")
    out = _reject_unread(cfg, "replay")
    case = payload.get("worst_case", payload) if isinstance(payload, dict) else payload
    result = verify.replay_case(case)
    result["schema_version"] = verify.SCHEMA_VERSION
    _emit_json(result, out)
    if not verify.replay_passed(result):
        raise verify.VerificationFailure(f"replayed slack {result['slack']}")


# ---------------------------------------------------------------------------
# the flag table and its parser

# the flags that name verify's and tail's model
_MODEL_FLAGS = {"model": _text, "model_file": _json_file, "n": _int, "d": _int, "rows": _int,
                "model_seed": _int}

# verb -> (its function, its flags in order as config key: reader, its
# config-only keys as key: reader).  A key's flag is the key with "_" as "-",
# except that tail's --bound sets name, the key bound's --name sets; every verb
# also takes --config, the path of a JSON config file.
_VERBS = {
    "bound": (bound, {"name": _text, "d": _int, "v": _real, "c": _real, "sigma2": _real,
                      "t": _real_grid, "out": _text}, _CURVE_KEYS),
    "verify": (verify_cmd, {"check": _text, **_MODEL_FLAGS, "p": _int_grid,
                            "theta": _real_grid, "psi": _real_grid, "s": _real_grid,
                            "kernel": _text, "horizon": _int, "samples": _int, "seed": _int,
                            "out": _text}, {}),
    "fuzz": (fuzz, {"ineq": _text, "trials": _int, "seed": _int, "d": _int_grid,
                    "q": _int_grid, "s": _real_grid, "p": _real, "ensemble_size": _int,
                    "jobs": _int, "out": _text}, {}),
    "conjecture": (conjecture, {"trials": _int, "seed": _int, "d": _int_grid, "q": _int_grid,
                                "s": _real_grid, "out": _text}, {}),
    "couple": (couple, {"n": _int, "runs": _int, "seed": _int, "max_steps": _int,
                        "pathwise_runs": _int, "out": _text}, {}),
    "tail": (tail, {**_MODEL_FLAGS, "name": _text, "v": _real, "c": _real, "sigma2": _real,
                    "samples": _int, "seed": _int, "t": _real_grid, "alpha": _real,
                    "statistic": _text, "out": _text}, _CURVE_KEYS),
    "replay": (replay, {"case": _json_file, "out": _text}, {}),
}

# verb -> {flag: (its config key, its reader)}, where --config is (None, _json_file)
_FLAGS = {verb: {"--config": (None, _json_file), **{
    "--bound" if (verb, key) == ("tail", "name") else "--" + key.replace("_", "-"): (key, read)
    for key, read in flags.items()}} for verb, (_, flags, _) in _VERBS.items()}


def _help(verb: str | None) -> str:
    """The usage of ``verb``, or of the program where it is None."""
    if verb is None:
        rows = [f"  {name:<12}{fn.__doc__}" for name, (fn, _, _) in _VERBS.items()]
        return "\n".join(["usage: matconc VERB [--FLAG VALUE ...]", "", "verbs:", *rows, "",
                          "matconc VERB --help lists the flags of VERB.", ""])
    rows = [f"  {flag} {read.__name__.rsplit('_', 1)[1].upper()}"
            for flag, (_, read) in _FLAGS[verb].items()]
    return "\n".join([f"usage: matconc {verb} [--FLAG VALUE ...]", "", _VERBS[verb][0].__doc__,
                      "", "flags:", *rows, ""])


def _split(args: list, flags: dict) -> tuple:
    """({config key: text}, positional args, whether --help is given) of ``args``:
    a flag of ``flags`` takes the next arg, whatever it is, or the text after
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
            values[flags[flag][0]] = text
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
    cfg = _json_file(values.pop(None), "config") if None in values else {}
    if not isinstance(cfg, dict):
        raise ParameterError("config file must hold a JSON object")
    unknown = set(cfg) - set(keys) - set(extra)
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    # the flags in table order, then the config-only keys; a given flag wins
    fn(_Config({**dict.fromkeys(keys), **cfg, **values}, {**keys, **extra}))


# ---------------------------------------------------------------------------
# entry point

_CONFIG_ERRORS = (ParameterError, PreconditionError, ShapeError, DomainError, OSError)


def _fail(code: int, kind: str, message: str, **extra) -> int:
    """Write the error to stderr as one JSON line, and return the exit code."""
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message, **extra}},
                                sort_keys=True) + "\n")
    return code


def main(argv=None) -> int:
    try:
        run(sys.argv[1:] if argv is None else argv)
    except verify.VerificationFailure as exc:
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
