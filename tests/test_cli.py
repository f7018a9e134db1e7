"""Driver verbs end to end: exit codes, report determinism, config plumbing.

Each verb runs in-process through cli.main so exit codes and emitted bytes
can be asserted without spawning interpreters.
"""
import ast
import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from matconc import bounds, cli, matcore, stein, verify
from matconc.matcore import HermitianMatrix


# every verb's config keys: its flags with "-" as "_", and tail's --bound as name
CONFIG_KEYS = {
    "bound": ["name", "d", "v", "c", "sigma2", "t", "out"],
    "verify": ["check", "model", "model_file", "n", "d", "rows", "model_seed", "p",
               "theta", "psi", "s", "kernel", "horizon", "samples", "seed", "out"],
    "fuzz": ["ineq", "trials", "seed", "d", "q", "s", "p", "ensemble_size", "jobs",
             "out"],
    "conjecture": ["trials", "seed", "d", "q", "s", "out"],
    "couple": ["n", "runs", "seed", "max_steps", "pathwise_runs", "out"],
    "tail": ["model", "model_file", "n", "d", "rows", "model_seed", "name", "v", "c",
             "sigma2", "samples", "seed", "t", "alpha", "statistic", "out"],
    "replay": ["case", "out"],
}


# the environment of a subprocess that imports matconc from this checkout
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def merged_config(monkeypatch, argv):
    """The config a verb receives, merged from its --config file and flags, each
    value as given (a flag's text, a config file's JSON value) and read only
    when the verb gets it; the verb itself does not run."""
    seen = {}
    _, flags, extra = cli._VERBS[argv[0]]
    with monkeypatch.context() as patch:
        patch.setitem(cli._VERBS, argv[0], (seen.update, flags, extra))
        cli.run(argv)
    return seen


class TestBoundVerb:
    def test_csv_golden_row(self, capsys):
        code, out, _ = run(["bound", "--name", "gaussexp", "--d", "2",
                            "--v", "1", "--c", "0", "--t", "2"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# bound=gaussexp")
        assert lines[1] == "t,raw,clamped"
        assert lines[2] == "2.0,0.2706705664732254,0.2706705664732254"

    @pytest.mark.parametrize("c, t", [("0", "1e200"), ("1e10", "1e300")])
    def test_a_huge_t_is_a_zero_tail(self, capsys, c, t):
        code, out, _ = run(["bound", "--name", "gaussexp", "--d", "2",
                            "--v", "1", "--c", c, "--t", t], capsys)
        assert code == 0
        assert out.strip().splitlines()[2] == f"{float(t)!r},0.0,0.0"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run(["bound", "--name", "bounded_diff", "--d", "1",
                            "--sigma2", "2.0", "--t", "0:2:1",
                            "--out", str(target)], capsys)
        assert code == 0 and out == ""
        rows = target.read_text().strip().splitlines()
        assert len(rows) == 5  # comment, header, three grid points

    def test_grid_step_must_divide_range(self, capsys):
        code, out, err = run(["bound", "--name", "gaussexp", "--d", "2", "--v", "1",
                              "--c", "0", "--t", "0:1:0.3"], capsys)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["type"] == "config"
        code, out, _ = run(["bound", "--name", "gaussexp", "--d", "2", "--v", "1",
                            "--c", "0", "--t", "0:0.3:0.1"], capsys)
        assert code == 0
        ts = [float(row.split(",")[0]) for row in out.strip().splitlines()[2:]]
        assert ts == pytest.approx([0.0, 0.1, 0.2, 0.3], abs=1e-15)

    def test_missing_parameter(self, capsys):
        code, _, err = run(["bound", "--name", "gaussexp", "--d", "2"], capsys)
        assert code == 3
        assert json.loads(err)["error"]["type"] == "config"

    BAD_POINT = [["--name", "self_bounded", "--d", "0", "--v", "1", "--c", "1", "--t", "0:1:1"],
                 ["--name", "gaussexp", "--d", "2", "--v", "1", "--c", "1", "--t", "-1:1:1"]]

    @pytest.mark.parametrize("argv", BAD_POINT)
    def test_failed_point_prints_nothing(self, capsys, argv):
        code, out, err = run(["bound"] + argv, capsys)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["type"] == "config"

    @pytest.mark.parametrize("argv", BAD_POINT)
    def test_failed_point_keeps_the_old_report(self, capsys, tmp_path, argv):
        target = tmp_path / "curve.csv"
        target.write_text("an older report\n")
        code, _, _ = run(["bound"] + argv + ["--out", str(target)], capsys)
        assert code == 3
        assert target.read_text() == "an older report\n"

    @pytest.mark.parametrize("entry", ['"L": Infinity', '"L": NaN', '"L": 0', '"sigma2": NaN'])
    def test_compound_cov_needs_finite_L_and_sigma2(self, capsys, tmp_path, entry):
        # json reads Infinity and NaN; the curve names the field instead of
        # printing nan at t = 0
        config = tmp_path / "bound.json"
        config.write_text('{"name": "compound_cov", "p": 2, "n": 3, %s, "t": "0:2:1"}' % entry)
        code, out, err = run(["bound", "--config", str(config)], capsys)
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "config"
        assert "need a finite " + entry.split('"')[1] in error["message"]

    @pytest.mark.parametrize("key", ["sigma2", "L"])
    def test_compound_cov_null_is_unset(self, capsys, tmp_path, key):
        config = {"name": "compound_cov", "p": 2, "n": 3, "t": "0:2:1"}
        (tmp_path / "unset.json").write_text(json.dumps(config))
        (tmp_path / "null.json").write_text(json.dumps(dict(config, **{key: None})))
        want = run(["bound", "--config", str(tmp_path / "unset.json")], capsys)
        assert want[0] == 0, want[2]
        assert run(["bound", "--config", str(tmp_path / "null.json")], capsys) == want


# non-finite values in either grid form, a range whose point count overflows,
# and ranges of more points than a grid may have (rejected before any is made)
NON_FINITE_GRIDS = ["0:nan:1", "0:inf:1", "0:4:nan", "-inf:0:1", "nan", "inf", "0,nan",
                    "1,-inf", "0:1e308:1e-300", "0:1e15:1", "0:1000000:1"]


@pytest.mark.parametrize("argv", [
    ["bound", "--name", "gaussexp", "--d", "2", "--v", "1", "--c", "0"],
    ["tail", "--model", "hypercube_sum", "--n", "2", "--samples", "200", "--seed", "1"],
])
@pytest.mark.parametrize("grid", NON_FINITE_GRIDS)
def test_non_finite_t_grid_is_config_error(capsys, argv, grid):
    code, out, err = run(argv + ["--t", grid], capsys)
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["type"] == "config"


# a valid config per curve; each real key in turn is set to a non-finite value
CURVE_CONFIGS = {
    "gaussexp": {"d": 2, "v": 1.0, "c": 0.5},
    "self_bounded": {"d": 2, "v": 1.0, "c": 0.5},
    "bounded_diff": {"d": 2, "sigma2": 1.0},
    "dobrushin": {"d": 2, "sigma2": 1.0, "D": [[0.0, 0.1], [0.2, 0.0]]},
    "compound_cov": {"p": 2, "n": 2, "sigma2": 0.5, "L": 1.5},
    "haar": {"R": 1.0, "S": 1.0, "tv_seq": [0.25, 0.125], "d": 2},
}


def _with(name: str, key: str, bad: float) -> dict:
    """CURVE_CONFIGS[name] with ``bad`` as key's value, or as one entry of it."""
    config = dict(CURVE_CONFIGS[name], name=name, t="0:2:1")
    value = config[key]
    config[key] = ([[0.0, bad], [0.2, 0.0]] if key == "D" else [value[0], bad]
                   if key == "tv_seq" else bad)
    return config


NON_FINITE_REALS = [
    (["bound"], _with(name, key, bad))
    for name, config in CURVE_CONFIGS.items() for key in config if key not in ("d", "p", "n")
    for bad in (math.nan, math.inf, -math.inf)
] + [(["tail", "--model", "hypercube_sum", "--n", "3", "--d", "2", "--bound", "bounded_diff",
       "--sigma2", "nan", "--samples", "200", "--seed", "1"], None)]


@pytest.mark.parametrize("argv, config", NON_FINITE_REALS, ids=lambda v: json.dumps(v))
def test_non_finite_real_is_config_error(capsys, tmp_path, argv, config):
    out_file = tmp_path / "out"
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))  # NaN, Infinity, -Infinity
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    code, out, err = run(argv + ["--out", str(out_file)], capsys)
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["type"] == "config"
    assert not out_file.exists()


@pytest.mark.parametrize("check", ["kernel_identities", "poly_efron_stein"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_model_file_with_a_non_finite_H_entry_is_config_error(capsys, tmp_path, check, bad):
    obj = stein.hypercube_sum(2).to_json()
    next(iter(obj["H"].values()))["real"][0] = bad
    (tmp_path / "model.json").write_text(json.dumps(obj))  # NaN or Infinity
    out_file = tmp_path / "out"
    code, out, err = run(["verify", "--check", check, "--model-file", str(tmp_path / "model.json"),
                          "--out", str(out_file)], capsys)
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "config" and error["message"] == "matrix entries must be finite"
    assert not out_file.exists()


@pytest.mark.parametrize("argv, key", [
    (["fuzz", "--ineq", "pmvti", "--trials", "3", "--seed", "1", "--d", "0"], "d"),
    (["couple", "--n", "0", "--runs", "4", "--seed", "1"], "n"),
])
def test_a_zero_count_has_one_wording(capsys, argv, key):
    code, out, err = run(argv, capsys)
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["message"] == f"{key} must be an integer >= 1, got 0"


class TestVerifyVerb:
    def test_poly_efron_stein_passes(self, capsys):
        code, out, _ = run(["verify", "--check", "poly_efron_stein",
                            "--model", "hypercube_sum", "--n", "3"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["results"][0]["lhs"] == pytest.approx(math.sqrt(3.0))

    def test_kernel_identities_pass(self, capsys):
        code, out, _ = run(["verify", "--check", "kernel_identities",
                            "--model", "hypercube_sum", "--n", "2"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["antisymmetry_max"] == 0.0
        assert report["stein_residual"] <= 1e-10

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        argv = ["verify", "--check", "exp_efron_stein", "--model",
                "hypercube_sum", "--n", "2", "--theta", "0.25,-0.25",
                "--psi", "1"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(argv + ["--out", str(a)], capsys)[0] == 0
        assert run(argv + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_check(self, capsys):
        code, _, err = run(["verify", "--check", "nonsense",
                            "--model", "hypercube_sum"], capsys)
        assert code == 3
        assert "nonsense" in json.loads(err)["error"]["message"]

    def test_unknown_model(self, capsys):
        code, _, _ = run(["verify", "--check", "poly_efron_stein",
                          "--model", "mystery"], capsys)
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["--check", "poly_efron_stein", "--p", ","],
        ["--check", "poly_efron_stein", "--p", "0"],
        ["--check", "exp_efron_stein", "--theta", ","],
        ["--check", "exp_efron_stein", "--theta", "5"],
        ["--check", "exp_efron_stein", "--psi", "0"],
        ["--check", "exp_efron_stein", "--psi", "-1"],
        ["--check", "kernel_poly_moments", "--p", ","],
        ["--check", "kernel_poly_moments", "--p", "0"],
        ["--check", "kernel_poly_moments", "--s", "0"],
        ["--check", "kernel_poly_moments", "--s", "-1"],
        ["--check", "kernel_poly_moments", "--s", ","],
        ["--check", "kernel_poly_moments", "--s", "nan"],
        ["--check", "kernel_poly_moments", "--s", "inf"],
        ["--check", "exp_efron_stein", "--psi", "inf"],
    ])
    def test_grid_that_checks_nothing_is_config_error(self, capsys, argv):
        # an empty grid, no admissible (theta, psi) pair, or a value outside the
        # theorem's range: neither a vacuous pass nor a crash
        code, out, err = run(["verify"] + argv + ["--model", "hypercube_sum", "--n", "2"],
                             capsys)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["type"] == "config"

    @pytest.mark.parametrize("argv, unread", [
        (["--check", "poly_efron_stein", "--theta", "0.1", "--kernel", "bogus",
          "--samples", "0"], ["theta", "kernel", "samples"]),
        (["--check", "exp_efron_stein", "--p", "2"], ["p"]),
        (["--check", "kernel_poly_moments", "--seed", "1"], ["seed"]),
        (["--check", "kernel_identities", "--s", "1", "--horizon", "3"], ["s", "horizon"]),
    ])
    def test_key_the_check_does_not_read_is_config_error(self, capsys, argv, unread):
        code, out, err = run(["verify"] + argv + ["--model", "hypercube_sum", "--n", "2"],
                             capsys)
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "config" and str(unread) in error["message"]

    def test_estimated_kernel_requires_seed(self, capsys):
        code, _, err = run(["verify", "--check", "kernel_poly_moments",
                            "--model", "hypercube_sum", "--n", "2",
                            "--kernel", "estimated"], capsys)
        assert code == 3
        assert "seed" in json.loads(err)["error"]["message"]

    def test_estimated_kernel_of_one_sample_is_config_error(self, capsys):
        # one sample has no standard error: no bound, not a theorem failure
        base = ["verify", "--check", "kernel_poly_moments", "--model", "hypercube_sum",
                "--n", "2", "--kernel", "estimated", "--seed", "1", "--samples"]
        code, out, err = run(base + ["1"], capsys)
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "config" and "samples" in error["message"]
        code, out, _ = run(base + ["2"], capsys)
        assert code == 0 and json.loads(out)["pass"] is True

    @pytest.mark.parametrize("theta", ["nan", "0.25,nan", "inf", "-inf"])
    def test_non_finite_theta_is_rejected_by_name(self, capsys, theta):
        code, out, err = run(["verify", "--check", "exp_efron_stein", "--model",
                              "hypercube_sum", "--n", "2", "--theta", theta], capsys)
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "config"
        assert "need a finite theta" in error["message"]
        assert "overflow" not in error["message"]

    @pytest.mark.parametrize("check", ["poly_efron_stein", "kernel_poly_moments"])
    def test_overflowing_moment_is_config_error(self, capsys, check):
        # E ||X||_{2p}^{2p} is inf at p = 1e5: no Infinity or NaN in a report,
        # and no false theorem failure
        code, out, err = run(["verify", "--check", check, "--model", "hypercube_sum",
                              "--n", "2", "--p", "100000"], capsys)
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "config" and "overflows" in error["message"]

    def test_overflowing_kernel_bound_is_config_error(self, capsys):
        # the left-hand side is finite at p = 2; E ||(s V_X + V^K/s)/2||_2^2 is
        # inf at s = 1e300
        code, out, err = run(["verify", "--check", "kernel_poly_moments", "--model",
                              "hypercube_sum", "--n", "2", "--p", "2", "--s", "1,1e300"],
                             capsys)
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "config" and "overflows at order 2" in error["message"]


class TestFuzzVerb:
    def test_pass_and_determinism(self, capsys, tmp_path):
        argv = ["fuzz", "--ineq", "pmvti", "--trials", "40", "--seed", "11",
                "--d", "1:2", "--q", "2", "--s", "1"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(argv + ["--out", str(a)], capsys)[0] == 0
        assert run(argv + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()
        report = json.loads(a.read_text())
        assert report["pass"] is True and report["trials"] == 40

    def test_jobs_deterministic(self, capsys, tmp_path):
        argv = ["fuzz", "--ineq", "emvti", "--trials", "30", "--seed", "4",
                "--d", "1:2", "--s", "1,4", "--jobs", "3"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(argv + ["--out", str(a)], capsys)[0] == 0
        assert run(argv + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["trials"] == 30

    def test_jobs_past_the_trials_run_one_chunk_per_trial(self, capsys, tmp_path):
        # a chunk past the last trial runs none, so no list of 10**12 chunks is built
        argv = ["fuzz", "--ineq", "emvti", "--trials", "10", "--seed", "1", "--d", "2"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(argv + ["--jobs", "10", "--out", str(a)], capsys)[0] == 0
        assert run(argv + ["--jobs", str(10**12), "--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()
        tracemalloc.start()
        try:
            assert run(argv + ["--jobs", str(10**6), "--out", str(b)], capsys)[0] == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 and a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["fuzz", "--ineq", "emvti", "--trials", "5", "--jobs", "1"],
        ["fuzz", "--ineq", "emvti", "--trials", "10", "--d", "1:6", "--jobs", "2"],
        ["conjecture", "--trials", "5"],
    ])
    def test_fewer_trials_than_d_entries_are_a_config_error(self, capsys, argv):
        # each sweep, and under --jobs each chunk, needs one trial per d entry
        code, out, err = run(argv + ["--seed", "3"], capsys)
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "config"
        assert "5 trials" in error["message"] and "6 entries" in error["message"]

    @pytest.mark.parametrize("grid, dims", [("3,1,2", [1, 2, 3]), ("2,2", [2])])
    def test_dims_are_the_distinct_grid_entries_at_any_jobs(self, capsys, tmp_path, grid, dims):
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.json"
            assert run(["fuzz", "--ineq", "emvti", "--trials", "12", "--seed", "1", "--d", grid,
                        "--jobs", jobs, "--out", str(out)], capsys)[0] == 0
            assert json.loads(out.read_text())["dims"] == dims

    @pytest.mark.parametrize("jobs", ["2", "3"])
    def test_a_short_chunk_is_refused_by_name(self, capsys, monkeypatch, jobs):
        # 3 trials try d = 1..3 in one sweep; --jobs leaves a chunk of 1 trial,
        # and is refused before any chunk runs
        argv = ["fuzz", "--ineq", "emvti", "--trials", "3", "--seed", "1", "--d", "1:3"]
        assert run(argv + ["--jobs", "1"], capsys)[0] == 0

        def refuse(*args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(verify, "fuzz_emvti", refuse)
        code, out, err = run(argv + ["--jobs", jobs], capsys)
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "config" and error["message"].startswith(f"--jobs {jobs} ")
        assert "chunk of 1 trials" in error["message"] and "3 entries" in error["message"]

    def test_young_p_is_read_before_the_trials_rule(self, capsys):
        code, _, err = run(["fuzz", "--ineq", "young_commuting", "--trials", "1",
                            "--seed", "1", "--p", "0"], capsys)
        assert code == 3 and "p > 1, got 0" in json.loads(err)["error"]["message"]

    def test_jobs_merge_in_process_chunks(self, capsys, tmp_path, monkeypatch):
        # --jobs 2 is the merge of the two chunk sweeps, byte for byte, and
        # starts no thread
        def refuse(self):
            raise AssertionError("fuzz --jobs started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        out, ref = tmp_path / "jobs2.json", tmp_path / "merged.json"
        argv = ["fuzz", "--ineq", "emvti", "--trials", "41", "--seed", "5",
                "--d", "1:3", "--jobs", "2", "--out", str(out)]
        assert run(argv, capsys)[0] == 0
        ss = [0.25, 1.0, 4.0]
        merged = verify.merge_fuzz_reports([
            verify.fuzz_emvti([1, 2, 3], ss, 21, 5),
            verify.fuzz_emvti([1, 2, 3], ss, 20, 5 + 7919),
        ])
        cli._emit_json(merged.to_json(), str(ref))
        assert out.read_bytes() == ref.read_bytes()

    def test_internal_error_is_not_a_config_error(self, capsys, monkeypatch):
        # a ValueError raised inside an evaluator is a defect: exit 1
        def broken(*args, **kwargs):
            raise ValueError("evaluator defect")

        monkeypatch.setattr(verify, "_pmvti_stack", broken)
        code, out, err = run(["fuzz", "--ineq", "pmvti", "--trials", "5",
                              "--seed", "1", "--d", "2"], capsys)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "internal"
        assert "evaluator defect" in error["message"]

    def test_zero_trials_is_config_error(self, capsys):
        code, _, err = run(["fuzz", "--ineq", "pmvti", "--trials", "0",
                            "--seed", "1"], capsys)
        assert code == 3
        assert json.loads(err)["error"]["type"] == "config"

    @pytest.mark.parametrize("argv", [
        ["fuzz", "--ineq", "emvti", "--s", ","],
        ["fuzz", "--ineq", "pmvti", "--q", ","],
        ["fuzz", "--ineq", "pmvti", "--s", ","],
        ["conjecture", "--s", ","],
        ["conjecture", "--q", ","],
        ["fuzz", "--ineq", "pmvti", "--d", "0"],
        ["conjecture", "--d", "-1"],
        ["fuzz", "--ineq", "emvti", "--s", "0"],
        ["conjecture", "--s", "-1"],
        ["fuzz", "--ineq", "emvti", "--s", "inf"],
        ["conjecture", "--s", "inf"],
    ])
    def test_grid_that_checks_nothing_is_config_error(self, capsys, argv):
        # an empty grid, a dimension below 1 or an s outside (0, inf): neither a
        # vacuous pass, a false failure nor a crash
        code, out, err = run(argv + ["--trials", "5", "--seed", "1"], capsys)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["type"] == "config"

    @pytest.mark.parametrize("ineq, argv, unread", [
        ("pmvti", ["--ensemble-size", "0", "--p", "0"], ["p", "ensemble_size"]),
        ("emvti", ["--q", "2"], ["q"]),
        ("young_commuting", ["--s", "1"], ["s"]),
        ("operator_cs", ["--p", "2"], ["p"]),
        ("matrix_entropy_young", ["--q", "1", "--s", "1"], ["q", "s"]),
    ])
    def test_key_the_suite_does_not_read_is_config_error(self, capsys, ineq, argv, unread):
        code, out, err = run(["fuzz", "--ineq", ineq, "--trials", "5", "--seed", "1"] + argv,
                             capsys)
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "config" and str(unread) in error["message"]

    @pytest.mark.parametrize("argv, suite", [
        (["fuzz", "--ineq", "emvti", "--d", "1:3", "--s", "1,1e308"], "emvti"),
        (["fuzz", "--ineq", "emvti", "--d", "1:3", "--s", "1,1e308", "--jobs", "2"], "emvti"),
        (["fuzz", "--ineq", "pmvti", "--d", "2", "--q", "1,3000"], "pmvti"),
        (["fuzz", "--ineq", "pmvti", "--d", "2", "--q", "1,3000", "--jobs", "2"], "pmvti"),
        (["conjecture", "--d", "2", "--q", "1,3000"], "conjecture_poly"),
    ])
    def test_nan_slack_is_config_error(self, capsys, argv, suite):
        # a side that overflows makes the slack inf/inf = NaN: the sweep stops
        # and names the trial, where it would drop the trial's dimension and pass
        code, out, err = run(argv + ["--trials", "40", "--seed", "1"], capsys)
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "config"
        assert error["message"].startswith(f"{suite} slack is NaN at d=")

    @pytest.mark.parametrize("argv", [
        ["fuzz", "--ineq", "pmvti", "--trials", "1", "--seed", "1", "--q"],
        ["fuzz", "--ineq", "pmvti", "--trials", "1", "--seed", "1", "--d"],
        ["conjecture", "--trials", "1", "--seed", "1", "--q"],
        ["verify", "--check", "poly_efron_stein", "--model", "hypercube_sum", "--n", "2", "--p"],
    ])
    def test_integer_range_of_too_many_points_is_config_error(self, capsys, argv):
        tracemalloc.start()
        try:
            code, out, err = run(argv + ["1:1000001"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out == "" and peak < 2**20  # refused before a point is made
        error = json.loads(err)["error"]
        assert error["type"] == "config" and "has 1000001 points" in error["message"]

    def test_integer_and_real_ranges_share_the_point_cap(self, monkeypatch):
        monkeypatch.setattr(cli, "_GRID_POINTS_MAX", 5)
        assert len(cli._int_grid("1:5", "q")) == len(cli._real_grid("0:4:1", "s")) == 5
        for read, text in ((cli._int_grid, "1:6"), (cli._real_grid, "0:5:1")):
            with pytest.raises(matcore.ParameterError, match="has 6 points, more than 5"):
                read(text, "q")

    def test_unknown_inequality(self, capsys):
        code, _, _ = run(["fuzz", "--ineq", "bogus", "--trials", "5",
                          "--seed", "1"], capsys)
        assert code == 3

    def test_missing_seed(self, capsys):
        code, _, err = run(["fuzz", "--ineq", "pmvti", "--trials", "5"], capsys)
        assert code == 3
        assert "seed" in json.loads(err)["error"]["message"]


class TestConfigPlumbing:
    def test_config_file_runs(self, capsys, tmp_path):
        cfg = tmp_path / "fuzz.json"
        cfg.write_text(json.dumps({"ineq": "pmvti", "trials": 20, "seed": 1,
                                   "d": "1:2", "q": "2", "s": "1"}))
        code, out, _ = run(["fuzz", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["trials"] == 20

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "fuzz.json"
        cfg.write_text(json.dumps({"ineq": "pmvti", "trials": 20, "seed": 1,
                                   "d": "1", "q": "2", "s": "1"}))
        code, out, _ = run(["fuzz", "--config", str(cfg), "--trials", "10"],
                           capsys)
        assert code == 0
        assert json.loads(out)["trials"] == 10

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        for verb, keys in CONFIG_KEYS.items():
            cfg.write_text(json.dumps({keys[0]: "x", "tirals": 5}))
            code, _, err = run([verb, "--config", str(cfg)], capsys)
            assert code == 3, verb
            assert "tirals" in json.loads(err)["error"]["message"], verb

    def test_config_keys_are_the_flag_names(self, monkeypatch, tmp_path):
        cfg = tmp_path / "cfg.json"
        for verb, keys in CONFIG_KEYS.items():
            flag = {key: "--bound" if (verb, key) == ("tail", "name") else (
                "--" + key.replace("_", "-")) for key in keys}
            assert list(cli._VERBS[verb][1]) == keys, verb
            assert set(cli._FLAGS[verb]) == {"--config", *flag.values()}, verb
            config_only = cli._CURVE_KEYS if verb in ("bound", "tail") else ()
            for key in (*keys, *config_only):
                cfg.write_text(json.dumps({key: "from-config"}))
                argv = [verb, "--config", str(cfg)]
                assert merged_config(monkeypatch, argv)[key] == "from-config"
                if key in keys:
                    # the merged value is the flag's text
                    got = merged_config(monkeypatch, argv + [flag[key], "7"])[key]
                    assert got == "7", (verb, key, got)

    def test_verify_has_no_tolerance_key(self, capsys, tmp_path):
        # the exact tolerance is fixed; a config that sets it must not run
        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps({"check": "poly_efron_stein",
                                   "model": "hypercube_sum", "tolerance": 1e-3}))
        code, out, err = run(["verify", "--config", str(cfg)], capsys)
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "config" and "tolerance" in error["message"]

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("[1, 2, 3]")
        assert run(["fuzz", "--config", str(cfg)], capsys)[0] == 3
        cfg.write_text("{not json")
        assert run(["fuzz", "--config", str(cfg)], capsys)[0] == 3

    def test_unreadable_number_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "fuzz.json"
        cfg.write_text(json.dumps({"ineq": "pmvti", "trials": "x", "seed": 1}))
        code, _, err = run(["fuzz", "--config", str(cfg)], capsys)
        assert code == 3
        error = json.loads(err)["error"]
        assert error["type"] == "config" and "'x'" in error["message"]

    def test_malformed_model_file_is_config_error(self, capsys, tmp_path):
        model = tmp_path / "model.json"
        for obj in (
            {"name": "m", "d": 2},
            # d = 1 with 2 x 2 entries: the table must not be read as four 1 x 1 matrices
            {"name": "m", "d": 1, "dist": {"n": 1, "coords": [[[-1.0, 0.5], [1.0, 0.5]]]},
             "H": {k: {"real": [1.0, 2.0, 2.0, 3.0], "imag": [0.0] * 4}
                   for k in ("[-1.0]", "[1.0]")}},
            # a coordinate pair of one number, and coords that are not a list
            {"name": "m", "d": 1, "dist": {"n": 1, "coords": [[[1.0]]]}, "H": {}},
            {"name": "m", "d": 1, "dist": {"n": 1, "coords": 5}, "H": {}},
        ):
            model.write_text(json.dumps(obj))
            code, _, err = run(["verify", "--check", "poly_efron_stein",
                                "--model-file", str(model)], capsys)
            assert code == 3
            assert json.loads(err)["error"]["type"] == "config"

    def test_model_file_with_a_boolean_coordinate_value_is_config_error(self, capsys, tmp_path):
        obj = stein.hypercube_sum(2).to_json()
        assert obj["dist"]["coords"][0][0][0] == -1.0
        obj["dist"]["coords"][0][0][0] = True  # read as 1.0, it would be another model
        model = tmp_path / "model.json"
        model.write_text(json.dumps(obj))
        code, out, err = run(["verify", "--check", "poly_efron_stein",
                              "--model-file", str(model)], capsys)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["type"] == "config"

    def test_model_file_must_cover_its_support(self, capsys, tmp_path):
        model = tmp_path / "model.json"
        one = {"real": [1.0], "imag": [0.0]}
        # one outcome of four; then four entries, one of them off the support
        for keys in (["[1.0, 1.0]"],
                     ["[1.0, 1.0]", "[1.0, -1.0]", "[-1.0, 1.0]", "[-1.0, 2.0]"]):
            model.write_text(json.dumps({
                "name": "m", "d": 1,
                "dist": {"n": 2, "coords": [[[-1.0, 0.5], [1.0, 0.5]]] * 2},
                "H": {k: one for k in keys}}))
            code, _, err = run(["verify", "--check", "poly_efron_stein",
                                "--model-file", str(model)], capsys)
            assert code == 3
            error = json.loads(err)["error"]
            assert error["type"] == "config" and "cover" in error["message"]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key, argv", [
        ("ensemble_size", ["fuzz", "--ineq", "matrix_entropy_young", "--trials", "3"]),
        ("jobs", ["fuzz", "--ineq", "pmvti", "--trials", "3"]),
        ("p", ["fuzz", "--ineq", "young_commuting", "--trials", "3"]),
        ("alpha", ["tail", "--model", "hypercube_sum", "--n", "2", "--samples", "200"]),
        ("max_steps", ["couple", "--n", "2", "--runs", "4"]),
        ("pathwise_runs", ["couple", "--n", "2", "--runs", "4"]),
        ("samples", ["verify", "--check", "kernel_poly_moments", "--kernel", "estimated",
                     "--model", "hypercube_sum", "--n", "2"]),
        ("horizon", ["verify", "--check", "kernel_poly_moments", "--kernel", "estimated",
                     "--model", "hypercube_sum", "--n", "2"]),
    ])
    def test_explicit_zero_is_not_the_default(self, capsys, tmp_path, key, argv, source):
        # 0 reaches the verb's validation, from a flag or a config file alike
        if source == "flag":
            extra = ["--" + key.replace("_", "-"), "0"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: 0}))
            extra = ["--config", str(cfg)]
        code, out, err = run(argv + ["--seed", "1"] + extra, capsys)
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "config" and re.search(rf"\b{key}\b.* must |^need a finite {key} ",
                                                       error["message"])

    @pytest.mark.parametrize("argv", [
        ["fuzz", "--ineq", "pmvti", "--trials", "3", "--seed", "-1"],
        ["conjecture", "--trials", "3", "--seed", "-1"],
        ["couple", "--n", "2", "--runs", "4", "--seed", "-1"],
        ["tail", "--model", "hypercube_sum", "--n", "2", "--samples", "100", "--seed", "-1"],
        ["verify", "--check", "kernel_poly_moments", "--model", "hypercube_sum", "--n", "2",
         "--kernel", "estimated", "--seed", "-1"],
        ["verify", "--check", "poly_efron_stein", "--model", "random_finite",
         "--model-seed", "-1"],
        ["verify", "--check", "poly_efron_stein", "--model", "bounded_diff", "--d", "0"],
        ["tail", "--model", "bounded_diff", "--d", "0", "--samples", "100", "--seed", "1"],
    ])
    def test_negative_seed_or_zero_dimension_is_config_error(self, capsys, tmp_path, argv):
        # a seed is an integer >= 0 and a dimension an integer >= 1, in every verb
        target = tmp_path / "report.out"
        code, out, err = run(argv + ["--out", str(target)], capsys)
        assert code == 3 and out == "" and not target.exists(), err
        error = json.loads(err)["error"]
        assert error["type"] == "config"
        assert re.search(r"\b(seed|d) must be an integer >= [01], got -?[01]\b", error["message"])

    def test_unknown_flag(self, capsys):
        code, _, err = run(["fuzz", "--ineq", "pmvti", "--trails", "5"], capsys)
        assert code == 3
        assert json.loads(err)["error"]["type"] == "config"

    def test_help_exits_zero(self, capsys):
        assert run(["--help"], capsys)[0] == 0

    @pytest.mark.parametrize("verb", sorted(CONFIG_KEYS))
    def test_verb_help_prints_a_reader_for_every_flag(self, capsys, verb):
        code, out, err = run([verb, "--help"], capsys)
        assert (code, err) == (0, "")
        rows = [row.split() for row in out.split("flags:\n", 1)[1].splitlines()]
        assert [flag for flag, _ in rows] == list(cli._FLAGS[verb])
        assert {label for _, label in rows} <= {"INT", "REAL", "TEXT", "GRID", "FILE"}
        if verb == "verify":
            assert dict(rows) == {
                "--config": "FILE", "--check": "TEXT", "--model": "TEXT",
                "--model-file": "FILE", "--n": "INT", "--d": "INT", "--rows": "INT",
                "--model-seed": "INT", "--p": "GRID", "--theta": "GRID", "--psi": "GRID",
                "--s": "GRID", "--kernel": "TEXT", "--horizon": "INT", "--samples": "INT",
                "--seed": "INT", "--out": "TEXT"}

    GAUSSEXP = ["bound", "--name", "gaussexp", "--d", "2", "--v", "1", "--c", "0"]

    @pytest.mark.parametrize("argv, code, shown", [
        ([], 3, None),
        (["--help"], 0, ["usage", "verify", "replay"]),
        (["verify", "--help"], 0, ["usage", "verify", "--check", "--model-seed"]),
        (["nosuch"], 3, None),
        (["--ch"], 3, None),
        (["verify", "--ch"], 3, None),
        (["verify", "--n"], 3, None),
        (["verify", "--n", "x"], 3, None),
        (["verify", "--check", "poly_efron_stein", "--model", "hypercube_sum", "--n", "x"], 3,
         None),
        (["verify", "--check", "poly_efron_stein", "extra"], 3, None),
        # each of these would run to exit 0 without the error it pins
        (GAUSSEXP + ["--t", "2", "--ch", "1"], 3, None),
        (GAUSSEXP + ["--t"], 3, None),
        (GAUSSEXP + ["--t", "2", "extra"], 3, None),
        (GAUSSEXP + ["--t", "2", "--", "--d", "3"], 3, None),
        (GAUSSEXP + ["--t", "2", "--"], 0, ["\n2.0,"]),
        (GAUSSEXP + ["--t=0:1:0.5"], 0, ["\n0.0,", "\n0.5,", "\n1.0,"]),
        (GAUSSEXP + ["--t", "0:1:0.5", "--t", "2"], 0, ["\n2.0,0.2706705664732254,"]),
    ], ids=["nothing", "help", "verb_help", "unknown_verb", "unknown_option", "unknown_flag",
            "flag_without_value", "bad_int", "bad_int_read", "positional", "bound_unknown_flag",
            "bound_flag_without_value", "bound_positional", "flag_after_double_dash",
            "trailing_double_dash", "flag_equals_value", "last_flag_wins"])
    def test_command_line_surface(self, capsys, argv, code, shown):
        got, out, err = run(argv, capsys)
        assert got == code, err
        if code == 3:
            assert out == "" and json.loads(err)["error"]["type"] == "config"
        else:
            assert err == "" and all(text in out.lower() for text in shown), out
            if argv[:1] == ["bound"]:  # a comment, a header and one row per point
                assert out.count("\n") == 2 + len(shown)

    def test_a_closed_stdout_exits_one_quietly(self):
        # the reader of a long report goes away before it is written
        argv = self.GAUSSEXP + ["--t", "0:100:0.01"]
        script = f"import sys; from matconc import cli; sys.exit(cli.main({argv!r}))"
        with subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=SRC_ENV) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 1 and err == b""


def test_the_package_imports_no_click():
    script = "import sys, matconc.cli; print(sorted(m for m in sys.modules if 'click' in m))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=SRC_ENV, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


# the layers each step has run, read in a fresh interpreter: a layer that is not
# yet run is absent from sys.modules or still of LazyLoader's module type
LAYERS_SCRIPT = """
import json, sys, types

def ran():
    return sorted(name[len("matconc."):] for name, module in sys.modules.items()
                  if name.startswith("matconc.") and type(module) is types.ModuleType)

tmp, seen, codes = sys.argv[1], {}, []
import matconc
seen["import matconc"] = ran()
import matconc.cli as cli
seen["import matconc.cli"] = ran()
for argv in (["fuzz", "--ineq", "pmvti", "--trials", "20", "--seed", "1"],
             ["conjecture", "--trials", "20", "--seed", "1"],
             ["replay", "--case", tmp + "/fuzz.json"]):
    codes.append(cli.main(argv + ["--out", f"{tmp}/{argv[0]}.json"]))
seen["fuzz, conjecture, replay"] = ran()
codes.append(cli.main(["bound", "--name", "gaussexp", "--d", "2", "--v", "1", "--c", "0",
                       "--t", "0:1:0.5", "--out", tmp + "/bound.csv"]))
seen["bound"] = ran()
codes.append(cli.main(["verify", "--check", "poly_efron_stein", "--model", "hypercube_sum",
                       "--n", "3", "--out", tmp + "/verify.json"]))
seen["verify"] = ran()
print(json.dumps({"codes": codes, "ran": seen}))
"""


def test_each_layer_runs_on_first_use(tmp_path):
    proc = subprocess.run([sys.executable, "-c", LAYERS_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=SRC_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["codes"] == [0] * 5
    fuzz_only = ["cli", "matcore", "verify"]
    assert got["ran"] == {
        "import matconc": [],
        "import matconc.cli": fuzz_only,
        "fuzz, conjecture, replay": fuzz_only,
        "bound": ["bounds", *fuzz_only],
        "verify": ["_accel", "bounds", "cli", "matcore", "stein", "verify"],
    }


def test_layers_read_and_import_as_before():
    script = ("import matconc, types; lazy = matconc.stein; "
              "m = matconc.stein.hypercube_sum(3); "
              "from matconc import stein; import matconc.stein as again; "
              "from matconc.stein import hypercube_sum; "
              "assert stein is lazy is again and type(stein) is types.ModuleType; "
              "assert hypercube_sum is stein.hypercube_sum; "
              "print(m.H((1.0, 1.0, -1.0))[0, 0], matconc.verify.stein is stein)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=SRC_ENV, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "1.0 True\n"), proc.stderr


HC2 = ["--model", "hypercube_sum", "--n", "2"]
POLY = ["verify", "--check", "poly_efron_stein"]
TAIL = ["tail", "--samples", "100", "--seed", "1"]


class TestKeyRule:
    """A set key is accepted only if the verb reads it for the chosen model,
    curve, check or fuzz suite; otherwise nothing is computed or written."""

    def refused(self, capsys, tmp_path, argv, config=None):
        argv = [str(tmp_path / "model.json") if a == "MODEL" else a for a in argv]
        (tmp_path / "model.json").write_text(json.dumps(stein.hypercube_sum(2).to_json()))
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "cfg.json")]
        target = tmp_path / "report.out"
        code, out, err = run(argv + ["--out", str(target)], capsys)
        assert code == 3 and out == "" and not target.exists(), err
        error = json.loads(err)["error"]
        assert error["type"] == "config"
        return error["message"]

    @pytest.mark.parametrize("argv, config, unread", [
        # model keys
        (POLY + HC2 + ["--rows", "0", "--model-seed", "5"], None, ["rows", "model_seed"]),
        (POLY + HC2 + ["--model-seed", "5"], None, ["model_seed"]),
        (POLY + ["--model", "compound_covariance", "--n", "2", "--d", "7"], None, ["d"]),
        (POLY + ["--model", "rect_demo", "--n", "2", "--d", "7"], None, ["d"]),
        (POLY + ["--model", "bounded_diff", "--n", "2", "--rows", "3"], None, ["rows"]),
        (TAIL + ["--model", "rect_demo", "--n", "3", "--d", "9"], None, ["d"]),
        (TAIL + HC2 + ["--rows", "2"], None, ["rows"]),
        (POLY + ["--model-file", "MODEL", "--n", "3"], None, ["n"]),
        (POLY + ["--model-file", "MODEL", "--model", "hypercube_sum"], None, ["model"]),
        (TAIL + ["--model-file", "MODEL", "--d", "2"], None, ["d"]),
        # curve keys
        (["bound", "--name", "bounded_diff", "--d", "2", "--sigma2", "4", "--v", "3"], None,
         ["v"]),
        (["bound", "--name", "gaussexp", "--d", "2", "--v", "1", "--c", "0"], {"B": "I"},
         ["B"]),
        (["bound", "--name", "compound_cov", "--d", "2"], {"p": 2, "n": 3}, ["d"]),
        (TAIL + HC2 + ["--sigma2", "4"], None, ["sigma2"]),
        (TAIL + HC2 + ["--bound", "gaussexp", "--d", "2", "--v", "1", "--c", "0",
                       "--sigma2", "4"], None, ["sigma2"]),
        (TAIL + HC2, {"L": 1.0}, ["L"]),
        # check keys
        (["verify", "--check", "kernel_identities"] + HC2 + ["--p", "2"], None, ["p"]),
        (POLY + HC2 + ["--kernel", "exact"], None, ["kernel"]),
        (["verify", "--check", "kernel_poly_moments"] + HC2 + ["--seed", "1"], None, ["seed"]),
    ])
    def test_unread_key_is_config_error(self, capsys, tmp_path, argv, config, unread):
        assert str(unread) in self.refused(capsys, tmp_path, argv, config)

    @pytest.mark.parametrize("argv, config", [
        (["verify"], {"check": "poly_efron_stein", "model": "hypercube_sum", "n": 3.7,
                      "p": [1.9]}),
        (POLY + HC2, {"p": [1.9]}),
        (POLY + HC2, {"p": 2.5}),
        (POLY + ["--model", "hypercube_sum"], {"n": True}),
        (POLY + ["--model", "random_finite", "--n", "2"], {"model_seed": 0.5}),
        (["fuzz", "--ineq", "pmvti", "--seed", "1"], {"trials": 2.5}),
        (["fuzz", "--ineq", "pmvti", "--trials", "5", "--seed", "1"], {"d": [1.5]}),
        (["fuzz", "--ineq", "matrix_entropy_young", "--trials", "5", "--seed", "1"],
         {"ensemble_size": 2.5}),
        (["couple", "--n", "2", "--seed", "1"], {"runs": 10.5}),
        (["bound", "--name", "bounded_diff", "--sigma2", "1"], {"d": 2.5}),
        (TAIL[:3] + HC2, {"seed": 1.5}),
        (["tail", "--seed", "1"] + HC2, {"samples": False}),
    ])
    def test_non_integral_number_is_config_error(self, capsys, tmp_path, argv, config):
        assert "is not an integer" in self.refused(capsys, tmp_path, argv, config)

    def test_integral_float_reads_as_the_int(self, capsys, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"n": 3.0, "p": [1.0, 2.0]}))
        argv = POLY + ["--model", "hypercube_sum"]
        code, out, _ = run(argv + ["--config", str(tmp_path / "cfg.json")], capsys)
        assert code == 0
        assert run(argv + ["--n", "3", "--p", "1,2"], capsys) == (0, out, "")

    @pytest.mark.parametrize("argv, config", [
        (["bound"], {"name": "bounded_diff", "d": 2, "sigma2": True}),
        (["bound"], {"name": "gaussexp", "d": 2, "v": 1, "c": False}),
        (["verify", "--check", "exp_efron_stein"] + HC2, {"theta": [True]}),
        (["fuzz", "--ineq", "young_commuting", "--trials", "5", "--seed", "1"], {"p": True}),
        (TAIL + HC2, {"alpha": True}),
    ])
    def test_bool_is_not_a_float(self, capsys, tmp_path, argv, config):
        assert re.search(r"need a finite \w+.*, got (True|False)$",
                         self.refused(capsys, tmp_path, argv, config))

    @pytest.mark.parametrize("config, model", [
        ({"model": "hypercube_sum", "n": 2, "d": 1}, "hypercube_sum(n=2,d=1)"),
        ({"model": "bounded_diff", "n": 2, "d": 1}, "bounded_diff_demo(n=2,d=1)"),
        ({"model": "compound_covariance", "rows": 3, "n": 2},
         "compound_covariance(p=3,n=2,pm1)"),
        ({"model": "rect_demo", "n": 2}, "dilated(rect_demo(n=2))"),
        ({"model": "random_finite", "n": 2, "d": 2, "model_seed": 3},
         "random_finite(n=2,d=2,seed=3)"),
        ({"model_file": "MODEL"}, "hypercube_sum(n=2,d=2)"),
    ])
    def test_each_model_reads_all_its_keys(self, capsys, tmp_path, config, model):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(stein.hypercube_sum(2).to_json()))
        config = {k: str(path) if v == "MODEL" else v for k, v in config.items()}
        (tmp_path / "cfg.json").write_text(json.dumps(dict(config, p="1")))
        code, out, err = run(POLY + ["--config", str(tmp_path / "cfg.json")], capsys)
        assert code == 0, err
        assert json.loads(out)["model"] == model

    @pytest.mark.parametrize("config", [
        {"name": "gaussexp", "d": 2, "v": 1.0, "c": 0.5},
        {"name": "self_bounded", "d": 2, "v": 1.0, "c": 0.5},
        {"name": "bounded_diff", "d": 2, "sigma2": 1.0},
        {"name": "dobrushin", "d": 2, "sigma2": 1.0, "D": [[0.0, 0.1], [0.2, 0.0]]},
        {"name": "compound_cov", "p": 2, "n": 2, "sigma2": 0.5, "L": 1.5,
         "B": [[1.0, 0.0], [0.0, 2.0]]},
        {"name": "haar", "R": 1.0, "S": 1.0, "tv_seq": [0.25, 0.125], "d": 2},
    ])
    def test_each_curve_reads_all_its_keys(self, capsys, tmp_path, config):
        (tmp_path / "cfg.json").write_text(json.dumps(dict(config, t="1,2")))
        code, out, err = run(["bound", "--config", str(tmp_path / "cfg.json")], capsys)
        assert code == 0, err
        assert out.startswith(f"# bound={config['name']}")

    def test_tail_shares_d_and_n_between_model_and_curve(self, capsys, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"name": "compound_cov", "p": 2}))
        code, out, err = run(["tail", "--model", "hypercube_sum", "--n", "2", "--d", "2",
                              "--samples", "100", "--seed", "1", "--t", "1",
                              "--config", str(tmp_path / "cfg.json")], capsys)
        assert code in (0, 2), err
        assert json.loads(out)["bound"] == "compound_cov"

    def test_unread_keys_are_named_in_flag_order(self, capsys, tmp_path):
        message = self.refused(capsys, tmp_path, TAIL + HC2 + ["--sigma2", "4", "--rows", "2"],
                               {"D": [[0.0]], "c": 1.0})
        assert "['rows', 'c', 'sigma2', 'D']" in message


# verb -> (its flags, the same keys in a config file): one value per reader,
# where MODEL and CASE stand for a model file and a replay case
ALIKE = {
    "bound": (["bound", "--name", "gaussexp", "--d", "2", "--v", "1", "--c", "0.5", "--t",
               "0:1:0.5"], {"name": "gaussexp", "d": 2, "v": 1, "c": 0.5, "t": [0, 0.5, 1]}),
    "verify_kernel": (["verify", "--check", "kernel_poly_moments", "--model", "hypercube_sum",
                       "--n", "2", "--p", "1:2", "--s", "0.5,2"],
                      {"check": "kernel_poly_moments", "model": "hypercube_sum", "n": 2,
                       "p": [1, 2], "s": [0.5, 2]}),
    "verify_exp": (["verify", "--check", "exp_efron_stein", "--model-file", "MODEL",
                    "--theta", "-0.25,0.25", "--psi", "1:4:3"],
                   {"check": "exp_efron_stein", "model_file": "MODEL", "theta": [-0.25, 0.25],
                    "psi": [1, 4]}),
    "fuzz": (["fuzz", "--ineq", "pmvti", "--trials", "20", "--seed", "3", "--d", "1:3",
              "--q", "2", "--s", "0.5,2", "--jobs", "2"],
             {"ineq": "pmvti", "trials": 20, "seed": 3, "d": [1, 2, 3], "q": 2,
              "s": [0.5, 2], "jobs": 2}),
    "fuzz_young": (["fuzz", "--ineq", "young_commuting", "--trials", "20", "--seed", "3",
                    "--d", "2", "--p", "3"],
                   {"ineq": "young_commuting", "trials": 20, "seed": 3, "d": 2, "p": 3}),
    "conjecture": (["conjecture", "--trials", "20", "--seed", "3", "--d", "1:2", "--q", "1,2",
                    "--s", "0.5:1:0.5"],
                   {"trials": 20, "seed": 3, "d": [1, 2], "q": [1, 2], "s": [0.5, 1]}),
    "couple": (["couple", "--n", "2", "--runs", "50", "--seed", "3", "--max-steps", "1000",
                "--pathwise-runs", "5"],
               {"n": 2, "runs": 50, "seed": 3, "max_steps": 1000, "pathwise_runs": 5}),
    "tail": (["tail", "--model", "hypercube_sum", "--n", "2", "--d", "1", "--bound",
              "bounded_diff", "--sigma2", "4", "--samples", "200", "--seed", "1", "--t",
              "0:2:0.5", "--alpha", "0.05", "--statistic", "lmax"],
             {"model": "hypercube_sum", "n": 2, "d": 1, "name": "bounded_diff", "sigma2": 4,
              "samples": 200, "seed": 1, "t": [0, 0.5, 1, 1.5, 2], "alpha": 0.05,
              "statistic": "lmax"}),
    "replay": (["replay", "--case", "CASE"], {"case": "CASE"}),
}

# defects of reading a key two ways: argv, a config file's keys (or None), and
# what the message must name; LATIN1 and DEEP stand for files that are not
# UTF-8 and that nest too deep
GAUSSEXP = TestConfigPlumbing.GAUSSEXP
MISREAD = {
    "comma_t": (GAUSSEXP + ["--t", ","], None, "t grid"),
    "empty_t": (GAUSSEXP + ["--t", ""], None, "t grid"),
    "empty_p": (POLY + HC2 + ["--p", ""], None, "p grid"),
    "empty_s": (["fuzz", "--ineq", "emvti", "--trials", "3", "--seed", "1", "--s", ""], None,
                "s grid"),
    "empty_kernel": (["verify", "--check", "kernel_poly_moments", "--kernel", ""] + HC2, None,
                     "kernel"),
    "empty_statistic": (TAIL + HC2 + ["--statistic", ""], None, "statistic"),
    "empty_out": (GAUSSEXP + ["--t", "1", "--out", ""], None, "out"),
    "empty_config": (GAUSSEXP + ["--t", "1", "--config", ""], None, "config"),
    "number_out": (GAUSSEXP + ["--t", "1"], {"out": 5}, "out"),
    "list_name": (["bound"], {"name": ["gaussexp"], "d": 2, "v": 1, "c": 0}, "name"),
    "number_model_file": (POLY, {"model_file": 2}, "model_file"),
    "number_case": (["replay"], {"case": 0}, "case"),
    "unset_n": (["couple", "--runs", "10", "--seed", "1"], None, "n is required"),
    "unset_runs": (["couple", "--n", "2", "--seed", "1"], None, "runs is required"),
    "unset_fuzz_trials": (["fuzz", "--ineq", "pmvti", "--seed", "1"], None,
                          "trials is required"),
    "unset_conjecture_trials": (["conjecture", "--seed", "1"], None, "trials is required"),
    "unset_samples": (["tail", "--seed", "1"] + HC2, None, "samples is required"),
    "latin1_config": (["bound", "--config", "LATIN1"], None, "LATIN1"),
    "latin1_model_file": (POLY + ["--model-file", "LATIN1"], None, "LATIN1"),
    "latin1_case": (["replay", "--case", "LATIN1"], None, "LATIN1"),
    "deep_config": (["bound", "--config", "DEEP"], None, "DEEP"),
}


class TestOneReaderPerKey:
    """A flag's text and a config file's value are read by the one reader the
    verb's table gives the key."""

    @staticmethod
    def files(tmp_path) -> dict:
        """The stand-in names of ALIKE and MISREAD, as paths of files they name."""
        paths = {name: str(tmp_path / f"{name.lower()}.json")
                 for name in ("MODEL", "CASE", "LATIN1", "DEEP")}
        Path(paths["MODEL"]).write_text(json.dumps(stein.hypercube_sum(2).to_json()))
        Path(paths["CASE"]).write_text(json.dumps(_PMVTI))
        Path(paths["LATIN1"]).write_bytes(b'{"t": "caf\xe9"}')
        Path(paths["DEEP"]).write_text("[" * 100_000 + "]" * 100_000)
        return paths

    @pytest.mark.parametrize("case", sorted(ALIKE))
    def test_a_flag_and_a_config_key_are_read_alike(self, capsys, tmp_path, case):
        paths = self.files(tmp_path)
        argv, config = ALIKE[case]
        argv = [paths.get(a, a) for a in argv]
        config = {k: paths.get(v, v) if isinstance(v, str) else v for k, v in config.items()}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        from_flags = run(argv, capsys)
        assert from_flags[0] == 0 and from_flags[1], from_flags[2]
        assert run([argv[0], "--config", str(tmp_path / "cfg.json")], capsys) == from_flags

    @pytest.mark.parametrize("case", sorted(MISREAD))
    def test_a_key_read_two_ways_is_one_config_error(self, tmp_path, case):
        # a subprocess, so that a closed stderr or a read of stdin shows
        paths = self.files(tmp_path)
        argv, config, named = MISREAD[case]
        argv = [paths.get(a, a) for a in argv]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "cfg.json")]
        proc = subprocess.run([sys.executable, "-m", "matconc.cli", *argv], cwd=tmp_path,
                              input=json.dumps(_PMVTI), capture_output=True, text=True,
                              env=SRC_ENV, timeout=120)
        assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
        error = json.loads(proc.stderr)["error"]
        assert error["type"] == "config" and paths.get(named, named) in error["message"]


def readme_commands() -> list:
    """The matconc lines of README's "Command line" block, as argv lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("matconc ")]


class _Reached(Exception):
    """Raised by a stub in place of a verb's heavy work."""


def test_readme_commands_pass_the_key_rule(capsys, monkeypatch, tmp_path):
    # each documented command parses, passes the key rule and reaches the work
    # of its verb, which a stub stands in for
    def reached(*args, **kwargs):
        raise _Reached

    for owner, name in [(verify, "verify_poly_efron_stein"), (verify, "verify_exp_efron_stein"),
                        (verify, "verify_kernel_poly_moments"), (stein, "EstimatedKernel"),
                        (verify, "verify_kernel_identities"), (verify, "fuzz_pmvti"),
                        (verify, "fuzz_emvti"), (verify, "explore_conjecture"),
                        (stein, "sample_coupling_times"),
                        (verify, "empirical_tail"), (verify, "replay_case")]:
        monkeypatch.setattr(owner, name, reached)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "report.json").write_text(json.dumps({"worst_case": {"ineq": "emvti"}}))
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(CONFIG_KEYS)
    for argv in commands:
        code, _, err = run(argv, capsys)
        assert code != 3, (argv, err)
        assert code == 0 or "_Reached" in json.loads(err)["error"]["message"], (argv, err)


class TestConjectureVerb:
    def test_completion_beats_outcome(self, capsys):
        # the sweep finds the polynomial-form failure yet still exits 0
        code, out, _ = run(["conjecture", "--trials", "150", "--seed", "1",
                            "--d", "1", "--q", "2", "--s", "1"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is False
        assert report["sections"]["exp"]["pass"] is True
        assert report["sections"]["poly"]["pass"] is False

    def test_deterministic(self, capsys, tmp_path):
        argv = ["conjecture", "--trials", "60", "--seed", "9", "--d", "1:2"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(argv + ["--out", str(a)], capsys)[0] == 0
        assert run(argv + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestCoupleVerb:
    def test_matches_expected_mean(self, capsys):
        code, out, _ = run(["couple", "--n", "2", "--runs", "600",
                            "--seed", "3", "--pathwise-runs", "40"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["expected"] == 3.0
        assert report["deviation_sigmas"] <= 3.0
        assert report["pathwise_ok"] is True

    def test_run_floor(self, capsys):
        assert run(["couple", "--n", "2", "--runs", "1", "--seed", "0"],
                   capsys)[0] == 3

    def test_single_coordinate_couples_at_once(self, capsys):
        # n = 1: every run couples at step 1, so se = 0 and the mean is exact
        code, out, _ = run(["couple", "--n", "1", "--runs", "50", "--seed", "3",
                            "--pathwise-runs", "5"], capsys)
        assert code == 0
        report = json.loads(out)
        assert (report["mean"], report["expected"], report["std_error"]) == (1.0, 1.0, 0.0)
        assert report["deviation_sigmas"] == 0.0 and report["pass"] is True

    def test_deterministic(self, capsys, tmp_path):
        argv = ["couple", "--n", "3", "--runs", "300", "--seed", "5",
                "--pathwise-runs", "10"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(argv + ["--out", str(a)], capsys)[0] == 0
        assert run(argv + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_library_statistics_at_one_coordinate(self):
        # n = 1 from the library: the standard error is 0 and the deviation 0
        report = verify.coupling_statistics(1, 50, 3, 1_000_000, 5)
        assert (report["mean"], report["expected"], report["std_error"]) == (1.0, 1.0, 0.0)
        assert report["deviation_sigmas"] == 0.0 and report["pass"] is True

    def test_an_exhausted_pathwise_run_writes_no_report(self, capsys, tmp_path):
        # every sampled run couples within 3 steps, but a pathwise run does not
        assert np.all(stein.sample_coupling_times(2, 2, 4, max_steps=3) >= 0)
        with pytest.raises(verify.VerificationFailure,
                           match="^pathwise run exhausted max_steps$"):
            verify.coupling_statistics(2, 2, 4, 3, 20)
        out = tmp_path / "report.json"
        code, stdout, err = run(["couple", "--n", "2", "--runs", "2", "--seed", "4",
                                 "--max-steps", "3", "--pathwise-runs", "20", "--out",
                                 str(out)], capsys)
        assert (code, stdout, json.loads(err)) == (2, "", {"error": {
            "type": "verification", "message": "pathwise run exhausted max_steps"}})
        assert not out.exists()


BUILTIN_MODELS = {  # each built-in model at n = 3, with the CLI's defaults
    "hypercube_sum": lambda: stein.hypercube_sum(3, 2),
    "bounded_diff": lambda: stein.bounded_diff_demo(3, 2),
    "compound_covariance": lambda: stein.compound_covariance(2, 3),
    "rect_demo": lambda: stein.dilate_model(stein.rect_demo(3)),
    "random_finite": lambda: stein.random_finite_model(3, 2, 0),
}


@pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
def test_library_kernel_identities_are_the_verbs_bytes(capsys, tmp_path, name):
    verb, library = tmp_path / "verb.json", tmp_path / "library.json"
    code, _, err = run(["verify", "--check", "kernel_identities", "--model", name, "--n", "3",
                        "--out", str(verb)], capsys)
    assert code == 0, err
    cli._emit_json(verify.verify_kernel_identities(BUILTIN_MODELS[name]()), str(library))
    assert library.read_bytes() == verb.read_bytes()


class TestCheckTables:
    """verify.CHECKS and verify.FUZZ_SUITES name every check the verify and
    fuzz verbs run, with the keys each reads."""

    MODEL_KEYS = {"model", "model_file", "n", "d", "rows", "model_seed"}

    def test_the_tables_name_every_check_and_suite(self):
        assert sorted(verify.CHECKS) == ["exp_efron_stein", "kernel_identities",
                                         "kernel_poly_moments", "poly_efron_stein"]
        assert sorted(verify.FUZZ_SUITES) == ["emvti", "matrix_entropy_young", "operator_cs",
                                              "pmvti", "young_commuting"]

    @staticmethod
    def flags(verb: str) -> set:
        """The config keys of the flags of ``verb``."""
        return set(cli._VERBS[verb][1])

    def test_every_key_a_row_reads_is_a_flag_of_its_verb(self):
        for keys, *_ in verify.CHECKS.values():
            assert set(keys) <= self.flags("verify")
        for keys, *_ in verify.FUZZ_SUITES.values():
            assert set(keys) <= self.flags("fuzz")

    def test_every_flag_of_a_check_or_suite_is_read_by_a_row(self):
        read = {key for keys, *_ in verify.CHECKS.values() for key in keys}
        assert self.flags("verify") - {"check", "out"} - self.MODEL_KEYS == read
        read = {key for keys, *_ in verify.FUZZ_SUITES.values() for key in keys}
        assert self.flags("fuzz") - {"ineq", "trials", "seed", "jobs", "out"} == read

    @pytest.mark.parametrize("check", sorted(verify.CHECKS))
    def test_every_check_passes_on_the_cube(self, capsys, check):
        code, out, err = run(["verify", "--check", check, "--model", "hypercube_sum",
                              "--n", "3"], capsys)
        assert code == 0, err
        assert json.loads(out)["check"] == check


class TestTailVerb:
    def test_dominated(self, capsys):
        code, out, _ = run(["tail", "--model", "hypercube_sum", "--n", "3",
                            "--d", "1", "--bound", "bounded_diff",
                            "--sigma2", "3.0", "--samples", "400",
                            "--seed", "2", "--t", "0:4:1"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["violations"] == []
        assert "dominated" not in report

    def test_violation_exits_two(self, capsys):
        code, _, err = run(["tail", "--model", "hypercube_sum", "--n", "3",
                            "--d", "1", "--bound", "bounded_diff",
                            "--sigma2", "0.0001", "--samples", "400",
                            "--seed", "2", "--t", "0.5,1.5"], capsys)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "verification"

    def test_runs_without_bound(self, capsys):
        code, out, _ = run(["tail", "--model", "hypercube_sum", "--n", "2",
                            "--d", "1", "--samples", "200", "--seed", "1",
                            "--t", "0:3:1"], capsys)
        assert code == 0
        assert "bound" not in json.loads(out)

    def test_sample_floor(self, capsys):
        assert run(["tail", "--model", "hypercube_sum", "--n", "2",
                    "--samples", "10", "--seed", "1"], capsys)[0] == 3


def _layout(m):
    return HermitianMatrix(np.array(m, dtype=float)).to_json()


_A = _layout([[1.0, 0.5], [0.5, 2.0]])
_PMVTI = {"ineq": "pmvti", "q": 2, "s": 1.0, "A": _A, "B": _A, "C": _A}
# a case file that each read of replay_case refuses
MALFORMED_CASES = {
    "real_of_the_wrong_length": {**_PMVTI, "A": {**_A, "real": _A["real"][:-1]}},
    "string_entry": {**_PMVTI, "B": {**_A, "real": ["x", *_A["real"][1:]]}},
    "missing_imag": {**_PMVTI, "C": {k: v for k, v in _A.items() if k != "imag"}},
    "missing_q": {k: v for k, v in _PMVTI.items() if k != "q"},
    "U_W_not_lists": {"ineq": "matrix_entropy_young", "U": _A, "W": _A},
    "A_B_of_different_dimensions": {**_PMVTI, "B": _layout(np.eye(3))},
}


class TestReplayVerb:
    def test_replays_fuzz_artifact(self, capsys, tmp_path):
        art = tmp_path / "fuzz.json"
        code, _, _ = run(["fuzz", "--ineq", "pmvti", "--trials", "20",
                          "--seed", "6", "--d", "1:2", "--q", "2",
                          "--s", "1", "--out", str(art)], capsys)
        assert code == 0
        stored = json.loads(art.read_text())["worst_case"]
        code, out, _ = run(["replay", "--case", str(art)], capsys)
        assert code == 0
        assert json.loads(out)["slack"] == stored["slack"]

    def test_conjecture_counterexample_is_advisory(self, capsys, tmp_path):
        case = {
            "ineq": "conjecture_poly", "q": 2, "s": 1.0,
            "A": HermitianMatrix(np.array([[0.0]])).to_json(),
            "B": HermitianMatrix(np.array([[-2.0]])).to_json(),
            "C": HermitianMatrix(np.array([[-1.0]])).to_json(),
        }
        path = tmp_path / "case.json"
        path.write_text(json.dumps(case))
        code, out, _ = run(["replay", "--case", str(path)], capsys)
        assert code == 0  # negative slack, but conjecture replays never gate
        assert json.loads(out)["slack"] < 0

    def test_missing_case_flag(self, capsys):
        assert run(["replay"], capsys)[0] == 3

    def test_file_without_case(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert run(["replay", "--case", str(path)], capsys)[0] == 3

    @pytest.mark.parametrize("payload", [[1, 2], "x", {"worst_case": [1, 2]}])
    def test_a_case_that_is_not_an_object_is_config_error(self, capsys, tmp_path, payload):
        path = tmp_path / "case.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(["replay", "--case", str(path)], capsys)
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "config" and "JSON object" in error["message"]

    @pytest.mark.parametrize("name", sorted(MALFORMED_CASES))
    def test_malformed_case_is_config_error(self, capsys, tmp_path, name):
        path, out_file = tmp_path / "case.json", tmp_path / "old.out"
        path.write_text(json.dumps(MALFORMED_CASES[name]))
        out_file.write_bytes(b"old report")
        code, out, err = run(["replay", "--case", str(path), "--out", str(out_file)], capsys)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["type"] == "config"
        assert out_file.read_bytes() == b"old report"


# the verbs and arguments of test_10 in test_acceptance.py
OUT_CASES = {
    "bound": ["bound", "--name", "gaussexp", "--d", "2", "--v", "1", "--c", "0.5",
              "--t", "0:4:0.5"],
    "verify": ["verify", "--check", "poly_efron_stein", "--model", "hypercube_sum", "--n", "3"],
    "fuzz": ["fuzz", "--ineq", "pmvti", "--trials", "60", "--seed", "17", "--d", "1:3",
             "--q", "1:4", "--s", "0.5,2", "--jobs", "2"],
    "conjecture": ["conjecture", "--trials", "80", "--seed", "17", "--d", "1:3"],
    "couple": ["couple", "--n", "3", "--runs", "400", "--seed", "17", "--pathwise-runs", "20"],
    "tail": ["tail", "--model", "hypercube_sum", "--n", "3", "--d", "2", "--bound",
             "bounded_diff", "--sigma2", "9", "--samples", "500", "--seed", "17",
             "--t", "0:4:1"],
}


class TestOutFile:
    """--out is rewritten in place and trimmed, so whatever the file held
    before, it ends up holding exactly the bytes stdout would carry."""

    @pytest.mark.parametrize("verb", [*OUT_CASES, "replay"])
    def test_report_over_an_old_file_is_the_fresh_report(self, capsys, tmp_path, verb):
        argv = OUT_CASES.get(verb)
        if argv is None:
            case = tmp_path / "case.json"
            assert cli.main(OUT_CASES["fuzz"] + ["--out", str(case)]) == 0
            argv = ["replay", "--case", str(case)]
        fresh = tmp_path / "fresh.out"
        code, stdout, _ = run(argv, capsys)
        assert code == 0
        assert run(argv + ["--out", str(fresh)], capsys) == (0, "", "")
        want = fresh.read_bytes()
        assert want == stdout.encode()
        for old in (b"\xff" * (len(want) + 1000), b"\xff" * (len(want) // 2)):
            target = tmp_path / "old.out"
            target.write_bytes(old)
            assert run(argv + ["--out", str(target)], capsys) == (0, "", "")
            assert target.read_bytes() == want

    def test_dev_null_is_written_and_not_trimmed(self, capsys):
        assert run(OUT_CASES["bound"] + ["--out", os.devnull], capsys) == (0, "", "")

    def test_the_writer_never_opens_with_truncation(self, capsys, tmp_path, monkeypatch):
        target = str(tmp_path / "curve.csv")
        flags = []
        real_open = os.open

        def spy(path, flag, *args, **kwargs):
            if path == target:
                flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        assert run(OUT_CASES["bound"] + ["--out", target], capsys) == (0, "", "")
        assert len(flags) == 1 and not flags[0] & os.O_TRUNC


def perfbench_module(name: str):
    """perfbench/<name>.py, loaded by path: the benchmark is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_tracer_binds_every_name():
    # the traced benchmark wraps package names found by getattr, so deleting or
    # renaming one of them fails here, not only in a traced benchmark run
    tracer = perfbench_module("tracer")
    originals = (cli.main, verify.variance_domination, verify.stein.variance_proxy_map)
    t = tracer.Tracer()
    try:
        tracer.install(t)
        assert verify.stein.variance_proxy_map is not originals[2]
    finally:
        t.uninstall()
    assert (cli.main, verify.variance_domination, verify.stein.variance_proxy_map) == originals


def exact_layer_outputs() -> str:
    """The exact kernel's identities and checks on hypercube_sum(3), and the
    moment check of an estimated kernel, as one JSON string."""
    m = stein.hypercube_sum(3)
    k = stein.ExactKernel(m)
    ident = stein.check_stein_identity(m, k)
    est = stein.EstimatedKernel(m, horizon=8, samples=100, seed=3)
    return json.dumps({
        "stein": [ident.residual, ident.radius],
        "centering": stein.kernel_mean_norm(m, k),
        "pairs": [stein.exchangeable_pairs_identity(m, k, f)
                  for f in (lambda x: np.eye(m.d), lambda x: x, lambda x: x @ x @ x)],
        "kernel_poly": verify.verify_kernel_poly_moments(m, k, [1, 2], verify.DEFAULT_S_GRID),
        "var_dom": verify.variance_domination(m, k),
        "estimated": verify.verify_kernel_poly_moments(m, est, [1, 2], verify.DEFAULT_S_GRID),
    }, sort_keys=True)


def test_readme_names_resolve():
    # every module-qualified name the README cites is still in its module, so
    # deleting or renaming one fails here, not only for a reader of the README
    modules = {"stein": stein, "verify": verify, "matcore": matcore, "bounds": bounds,
               "cli": cli}
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cited = set(re.findall(r"\b(stein|verify|matcore|bounds|cli)((?:\.[A-Za-z_]\w*)+)", text))
    assert len(cited) >= 20

    def resolves(module, path):
        obj = modules[module]
        for name in path.split(".")[1:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True

    assert sorted(m + p for m, p in cited if not resolves(m, p)) == []


SRC = Path(__file__).resolve().parents[1] / "src" / "matconc"
PERFBENCH_ONLY = "perfbench binds it; leaves with a benchmark change"
ITEM_3 = "ROADMAP item 3 wires it into a check or deletes it"
# definitions that no verb and no acceptance test reaches; this list only shrinks
UNREACHED_ALLOWED = {
    "_accel.backend": PERFBENCH_ONLY,
    "bounds.rectangularize": PERFBENCH_ONLY,
    "matcore.SuperOperator.apply": PERFBENCH_ONLY,
    "matcore.SuperOperator.compose": PERFBENCH_ONLY,
    "matcore.compose": PERFBENCH_ONLY,
    "matcore.left_mult_op": PERFBENCH_ONLY,
    "matcore.right_mult_op": PERFBENCH_ONLY,
    "matcore.superop_function": PERFBENCH_ONLY,
    "matcore.superop_abs": PERFBENCH_ONLY,
    "matcore.matrix_function": PERFBENCH_ONLY,
    "matcore.schatten_norm": PERFBENCH_ONLY,
    "matcore.psd_leq": PERFBENCH_ONLY,
    "stein.ExchangeablePair": PERFBENCH_ONLY,
    "stein.ExchangeablePair.joint_pmf": PERFBENCH_ONLY,
    "stein.ProductDistribution.outcomes": PERFBENCH_ONLY,
    "stein.KernelEstimate": PERFBENCH_ONLY,
    "stein.estimate_kernel": PERFBENCH_ONLY,
    "stein.variance_proxy": PERFBENCH_ONLY,
    "stein.conditional_variances": PERFBENCH_ONLY,
    "verify.variance_domination": PERFBENCH_ONLY,
    "stein.r_psi": ITEM_3,
    "stein.coupling_premise_bound": ITEM_3,
}


def unreached_definitions() -> set:
    """Every function, class and method of src/ that no root reaches by name.

    The roots are cli.main, module-level code (which names every verb, and
    in verify's tables every check and fuzz suite), and every name
    tests/test_acceptance.py calls.  A reached definition reaches every
    definition of each name its code mentions, and a class its own dunder
    methods.  Names, not types, are followed, so the walk can only
    under-count what is unreached.
    """
    defs = {}  # "module.qualified.name" -> (its simple name, the names it mentions)
    roots = {"main"}

    def names(nodes) -> set:
        return {n.id if isinstance(n, ast.Name) else n.attr for node in nodes
                for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}

    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            qual = f"{path.stem}.{getattr(node, 'name', '')}"
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
                rest = [m for m in node.body if not isinstance(m, ast.FunctionDef)]
                defs[qual] = (node.name, names(rest + node.bases + node.decorator_list)
                              | {m.name for m in methods if m.name.startswith("__")})
                defs.update({f"{qual}.{m.name}": (m.name, names([m])) for m in methods})
            elif isinstance(node, ast.FunctionDef):
                defs[qual] = (node.name, names([node]))
            else:
                roots |= names([node])  # runs at import, such as cli's table of verbs
    acceptance = ast.parse((SRC.parents[1] / "tests" / "test_acceptance.py").read_text())
    roots |= {n.func.id if isinstance(n.func, ast.Name) else n.func.attr
              for n in ast.walk(acceptance)
              if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute))}
    by_name = {}
    for qual, (name, _) in defs.items():
        by_name.setdefault(name, []).append(qual)
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += [ref for qual in by_name.get(name, ()) for ref in defs[qual][1]]
    return {qual for qual, (name, _) in defs.items() if name not in seen}


def test_every_definition_is_reached_or_allowed():
    # a dead helper fails here; an allowed name that a root now reaches, or
    # that is gone, fails too, so the allowlist cannot go stale
    assert sorted(unreached_definitions()) == sorted(UNREACHED_ALLOWED)


def test_source_parses_as_python_3_10():
    # the package declares requires-python >= 3.10
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_perfbench_traced_pass_keeps_every_output():
    # a traced job records spans through every exact layer and changes no output
    tracer = perfbench_module("tracer")
    want = exact_layer_outputs()
    originals = (stein.ExactKernel.__init__, verify.verify_kernel_poly_moments,
                 np.linalg.eigvalsh)
    t = tracer.Tracer()
    try:
        tracer.install(t)
        with t.job_span("exact_layer"):
            got = exact_layer_outputs()
    finally:
        t.uninstall()
    assert got == want
    assert (stein.ExactKernel.__init__, verify.verify_kernel_poly_moments,
            np.linalg.eigvalsh) == originals
    names = {rec[0] for rec in t.spans}
    assert {"bench.job", "stein.exact_kernel", "stein.estimated_kernel", "stein.identities",
            "stein.conditional_variances", "verify.exact.kernel_poly",
            "verify.exact.var_dom", "lapack.eig"} <= names
    assert all(rec[4] == "exact_layer" and rec[1] <= rec[2] for rec in t.spans)


def test_perfbench_checks_catch_wrong_outputs():
    # every benchmark output check accepts a right answer and rejects a wrong one
    assert perfbench_module("checks").selftest() == []


def plain(obj):
    """Recursive coercion of numpy values to Python ones: the oracle of the
    json default hook that reports are emitted through."""
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [plain(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def test_emitted_json_equals_the_recursive_coercion(tmp_path):
    report = {
        "f64": np.float64(0.1), "f32": np.float32(0.1), "i64": np.int64(-7),
        "i32": np.int32(3), "yes": np.bool_(True), "no": np.bool_(False),
        "grid": np.arange(6.0).reshape(2, 3) / 7, "ints": np.arange(3),
        "flags": np.array([True, False]),
        "nested": [np.array([[math.nan, math.inf], [-math.inf, -0.0]]),
                   (np.float64(math.nan), np.float32(-math.inf), (np.bool_(True),))],
        "plain": (1, 2.5, None, "s", True, [math.nan, math.inf, -math.inf]),
        "sub": {"z": np.float64(1e300), "a": np.float32(math.inf), "m": np.float64(-0.0)},
        "fuzz": verify.fuzz_pmvti([1, 2], [1, 2], [0.5, 2.0], 20, 3).to_json(),
    }
    out = tmp_path / "report.json"
    cli._emit_json(report, str(out))
    assert out.read_text() == json.dumps(plain(report), sort_keys=True, indent=2) + "\n"


def test_emitted_json_rejects_what_json_cannot_hold(capsys):
    with pytest.raises(TypeError, match="Object of type complex128 is not JSON serializable"):
        cli._emit_json({"z": np.complex128(1j)}, None)
    assert capsys.readouterr().out == ""
