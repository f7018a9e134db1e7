"""Driver verbs end to end: exit codes, report determinism, config plumbing.

Each verb runs in-process through cli.main so exit codes and emitted bytes
can be asserted without spawning interpreters.
"""
import importlib.util
import json
import math
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from matconc import cli, verify
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


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class _Merged(Exception):
    pass


def merged_config(monkeypatch, argv):
    """The config a verb merges from its --config file and flags; the verb
    stops right after the merge."""
    seen = {}
    merge = cli._merge_config

    def spy(*args):
        seen.update(merge(*args))
        raise _Merged

    monkeypatch.setattr(cli, "_merge_config", spy)
    with pytest.raises(_Merged):
        cli.cli.main(args=argv, standalone_mode=False)
    monkeypatch.setattr(cli, "_merge_config", merge)
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

    def test_estimated_kernel_requires_seed(self, capsys):
        code, _, err = run(["verify", "--check", "kernel_poly_moments",
                            "--model", "hypercube_sum", "--n", "2",
                            "--kernel", "estimated"], capsys)
        assert code == 3
        assert "seed" in json.loads(err)["error"]["message"]


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
    ])
    def test_grid_that_checks_nothing_is_config_error(self, capsys, argv):
        # an empty grid, or a dimension below 1: neither a vacuous pass nor a crash
        code, out, err = run(argv + ["--trials", "5", "--seed", "1"], capsys)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["type"] == "config"

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
            params = cli.cli.commands[verb].params
            assert {p.name for p in params} == set(keys) | {"config_path"}, verb
            config_only = cli._CURVE_KEYS if verb in ("bound", "tail") else ()
            for key in (*keys, *config_only):
                cfg.write_text(json.dumps({key: "from-config"}))
                argv = [verb, "--config", str(cfg)]
                assert merged_config(monkeypatch, argv)[key] == "from-config"
                if key in keys:
                    flag = "--bound" if (verb, key) == ("tail", "name") else (
                        "--" + key.replace("_", "-"))
                    # int, float and str flags read "7" as 7, 7.0 and "7"
                    got = merged_config(monkeypatch, argv + [flag, "7"])[key]
                    assert got in (7, "7"), (verb, key, got)

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
        model.write_text(json.dumps({"name": "m", "d": 2}))
        code, _, err = run(["verify", "--check", "poly_efron_stein",
                            "--model-file", str(model)], capsys)
        assert code == 3
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
        assert error["type"] == "config" and re.search(rf"\b{key}\b.* must ", error["message"])

    def test_unknown_flag(self, capsys):
        code, _, err = run(["fuzz", "--ineq", "pmvti", "--trails", "5"], capsys)
        assert code == 3
        assert json.loads(err)["error"]["type"] == "config"

    def test_help_exits_zero(self, capsys):
        assert run(["--help"], capsys)[0] == 0


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


def test_perfbench_tracer_binds_every_name():
    # the traced benchmark wraps package names found by getattr, so deleting or
    # renaming one of them fails here, not only in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    originals = (cli.main, verify.variance_domination, verify.stein.variance_proxy_map)
    t = tracer.Tracer()
    try:
        tracer.install(t)
        assert verify.stein.variance_proxy_map is not originals[2]
    finally:
        t.uninstall()
    assert (cli.main, verify.variance_domination, verify.stein.variance_proxy_map) == originals
