"""CLI: config precedence, artifact formats, exit codes, reproducibility."""

import argparse
import hashlib
import os

import pytest

from groversvm import cli, learn
from groversvm.errors import StructuralError


def write(path, content):
    path.write_text(content, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_file_parsing_with_comments(self, tmp_path):
        path = write(tmp_path / "c.cfg", "# comment\ndomain_size = 64\n\ntrain_size = 8 # tail\n")
        pairs = cli.parse_config_file(path)
        assert pairs == {"domain_size": "64", "train_size": "8"}

    def test_flags_beat_set_beats_file(self, tmp_path):
        path = write(tmp_path / "c.cfg", "trials = 2\nseed = 1\n")
        config = cli.build_config(
            cli.parse_config_file(path), ["trials=5"], {"trials": 9, "seed": None}
        )
        assert config.trials == 9
        assert config.seed == 1

    def test_unknown_key_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.build_config({"bogus": "1"}, [], {})

    def test_bad_value_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.build_config({"trials": "many"}, [], {})

    def test_bad_choice_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.build_config({"learner": "psychic"}, [], {})


# Each integer key of the default config (N = 1024, train_size 16), with an
# integer outside its range; a domain_sizes value is one entry of the sizes.
INTEGER_KEYS = {
    "seed": -1, "domain_size": 1536, "domain_sizes": 4, "train_size": 17 * 64,
    "interval_width": "512", "shots": "0", "budget": "1025", "concept_start": "512",
    "trials": 0, "test_size": 0,
}
AUTO_KEYS = {"interval_width", "shots", "budget", "concept_start"}  # 'auto' or 'random', or text


class TestResolution:
    def base(self, **overrides):
        config = cli.ExperimentConfig(seed=3)
        for key, value in overrides.items():
            setattr(config, key, value)
        return config

    def test_auto_fields(self):
        resolved = cli.resolve_config(self.base(domain_size=1024, train_size=32))
        assert isinstance(resolved, cli.ExperimentConfig)
        assert resolved.interval_width == 64
        assert resolved.shots == 32**4
        assert resolved.budget == 512

    def test_seed_mandatory(self):
        config = cli.ExperimentConfig()
        with pytest.raises(cli.ConfigError):
            cli.resolve_config(config)

    def test_domain_size_validation(self):
        with pytest.raises(cli.ConfigError):
            cli.resolve_config(self.base(domain_size=100))

    def test_faithful_quantum_kernel_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.resolve_config(self.base(learner="quantum_kernel", backend="faithful"))
        assert cli.resolve_config(self.base(learner="preprocessing", backend="faithful"))

    @pytest.mark.parametrize("bound", ["0", "-1", "nan", "inf", "-inf"])
    def test_box_bound_must_be_positive_and_finite(self, bound, capsys):
        code = cli.main(["run", "--seed", "1", "--trials", "1", "--learner", "classical",
                         "--set", "domain_size=16", "--set", "train_size=4",
                         "--set", "test_size=2", "--set", f"box_bound={bound}"])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_INVALID_CONFIG
        assert "box_bound" in err and out == ""

    @pytest.mark.parametrize("shots", [str(2**63), str(2**70)])
    def test_shots_beyond_int64_exit_before_any_work(self, shots, tmp_path, capsys, monkeypatch):
        # The run died with numpy's OverflowError at the first Gram draw.
        monkeypatch.setattr(cli, "generate_dataset", lambda *a, **k: pytest.fail("work began"))
        out_path = tmp_path / "q.rpt"
        code = cli.main(["run", "--seed", "1", "--trials", "1", "--learner", "quantum_kernel",
                         "--set", "domain_size=16", "--set", "train_size=4",
                         "--set", "test_size=2", "--set", f"shots={shots}",
                         "--out", str(out_path)])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_INVALID_CONFIG
        assert f"shots must be an integer in [1, {2**63 - 1}], got {shots}" in err
        assert out == "" and not out_path.exists()

    def test_auto_shots_follow_the_shot_rule(self):
        # R = m^4 leaves numpy's int64 at m = 2**16.
        with pytest.raises(cli.ConfigError, match="shots must be an integer in"):
            cli.resolve_config(self.base(domain_size=2**17, train_size=2**16))
        assert cli.resolve_config(self.base(domain_size=2**17, train_size=2**15)).shots == 2**60

    @pytest.mark.parametrize("bound", [True, "10", None])
    def test_box_bound_must_be_a_real_number(self, bound):
        # A config built in code skips the text parser: True was read as a
        # box bound of 1.0, and "10" and None raised a bare TypeError.
        with pytest.raises(cli.ConfigError, match="box_bound must be a positive finite number"):
            cli.resolve_config(self.base(box_bound=bound))

    def test_explicit_interval_width_validated(self):
        with pytest.raises(cli.ConfigError):
            cli.resolve_config(self.base(domain_size=64, interval_width="32"))

    @pytest.mark.parametrize(
        "key, value, word",
        [("concept_start", "auto", "random"), ("shots", "many", "auto"),
         ("interval_width", "random", "auto"), ("budget", "x", "auto")],
    )
    def test_non_integer_names_the_keys_own_default_word(self, key, value, word):
        with pytest.raises(cli.ConfigError, match=f"{key} must be an integer or '{word}', got"):
            cli.resolve_config(self.base(**{key: value}))

    @pytest.mark.parametrize("key, value", [
        pytest.param(key, value, id=f"{key}-{value!r}")
        for key, out_of_range in INTEGER_KEYS.items()
        for value in (True, "8.5" if key in AUTO_KEYS else 8.5, out_of_range)
    ])
    def test_integer_keys_follow_the_integer_rule(self, key, value):
        # Every integer key is checked by sim._check_int, and its message names the key.
        overrides = {"domain_sizes": (value, 32, 64, 128)} if key == "domain_sizes" else {key: value}
        with pytest.raises(cli.ConfigError) as info:
            cli.resolve_config(self.base(**overrides))
        message = str(info.value)
        assert message.startswith(f"{key} ")
        assert message.rsplit(", got ", 1)[1] in (repr(value), str(value))  # text or parsed


class TestGenData:
    ARGS = ["gen-data", "--seed", "7", "--set", "domain_size=16", "--set",
            "train_size=16", "--set", "concept_start=0"]

    def test_exhaustive_labels_match_rule(self, tmp_path, capsys):
        out = tmp_path / "data.txt"
        assert cli.main(self.ARGS + ["--out", str(out)]) == 0
        capsys.readouterr()
        parsed = cli.read_dataset(str(out))
        assert parsed["problem"] == "indicator"
        rows = {int(idx): lbl for idx, lbl in parsed["rows"]}
        for j in range(16):
            assert rows[j] == ("+1" if j <= 7 else "-1")

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        cli.main(self.ARGS + ["--out", str(a)])
        cli.main(self.ARGS + ["--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_a_shorter_artifact_over_a_longer_file_leaves_only_its_bytes(self, tmp_path, capsys):
        out, fresh = tmp_path / "data.txt", tmp_path / "fresh.txt"
        out.write_bytes(b"x" * 100_000)
        assert cli.main(self.ARGS + ["--out", str(out)]) == 0
        assert cli.main(self.ARGS + ["--out", str(fresh)]) == 0
        assert out.read_bytes() == fresh.read_bytes()
        assert capsys.readouterr().out == 2 * out.read_text(encoding="utf-8")

    def test_the_null_device_takes_an_artifact(self, capsys):
        assert cli.main(self.ARGS + ["--out", os.devnull]) == 0
        assert capsys.readouterr().out.startswith("schema ")

    def test_oversized_train_set_is_invalid_config(self, capsys):
        code = cli.main(
            ["gen-data", "--seed", "1", "--set", "domain_size=16", "--set", "train_size=99"]
        )
        capsys.readouterr()
        assert code == cli.EXIT_INVALID_CONFIG

    def test_pattern_longer_than_the_text_is_invalid(self, tmp_path, capsys):
        out = tmp_path / "texts.txt"
        code = cli.main(
            ["gen-data", "--seed", "5", "--set", "problem=pattern", "--set", "domain_size=16",
             "--set", f"pattern={'1' * 17}", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == cli.EXIT_INVALID_CONFIG
        assert "pattern length must be an integer in [1, 16]" in captured.err
        assert captured.out == "" and not out.exists()

    def test_pattern_dataset(self, tmp_path, capsys):
        out = tmp_path / "texts.txt"
        code = cli.main(
            ["gen-data", "--seed", "5", "--set", "problem=pattern", "--set",
             "domain_size=16", "--set", "train_size=6", "--set", "pattern=101",
             "--set", "concept_start=0", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        parsed = cli.read_dataset(str(out))
        assert parsed["problem"] == "pattern"
        for text, location, label in parsed["rows"]:
            assert set(text) <= {"0", "1"}
            assert label in ("+1", "-1")


RUN_ARGS = [
    "run", "--seed", "3", "--set", "domain_size=64", "--set", "train_size=8",
    "--set", "shots=256", "--set", "test_size=40", "--trials", "3",
]


class TestRun:
    def test_a_report_and_its_csv_over_longer_files_leave_only_their_bytes(
            self, tmp_path, capsys):
        out, fresh = tmp_path / "a.rpt", tmp_path / "b.rpt"
        out.write_bytes(b"x" * 100_000)
        (tmp_path / "a.rpt.csv").write_bytes(b"y" * 100_000)
        args = RUN_ARGS + ["--learner", "classical", "--trials", "1"]
        assert cli.main(args + ["--out", str(out)]) == 0
        assert cli.main(args + ["--out", str(fresh)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == fresh.read_bytes()
        assert (tmp_path / "a.rpt.csv").read_bytes() == (tmp_path / "b.rpt.csv").read_bytes()

    def test_report_roundtrip_and_determinism(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.rpt", tmp_path / "b.rpt"
        assert cli.main(RUN_ARGS + ["--learner", "preprocessing", "--out", str(out_a)]) == 0
        assert cli.main(RUN_ARGS + ["--learner", "preprocessing", "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        report = cli.read_report(str(out_a))
        assert report["schema"] == cli.REPORT_SCHEMA
        assert len(report["trials"]) == 3
        assert report["config"]["learner"] == "preprocessing"
        assert (tmp_path / "a.rpt.csv").exists()

    def test_preprocessing_equals_high_shot_quantum(self, tmp_path, capsys):
        # With a near-noiseless shot budget both learners see the same Gram.
        base = [
            "run", "--seed", "11", "--set", "domain_size=64", "--set", "train_size=8",
            "--set", "test_size=30", "--set", "box_bound=10", "--trials", "2",
        ]
        out_p = tmp_path / "p.rpt"
        out_q = tmp_path / "q.rpt"
        cli.main(base + ["--learner", "preprocessing", "--out", str(out_p)])
        cli.main(base + ["--set", "shots=10000000", "--learner", "quantum_kernel",
                         "--out", str(out_q)])
        capsys.readouterr()
        acc_p = [t["accuracy"] for t in cli.read_report(str(out_p))["trials"]]
        acc_q = [t["accuracy"] for t in cli.read_report(str(out_q))["trials"]]
        assert acc_p == pytest.approx(acc_q, abs=0.05)

    def test_classical_zero_budget_near_chance(self, tmp_path, capsys):
        out = tmp_path / "c.rpt"
        code = cli.main(
            ["run", "--seed", "2", "--set", "domain_size=256", "--set", "train_size=4",
             "--set", "budget=0", "--set", "test_size=100", "--trials", "4",
             "--learner", "classical", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        report = cli.read_report(str(out))
        assert float(report["summary"]["mean_accuracy"]) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("backend", [["--backend", "faithful"], ["--set", "backend=faithful"]])
    def test_faithful_quantum_kernel_rejected_before_work(self, backend, tmp_path, capsys):
        out = tmp_path / "q.rpt"
        code = cli.main(RUN_ARGS + ["--learner", "quantum_kernel", "--out", str(out)] + backend)
        assert code == cli.EXIT_INVALID_CONFIG
        assert "backend=ideal" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "q.rpt.csv").exists()

    def test_faithful_backend_still_runs_preprocessing(self, tmp_path, capsys):
        out = tmp_path / "p.rpt"
        code = cli.main(RUN_ARGS + ["--learner", "preprocessing", "--backend", "faithful",
                                    "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert cli.read_report(str(out))["config"]["backend"] == "faithful"

    def test_seeds_above_32_bits_do_not_alias(self, tmp_path, capsys):
        # 4294967299 is 2**32 + 3: reduced to 32 bits, it wrote the trial rows of seed 3.
        trials = []
        for seed in ("3", "4294967299"):
            out = tmp_path / f"{seed}.rpt"
            argv = ["run", "--seed", seed, "--set", "domain_size=256", "--trials", "2"]
            assert cli.main(argv + ["--out", str(out)]) == 0
            trials.append(cli.read_report(str(out))["trials"])
        capsys.readouterr()
        assert len(trials[0]) == len(trials[1]) == 2
        assert trials[0] != trials[1]

    def test_test_size_above_the_domain_size_rejected_before_any_trial(self, capsys, monkeypatch):
        # It used to fail inside trial 0, in generate_balanced_test, after the
        # training set was drawn.
        argv = ["run", "--seed", "1", "--trials", "1", "--learner", "classical",
                "--set", "domain_size=16", "--set", "train_size=4"]
        assert cli.main(argv + ["--set", "test_size=16"]) == cli.EXIT_OK
        capsys.readouterr()

        def no_trial(*args):
            raise AssertionError("a trial started")

        monkeypatch.setattr(cli, "run_single_trial", no_trial)
        assert cli.main(argv + ["--set", "test_size=40"]) == cli.EXIT_INVALID_CONFIG
        captured = capsys.readouterr()
        assert "test_size must be an integer in [2, 16], got 40" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("size, bound", [(0, None), (3, None), (40, 16)])
    def test_test_size_follows_the_balanced_test_rule(self, size, bound, capsys):
        # One rule, learn.check_test_size: the CLI raises its message as a
        # ConfigError.  Resolving a config applies it with no domain bound,
        # since gen-data and sweep read no test_size; run adds the bound.
        with pytest.raises(StructuralError) as rule:
            learn.check_test_size(size, bound, "test_size")
        argv = ["run", "--seed", "1", "--trials", "1", "--learner", "classical",
                "--set", "domain_size=16", "--set", "train_size=4", "--set", f"test_size={size}"]
        assert cli.main(argv) == cli.EXIT_INVALID_CONFIG
        assert capsys.readouterr().err == f"error: {rule.value}\n"

    def test_pattern_problem_rejected_for_run(self, capsys):
        code = cli.main(RUN_ARGS + ["--set", "problem=pattern"])
        capsys.readouterr()
        assert code == cli.EXIT_INVALID_CONFIG


class TestSweepCommand:
    def test_slopes_and_artifact(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli.main(
            ["sweep", "--seed", "5", "--domain-sizes", "16,32,64,128,256",
             "--trials", "2", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 0
        content = out.read_text()
        assert content.startswith(f"schema {cli.SWEEP_SCHEMA}")
        slopes = {}
        in_slopes = False
        for line in content.splitlines():
            if line == "[slopes]":
                in_slopes = True
                continue
            if in_slopes and "," in line and not line.startswith("learner"):
                learner, slope, err = line.split(",")
                slopes[learner] = float(slope)
        assert slopes["classical"] == pytest.approx(1.0, abs=0.01)
        assert slopes["preprocessing"] == pytest.approx(0.5, abs=0.08)
        assert slopes["quantum_kernel"] == pytest.approx(0.5, abs=0.08)
        assert captured.out.startswith("schema")

    def test_faithful_backend_rejected_for_every_learner(self, capsys):
        # The sweep runs the analytic (ideal) path only, so a faithful sweep
        # would be an ideal one under another name.
        base = ["sweep", "--seed", "5", "--domain-sizes", "16,32,64,128", "--trials", "1",
                "--set", "backend=faithful"]
        for learner in ([], ["--learner", "quantum_kernel"], ["--learner", "preprocessing"],
                        ["--learner", "classical"]):
            assert cli.main(base + learner) == cli.EXIT_INVALID_CONFIG
            err = capsys.readouterr()
            assert "sweep does not read the backend key" in err.err and err.out == ""

    def test_learner_keys_reach_the_sweep(self, capsys):
        argv = ["sweep", "--seed", "5", "--domain-sizes", "16,32,64,128", "--trials", "1",
                "--learner", "quantum_kernel"]
        outputs = {}
        for extra in ([], ["--set", "train_size=8", "--set", "shots=16", "--set", "box_bound=10"],
                      ["--set", "shots=4"], ["--set", "train_size=4"], ["--set", "box_bound=1"]):
            assert cli.main(argv + extra) == cli.EXIT_OK
            outputs[" ".join(extra)] = capsys.readouterr().out
        default = outputs[""]
        assert outputs["--set train_size=8 --set shots=16 --set box_bound=10"] == default
        for extra in ("--set shots=4", "--set train_size=4", "--set box_bound=1"):
            assert outputs[extra] != default, extra

    def test_learner_key_picks_the_learner_and_flag_wins(self, capsys):
        argv = ["sweep", "--seed", "5", "--domain-sizes", "16,32,64,128", "--trials", "1"]
        outputs = {}
        for extra in (["--learner", "classical"], ["--set", "learner=classical"],
                      ["--learner", "preprocessing"],
                      ["--set", "learner=classical", "--learner", "preprocessing"]):
            assert cli.main(argv + extra) == cli.EXIT_OK
            outputs[" ".join(extra)] = capsys.readouterr().out
        assert outputs["--set learner=classical"] == outputs["--learner classical"]
        assert "\nclassical," in outputs["--learner classical"]
        assert "\npreprocessing," not in outputs["--learner classical"]
        flag_wins = outputs["--set learner=classical --learner preprocessing"]
        assert flag_wins == outputs["--learner preprocessing"]

    def test_train_size_above_the_smallest_domain_size_invalid(self, capsys):
        argv = ["sweep", "--seed", "5", "--domain-sizes", "16,32,64,128", "--learner", "classical"]
        assert cli.main(argv + ["--set", "train_size=16"]) == cli.EXIT_OK
        capsys.readouterr()
        assert cli.main(argv + ["--set", "train_size=32"]) == cli.EXIT_INVALID_CONFIG
        captured = capsys.readouterr()
        assert "train_size must be an integer in [2, 16], got 32" in captured.err
        assert captured.out == ""
        # The bound is the smallest swept size, not the unread domain_size default (1024).
        argv = ["sweep", "--seed", "1", "--learner", "classical", "--set", "train_size=2048",
                "--domain-sizes", "2048,4096,8192,16384", "--trials", "1"]
        assert cli.main(argv) == cli.EXIT_OK
        assert "\nclassical,1.0000," in capsys.readouterr().out

    def test_trials_key_honoured_and_flag_wins(self, capsys):
        argv = ["sweep", "--seed", "5", "--domain-sizes", "16,32,64,128",
                "--learner", "quantum_kernel"]
        outputs = {}
        for extra in ([], ["--set", "trials=3"], ["--set", "trials=1"],
                      ["--set", "trials=1", "--trials", "3"], ["--trials", "1"]):
            assert cli.main(argv + extra) == cli.EXIT_OK
            outputs[" ".join(extra)] = capsys.readouterr().out
        default = outputs[""]
        assert outputs["--set trials=3"] == default
        assert outputs["--set trials=1"] != default
        assert outputs["--set trials=1 --trials 3"] == default
        assert outputs["--trials 1"] == outputs["--set trials=1"]

    def test_too_few_sizes_invalid(self, capsys):
        code = cli.main(["sweep", "--seed", "1", "--domain-sizes", "16,32"])
        capsys.readouterr()
        assert code == cli.EXIT_INVALID_CONFIG

    @pytest.mark.parametrize("sizes", ["16,16,16,16", "16,16,16,32", "16,32,64,128,16"])
    def test_repeated_sizes_invalid(self, sizes, capsys):
        code = cli.main(["sweep", "--seed", "1", "--domain-sizes", sizes, "--trials", "1"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INVALID_CONFIG
        assert "none repeated" in captured.err and captured.out == ""

    @pytest.mark.parametrize("sizes, bad", [
        pytest.param(sizes, bad, id=sizes) for sizes, bad in (("4,8,16,32", 4), ("16,24,32,64", 24))
    ])
    def test_sizes_are_checked_before_train_size(self, sizes, bad, capsys):
        # The default train_size 8 exceeds 4; the message used to name train_size.
        code = cli.main(["sweep", "--seed", "1", "--domain-sizes", sizes, "--learner", "classical"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INVALID_CONFIG
        rule = "domain_sizes entry must be an integer power of two of at least 8"
        assert f"{rule}, got {bad}" in captured.err
        assert "train_size" not in captured.err and captured.out == ""

    def test_non_integer_size_invalid(self, capsys):
        code = cli.main(["sweep", "--seed", "1", "--domain-sizes", "16,32,64,abc"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INVALID_CONFIG
        assert "domain_sizes must be comma-separated integers" in captured.err

    def test_flag_sizes_beat_config_key(self, capsys):
        code = cli.main(["sweep", "--seed", "1", "--set", "domain_sizes=16,32",
                         "--domain-sizes", "16,32,64,128", "--learner", "classical"])
        capsys.readouterr()
        assert code == cli.EXIT_OK

    def test_zero_trials_invalid(self, capsys):
        code = cli.main(
            ["sweep", "--seed", "1", "--domain-sizes", "16,32,64,128", "--trials", "0"]
        )
        captured = capsys.readouterr()
        assert code == cli.EXIT_INVALID_CONFIG
        assert captured.out == ""


# Every (command, key) pair that the command does not read, with a value the key parses.
UNREAD = {
    "gen-data": {"shots": "4", "box_bound": "3", "backend": "faithful", "learner": "classical",
                 "trials": "3", "test_size": "10", "budget": "3", "interval_width": "2",
                 "domain_sizes": "16,32,64,128"},
    "run": {"domain_sizes": "16,32", "pattern": "0", "label_rule": "log_width"},
    "sweep": {"problem": "indicator", "domain_size": "16", "interval_width": "2",
              "backend": "ideal", "concept_start": "3", "test_size": "10", "budget": "3",
              "pattern": "0", "label_rule": "log_width"},
}
ACCEPTING = {
    "gen-data": ["gen-data", "--seed", "7", "--set", "domain_size=16", "--set", "train_size=8"],
    "run": ["run", "--seed", "1", "--set", "domain_size=64", "--set", "train_size=8",
            "--set", "test_size=20", "--trials", "2", "--learner", "classical"],
    "sweep": ["sweep", "--seed", "5", "--domain-sizes", "16,32,64,128", "--trials", "1",
              "--learner", "quantum_kernel"],
}


class TestUnreadKeys:
    def test_the_table_covers_every_pair(self):
        for command, unread in UNREAD.items():
            read = {key for key, f in cli._CONFIG_KEYS.items() if command in f.metadata["read_by"]}
            assert read | set(unread) == set(cli._CONFIG_KEYS) and not read & set(unread)

    @pytest.mark.parametrize(
        "command, key", [(command, key) for command in UNREAD for key in UNREAD[command]]
    )
    def test_unread_key_rejected(self, command, key, tmp_path, capsys):
        value = UNREAD[command][key]
        config = write(tmp_path / "c.cfg", f"{key} = {value}\n")
        out = tmp_path / "artifact"
        for extra in (["--set", f"{key}={value}"], ["--config", config]):
            code = cli.main(ACCEPTING[command] + extra + ["--out", str(out)])
            assert code == cli.EXIT_INVALID_CONFIG
            captured = capsys.readouterr()
            assert f"{command} does not read the {key} key" in captured.err
            assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command, extra, digest", [
        # gen-data rejected backend=faithful as a quantum_kernel run would, and took
        # the rest without a change to its bytes; run ignored domain_sizes.
        pytest.param("gen-data", ["--set", "backend=faithful"], "9a932453", id="gen-data-backend"),
        pytest.param("gen-data", ["--set", "shots=4", "--set", "trials=3", "--set", "box_bound=3",
                                  "--set", "interval_width=2"], "9a932453", id="gen-data-shots"),
        pytest.param("run", ["--set", "domain_sizes=16,32"], "726e66e6", id="run-domain_sizes"),
    ])
    def test_keys_once_taken_and_ignored(self, command, extra, digest, capsys):
        assert cli.main(ACCEPTING[command]) == cli.EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest().startswith(digest)
        assert cli.main(ACCEPTING[command] + extra) == cli.EXIT_INVALID_CONFIG
        captured = capsys.readouterr()
        key = extra[1].split("=")[0]
        assert f"{command} does not read the {key} key" in captured.err and captured.out == ""

    def test_every_key_flag_is_read_by_its_command(self):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for command in UNREAD:
            dests = {a.dest for a in commands.choices[command]._actions} & set(cli._CONFIG_KEYS)
            assert "seed" in dests
            for key in dests:
                assert command in cli._CONFIG_KEYS[key].metadata["read_by"], (command, key)


class TestPatternDemo:
    def test_match_report(self, tmp_path, capsys):
        texts = write(tmp_path / "texts.txt", "10110010\n01011000\n")
        code = cli.main(["pattern-demo", texts, "--pattern", "110", "--seed", "4"])
        captured = capsys.readouterr()
        assert code == 0
        lines = [l for l in captured.out.splitlines() if not l.startswith("#")]
        assert lines[0].split()[2] == "2"  # location of the first text

    def test_absent_pattern_domain_exit(self, tmp_path, capsys):
        texts = write(tmp_path / "texts.txt", "00000000\n")
        code = cli.main(["pattern-demo", texts, "--pattern", "11"])
        capsys.readouterr()
        assert code == cli.EXIT_DOMAIN

    def test_non_binary_text_invalid(self, tmp_path, capsys):
        texts = write(tmp_path / "texts.txt", "10a10010\n")
        code = cli.main(["pattern-demo", texts, "--pattern", "11"])
        capsys.readouterr()
        assert code == cli.EXIT_INVALID_CONFIG

    def test_length_not_power_of_two(self, tmp_path, capsys):
        texts = write(tmp_path / "texts.txt", "1011001\n10110010\n")
        code = cli.main(["pattern-demo", texts, "--pattern", "110"])
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert code == cli.EXIT_DOMAIN
        assert rows[0] == "0 bad-length 2 nan 0 0 0 2 9"
        assert rows[1].split()[1] == "ok"

    def test_faithful_above_the_cap_is_a_resource_cap_row(self, tmp_path, capsys):
        text = "0" * 13 + "110" + "0" * 16  # 5 + 32 + 3 = 40 qubits
        texts = write(tmp_path / "texts.txt", text + "\n")
        kmp_location, kmp_ledger = cli.kmp_search(text, "110")
        code = cli.main(["pattern-demo", texts, "--pattern", "110", "--backend", "faithful"])
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert code == cli.EXIT_RESOURCE
        assert rows == [
            f"0 resource-cap none nan 0 0 0 {kmp_location} "
            f"{kmp_ledger.classical_char_comparisons}"
        ]
        code = cli.main(["pattern-demo", texts, "--pattern", "110", "--backend", "ideal"])
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert code == cli.EXIT_OK
        assert rows[0].split()[1:3] == ["ok", "13"]

    def test_faithful_16_bit_texts(self, tmp_path, capsys):
        # 4 + 16 + 4 = 24 qubits, the cap: the matcher runs sparse, in milliseconds.
        texts = write(tmp_path / "texts.txt", "1000011010001000\n1111111001011010\n")
        code = cli.main(["pattern-demo", texts, "--pattern", "1101", "--backend", "faithful",
                         "--seed", "2"])
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert code == cli.EXIT_OK
        assert [row.split()[1:3] for row in rows] == [["ok", "5"], ["ok", "11"]]

    def test_pattern_longer_than_the_text_is_no_unique_match(self, tmp_path, capsys):
        texts = write(tmp_path / "texts.txt", "10110010\n1011001\n")
        code = cli.main(["pattern-demo", texts, "--pattern", "101100101", "--backend", "ideal"])
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert code == cli.EXIT_DOMAIN
        assert [row.split()[1] for row in rows] == ["no-unique-match", "bad-length"]

    def test_pattern_equals_text(self, tmp_path, capsys):
        texts = write(tmp_path / "texts.txt", "10110010\n")
        code = cli.main(["pattern-demo", texts, "--pattern", "10110010", "--backend", "ideal"])
        captured = capsys.readouterr()
        assert code == 0
        row = [l for l in captured.out.splitlines() if not l.startswith("#")][0]
        assert row.split()[2] == "0"


class TestSchemas:
    def test_unknown_report_schema_rejected(self, tmp_path):
        path = write(tmp_path / "r.rpt", "schema groversvm-report/999\n[config]\n")
        with pytest.raises(StructuralError):
            cli.read_report(path)

    def test_missing_schema_rejected(self, tmp_path):
        path = write(tmp_path / "r.rpt", "[config]\nfoo bar\n")
        with pytest.raises(StructuralError):
            cli.read_report(path)

    def test_unknown_dataset_schema_rejected(self, tmp_path):
        path = write(tmp_path / "d.txt", "schema other/1\n")
        with pytest.raises(StructuralError):
            cli.read_dataset(path)

    @pytest.mark.parametrize("row", ["0 ok 0.5", "0 ok 0.5 1 2 3 4 5", "0 ok high 1 2 3 4"])
    def test_malformed_trial_row_rejected(self, tmp_path, row):
        path = write(tmp_path / "r.rpt", f"schema {cli.REPORT_SCHEMA}\n[trials]\n{row}\n")
        with pytest.raises(StructuralError):
            cli.read_report(path)

    def test_config_line_without_value_rejected(self, tmp_path):
        path = write(tmp_path / "r.rpt", f"schema {cli.REPORT_SCHEMA}\n[config]\nseed\n")
        with pytest.raises(StructuralError):
            cli.read_report(path)

    @pytest.mark.parametrize("header, row", [
        ("problem indicator\ndomain_size 16", "5"),
        ("problem indicator\ndomain_size 16", "abc +1 extra"),
        ("problem indicator\ndomain_size 16", "abc +1"),
        ("problem indicator\ndomain_size 16", "16 +1"),
        ("problem indicator\ndomain_size 16", "3 1"),
        ("problem pattern\ndomain_size 8", "1011a010 2 +1"),
        ("problem pattern\ndomain_size 8", "10110010 two +1"),
        ("problem pattern\ndomain_size 8", "10110010 8 +1"),
        ("problem pattern\ndomain_size 8", "10110010 2"),
        ("problem pattern\ndomain_size 8", "101 2 +1"),
        ("problem indicator\ndomain_size 12", "3 +1"),
        ("domain_size 16", "3 +1"),
        ("problem indicator", "3 +1"),
    ])
    def test_malformed_dataset_row_rejected(self, tmp_path, header, row):
        path = write(tmp_path / "d.txt", f"schema {cli.DATASET_SCHEMA}\n{header}\n[data]\n{row}\n")
        with pytest.raises(StructuralError):
            cli.read_dataset(path)

    def test_dataset_rows_that_parse_come_back_as_strings(self, tmp_path):
        path = write(tmp_path / "d.txt", f"schema {cli.DATASET_SCHEMA}\nproblem pattern\n"
                     "domain_size 8\n[data]\n# text location label\n10110010 2 -1\n")
        assert cli.read_dataset(path)["rows"] == [["10110010", "2", "-1"]]

    def test_dataset_header_without_value_rejected(self, tmp_path):
        path = write(tmp_path / "d.txt", f"schema {cli.DATASET_SCHEMA}\nproblem\n[data]\n")
        with pytest.raises(StructuralError):
            cli.read_dataset(path)


class TestNegativeSeed:
    @pytest.mark.parametrize("argv", [
        RUN_ARGS[:1] + ["--seed", "-1"] + RUN_ARGS[3:],
        RUN_ARGS[:1] + RUN_ARGS[3:] + ["--set", "seed=-1"],
        ["gen-data", "--seed", "-1", "--set", "domain_size=16"],
        ["sweep", "--seed", "-1", "--domain-sizes", "16,32,64,128"],
    ])
    def test_config_commands_reject_before_work(self, tmp_path, capsys, argv):
        out = tmp_path / "artifact"
        code = cli.main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INVALID_CONFIG
        assert "seed must be a non-negative integer" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("backend", ["ideal", "faithful"])
    def test_pattern_demo_rejects_before_work(self, tmp_path, capsys, backend):
        texts = write(tmp_path / "texts.txt", "10110010\n")
        code = cli.main(["pattern-demo", texts, "--pattern", "110", "--backend", backend,
                         "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INVALID_CONFIG
        assert "seed must be a non-negative integer" in captured.err
        assert captured.out == ""


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        captured = capsys.readouterr()
        assert "all selftest checks passed" in captured.out


class TestWorkerPool:
    def test_multiworker_matches_serial(self, tmp_path, capsys, monkeypatch):
        out_serial, out_pool = tmp_path / "s.rpt", tmp_path / "p.rpt"
        args = RUN_ARGS + ["--learner", "preprocessing"]
        monkeypatch.setenv(cli.WORKERS_ENV, "1")
        cli.main(args + ["--out", str(out_serial)])
        monkeypatch.setenv(cli.WORKERS_ENV, "2")
        cli.main(args + ["--out", str(out_pool)])
        capsys.readouterr()
        assert out_serial.read_bytes() == out_pool.read_bytes()

    @pytest.mark.parametrize("requested, trials", [(1, 5), (3, 2), (10**6, 10**6), (10**6, 3)])
    def test_worker_count_is_bounded(self, monkeypatch, requested, trials):
        # The resolver only computes a size; no pool is started here.
        monkeypatch.setenv(cli.WORKERS_ENV, str(requested))
        expected = min(requested, trials, os.cpu_count() or 1)
        assert cli._worker_count(trials) == expected

    @pytest.mark.parametrize("requested", ["0", "-2", "two"])
    def test_worker_count_rejects_invalid(self, monkeypatch, requested):
        monkeypatch.setenv(cli.WORKERS_ENV, requested)
        with pytest.raises(cli.ConfigError):
            cli._worker_count(4)

    def test_zero_workers_is_invalid_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "0")
        code = cli.main(RUN_ARGS + ["--learner", "classical", "--out", str(tmp_path / "r.rpt")])
        assert code == cli.EXIT_INVALID_CONFIG
        assert cli.WORKERS_ENV in capsys.readouterr().err
