"""End-to-end tests of the command-line surface (exit codes, files, console)."""

import json

import pytest

import riskcontest as rc
from riskcontest import cli
from riskcontest.cli import main
from riskcontest.io import read_dataset_csv, read_submission, write_submission, write_truth_json

from conftest import CLASSROOM_PICKS


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def sim_config(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text("n_cases = 200\nn_controls = 200\nseed = 31\n")
    return path


@pytest.fixture
def contest_dir(tmp_path, sim_config):
    out = tmp_path / "contest"
    assert run("simulate", "--config", sim_config, "--out", out) == 0
    return out


class TestSimulate:
    def test_writes_files_and_prints_digest(self, tmp_path, sim_config, capsys):
        out = tmp_path / "o"
        assert run("simulate", "--config", sim_config, "--out", out) == 0
        stdout = capsys.readouterr().out
        assert (out / "dataset.csv").exists()
        assert (out / "truth.json").exists()
        digest_line = [l for l in stdout.splitlines() if "digest" in l][0]
        digest = digest_line.rsplit(" ", 1)[1]
        assert len(digest) == 64 and int(digest, 16) >= 0
        data = read_dataset_csv(out / "dataset.csv")
        assert data.n == 400 and data.n_cases == 200

    def test_reruns_are_byte_identical(self, tmp_path, sim_config):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run("simulate", "--config", sim_config, "--out", out1)
        run("simulate", "--config", sim_config, "--out", out2)
        assert (out1 / "dataset.csv").read_bytes() == (out2 / "dataset.csv").read_bytes()
        assert (out1 / "truth.json").read_bytes() == (out2 / "truth.json").read_bytes()

    def test_seed_flag_changes_output(self, tmp_path, sim_config):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run("simulate", "--config", sim_config, "--out", out1)
        run("simulate", "--config", sim_config, "--seed", 77, "--out", out2)
        assert (out1 / "dataset.csv").read_bytes() != (out2 / "dataset.csv").read_bytes()

    def test_seed_flag_overrides_config_seed(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("d = 8\nn_cases = 200\nn_controls = 200\nseed = 31\n")
        out = tmp_path / "o"
        assert run("simulate", "--config", cfg, "--seed", 77, "--out", out) == 0
        data = read_dataset_csv(out / "dataset.csv")
        assert (data.n, data.d) == (400, 8)
        assert json.loads((out / "truth.json").read_text())["seed"] == 77

    def test_export_confounders(self, tmp_path, sim_config):
        out = tmp_path / "o"
        run("simulate", "--config", sim_config, "--out", out, "--export-confounders")
        lines = (out / "confounders.csv").read_text().splitlines()
        assert lines[0] == "id,c1,c2"
        assert len(lines) == 401

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("cases = 10\n")
        assert run("simulate", "--config", cfg, "--out", tmp_path) == 2
        assert "cases" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["team_c.sise_max", "team_x.size_max", "team_c.seed"])
    def test_malformed_dotted_key_rejected(self, tmp_path, capsys, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = 3\n")
        assert run("simulate", "--config", cfg, "--out", tmp_path) == 2
        assert repr(key) in capsys.readouterr().err

    def test_budget_exit_code(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n_cases = 50\nn_controls = 50\n"
                       "baseline_intercept = -14\ndraw_budget = 2000\n")
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == 4

    def test_nonpositive_draw_budget_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("draw_budget = 0\n")
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "draw_budget must be positive" in capsys.readouterr().err

    def test_k_max_equal_to_d_exit_2(self, tmp_path, capsys):
        # A contest with k = d has no Youden index to score.
        cfg = tmp_path / "c.cfg"
        cfg.write_text("d = 2\nk_min = 2\nk_max = 2\nn_cases = 50\nn_controls = 50\n")
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "k_max < d" in capsys.readouterr().err


class TestVerifyTruth:
    def test_roundtrip(self, contest_dir):
        from riskcontest.io import commitment_digest, read_truth_json

        _, payload = read_truth_json(contest_dir / "truth.json")
        good = commitment_digest(payload)
        assert run("verify-truth", "--truth", contest_dir / "truth.json",
                   "--digest", good) == 0

    def test_tampered_file_fails(self, contest_dir):
        from riskcontest.io import commitment_digest, read_truth_json

        truth_path = contest_dir / "truth.json"
        _, payload = read_truth_json(truth_path)
        good = commitment_digest(payload)
        text = truth_path.read_text()
        tampered = text.replace('"index":', '"index":1', 1)  # 3 -> 13 etc.
        assert tampered != text
        truth_path.write_text(tampered)
        assert run("verify-truth", "--truth", truth_path, "--digest", good) == 3


class TestSelect:
    def test_team_c_submission(self, contest_dir, tmp_path):
        cfg = tmp_path / "sel.cfg"
        cfg.write_text("size_min = 2\nsize_max = 3\n")
        out = tmp_path / "sub.json"
        assert run("select", "--method", "team_c", "--data", contest_dir / "dataset.csv",
                   "--seed", 5, "--config", cfg, "--out", out) == 0
        sub = read_submission(out)
        assert sub.team == "team_c"
        assert 2 <= len(sub.selected) <= 3
        assert "subsets" in sub.method_report

    def test_dotted_config_keys(self, contest_dir, tmp_path):
        cfg = tmp_path / "sel.cfg"
        cfg.write_text("team_c.size_min = 2\nteam_c.size_max = 2\n")
        out = tmp_path / "sub.json"
        run("select", "--method", "team_c", "--data", contest_dir / "dataset.csv",
            "--seed", 5, "--config", cfg, "--out", out)
        assert len(read_submission(out).selected) == 2

    def test_unknown_config_key_exit_2(self, contest_dir, tmp_path, capsys):
        cfg = tmp_path / "sel.cfg"
        cfg.write_text("size_mx = 4\n")
        code = run("select", "--method", "random_baseline",
                   "--data", contest_dir / "dataset.csv", "--config", cfg,
                   "--out", tmp_path / "s.json")
        assert code == 2
        assert "unknown config key 'size_mx'" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()

    def test_lasso_without_varying_column_exit_2(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        flat.write_text("id,x1,x2,x3,y\n"
                        + "".join(f"{i},0,0,0,{i % 2}\n" for i in range(1, 41)))
        code = run("select", "--method", "team_b", "--data", flat,
                   "--out", tmp_path / "s.json")
        assert code == 2
        assert "lambda_max is 0" in capsys.readouterr().err

    def test_team_a_holdout_without_test_rows_exit_2(self, tmp_path, capsys):
        # round(0.99 * 20) = 20: each class of 20 keeps every row for training.
        data = tmp_path / "small.csv"
        data.write_text("id,x1,x2,x3,y\n" + "".join(
            f"{i},{i % 2},{i // 2 % 2},{i // 4 % 2},{int(i > 20)}\n" for i in range(1, 41)))
        cfg = tmp_path / "sel.cfg"
        cfg.write_text("train_fraction = 0.99\nsize_min = 1\nsize_max = 2\n")
        code = run("select", "--method", "team_a", "--data", data, "--config", cfg,
                   "--out", tmp_path / "s.json")
        assert code == 2
        assert "holds out no row" in capsys.readouterr().err

    def test_team_a_holdout_without_training_rows_exit_2(self, tmp_path, capsys):
        # round(0.01 * 20) = 0: each class of 20 keeps no row for training.
        data = tmp_path / "small.csv"
        data.write_text("id,x1,x2,x3,y\n" + "".join(
            f"{i},{i % 2},{i // 2 % 2},{i // 4 % 2},{int(i > 20)}\n" for i in range(1, 41)))
        cfg = tmp_path / "sel.cfg"
        cfg.write_text("train_fraction = 0.01\nsize_min = 1\nsize_max = 2\n")
        code = run("select", "--method", "team_a", "--data", data, "--config", cfg,
                   "--out", tmp_path / "s.json")
        assert code == 2
        assert "train_fraction 0.01 leaves no case to train on" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-0.5", "1"])
    def test_team_b_lambda_min_ratio_outside_unit_interval_exit_2(
            self, contest_dir, tmp_path, capsys, value):
        cfg = tmp_path / "sel.cfg"
        cfg.write_text(f"lambda_min_ratio = {value}\n")
        code = run("select", "--method", "team_b", "--data", contest_dir / "dataset.csv",
                   "--config", cfg, "--out", tmp_path / "s.json")
        assert code == 2
        assert "0 < lambda_min_ratio < 1" in capsys.readouterr().err

    def test_deterministic(self, contest_dir, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"sub_{tag}.json"
            run("select", "--method", "random_baseline",
                "--data", contest_dir / "dataset.csv", "--seed", 9, "--out", out)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("method", ["team_a", "team_c", "random_baseline"])
    def test_subset_size_beyond_d_exit_2(self, contest_dir, tmp_path, capsys, method):
        cfg = tmp_path / "sel.cfg"
        cfg.write_text("size_min = 21\nsize_max = 21\n")
        code = run("select", "--method", method, "--data", contest_dir / "dataset.csv",
                   "--config", cfg, "--out", tmp_path / "s.json")
        assert code == 2
        assert "size_max 21 exceeds" in capsys.readouterr().err

    def test_unknown_method_exit_2(self, contest_dir, tmp_path, capsys):
        code = run("select", "--method", "team_x",
                   "--data", contest_dir / "dataset.csv", "--out", tmp_path / "s.json")
        assert code == 2
        assert "team_x" in capsys.readouterr().err

    def test_malformed_dataset_names_cell(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,x1,x2,y\n1,0,1,1\n2,0,2,0\n3,1,0,1\n")
        code = run("select", "--method", "empty_baseline", "--data", bad,
                   "--out", tmp_path / "s.json")
        assert code == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "column x2" in err

    def test_dataset_not_utf8_names_line(self, contest_dir, tmp_path, capsys):
        lines = (contest_dir / "dataset.csv").read_bytes().split(b"\n")
        lines[3] = b"\xe9" + lines[3]
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"\n".join(lines))
        code = run("select", "--method", "empty_baseline", "--data", bad,
                   "--out", tmp_path / "s.json")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 4: not UTF-8" in err


@pytest.fixture
def classroom_files(tmp_path, classroom_truth):
    truth_path = tmp_path / "truth.json"
    digest = write_truth_json(truth_path, classroom_truth, seed=0, salt="cd" * 16)
    sub_paths = []
    for team, picks in CLASSROOM_PICKS.items():
        p = tmp_path / f"{team}.json"
        write_submission(p, rc.Submission(team, picks))
        sub_paths.append(p)
    return truth_path, digest, sub_paths


class TestScore:
    def test_classroom_console_and_csv(self, classroom_files, tmp_path, capsys):
        truth_path, digest, subs = classroom_files
        out = tmp_path / "report.csv"
        assert run("score", "--truth", truth_path, "--digest", digest,
                   "--out", out, *subs) == 0
        stdout = capsys.readouterr().out
        table = [l.split() for l in stdout.splitlines() if l.startswith("team_")]
        assert [row[0] for row in table] == ["team_a", "team_c", "team_b", "team_d"]
        assert [row[3] for row in table] == ["44", "44", "31", "31"]
        lines = out.read_text().splitlines()
        assert lines[0].startswith("team,tp,fp,tn,fn")
        assert lines[1].split(",")[:8] == ["team_a", "4", "2", "11", "3", "57", "85", "44"]

    def test_empty_submission_list(self, classroom_files):
        truth_path, digest, _ = classroom_files
        assert run("score", "--truth", truth_path) == 0

    def test_out_of_range_submission(self, classroom_files, tmp_path):
        truth_path, _, _ = classroom_files
        bad = tmp_path / "bad.txt"
        bad.write_text("21\n")
        assert run("score", "--truth", truth_path, bad) == 2

    def test_commitment_mismatch_refuses(self, classroom_files):
        truth_path, digest, subs = classroom_files
        wrong = "0" * 64
        assert run("score", "--truth", truth_path, "--digest", wrong, *subs) == 3

    def test_youden_ranking(self, classroom_files, capsys):
        truth_path, _, subs = classroom_files
        assert run("score", "--truth", truth_path, "--weights", "youden", *subs) == 0
        stdout = capsys.readouterr().out
        assert "youden" in stdout.splitlines()[0]

    def test_plaintext_submission(self, classroom_files, tmp_path, capsys):
        truth_path, _, _ = classroom_files
        handed_in = tmp_path / "scrap.txt"
        handed_in.write_text("3 6 8\n")
        assert run("score", "--truth", truth_path, handed_in) == 0
        assert "scrap" in capsys.readouterr().out


class TestTournamentCli:
    def make_config(self, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(
            "replicates = 2\n"
            "master_seed = 11\n"
            "methods = team_a, empty_baseline\n"
            "team_a.size_max = 4\n"
            "n_cases = 200\n"
            "n_controls = 200\n")
        return cfg

    def test_outputs_and_determinism(self, tmp_path):
        cfg = self.make_config(tmp_path)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run("tournament", "--config", cfg, "--out", out) == 0
            outs.append(((out / "results.csv").read_bytes(),
                         (out / "leaderboard.csv").read_bytes()))
        assert outs[0] == outs[1]
        rows = outs[0][0].decode().splitlines()
        assert len(rows) == 1 + 2 * 2  # header + methods x replicates

    @pytest.mark.parametrize("extra", [
        "methods = empty_baseline, empty_baseline\n",
        "methods = team_b\nlambda_min_ratio = 0\n",
        "methods = empty_baseline\nmaster_seed = -1\n",
        "methods = empty_baseline\nd = 2\nk_min = 2\nk_max = 2\n",
    ])
    def test_config_rejected_exit_2(self, tmp_path, extra):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("replicates = 1\nn_cases = 100\nn_controls = 100\n" + extra)
        assert run("tournament", "--config", cfg, "--out", tmp_path / "t") == 2
        assert not (tmp_path / "t" / "results.csv").exists()

    def test_failed_method_runs_are_counted(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("replicates = 2\nmethods = team_c, empty_baseline\nteam_c.budget = 1\n"
                       "n_cases = 100\nn_controls = 100\n")
        assert run("tournament", "--config", cfg, "--out", tmp_path / "t") == 0
        assert (f"2 method runs failed; see the error column in {tmp_path / 't' / 'results.csv'}"
                in capsys.readouterr().out.splitlines())

    def test_single_replicate_flag(self, tmp_path):
        cfg = self.make_config(tmp_path)
        full, single = tmp_path / "full", tmp_path / "single"
        run("tournament", "--config", cfg, "--out", full)
        run("tournament", "--config", cfg, "--out", single, "--replicate", 2)
        full_rows = (full / "results.csv").read_text().splitlines()
        single_rows = (single / "results.csv").read_text().splitlines()
        assert single_rows[0] == full_rows[0]
        assert single_rows[1:] == [r for r in full_rows[1:] if r.startswith("2,")]


SHARED_CONFIG = (
    "# one file for all three commands\n"
    "n_cases = 150\nn_controls = 150\nseed = 4\n"
    "replicates = 1\nmaster_seed = 6\nweights = table1\n"
    "methods = random_baseline, empty_baseline\n"
    "size_min = 2\nrandom_baseline.size_max = 4\n")


def test_one_config_file_serves_every_command(tmp_path):
    cfg = tmp_path / "all.cfg"
    cfg.write_text(SHARED_CONFIG)
    assert run("simulate", "--config", cfg, "--out", tmp_path / "c") == 0
    assert read_dataset_csv(tmp_path / "c" / "dataset.csv").n == 300
    sub = tmp_path / "s.json"
    assert run("select", "--method", "random_baseline", "--config", cfg,
               "--data", tmp_path / "c" / "dataset.csv", "--out", sub) == 0
    assert 2 <= len(read_submission(sub).selected) <= 4
    assert run("tournament", "--config", cfg, "--out", tmp_path / "t") == 0
    rows = (tmp_path / "t" / "results.csv").read_text().splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["random_baseline", "empty_baseline"]
    assert 2 <= len(rows[0].split(",")[3].split()) <= 4


def test_every_csv_output_ends_lines_in_newline(tmp_path, classroom_files, sim_config):
    run("simulate", "--config", sim_config, "--out", tmp_path / "c", "--export-confounders")
    truth_path, _, subs = classroom_files
    run("score", "--truth", truth_path, "--out", tmp_path / "report.csv", *subs)
    cfg = tmp_path / "t.cfg"
    cfg.write_text(SHARED_CONFIG)
    run("tournament", "--config", cfg, "--out", tmp_path / "t")
    for path in (tmp_path / "c" / "dataset.csv", tmp_path / "c" / "confounders.csv",
                 tmp_path / "report.csv", tmp_path / "t" / "results.csv",
                 tmp_path / "t" / "leaderboard.csv"):
        raw = path.read_bytes()
        assert raw.endswith(b"\n") and b"\r" not in raw, path.name


INPUT_FILES = [
    "simulate --config",
    "select --data",
    "select --config",
    "score --truth",
    "score submission",
    "tournament --config",
    "verify-truth --truth",
]


def input_file_argv(command, path, tmp_path, contest_dir, classroom_files):
    """The argv of `command` reading its input file from path."""
    truth_path, digest, subs = classroom_files
    data = contest_dir / "dataset.csv"
    return {
        "simulate --config": ["simulate", "--config", path, "--out", tmp_path / "o"],
        "select --data": ["select", "--method", "empty_baseline", "--data", path,
                          "--out", tmp_path / "s.json"],
        "select --config": ["select", "--method", "empty_baseline", "--data", data,
                            "--config", path, "--out", tmp_path / "s.json"],
        "score --truth": ["score", "--truth", path, *subs],
        "score submission": ["score", "--truth", truth_path, subs[0], path],
        "tournament --config": ["tournament", "--config", path, "--out", tmp_path / "t"],
        "verify-truth --truth": ["verify-truth", "--truth", path, "--digest", digest],
    }[command]


@pytest.mark.parametrize("command", INPUT_FILES)
def test_missing_input_file_exit_2(tmp_path, contest_dir, classroom_files, capsys, command):
    missing = tmp_path / "no_such_file"
    assert run(*input_file_argv(command, missing, tmp_path, contest_dir, classroom_files)) == 2
    assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"


@pytest.mark.parametrize("command", INPUT_FILES)
def test_input_file_not_utf8_exit_2(tmp_path, contest_dir, classroom_files, capsys, command):
    bad = tmp_path / "latin1"
    bad.write_bytes(b"n_cases = 10\xe9\n")
    assert run(*input_file_argv(command, bad, tmp_path, contest_dir, classroom_files)) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: line 1: not UTF-8 text (byte 0xe9")


@pytest.mark.parametrize("selected", ["5", '["x"]', "[1.7]", "[true]"])
def test_score_rejects_non_integer_selected(tmp_path, classroom_files, capsys, selected):
    truth_path, digest, subs = classroom_files
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{"team": "x", "selected": {selected}}}')
    assert run("score", "--truth", truth_path, subs[0], bad) == 2
    assert "'selected' must be an array of integers" in capsys.readouterr().err


@pytest.mark.parametrize("index", [3.7, True, "3"])
def test_score_rejects_non_integer_truth_index(tmp_path, classroom_files, capsys, index):
    truth_path, digest, subs = classroom_files
    payload = json.loads(truth_path.read_text())
    payload["relevant"][0]["index"] = index
    bad = tmp_path / "bad_truth.json"
    bad.write_text(json.dumps(payload))
    assert run("score", "--truth", bad, *subs) == 2
    assert "malformed truth payload" in capsys.readouterr().err


def test_score_rejects_a_team_submitted_twice(tmp_path, capsys):
    """Two files of team x once printed the later file's Youden index on
    both rows and ranked on it."""
    truth_dir = tmp_path / "contest"
    assert run("simulate", "--seed", 3, "--out", truth_dir) == 0
    paths = []
    for name, picks in (("first", (1, 2, 3)), ("second", (4,))):
        paths.append(tmp_path / f"{name}.json")
        write_submission(paths[-1], rc.Submission("x", picks))
    capsys.readouterr()
    assert run("score", "--truth", truth_dir / "truth.json", "--weights", "youden", *paths) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "'x'" in captured.err


def test_simulate_rejects_infinite_effect(tmp_path, capsys):
    """effect_hi = inf once ended in an OverflowError traceback (exit 1)."""
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("effect_hi = inf\n")
    assert run("simulate", "--config", cfg, "--out", tmp_path / "out") == 2
    assert "bad value for effect_hi: 'inf'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate --seed", "simulate config", "select --seed"])
def test_negative_seed_exit_2(tmp_path, contest_dir, capsys, command):
    """A negative seed once ended in numpy's ValueError traceback (exit 1)."""
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = -4\n")
    argv = {
        "simulate --seed": ("simulate", "--seed", -1),
        "simulate config": ("simulate", "--config", cfg),
        "select --seed": ("select", "--method", "random_baseline",
                          "--data", contest_dir / "dataset.csv", "--seed", -2),
    }[command]
    assert run(*argv, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed must be non-negative" in err


def test_parser_built_once_serves_commands_after_an_exit(tmp_path, monkeypatch, capsys):
    """main parses with the parser built at import. An argparse exit (a
    missing option, --help) leaves it ready, and no option of one command
    carries over to the next."""
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    assert run("simulate", "--seed", 3, "--export-confounders", "--out", tmp_path / "a") == 0
    for argv in (["select", "--data", "d.csv"], ["simulate", "--help"]):
        with pytest.raises(SystemExit):
            run(*argv)
    assert run("simulate", "--seed", 3, "--out", tmp_path / "b") == 0
    assert not (tmp_path / "b" / "confounders.csv").exists()
    assert ((tmp_path / "a" / "dataset.csv").read_bytes()
            == (tmp_path / "b" / "dataset.csv").read_bytes())
