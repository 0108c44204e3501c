import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import riskcontest as rc
from riskcontest.errors import (
    CommitmentError,
    ConfigurationError,
    DatasetFormatError,
    ValidationError,
)
from riskcontest.io import (
    SIM_FIELDS,
    SPEC_OPTIONS,
    check_config_keys,
    commitment_digest,
    load_weights,
    parse_config_file,
    read_dataset_csv,
    read_submission,
    read_truth_json,
    selector_spec_from_mapping,
    sim_config_from_mapping,
    truth_from_dict,
    truth_to_dict,
    verify_commitment,
    write_dataset_csv,
    write_submission,
    write_truth_json,
)

from conftest import null_dataset


@pytest.fixture
def small_dataset():
    return null_dataset(n=30, d=4, seed=1)


class TestDatasetCsv:
    def test_roundtrip(self, tmp_path, small_dataset):
        path = tmp_path / "d.csv"
        write_dataset_csv(path, small_dataset)
        back = read_dataset_csv(path)
        assert np.array_equal(back.x, small_dataset.x)
        assert np.array_equal(back.y, small_dataset.y)

    def test_layout(self, tmp_path, small_dataset):
        path = tmp_path / "d.csv"
        write_dataset_csv(path, small_dataset)
        raw = path.read_bytes()
        assert b"\r" not in raw  # LF endings only
        lines = raw.decode().splitlines()
        assert len(lines) == 31
        assert lines[0] == "id,x1,x2,x3,x4,y"
        assert all(len(line.split(",")) == 6 for line in lines)

    def test_non_binary_cell_names_line_and_column(self, tmp_path, small_dataset):
        path = tmp_path / "d.csv"
        write_dataset_csv(path, small_dataset)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace("0", "7", 1).replace("1", "7", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=r"line 4.*column x"):
            read_dataset_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n1,0,1\n")
        with pytest.raises(DatasetFormatError):
            read_dataset_csv(path)

    def test_short_row(self, tmp_path, small_dataset):
        path = tmp_path / "d.csv"
        write_dataset_csv(path, small_dataset)
        lines = path.read_text().splitlines()
        lines[5] = "5,0,1"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="line 6"):
            read_dataset_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DatasetFormatError):
            read_dataset_csv(path)


class TestTruthFile:
    def test_roundtrip_identity(self, tmp_path, classroom_truth):
        path = tmp_path / "truth.json"
        write_truth_json(path, classroom_truth, seed=7, salt="ab" * 16)
        back, payload = read_truth_json(path)
        assert back == classroom_truth
        assert payload["seed"] == 7

    def test_digest_is_stable_under_key_order(self, classroom_truth):
        payload = truth_to_dict(classroom_truth, 1, "00" * 16)
        shuffled = json.loads(json.dumps(payload))
        reordered = {k: shuffled[k] for k in reversed(list(shuffled))}
        assert commitment_digest(payload) == commitment_digest(reordered)

    def test_any_field_change_breaks_commitment(self, classroom_truth):
        base = truth_to_dict(classroom_truth, 1, "00" * 16)
        digest = commitment_digest(base)
        mutations = [
            ("seed", 2),
            ("k", 6),
            ("salt", "11" * 16),
            ("relevant", base["relevant"][:-1]),
            ("prevalences", [0.5] + base["prevalences"][1:]),
        ]
        for key, value in mutations:
            tampered = dict(base)
            tampered[key] = value
            assert commitment_digest(tampered) != digest
            with pytest.raises(CommitmentError):
                verify_commitment(tampered, digest)

    def test_verify_accepts_correct_digest(self, classroom_truth):
        payload = truth_to_dict(classroom_truth, 1, "00" * 16)
        verify_commitment(payload, commitment_digest(payload).upper())

    def test_malformed_payload(self):
        with pytest.raises(ValidationError):
            truth_from_dict({"relevant": "nope"})

    def test_not_json(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("{broken")
        with pytest.raises(ValidationError):
            read_truth_json(path)


class TestSubmissionFile:
    def test_roundtrip(self, tmp_path):
        sub = rc.Submission("team_b", (3, 6, 8), "because reasons")
        path = tmp_path / "sub.json"
        write_submission(path, sub)
        assert read_submission(path) == sub

    def test_plain_text_fallback(self, tmp_path):
        path = tmp_path / "handwritten.txt"
        path.write_text("3 6\n8\n")
        sub = read_submission(path)
        assert sub.selected == (3, 6, 8)
        assert sub.team == "handwritten"

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("three six")
        with pytest.raises(ValidationError):
            read_submission(path)

    def test_json_without_selected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"team": "x"}')
        with pytest.raises(ValidationError):
            read_submission(path)


class TestConfigFiles:
    def test_parse_and_coerce(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# comment\n"
            "d = 10\n"
            "n_cases = 100   # trailing comment\n"
            "prev_max = 0.05\n"
            "jitter_prevalences = true\n"
            "seed = 42\n")
        config = sim_config_from_mapping(parse_config_file(path))
        assert config.d == 10
        assert config.n_cases == 100
        assert config.prev_max == 0.05
        assert config.jitter_prevalences is True
        assert config.seed == 42
        assert config.n_controls == 2000  # untouched default

    def test_base_override(self):
        base = rc.SimulationConfig(seed=1, d=10, k_max=5)
        config = sim_config_from_mapping({"seed": "9"}, base=base)
        assert config.seed == 9
        assert config.d == 10

    def test_missing_equals_sign(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("d 10\n")
        with pytest.raises(ConfigurationError):
            parse_config_file(path)

    def test_bad_value(self):
        with pytest.raises(ConfigurationError):
            sim_config_from_mapping({"d": "ten"})


floats = st.floats(-1e6, 1e6, allow_nan=False)
unit = st.floats(1e-9, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def sim_configs(draw):
    d = draw(st.integers(2, 60))
    k_max = draw(st.integers(1, d))
    prev_min, prev_max = sorted(draw(st.lists(unit, min_size=2, max_size=2, unique=True)))
    effect_lo, effect_hi = sorted(draw(st.lists(st.floats(1e-6, 10), min_size=2, max_size=2)))
    kw = dict(d=d, n_cases=draw(st.integers(1, 10**6)), n_controls=draw(st.integers(1, 10**6)),
              prev_max=prev_max, prev_min=prev_min, k_min=draw(st.integers(1, k_max)),
              k_max=k_max, effect_lo=effect_lo, effect_hi=effect_hi,
              n_confounders=draw(st.integers(0, 5)), confounder_prev=draw(unit),
              baseline_intercept=draw(floats), seed=draw(st.integers(0, 2**63)),
              jitter_prevalences=draw(st.booleans()),
              draw_budget=draw(st.none() | st.integers(1, 10**9)))
    assert set(kw) == {f.name for f in fields(rc.SimulationConfig)}
    return rc.SimulationConfig(**kw)


@st.composite
def selector_specs(draw):
    size_max = draw(st.integers(1, 30))
    kw = dict(size_min=draw(st.integers(1, size_max)), size_max=size_max,
              n_folds=draw(st.none() | st.integers(2, 20)),
              n_resamples=draw(st.integers(1, 10**4)), median_p_threshold=draw(floats),
              max_select=draw(st.integers(0, 50)), max_keep=draw(st.integers(0, 50)),
              budget=draw(st.integers(-10**9, 10**9)), train_fraction=draw(unit),
              n_lambdas=draw(st.integers(1, 500)), lambda_min_ratio=draw(unit))
    assert set(kw) == set(SPEC_OPTIONS)
    return rc.SelectorSpec(draw(st.sampled_from(rc.METHODS)), **kw)


class TestConfigRoundTrip:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sim_configs(), selector_specs(), st.data())
    def test_every_field_round_trips(self, tmp_path, sim, spec, data):
        """Each option may be written bare or as '<method>.<option>'; None
        values are left out, which reads back as the None default."""
        lines = [f"{name} = {getattr(sim, name)!r}" for name in SIM_FIELDS
                 if getattr(sim, name) is not None]
        for name in SPEC_OPTIONS:
            if getattr(spec, name) is not None:
                key = f"{spec.method}.{name}" if data.draw(st.booleans()) else name
                lines.append(f"{key} = {getattr(spec, name)!r}")
        path = tmp_path / "c.cfg"
        path.write_text("\n".join(data.draw(st.permutations(lines))) + "\n")
        mapping = parse_config_file(path)
        check_config_keys(mapping)
        assert sim_config_from_mapping(mapping) == sim
        assert selector_spec_from_mapping(spec.method, mapping) == spec


class TestWeightsLoading:
    def test_presets(self):
        assert load_weights("table1") == rc.ScoringWeights(10, -10, 3, -3)
        assert load_weights("proposed").w_fn == -4

    def test_weights_file(self, tmp_path):
        path = tmp_path / "w.cfg"
        path.write_text("w_tp = 5\nw_fp = -6\nw_tn = 2\nw_fn = -1\n")
        assert load_weights(str(path)) == rc.ScoringWeights(5, -6, 2, -1)

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            load_weights("no_such_preset")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "w.cfg"
        path.write_text("w_tp = 5\nw_fp = -6\nw_tn = 2\nw_fn = -1\nw_fm = -9\n")
        with pytest.raises(ConfigurationError, match="'w_fm'"):
            load_weights(str(path))

    def test_incomplete_file(self, tmp_path):
        path = tmp_path / "w.cfg"
        path.write_text("w_tp = 5\n")
        with pytest.raises(ConfigurationError):
            load_weights(str(path))
