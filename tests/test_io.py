import csv
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
    _parse_written_layout,
    _write_binary_csv,
    verify_commitment,
    write_confounders_csv,
    write_csv,
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

    def test_not_utf8_names_line(self, tmp_path, small_dataset):
        path = tmp_path / "d.csv"
        write_dataset_csv(path, small_dataset)
        lines = path.read_bytes().split(b"\n")
        lines[4] = lines[4].replace(b",", b"\xe9,", 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DatasetFormatError, match=r"line 5: not UTF-8 text \(byte 0xe9"):
            read_dataset_csv(path)

    def test_written_file_takes_the_buffer_parse(self, tmp_path, small_dataset):
        path = tmp_path / "d.csv"
        write_dataset_csv(path, small_dataset)
        parsed = _parse_written_layout(path.read_bytes())
        assert np.array_equal(parsed.x, small_dataset.x)
        assert np.array_equal(parsed.y, small_dataset.y)

    @pytest.mark.parametrize("n, d", [(1, 1), (1, 70), (25, 70), (9, 3)])
    def test_writers_match_write_csv(self, tmp_path, n, d):
        """Both binary-matrix writers produce write_csv's bytes."""
        rng = np.random.default_rng(1000 * n + d)
        data = rc.Dataset(rng.integers(0, 2, (n, d)).astype(np.int8),
                          rng.integers(0, 2, n).astype(np.int8))
        write_dataset_csv(tmp_path / "fast.csv", data)
        write_csv(tmp_path / "rows.csv", ["id", *(f"x{j}" for j in range(1, d + 1)), "y"],
                  ([i, *x, y] for i, (x, y) in
                   enumerate(zip(data.x.tolist(), data.y.tolist()), 1)))
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        for k in (0, 1, d):
            conf = (rng.random((n, k)) < 0.5).astype(float)
            write_confounders_csv(tmp_path / "fast.csv", conf)
            write_csv(tmp_path / "rows.csv", ["id", *(f"c{j}" for j in range(1, k + 1))],
                      ([i, *row] for i, row in enumerate(conf.astype(int).tolist(), 1)))
            assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("n", [0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10_000, 10_001])
    def test_binary_writer_at_id_width_boundaries(self, tmp_path, n):
        """_write_binary_csv writes the rows of each id width as one block;
        around every width change its bytes equal write_csv's."""
        rng = np.random.default_rng(n)
        for d in (1, 2, 20):
            header = ["id", *(f"c{j}" for j in range(1, d + 1))]
            bits = rng.random((n, d)) < 0.5
            write_csv(tmp_path / "rows.csv", header,
                      ([i, *row] for i, row in enumerate(bits.astype(int).tolist(), 1)))
            for cells in (bits.astype(np.int8), bits, bits.astype(float)):
                _write_binary_csv(tmp_path / "fast.csv", header, cells)
                assert (tmp_path / "fast.csv").read_bytes() == \
                    (tmp_path / "rows.csv").read_bytes(), (d, cells.dtype)

    def test_writer_rejects_non_binary_cells(self, tmp_path):
        with pytest.raises(ValidationError):
            write_confounders_csv(tmp_path / "c.csv", np.array([[0.0, 2.0]]))
        for bad in (2, -1, 0.5, np.nan):
            cells = np.zeros((12, 3))
            cells[10, 2] = bad
            with pytest.raises(ValidationError, match="^binary CSV cells must be 0/1$"):
                _write_binary_csv(tmp_path / "c.csv", ["id", "a", "b", "c"], cells)
            with pytest.raises(ValidationError, match="^dataset entries must be 0/1$"):
                rc.Dataset(cells, np.zeros(12))
            with pytest.raises(ValidationError, match="^dataset entries must be 0/1$"):
                rc.Dataset(np.zeros((12, 3)), cells[:, 2])


def reference_read_dataset_csv(path) -> rc.Dataset:
    """The csv.reader loop that read_dataset_csv replaced, kept as the
    reference for the differential tests. Only the encoding, before the
    locale's default, is spelled out."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}: empty file")
        if len(header) < 3 or header[0] != "id" or header[-1] != "y":
            raise DatasetFormatError(f"{path}: expected header id,x1,...,y")
        d = len(header) - 2
        if header[1:-1] != [f"x{j}" for j in range(1, d + 1)]:
            raise DatasetFormatError(f"{path}: expected columns x1..x{d}")
        xs, ys = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != d + 2:
                raise DatasetFormatError(
                    f"{path}: line {lineno}: expected {d + 2} fields, got {len(row)}")
            for col, cell in zip(header[1:], row[1:]):
                if cell not in ("0", "1"):
                    raise DatasetFormatError(
                        f"{path}: line {lineno}: column {col}: "
                        f"expected 0 or 1, got {cell!r}")
            xs.append([int(c) for c in row[1:-1]])
            ys.append(int(row[-1]))
    if not xs:
        raise DatasetFormatError(f"{path}: no data rows")
    return rc.Dataset(np.array(xs, dtype=np.int8), np.array(ys, dtype=np.int8))


def read_outcome(read, path):
    """What a reader returns (arrays with their dtypes) or raises (type and
    message), in a form two readers can be compared by."""
    try:
        data = read(path)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return data.x.dtype, data.x.shape, data.x.tolist(), data.y.dtype, data.y.tolist()


MUTATIONS = ("cell", "short", "long", "blank", "quote", "space", "nul", "bom", "empty_id")


@st.composite
def mutated_dataset_files(draw):
    """The bytes of a written dataset after up to three mutations and a
    choice of line ending and final newline."""
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = [["id", *(f"x{j}" for j in range(1, d + 1)), "y"]]
    lines += [[str(i), *map(str, rng.integers(0, 2, d + 1))] for i in range(1, n + 1)]
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        r = draw(st.integers(0, len(lines) - 1))
        fields = lines[r]
        c = draw(st.integers(0, max(len(fields) - 1, 0)))
        if kind == "blank":
            lines.insert(r, [])
        elif not fields:
            continue
        elif kind == "cell":
            fields[c] = draw(st.sampled_from(["2", "", "a", "00", "-1", "1.0", "é"]))
        elif kind == "short":
            fields.pop()
        elif kind == "long":
            fields.append(draw(st.sampled_from(["0", "1", ""])))
        elif kind == "quote":
            fields[c] = draw(st.sampled_from(['"{}"', '"{}', '{}"', '"{}"""'])).format(fields[c])
        elif kind == "space":
            fields[c] = draw(st.sampled_from([" {}", "{} ", "{} {}"])).format(fields[c], fields[c])
        elif kind == "nul":
            fields[c] = draw(st.sampled_from(["\0{}", "{}\0"])).format(fields[c])
        elif kind == "bom":
            lines[0] = ["\ufeff" + lines[0][0], *lines[0][1:]] if lines[0] else ["\ufeff"]
        elif kind == "empty_id":
            fields[0] = ""
    # Weighted towards the writer's LF endings, so both parses are reached.
    ending = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]))
    text = ending.join(",".join(fields) for fields in lines)
    return (text + ending if draw(st.sampled_from([True, True, False])) else text).encode()


class TestDatasetReaderAgainstReference:
    """read_dataset_csv against the csv.reader loop it replaced: the same
    arrays, or the same exception type and message, on every input."""

    def check(self, path, raw):
        path.write_bytes(raw)
        expected = read_outcome(reference_read_dataset_csv, path)
        assert read_outcome(read_dataset_csv, path) == expected
        parsed = _parse_written_layout(raw)
        if parsed is not None:  # the buffer parse accepts only what the loop accepts
            assert read_outcome(lambda _: parsed, path) == expected

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutated_dataset_files())
    def test_mutated_written_files(self, tmp_path, raw):
        self.check(tmp_path / "d.csv", raw)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.sampled_from(["7,0,1,1", ",1,1,0", "a\0 ,0,0,1", "é,1,0,1",
                                     '"7,0,1,1', '7",1,0,0', '"7""",0,1,0', "7\r8,0,1,1"])
                    | st.text(alphabet='01,\r" a\0é', max_size=10), max_size=6),
           st.booleans())
    def test_arbitrary_lines_after_a_header(self, tmp_path, lines, final_newline):
        text = "\n".join(["id,x1,x2,y", *lines]) + ("\n" if final_newline else "")
        self.check(tmp_path / "d.csv", text.encode())


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

    def test_non_integer_index(self, classroom_truth):
        payload = truth_to_dict(classroom_truth, 1, "00" * 16)
        payload["relevant"][0]["index"] = "x"
        with pytest.raises(ValidationError, match="malformed truth payload"):
            truth_from_dict(payload)

    @pytest.mark.parametrize("bad", [3.7, 3.0, True, "3"])
    @pytest.mark.parametrize("field", ["index", "linked"])
    def test_indices_must_be_json_integers(self, classroom_truth, field, bad):
        payload = truth_to_dict(classroom_truth, 1, "00" * 16)
        payload["confounders"] = [{"log_or": 0.5, "linked": [3], "prevalence": 0.2}]
        truth_from_dict(payload)
        if field == "index":
            payload["relevant"][0]["index"] = bad
        else:
            payload["confounders"][0]["linked"] = [bad]
        with pytest.raises(ValidationError, match="malformed truth payload"):
            truth_from_dict(payload)

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

    @pytest.mark.parametrize("selected", ['5', '["x"]', '[1.7]', '[true]', '[2, 1.0]', '"3 6"'])
    def test_selected_must_be_integer_array(self, tmp_path, selected):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"team": "x", "selected": {selected}}}')
        with pytest.raises(ValidationError, match="'selected' must be an array of integers"):
            read_submission(path)


@pytest.mark.parametrize("read, error", [
    (parse_config_file, ConfigurationError),
    (read_truth_json, ValidationError),
    (read_submission, ValidationError),
])
def test_text_file_not_utf8_names_line(tmp_path, read, error):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# contest\nn_cases = 10\xe9\n")
    with pytest.raises(error, match=r"latin1.txt: line 2: not UTF-8 text \(byte 0xe9"):
        read(path)


ENDINGS = {"LF": b"\n", "CR": b"\r", "CRLF": b"\r\n"}


@pytest.mark.parametrize("ending", ENDINGS.values(), ids=ENDINGS.keys())
@pytest.mark.parametrize("read, lines, error", [
    (read_dataset_csv, [b"id,x1,y", b"1,0,1", b"2,1,0", b"3,\xe9,0", b"4,0,0"], DatasetFormatError),
    (parse_config_file, [b"# contest", b"seed = 1", b"", b"\xe9n_cases = 10"], ConfigurationError),
    (read_truth_json, [b"{", b'"k": 1,', b"", b'"salt": "\xe9"', b"}"], ValidationError),
], ids=["dataset", "config", "truth"])
def test_bad_byte_names_its_physical_line(tmp_path, read, lines, error, ending):
    """The UTF-8 error counts physical lines, whatever their endings, also
    when the bad byte starts its line."""
    path = tmp_path / "latin1.txt"
    path.write_bytes(ending.join(lines) + ending)
    with pytest.raises(error, match=r"latin1.txt: line 4: not UTF-8 text \(byte 0xe9"):
        read(path)


def test_dataset_bad_byte_is_found_before_a_field_fault(tmp_path):
    """A dataset is decoded whole before any field is checked, so a bad
    byte is the error even after a row with too few fields."""
    path = tmp_path / "d.csv"
    path.write_bytes(b"id,x1,y\n1,0\n2,1,0\n3,\xe9,0\n")
    with pytest.raises(DatasetFormatError, match=r"line 4: not UTF-8 text \(byte 0xe9"):
        read_dataset_csv(path)


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

    def test_missing_equals_sign(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("d 10\n")
        with pytest.raises(ConfigurationError):
            parse_config_file(path)

    def test_bad_value(self):
        with pytest.raises(ConfigurationError):
            sim_config_from_mapping({"d": "ten"})

    def test_bad_bool_value(self):
        with pytest.raises(ConfigurationError, match="bad value for jitter_prevalences: 'maybe'"):
            sim_config_from_mapping({"jitter_prevalences": "maybe"})

    @pytest.mark.parametrize("ending", ENDINGS.values(), ids=ENDINGS.keys())
    def test_error_names_its_physical_line(self, tmp_path, ending):
        """Lines end at LF, CR or CRLF only; no other character at which
        str.splitlines splits ends one."""
        path = tmp_path / "c.cfg"
        lines = ["seed = 1\x0c", "d = 10\x1c\x1d\x1e", "n_cases = 100\x85\u2028\u2029", "bogus"]
        path.write_bytes(ending.join(line.encode() for line in lines) + ending)
        with pytest.raises(ConfigurationError, match="c.cfg: line 4: expected key = value"):
            parse_config_file(path)
        path.write_bytes(ending.join(line.encode() for line in lines[:3]) + ending)
        assert parse_config_file(path) == {"seed": "1", "d": "10", "n_cases": "100"}

    @pytest.mark.parametrize("value", ["inf", "-inf", "Infinity", "nan", "NaN"])
    def test_non_finite_float_rejected(self, value):
        """effect_hi = inf once overflowed in simulate, and
        median_p_threshold = nan made team_d select nothing."""
        with pytest.raises(ConfigurationError, match=f"bad value for effect_hi: '{value}'"):
            sim_config_from_mapping({"effect_hi": value})
        with pytest.raises(ConfigurationError,
                           match=f"bad value for team_d.median_p_threshold: '{value}'"):
            selector_spec_from_mapping("team_d", {"team_d.median_p_threshold": value})


floats = st.floats(-1e6, 1e6, allow_nan=False)
unit = st.floats(1e-9, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def sim_configs(draw):
    d = draw(st.integers(2, 60))
    k_max = draw(st.integers(1, d - 1))
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

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "x"])
    def test_bad_weight_value_rejected(self, tmp_path, value):
        """w_tp = inf once scored every hit as inf."""
        path = tmp_path / "w.cfg"
        path.write_text(f"w_tp = {value}\nw_fp = -6\nw_tn = 2\nw_fn = -1\n")
        with pytest.raises(ConfigurationError, match=f"bad value for w_tp: '{value}'"):
            load_weights(str(path))

    def test_incomplete_file(self, tmp_path):
        path = tmp_path / "w.cfg"
        path.write_text("w_tp = 5\n")
        with pytest.raises(ConfigurationError):
            load_weights(str(path))

    def test_key_error_names_the_keys_given(self, tmp_path):
        path = tmp_path / "w.cfg"
        path.write_text("w_fn = -1\nw_tp = 5\n")
        with pytest.raises(ConfigurationError, match=r"not \['w_fn', 'w_tp'\]"):
            load_weights(str(path))
