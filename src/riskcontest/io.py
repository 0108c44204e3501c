"""File formats: contestant dataset CSV, sealed truth JSON with its hash
commitment, submission files, and the flat key=value config format.

The truth file is canonical JSON (sorted keys, no insignificant whitespace)
so its SHA-256 digest is well-defined; the random salt lives inside the file,
which makes the published digest useless for guessing the answer key.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CommitmentError, ConfigurationError, DatasetFormatError, ValidationError
from .scoring import ScoringWeights, WEIGHT_PRESETS
from .selectors import METHODS, SelectorSpec, Submission
from .sim import Confounder, Dataset, GroundTruth, SimulationConfig

SCHEMA_VERSION = 1


# -- CSV outputs -------------------------------------------------------------

def write_csv(path, header, rows) -> None:
    """The dialect of every CSV the package writes: ',' between fields and
    a bare newline after each line, so reruns are byte-identical anywhere."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_binary_csv(path, header, cells) -> None:
    """Write the header, then per row of the 0/1 matrix `cells` its 1-based
    id and its cells, in write_csv's dialect and with the same bytes. The
    rows whose ids have the same number of digits (1-9, 10-99, ...) are one
    uint8 block: each line is the id's digits, the ',c' pairs and the
    newline, so no row is formatted on its own."""
    cells = np.asarray(cells)
    if not ((cells == 0) | (cells == 1)).all():
        raise ValidationError("binary CSV cells must be 0/1")
    tail = np.empty((cells.shape[0], 2 * cells.shape[1] + 1), dtype=np.uint8)
    tail[:, 0:-1:2] = ord(",")
    tail[:, 1:-1:2] = cells.astype(np.uint8) + ord("0")
    tail[:, -1] = ord("\n")
    blocks = [",".join(header).encode() + b"\n"]
    for width in range(1, len(str(len(tail))) + 1):
        lo, hi = 10 ** (width - 1), min(10 ** width, len(tail) + 1)
        block = np.empty((hi - lo, width + tail.shape[1]), dtype=np.uint8)
        block[:, :width] = (np.arange(lo, hi)[:, None] // 10 ** np.arange(width - 1, -1, -1)
                            % 10 + ord("0"))
        block[:, width:] = tail[lo - 1:hi - 1]
        blocks.append(block.tobytes())
    Path(path).write_bytes(b"".join(blocks))


def write_dataset_csv(path, dataset: Dataset) -> None:
    """Contestant-facing file: header id,x1..xd,y then strictly 0/1 cells."""
    header = ["id"] + [f"x{j}" for j in range(1, dataset.d + 1)] + ["y"]
    _write_binary_csv(path, header, np.column_stack([dataset.x, dataset.y]))


def write_confounders_csv(path, confounders: np.ndarray) -> None:
    """Instructor diagnostics: the latent confounder columns, same row order."""
    header = ["id"] + [f"c{j}" for j in range(1, confounders.shape[1] + 1)]
    _write_binary_csv(path, header, confounders)


def read_dataset_csv(path) -> Dataset:
    """Read a contestant dataset: header id,x1..xd,y, then one row per
    record whose x and y cells are 0 or 1 (the id cell is not checked).

    A file in the layout write_dataset_csv produces is parsed as one byte
    buffer; any other file goes through csv.reader, which accepts CRLF or CR
    endings, quoted cells and a missing final newline, and raises
    DatasetFormatError naming the line (and column) of the first fault."""
    raw = Path(path).read_bytes()
    dataset = _parse_written_layout(raw)
    return dataset if dataset is not None else _parse_csv_rows(path, raw)


def _parse_written_layout(raw: bytes) -> Dataset | None:
    """The dataset in `raw`, or None unless it is in the writer's layout.

    In ASCII with LF endings and no '"', csv.reader splits a line at every
    ',' and nowhere else. So a data row is valid when its last 2(d + 1)
    bytes are d + 1 ',c' pairs with c in {0, 1}; and once every row has its
    d + 1 commas in that tail, a file-wide comma count of (n + 1)(d + 1)
    leaves none for an id cell. Rejecting a file here only sends it to
    _parse_csv_rows, which raises the error, if any."""
    if not raw.isascii() or b'"' in raw or b"\r" in raw or not raw.endswith(b"\n"):
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    header = raw[:ends[0]].split(b",")
    d, n = len(header) - 2, len(ends) - 1
    if d < 1 or n == 0 or header != [b"id", *(b"x%d" % j for j in range(1, d + 1)), b"y"]:
        return None
    if raw.count(b",") != (n + 1) * (d + 1):
        return None
    # A line shorter than `width` fails the tail check: the newline before
    # it falls inside its window.
    width = 2 * (d + 1)
    tails = sliding_window_view(buf, width)[ends[1:] - width]
    cells = tails[:, 1::2] - np.uint8(ord("0"))
    if (tails[:, 0::2] != ord(",")).any() or (cells > 1).any():
        return None
    cells = cells.view(np.int8)
    return Dataset(np.ascontiguousarray(cells[:, :-1]), cells[:, -1].copy())


def _parse_csv_rows(path, raw: bytes) -> Dataset:
    """Decode `raw`, then read it through csv.reader one record at a time,
    and raise DatasetFormatError at the first line that breaks the layout."""
    reader = csv.reader(io.StringIO(_read_text(path, DatasetFormatError, raw), newline=""))
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
    return Dataset(np.array(xs, dtype=np.int8), np.array(ys, dtype=np.int8))


def _read_text(path, error=ValidationError, raw=None) -> str:
    """The UTF-8 text of the file at path, or of its bytes `raw` if the
    caller has read them; a byte that is not UTF-8 raises `error` naming it
    and its physical line (LF, CR or CRLF endings)."""
    raw = Path(path).read_bytes() if raw is None else raw
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(
            f"{path}: line {len(raw[:exc.start + 1].splitlines())}: not UTF-8 text "
            f"(byte {raw[exc.start]:#04x}: {exc.reason})") from None


# -- sealed truth ------------------------------------------------------------

def truth_to_dict(truth: GroundTruth, seed: int, salt: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": int(seed),
        "k": truth.k,
        "relevant": [{"index": j, "log_or": truth.effects[j]} for j in truth.relevant],
        "confounders": [
            {"log_or": c.log_or, "linked": list(c.linked), "prevalence": c.prevalence}
            for c in truth.confounders
        ],
        "prevalences": list(truth.prevalences),
        "salt": salt,
    }


def _json_int(value) -> int:
    # int() would read 3.7, true and "3" as 3, 1 and 3.
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def truth_from_dict(payload: dict) -> GroundTruth:
    try:
        relevant = tuple(_json_int(e["index"]) for e in payload["relevant"])
        effects = {_json_int(e["index"]): float(e["log_or"]) for e in payload["relevant"]}
        confounders = tuple(
            Confounder(float(c["log_or"]), tuple(_json_int(j) for j in c["linked"]),
                       float(c["prevalence"]))
            for c in payload["confounders"]
        )
        prevalences = tuple(float(p) for p in payload["prevalences"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed truth payload: {exc}")
    return GroundTruth(relevant, effects, confounders, prevalences)


def canonical_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def commitment_digest(payload: dict) -> str:
    """SHA-256 over the canonical truth serialization (salt included)."""
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


def write_truth_json(path, truth: GroundTruth, seed: int, salt: str) -> str:
    """Write the sealed truth file; returns the commitment digest."""
    payload = truth_to_dict(truth, seed, salt)
    Path(path).write_bytes(canonical_bytes(payload) + b"\n")
    return commitment_digest(payload)


def read_truth_json(path) -> tuple[GroundTruth, dict]:
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}")
    return truth_from_dict(payload), payload


def verify_commitment(payload: dict, digest: str) -> None:
    actual = commitment_digest(payload)
    if actual != digest.strip().lower():
        raise CommitmentError(
            f"truth digest {actual} does not match the committed {digest}")


# -- submissions -------------------------------------------------------------

def write_submission(path, submission: Submission) -> None:
    payload = {
        "team": submission.team,
        "selected": list(submission.selected),
        "method_report": submission.method_report,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_submission(path) -> Submission:
    """JSON submission, or the plain-text fallback of whitespace-separated
    1-based indices (team name taken from the file stem)."""
    text = _read_text(path)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        tokens = text.split()
        try:
            selected = tuple(sorted({int(t) for t in tokens}))
        except ValueError:
            raise ValidationError(
                f"{path}: expected JSON or whitespace-separated indices")
        return Submission(Path(path).stem, selected)
    if not isinstance(payload, dict) or "selected" not in payload:
        raise ValidationError(f"{path}: submission JSON needs a 'selected' array")
    selected = payload["selected"]
    if not isinstance(selected, list) or any(type(j) is not int for j in selected):
        raise ValidationError(f"{path}: 'selected' must be an array of integers")
    team = str(payload.get("team") or Path(path).stem)
    selected = tuple(sorted(selected))
    return Submission(team, selected, str(payload.get("method_report", "")))


# -- flat key=value configs --------------------------------------------------

def parse_config_file(path) -> dict[str, str]:
    """key = value lines; '#' starts a comment; later keys win. Lines end
    at LF, CR or CRLF only, so an error names the physical line."""
    out: dict[str, str] = {}
    text = _read_text(path, ConfigurationError)
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}: line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _coerce(name: str, value: str, target_type: type) -> object:
    """value as target_type; a float must be finite."""
    try:
        if target_type is bool:
            low = value.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(value)
        out = target_type(value)
        if target_type is float and not math.isfinite(out):
            raise ValueError(value)
        return out
    except ValueError:
        raise ConfigurationError(f"bad value for {name}: {value!r}")


# The key grammar shared by simulate, select and tournament. A key is
# (a) a SimulationConfig field, (b) a tournament key, (c) a SelectorSpec
# option, the default for every method, or (d) '<method>.<option>', which
# overrides that option for one method. Each command reads only its keys.
SIM_FIELDS = tuple(f.name for f in dataclass_fields(SimulationConfig))
TOURNAMENT_KEYS = frozenset({"replicates", "master_seed", "methods", "weights"})
SPEC_OPTIONS = tuple(f.name for f in dataclass_fields(SelectorSpec)
                     if f.name not in ("method", "seed"))
_BARE_KEYS = frozenset(SIM_FIELDS) | TOURNAMENT_KEYS | frozenset(SPEC_OPTIONS)
_TYPES = {"int": int, "float": float, "bool": bool, "str": str}


def check_config_keys(mapping: dict[str, str], methods=METHODS) -> None:
    """Reject every key outside the grammar; a '<method>.<option>' key must
    also name one of `methods`."""
    for key in mapping:
        method, dot, option = key.partition(".")
        if not dot:
            if key not in _BARE_KEYS:
                raise ConfigurationError(f"unknown config key {key!r}")
        elif method not in methods:
            raise ConfigurationError(f"option {key!r} names no configured method")
        elif option not in SPEC_OPTIONS:
            raise ConfigurationError(f"unknown selector option {key!r}")


def config_values(cls, names, mapping: dict[str, str], prefix: str = "") -> dict:
    """The named fields of dataclass `cls` that `mapping` sets, each read
    from key prefix + name, or else name, and converted to its annotated
    type ('T | None' read as T)."""
    types = {f.name: f.type for f in dataclass_fields(cls)}
    values = {}
    for name in names:
        key = prefix + name if prefix + name in mapping else name
        if key in mapping:
            target = _TYPES[types[name].removesuffix(" | None")]
            values[name] = _coerce(key, mapping[key], target)
    return values


def sim_config_from_mapping(mapping: dict[str, str]) -> SimulationConfig:
    """Build a SimulationConfig from the matching keys of a parsed config."""
    return SimulationConfig(**config_values(SimulationConfig, SIM_FIELDS, mapping))


def selector_spec_from_mapping(method: str, mapping: dict[str, str]) -> SelectorSpec:
    """Build the SelectorSpec of `method`: each option from its
    '<method>.<option>' key, or else from the bare '<option>' default."""
    return SelectorSpec(method, **config_values(SelectorSpec, SPEC_OPTIONS, mapping,
                                                prefix=method + "."))


def load_weights(spec: str) -> ScoringWeights:
    """A preset name ('table1', 'proposed') or a path to a key=value file."""
    if spec in WEIGHT_PRESETS:
        return WEIGHT_PRESETS[spec]
    path = Path(spec)
    if not path.exists():
        raise ConfigurationError(
            f"unknown weights preset or missing file: {spec!r} "
            f"(presets: {', '.join(sorted(WEIGHT_PRESETS))})")
    mapping = parse_config_file(path)
    names = [f.name for f in dataclass_fields(ScoringWeights)]
    if sorted(mapping) != sorted(names):
        raise ConfigurationError(f"a weights file sets exactly w_tp, w_fp, w_tn and w_fn, "
                                 f"not {sorted(mapping)}")
    return ScoringWeights(**config_values(ScoringWeights, names, mapping))
