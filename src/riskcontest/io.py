"""File formats: contestant dataset CSV, sealed truth JSON with its hash
commitment, submission files, and the flat key=value config format.

The truth file is canonical JSON (sorted keys, no insignificant whitespace)
so its SHA-256 digest is well-defined; the random salt lives inside the file,
which makes the published digest useless for guessing the answer key.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import fields as dataclass_fields
from dataclasses import replace
from pathlib import Path

import numpy as np

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


def write_dataset_csv(path, dataset: Dataset) -> None:
    """Contestant-facing file: header id,x1..xd,y then strictly 0/1 cells."""
    header = ["id"] + [f"x{j}" for j in range(1, dataset.d + 1)] + ["y"]
    rows = zip(dataset.x.astype(int).tolist(), dataset.y.astype(int).tolist())
    write_csv(path, header, ([i, *x, y] for i, (x, y) in enumerate(rows, 1)))


def write_confounders_csv(path, confounders: np.ndarray) -> None:
    """Instructor diagnostics: the latent confounder columns, same row order."""
    header = ["id"] + [f"c{j}" for j in range(1, confounders.shape[1] + 1)]
    rows = confounders.astype(int).tolist()
    write_csv(path, header, ([i, *row] for i, row in enumerate(rows, 1)))


def read_dataset_csv(path) -> Dataset:
    with open(path, newline="") as fh:
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
    return Dataset(np.array(xs, dtype=np.int8), np.array(ys, dtype=np.int8))


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


def truth_from_dict(payload: dict) -> GroundTruth:
    try:
        relevant = tuple(int(e["index"]) for e in payload["relevant"])
        effects = {int(e["index"]): float(e["log_or"]) for e in payload["relevant"]}
        confounders = tuple(
            Confounder(float(c["log_or"]), tuple(int(j) for j in c["linked"]),
                       float(c["prevalence"]))
            for c in payload["confounders"]
        )
        prevalences = tuple(float(p) for p in payload["prevalences"])
    except (KeyError, TypeError) as exc:
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
        payload = json.loads(Path(path).read_text())
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
    text = Path(path).read_text()
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
    team = str(payload.get("team") or Path(path).stem)
    selected = tuple(sorted(int(j) for j in payload["selected"]))
    return Submission(team, selected, str(payload.get("method_report", "")))


# -- flat key=value configs --------------------------------------------------

def parse_config_file(path) -> dict[str, str]:
    """key = value lines; '#' starts a comment; later keys win."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}: line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _coerce(name: str, value: str, target_type: type) -> object:
    try:
        if target_type is bool:
            low = value.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(value)
        return target_type(value)
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


def sim_config_from_mapping(mapping: dict[str, str],
                            base: SimulationConfig | None = None) -> SimulationConfig:
    """Build a SimulationConfig from the matching keys of a parsed config."""
    values = config_values(SimulationConfig, SIM_FIELDS, mapping)
    return replace(base or SimulationConfig(), **values)


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
    for key in mapping:
        if key not in names:
            raise ConfigurationError(f"unknown weights key {key!r}")
    try:
        return ScoringWeights(**{name: float(mapping[name]) for name in names})
    except KeyError as exc:
        raise ConfigurationError(f"weights file must define w_tp/w_fp/w_tn/w_fn ({exc})")
    except ValueError as exc:
        raise ConfigurationError(f"bad weight value: {exc}")
