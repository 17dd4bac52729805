"""Artifact formats: every file the command-line tools read or write.

JSON artifacts are sorted, indented dumps that embed a provenance block;
its timestamp is the only field that varies between identical runs.  CSV
artifacts open with one provenance comment line

    # photonstats <version> schema=<schema version> seed=<seed or None>

followed by a header row and one row per index 0 .. len - 1.  Readers skip
'#' lines and reject any table that is not exactly that shape with a
ShapeError, so malformed input is a usage error rather than a crash.
"""

from __future__ import annotations

import csv
import datetime
import json
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import CountHistogram
from .errors import DomainError, ShapeError
from .montecarlo import GENERATOR

SCHEMA_VERSION = "1"

HISTOGRAM_HEADER = ("clicks", "count")
RHO_HEADER = ("n", "rho")
B_HEADER = ("n", "b")
OVERLAY_HEADER = ("clicks", "frequency", "poisson_reference")

# counts and their total must fit the int64 histogram vector
MAX_TOTAL_COUNT = 2**63 - 1


def provenance_block(seed: int | None) -> dict:
    """Provenance carried by every JSON artifact.  seed is None for
    commands that consume files instead of running the simulator."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "generator": GENERATOR,
        "seed": None if seed is None else int(seed),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path: Path, header, rows, seed: int | None) -> None:
    """No timestamp in the comment line, so identical runs produce
    identical bytes."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# photonstats {__version__} schema={SCHEMA_VERSION} seed={seed}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def count_rows(counts) -> list:
    return [(k, int(c)) for k, c in enumerate(counts)]


def float_rows(values) -> list:
    return [(n, repr(float(x))) for n, x in enumerate(values)]


def histogram_dict(hist: CountHistogram) -> dict:
    return {
        "kind": "count_histogram",
        "trigger_label": hist.trigger_label,
        "counts": [int(c) for c in hist.counts],
    }


def _read_column(path, header: tuple[str, str], parse) -> list:
    """Value column of a two-column CSV artifact, parsed and in index order."""
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    except csv.Error as err:
        raise ShapeError(f"{path}: unreadable CSV ({err})") from err
    if not rows or tuple(rows[0]) != header:
        raise ShapeError(f"expected header {header} in {path}")
    values: list = [None] * (len(rows) - 1)
    for row in rows[1:]:
        if len(row) != len(header):
            raise ShapeError(f"{path}: row {row} has {len(row)} fields, not {len(header)}")
        try:
            index, value = int(row[0]), parse(row[1])
        except ValueError as err:
            raise ShapeError(f"{path}: unreadable row {row} ({err})") from err
        if not 0 <= index < len(values) or values[index] is not None:
            raise ShapeError(f"{path}: index {index} repeated or outside 0..{len(values) - 1}")
        values[index] = value
    return values


def read_histogram(path, trigger_label: str = "t1") -> CountHistogram:
    counts = _read_column(path, HISTOGRAM_HEADER, int)
    if sum(abs(c) for c in counts) > MAX_TOTAL_COUNT:
        raise DomainError(f"{path}: counts overflow a 64-bit total")
    return CountHistogram(np.array(counts, dtype=np.int64), trigger_label=trigger_label)


def read_rho(path) -> np.ndarray:
    """Photon-number statistics as written by `invert` or `pipeline`; may
    carry negative entries from a direct inversion."""
    rho = np.array(_read_column(path, RHO_HEADER, float), dtype=float)
    if not np.all(np.isfinite(rho)):
        raise DomainError(f"{path}: non-finite entries in rho")
    return rho
