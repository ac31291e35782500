"""Versioned files: the one format number and the JSON and CSV envelopes.

A JSON document carries a top-level ``format`` key and is written with
sorted keys and a one-space indent.  A CSV file starts with ``# format=1``,
then ordered ``# key=value`` comment lines whose values are JSON, then a
header row and the data rows.  Readers reject a missing or unsupported
format, so every file crnverify reads or writes is checked in one place.
"""

import json
import sys
from pathlib import Path

from .errors import ParseError

FORMAT_VERSION = 1


def finite_number(value) -> bool:
    """Whether a value read from JSON is a finite number: an int or float
    but not a bool (JSON true/false load as bool, a subclass of int),
    within the float range.  The range test, unlike ``math.isfinite``,
    cannot overflow on a huge JSON integer, and NaN fails it."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


def write_json(path: str | Path, doc: dict) -> None:
    """Write ``doc`` plus the format key as canonical, byte-stable JSON."""
    text = json.dumps({**doc, "format": FORMAT_VERSION}, sort_keys=True, indent=1)
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_json(path: str | Path, kind: str, error: type[Exception] = ParseError) -> dict:
    """Read a JSON object written by ``write_json``; the format key is removed.

    Bad JSON, a non-object, or a missing or different format raise ``error``.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise error(f"{kind} {path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise error(f"{kind} {path}: expected a JSON object")
    version = doc.pop("format", None)
    if version != FORMAT_VERSION:
        raise error(f"{kind} {path}: missing or unsupported 'format' {version!r} (expected {FORMAT_VERSION})")
    return doc


def write_csv(path: str | Path, comments: dict, header: list[str], rows) -> None:
    """Write the format line, one ``# key=<JSON>`` line per comment in order,
    the header, and the rows (each a list of already formatted fields)."""
    lines = [f"# format={FORMAT_VERSION}"]
    lines += [f"# {key}=" + json.dumps(value, sort_keys=True) for key, value in comments.items()]
    lines.append(",".join(header))
    lines += [",".join(row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path: str | Path, kind: str) -> tuple[dict, list[str], list[list[str]]]:
    """Comments, header and rows of a file written by ``write_csv``.

    Blank lines and comments that are not ``key=value`` are skipped; a
    comment value that is not JSON is kept as its text.  The header is
    empty when the file has no non-comment line.
    """
    comments: dict = {}
    header: list[str] = []
    rows: list[list[str]] = []
    saw_format = False
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if key == "format":
                if value != str(FORMAT_VERSION):
                    raise ParseError(f"unsupported {kind} format: format={value}")
                saw_format = True
            elif sep:
                try:
                    comments[key] = json.loads(value)
                except json.JSONDecodeError:
                    comments[key] = value
            continue
        if not header:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    if not saw_format:
        raise ParseError(f"{kind} file missing 'format={FORMAT_VERSION}' header")
    return comments, header, rows
