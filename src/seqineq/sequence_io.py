"""Reading and writing sequence files.

Two formats are supported, chosen by file extension (``.json`` means JSON,
anything else means CSV):

* CSV: one real number per line.  ``#`` starts a comment; a comment of the
  form ``# start_index=0`` or ``# start_index=1`` sets the index base
  (default 1).
* JSON: an object ``{"start_index": 0 or 1, "values": [...]}``.

Numbers are written with shortest round-trip formatting, so a write/read
cycle reproduces every value bit for bit.
"""

from __future__ import annotations

import json
import os
import re

from .core import Sequence

_START_INDEX_RE = re.compile(r"#\s*start_index\s*=\s*(\d+)\s*$")


def parse_sequence_csv(text: str) -> Sequence:
    start_index = 1
    values = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            match = _START_INDEX_RE.match(line)
            if match:
                start_index = int(match.group(1))
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise ValueError(f"line {lineno}: not a number: {line!r}") from None
    if not values:
        raise ValueError("no values in sequence file")
    return Sequence(tuple(values), start_index)


def parse_sequence_json(text: str) -> Sequence:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("sequence JSON must be an object")
    if "values" not in doc:
        raise ValueError('sequence JSON must have a "values" array')
    values = doc["values"]
    if not isinstance(values, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in values
    ):
        raise ValueError('"values" must be an array of numbers')
    start_index = doc.get("start_index", 1)
    if not isinstance(start_index, int) or isinstance(start_index, bool):
        raise ValueError('"start_index" must be an integer')
    return Sequence(tuple(values), start_index)


def format_sequence_csv(u: Sequence) -> str:
    lines = [f"# start_index={u.start_index}"]
    lines.extend(repr(x) for x in u.values)
    return "\n".join(lines) + "\n"


def format_sequence_json(u: Sequence) -> str:
    return json.dumps({"start_index": u.start_index, "values": list(u.values)}) + "\n"


def _is_json_path(path: str | os.PathLike) -> bool:
    return os.path.splitext(path)[1].lower() == ".json"


def read_sequence(path: str | os.PathLike) -> Sequence:
    """Load a sequence file, picking the format from the extension."""
    with open(path) as fh:
        text = fh.read()
    if _is_json_path(path):
        return parse_sequence_json(text)
    return parse_sequence_csv(text)


def write_sequence(path: str | os.PathLike, u: Sequence) -> None:
    """Write a sequence file, picking the format from the extension."""
    text = format_sequence_json(u) if _is_json_path(path) else format_sequence_csv(u)
    with open(path, "w") as fh:
        fh.write(text)
