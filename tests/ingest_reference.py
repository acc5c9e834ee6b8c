"""Per-field predict-path code that the package's table-driven versions replace.

`normalize_text` (a `[^a-z0-9]+` substitution), `format_csv` (one regex
search per field), `postings_from_records` (a dict and `Posting(**values)`
per row, its full_text from this module's `normalize_text`) and
`encode_numeric` (one posting, `list.index` per category) as they were
before the rewrite. The package never calls them; the property
tests require the new code to give exactly what these give.
"""

import re

import numpy as np

from jobfraud.errors import DataError
from jobfraud.features import CATEGORICAL_COLUMNS, country_of
from jobfraud.ingest import COLUMNS, FLAG_COLUMNS, TEXT_CONCAT_FIELDS, Posting

_TAG_RE = re.compile(r"<[^>]*>")
_NON_ALNUM_RE = re.compile(r"[^a-z0-9]+")
_ENTITIES = (
    ("&amp;", "&"),
    ("&lt;", "<"),
    ("&gt;", ">"),
    ("&quot;", '"'),
    ("&#39;", "'"),
    ("&nbsp;", " "),
)


def normalize_text(s: str) -> str:
    s = _TAG_RE.sub(" ", s)
    for entity, char in _ENTITIES:
        s = s.replace(entity, char)
    s = s.lower()
    s = _NON_ALNUM_RE.sub(" ", s)
    return s.strip()


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quote_field(value: str) -> str:
    if _NEEDS_QUOTES.search(value):
        return '"' + value.replace('"', '""') + '"'
    return value


def format_csv(header, rows) -> str:
    lines = [",".join(_quote_field(f) for f in header)]
    lines.extend(",".join(_quote_field(str(f)) for f in row) for row in rows)
    return "\n".join(lines) + "\n"


def _parse_flag(value: str, column: str, record_number: int, counters: dict) -> int:
    if value == "":
        counters[column] = counters.get(column, 0) + 1
        return 0
    if value in ("0", "1"):
        return int(value)
    raise DataError(
        f"record {record_number}: column {column!r} must be 0 or 1, got {value!r}"
    )


def postings_from_records(header, records, source) -> list:
    """The old mapping; a record wider than the header was read, not refused."""
    header = [h.strip() for h in header]
    col_index = {}
    for idx, name in enumerate(header):
        if name in COLUMNS and name not in col_index:
            col_index[name] = idx
    missing = [name for name in COLUMNS if name not in col_index]

    flag_defaults = {}
    rows = []
    for data_row, record in enumerate(records, start=1):
        record_number = data_row + 1
        values = {}
        for name, idx in col_index.items():
            values[name] = record[idx] if idx < len(record) else ""
        for name in missing:
            values[name] = ""
        for flag in FLAG_COLUMNS:
            values[flag] = _parse_flag(values[flag], flag, record_number, flag_defaults)
        raw_id = values["job_id"].strip()
        if raw_id == "":
            flag_defaults["job_id"] = flag_defaults.get("job_id", 0) + 1
            values["job_id"] = data_row
        else:
            try:
                values["job_id"] = int(raw_id)
            except ValueError as exc:
                raise DataError(
                    f"record {record_number}: job_id must be an integer, got {raw_id!r}"
                ) from exc
        text = " ".join(values[name] for name in TEXT_CONCAT_FIELDS)
        rows.append(Posting(**values, full_text=normalize_text(text)))
    return rows


def _column_value(posting, column: str) -> str:
    if column == "country":
        return country_of(posting.location)
    return getattr(posting, column)


def encode_numeric(posting, categories: dict) -> np.ndarray:
    parts = [
        float(posting.telecommuting),
        float(posting.has_company_logo),
        float(posting.has_questions),
        1.0 if posting.salary_range != "" else 0.0,
    ]
    for column in CATEGORICAL_COLUMNS:
        block = [0.0] * len(categories[column])
        value = _column_value(posting, column)
        if value:
            try:
                block[categories[column].index(value)] = 1.0
            except ValueError:
                pass
        parts.extend(block)
    return np.array(parts, dtype=np.float64)
