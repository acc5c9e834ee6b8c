"""Job-postings CSV ingestion and text cleanup.

Reads the postings CSV (RFC 4180: quoted fields may hold commas, doubled
quotes, and embedded newlines), maps columns by header name, and produces
a cleaned dataset whose ``full_text`` holds the normalized concatenation
of the five free-text fields.
"""

import dataclasses
import logging
import re
from dataclasses import dataclass

from .errors import CsvParseError, DataError

logger = logging.getLogger(__name__)

FLAG_COLUMNS = ("telecommuting", "has_company_logo", "has_questions", "fraudulent")

# Order used to build full_text.
TEXT_CONCAT_FIELDS = ("title", "company_profile", "description", "requirements", "benefits")


@dataclass(frozen=True, slots=True)
class RawPosting:
    """One job advertisement as read from the CSV (missing text = "")."""

    job_id: int
    title: str = ""
    location: str = ""
    department: str = ""
    salary_range: str = ""
    company_profile: str = ""
    description: str = ""
    requirements: str = ""
    benefits: str = ""
    telecommuting: int = 0
    has_company_logo: int = 0
    has_questions: int = 0
    employment_type: str = ""
    required_experience: str = ""
    required_education: str = ""
    industry: str = ""
    function: str = ""
    fraudulent: int = 0


@dataclass(frozen=True, slots=True)
class CleanPosting:
    """A RawPosting plus its normalized title and combined text."""

    job_id: int
    title: str
    location: str
    department: str
    salary_range: str
    company_profile: str
    description: str
    requirements: str
    benefits: str
    telecommuting: int
    has_company_logo: int
    has_questions: int
    employment_type: str
    required_experience: str
    required_education: str
    industry: str
    function: str
    fraudulent: int
    title_clean: str
    full_text: str


@dataclass(frozen=True, slots=True)
class Dataset:
    postings: tuple
    summary: dict


_COLUMN_NAMES = [f.name for f in dataclasses.fields(RawPosting)]


# --------------------------------------------------------------------------
# RFC 4180 reader / writer
# --------------------------------------------------------------------------

def parse_csv_text(text: str) -> list:
    """Split CSV text into records of fields.

    Records end at a newline (LF or CRLF) outside quotes. Inside quotes,
    commas and newlines are literal and '""' is an escaped quote. A quote
    left open at end of input, or a closing quote followed by anything but
    a separator, raises CsvParseError naming the 1-based record number
    (the header counts as record 1).
    """
    records = []
    fields = []
    buf = []
    record_number = 1
    i = 0
    n = len(text)
    in_quotes = False
    field_was_quoted = False

    def end_field():
        nonlocal field_was_quoted
        fields.append("".join(buf))
        buf.clear()
        field_was_quoted = False

    def end_record():
        nonlocal record_number
        end_field()
        records.append(fields.copy())
        fields.clear()
        record_number += 1

    while i < n:
        ch = text[i]
        if in_quotes:
            if ch == '"':
                if i + 1 < n and text[i + 1] == '"':
                    buf.append('"')
                    i += 2
                    continue
                in_quotes = False
                i += 1
                if i < n and text[i] not in (",", "\r", "\n"):
                    raise CsvParseError(
                        f"unexpected character {text[i]!r} after closing quote",
                        record_number,
                    )
                continue
            buf.append(ch)
            i += 1
        else:
            if ch == '"' and not buf and not field_was_quoted:
                in_quotes = True
                field_was_quoted = True
                i += 1
            elif ch == ",":
                end_field()
                i += 1
            elif ch == "\n":
                end_record()
                i += 1
            elif ch == "\r":
                end_record()
                i += 2 if i + 1 < n and text[i + 1] == "\n" else 1
            else:
                buf.append(ch)
                i += 1

    if in_quotes:
        raise CsvParseError("unterminated quoted field at end of input", record_number)
    if buf or fields or field_was_quoted:
        end_record()
    return records


def read_csv(path) -> tuple:
    """Read a CSV file; returns (header, data records)."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    records = parse_csv_text(text)
    if not records:
        raise DataError(f"{path} is empty")
    return records[0], records[1:]


def _quote_field(value: str) -> str:
    if any(c in value for c in (',', '"', '\n', '\r')):
        return '"' + value.replace('"', '""') + '"'
    return value


def format_csv(header, rows) -> str:
    lines = [",".join(_quote_field(f) for f in header)]
    lines.extend(",".join(_quote_field(str(f)) for f in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows) -> None:
    """Write records with minimal RFC 4180 quoting (LF terminators)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_csv(header, rows))


# --------------------------------------------------------------------------
# Posting parsing
# --------------------------------------------------------------------------

def _parse_flag(value: str, column: str, record_number: int, counters: dict) -> int:
    if value == "":
        counters[column] = counters.get(column, 0) + 1
        return 0
    if value in ("0", "1"):
        return int(value)
    raise DataError(
        f"record {record_number}: column {column!r} must be 0 or 1, got {value!r}"
    )


def parse_csv(path) -> list:
    """Parse the postings file into RawPosting rows (see postings_from_records)."""
    header, records = read_csv(path)
    return postings_from_records(header, records, path)


def postings_from_records(header, records, source) -> list:
    """Map CSV records (as read_csv returns them) to RawPosting rows.

    Columns are mapped by header name; unknown columns are ignored and
    known-but-absent columns are treated as empty (logged once, naming
    `source`). Empty flag cells default to 0 with a counted warning; any
    other non-{0,1} flag value is a data error. An empty job_id falls back
    to the 1-based data row number.
    """
    header = [h.strip() for h in header]
    col_index = {}
    for idx, name in enumerate(header):
        if name in _COLUMN_NAMES and name not in col_index:
            col_index[name] = idx
    missing = [name for name in _COLUMN_NAMES if name not in col_index]
    if missing:
        logger.warning("columns missing from %s, treated as empty: %s", source, ", ".join(missing))

    flag_defaults = {}
    rows = []
    for data_row, record in enumerate(records, start=1):
        record_number = data_row + 1  # header is record 1
        values = {}
        for name, idx in col_index.items():
            values[name] = record[idx] if idx < len(record) else ""
        for name in missing:
            values[name] = ""
        for flag in FLAG_COLUMNS:
            values[flag] = _parse_flag(values[flag], flag, record_number, flag_defaults)
        raw_id = values["job_id"].strip() if isinstance(values["job_id"], str) else values["job_id"]
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
        rows.append(RawPosting(**values))

    for column, count in sorted(flag_defaults.items()):
        logger.warning("%d empty %r values defaulted", count, column)
    return rows


# --------------------------------------------------------------------------
# Text normalization
# --------------------------------------------------------------------------

_TAG_RE = re.compile(r"<[^>]*>")
_NON_ALNUM_RE = re.compile(r"[^a-z0-9]+")
# Only these six entities are decoded; anything else falls through to
# punctuation removal.
_ENTITIES = (
    ("&amp;", "&"),
    ("&lt;", "<"),
    ("&gt;", ">"),
    ("&quot;", '"'),
    ("&#39;", "'"),
    ("&nbsp;", " "),
)


def normalize_text(s: str) -> str:
    """Lowercase text stripped of HTML tags, entities, and punctuation.

    The result contains only [a-z0-9] tokens separated by single spaces.
    Idempotent; a '<' with no closing '>' is left for punctuation removal.
    """
    s = _TAG_RE.sub(" ", s)
    for entity, char in _ENTITIES:
        s = s.replace(entity, char)
    s = s.lower()
    s = _NON_ALNUM_RE.sub(" ", s)
    return s.strip()


def clean_posting(row: RawPosting) -> CleanPosting:
    joined = " ".join(getattr(row, name) for name in TEXT_CONCAT_FIELDS)
    return CleanPosting(
        **dataclasses.asdict(row),
        title_clean=normalize_text(row.title),
        full_text=normalize_text(joined),
    )


def assemble_dataset(rows) -> Dataset:
    """Normalize parsed rows into a Dataset, preserving order and count.

    Class counts are reported in the summary, never asserted against any
    expected value.
    """
    if not rows:
        raise DataError("cannot assemble a dataset from zero rows")
    postings = tuple(clean_posting(r) for r in rows)
    fake = sum(p.fraudulent for p in postings)
    ids = {p.job_id for p in postings}
    if len(ids) != len(postings):
        logger.warning("job_id values are not unique (%d of %d distinct)", len(ids), len(postings))
    return Dataset(
        postings=postings,
        summary={"total": len(postings), "genuine": len(postings) - fake, "fake": fake},
    )


def load_dataset(path) -> Dataset:
    return assemble_dataset(parse_csv(path))
