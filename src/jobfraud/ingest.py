"""Job-postings CSV ingestion and text cleanup.

Reads the postings CSV (UTF-8, a leading byte-order mark dropped; RFC 4180:
quoted fields may hold commas, doubled quotes, and embedded newlines) with
the standard library's strict ``csv`` reader, maps columns by header name,
and produces a cleaned dataset whose ``full_text`` holds the normalized
concatenation of the five free-text fields. Malformed CSV is a
CsvParseError naming its 1-based record; bytes that are not UTF-8 are a
DataError naming the file and the byte offset. ``dataset_fingerprint``
identifies the rows a model was trained on.
"""

import codecs
import csv
import dataclasses
import io
import logging
import operator
import re
import zlib
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

# csv's strict-mode errors, in this module's wording
_CSV_ERRORS = {
    "unexpected end of data": "unterminated quoted field at end of input",
    "',' expected after '\"'": "unexpected character after closing quote",
}


def parse_csv_text(text: str) -> list:
    """Split CSV text into records of fields.

    Records end at a newline (LF, CRLF or a lone CR) outside quotes. Inside
    quotes, commas and newlines are literal and '""' is an escaped quote.
    An empty line is the record [""]. Fields have no length limit. A quote
    left open at end of input, or a closing quote followed by anything but
    a separator, raises CsvParseError naming the 1-based record number
    (the header counts as record 1).
    """
    records = []
    # a field may be as long as the text; csv's limit is process-wide
    limit = csv.field_size_limit(max(csv.field_size_limit(), len(text) + 1))
    try:
        for record in csv.reader(io.StringIO(text, newline=""), strict=True):
            records.append(record or [""])
    except csv.Error as exc:
        message = _CSV_ERRORS.get(str(exc), str(exc))
        raise CsvParseError(message, len(records) + 1) from exc
    finally:
        csv.field_size_limit(limit)
    return records


def read_csv(path) -> tuple:
    """Read a UTF-8 CSV file, dropping a leading byte-order mark; returns
    (header, data records). Bytes that are not UTF-8 are a DataError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the codec reports offsets past the byte-order mark it strips
        offset = exc.start + (len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0)
        raise DataError(
            f"{path} is not UTF-8: byte {data[offset]:#04x} at offset {offset}"
        ) from exc
    records = parse_csv_text(text)
    if not records:
        raise DataError(f"{path} is empty")
    return records[0], records[1:]


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quote_field(value: str) -> str:
    if _NEEDS_QUOTES.search(value):
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


_raw_fields = operator.attrgetter(*_COLUMN_NAMES)
_text_fields = operator.attrgetter(*TEXT_CONCAT_FIELDS)


def clean_posting(row: RawPosting) -> CleanPosting:
    # CleanPosting's fields are RawPosting's, in order, then the two derived
    return CleanPosting(
        *_raw_fields(row),
        normalize_text(row.title),
        normalize_text(" ".join(_text_fields(row))),
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


def dataset_fingerprint(postings) -> dict:
    """Row count and CRC-32 of the job_ids in order: enough to tell whether
    a file is the one a model's split was drawn from."""
    ids = "\n".join(str(p.job_id) for p in postings).encode()
    return {"rows": len(postings), "job_id_crc32": zlib.crc32(ids)}


def load_dataset(path) -> Dataset:
    return assemble_dataset(parse_csv(path))
