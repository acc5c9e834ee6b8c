"""Job-postings CSV ingestion and text cleanup.

Reads the postings CSV (UTF-8, a leading byte-order mark dropped; RFC 4180:
quoted fields may hold commas, doubled quotes, and embedded newlines) with
the standard library's strict ``csv`` reader, maps columns by header name,
and builds one ``Posting`` per record, whose ``full_text`` holds the
normalized concatenation of the five free-text fields. Malformed CSV is a
CsvParseError naming its 1-based record; bytes that are not UTF-8 are a
DataError naming the file and the byte offset. ``dataset_fingerprint``
identifies the rows a model was trained on.
"""

import codecs
import csv
import dataclasses
import io
import itertools
import logging
import operator
import re
import zlib
from dataclasses import dataclass

from .bundle import replace_file
from .errors import CsvParseError, DataError

logger = logging.getLogger(__name__)

FLAG_COLUMNS = ("telecommuting", "has_company_logo", "has_questions", "fraudulent")

# Order used to build full_text.
TEXT_CONCAT_FIELDS = ("title", "company_profile", "description", "requirements", "benefits")


@dataclass(frozen=True, slots=True)
class Posting:
    """One job advertisement: its 18 CSV fields (missing text = "") and the
    normalized combined text; the normalized title is derived on access."""

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
    full_text: str

    @property
    def title_clean(self) -> str:
        return normalize_text(self.title)


@dataclass(frozen=True, slots=True)
class Dataset:
    postings: tuple
    summary: dict


# the CSV columns: every Posting field but full_text
_COLUMN_NAMES = [f.name for f in dataclasses.fields(Posting)][:-1]
# (position in _COLUMN_NAMES, name) of each flag; job_id is position 0
_FLAG_SLOTS = [(_COLUMN_NAMES.index(name), name) for name in FLAG_COLUMNS]
# a record's five text values, in TEXT_CONCAT_FIELDS order
_text_fields = operator.itemgetter(*[_COLUMN_NAMES.index(name) for name in TEXT_CONCAT_FIELDS])


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


def _csv_line(fields) -> str:
    # membership tests inline rather than a call per field: this runs for
    # every cell of the output
    return ",".join([
        '"' + f.replace('"', '""') + '"' if ("," in f or '"' in f or "\n" in f or "\r" in f)
        else f
        for f in fields
    ])


def format_csv(header, rows) -> str:
    """CSV text of string records with minimal RFC 4180 quoting: a field
    holding a comma, quote, CR or LF is quoted, its quotes doubled. Every
    record ends with LF; a record of one empty field is an empty line."""
    return "\n".join(map(_csv_line, itertools.chain((header,), rows))) + "\n"


def write_csv(path, header, rows) -> None:
    """Write string records as format_csv lays them out, through a
    temporary file renamed over `path`."""
    replace_file(path, format_csv(header, rows).encode("utf-8"))


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
    """Parse the postings file into Posting rows (see postings_from_records)."""
    header, records = read_csv(path)
    return postings_from_records(header, records, path)


def postings_from_records(header, records, source) -> list:
    """Map CSV records (as read_csv returns them) to Posting rows, each with
    its full_text: the five text fields, in TEXT_CONCAT_FIELDS order,
    joined by spaces and normalized.

    Columns are mapped by header name; unknown columns are ignored and
    known-but-absent columns are treated as empty (logged once, naming
    `source`). A record shorter than the header reads its missing fields
    as empty; one longer than the header is a data error. Empty flag cells
    default to 0 with a counted warning; any other non-{0,1} flag value is
    a data error. An empty job_id falls back to the 1-based data row number.
    """
    header = [h.strip() for h in header]
    width = len(header)
    # a column the header lacks reads index `width`: the empty field that
    # padding appends past a record's end
    positions = [header.index(name) if name in header else width for name in _COLUMN_NAMES]
    missing = [name for name, at in zip(_COLUMN_NAMES, positions) if at == width]
    if missing:
        logger.warning("columns missing from %s, treated as empty: %s", source, ", ".join(missing))
    take = operator.itemgetter(*positions)
    padding = [""] * (width + 1)

    flag_defaults = {}
    rows = []
    for data_row, record in enumerate(records, start=1):
        record_number = data_row + 1  # header is record 1
        if len(record) > width:
            raise DataError(
                f"record {record_number}: {len(record)} fields, but the header has {width}"
            )
        if missing or len(record) < width:
            record = record + padding[len(record):]
        values = list(take(record))
        for slot, flag in _FLAG_SLOTS:
            values[slot] = _parse_flag(values[slot], flag, record_number, flag_defaults)
        raw_id = values[0].strip()
        if raw_id == "":
            flag_defaults["job_id"] = flag_defaults.get("job_id", 0) + 1
            values[0] = data_row
        else:
            try:
                values[0] = int(raw_id)
            except ValueError as exc:
                raise DataError(
                    f"record {record_number}: job_id must be an integer, got {raw_id!r}"
                ) from exc
        values.append(normalize_text(" ".join(_text_fields(values))))
        rows.append(Posting(*values))

    for column, count in sorted(flag_defaults.items()):
        logger.warning("%d empty %r values defaulted", count, column)
    return rows


# --------------------------------------------------------------------------
# Text normalization
# --------------------------------------------------------------------------

_TAG_RE = re.compile(r"<[^>]*>")
# Only these six entities are decoded, in this order (so "&amp;lt;" is
# "<"); anything else falls through to punctuation removal.
_ENTITIES = (
    ("&amp;", "&"),
    ("&lt;", "<"),
    ("&gt;", ">"),
    ("&quot;", '"'),
    ("&#39;", "'"),
    ("&nbsp;", " "),
)
# byte -> itself for [a-z0-9], a space for every other byte
_ALNUM = b"abcdefghijklmnopqrstuvwxyz0123456789"
_TOKEN_BYTES = bytes(b if b in _ALNUM else 0x20 for b in range(256))


def normalize_text(s: str) -> str:
    """Lowercase text stripped of HTML tags, entities, and punctuation.

    The result contains only [a-z0-9] tokens separated by single spaces.
    Idempotent; a '<' with no closing '>' is left for punctuation removal.
    """
    s = _TAG_RE.sub(" ", s)
    if "&" in s:  # every entity starts with one
        for entity, char in _ENTITIES:
            s = s.replace(entity, char)
    # Lowercased, a character outside ASCII is never one of [a-z0-9]; the
    # encoder turns it into "?", which the table makes a separator.
    cleaned = s.lower().encode("ascii", "replace").translate(_TOKEN_BYTES)
    return b" ".join(cleaned.split()).decode("ascii")


def assemble_dataset(rows) -> Dataset:
    """Collect parsed Posting rows into a Dataset, preserving order and count.

    Class counts are reported in the summary, never asserted against any
    expected value.
    """
    if not rows:
        raise DataError("cannot assemble a dataset from zero rows")
    postings = tuple(rows)
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
