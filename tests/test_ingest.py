import csv
import logging
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_reference as reference
from jobfraud import ingest, synth
from jobfraud.errors import CsvParseError, DataError

from conftest import make_posting


# --------------------------------------------------------------------------
# Reference reader: the character loop that parse_csv_text replaces and
# must match record for record and error for error
# --------------------------------------------------------------------------

def reference_parse_csv_text(text: str) -> list:
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


def _outcome(parse, text):
    """parse(text)'s records, or the record number of its CsvParseError."""
    try:
        return parse(text)
    except CsvParseError as exc:
        return ("error", exc.record_number)


# str.splitlines would also split on \x85, \x0c and \u2028
_csv_text = st.text(
    alphabet=st.sampled_from(['"', ",", "\r", "\n", "a", "\u00e9", "\x00", " ",
                              "\u2028", "\x85", "\x0c"]),
    max_size=40,
)


@settings(max_examples=2000, deadline=None)
@given(_csv_text)
def test_parser_equals_reference_on_random_text(text):
    assert _outcome(ingest.parse_csv_text, text) == _outcome(reference_parse_csv_text, text)


@pytest.mark.parametrize("text", [
    "", "\n", "\n\n", "\r", "\r\r\n", "a\n\nb", '""', '"a"\r', 'a,"b"', 'a"b"c',
    '"a""', '"a"b', 'x\n"a"b\n', "a\x85b\x0cc\u2028d\n", '"a\rb\r\nc"',
])
def test_parser_equals_reference_on_edge_cases(text):
    assert _outcome(ingest.parse_csv_text, text) == _outcome(reference_parse_csv_text, text)


def test_field_longer_than_csv_default_limit():
    limit = csv.field_size_limit()
    big = "x" * (limit + 10)
    assert ingest.parse_csv_text(f'a,"{big}"\n{big}\n') == [["a", big], [big]]
    assert csv.field_size_limit() == limit  # restored after the call
    with pytest.raises(CsvParseError):
        ingest.parse_csv_text(f'"{big}')
    assert csv.field_size_limit() == limit


def test_synth_fixture_bytes_unchanged(tmp_path):
    path = tmp_path / "fixture.csv"
    synth.write_fixture(path, 300, 7, 0.5)
    assert zlib.crc32(path.read_bytes()) == 2286080611


# --------------------------------------------------------------------------
# CSV reader
# --------------------------------------------------------------------------

def test_quoted_field_with_comma():
    records = ingest.parse_csv_text('a,b\nx,"y,z"\n')
    assert records == [["a", "b"], ["x", "y,z"]]


def test_doubled_quote_escape():
    records = ingest.parse_csv_text('1,"he said ""hi"""\n')
    assert records == [["1", 'he said "hi"']]


def test_embedded_newline_and_crlf():
    records = ingest.parse_csv_text('a,b\r\n"line1\nline2",2\r\n')
    assert records == [["a", "b"], ["line1\nline2", "2"]]


def test_unterminated_quote_names_record():
    with pytest.raises(CsvParseError, match="record 3"):
        ingest.parse_csv_text('a,b\n1,2\n"open,3\n')


def test_garbage_after_closing_quote():
    with pytest.raises(CsvParseError, match="record 1"):
        ingest.parse_csv_text('"abc"def,2\n')


def test_trailing_field_without_newline():
    assert ingest.parse_csv_text("a,b") == [["a", "b"]]


def test_empty_quoted_field():
    assert ingest.parse_csv_text('"",x\n') == [["", "x"]]


_field = st.text(
    alphabet=st.sampled_from(list('abc",\n\r 5é')), max_size=12
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_field, min_size=1, max_size=5), min_size=1, max_size=6))
def test_csv_round_trip_property(rows):
    """write -> parse is the identity on field values."""
    width = max(len(r) for r in rows)
    rows = [r + [""] * (width - len(r)) for r in rows]
    text = ingest.format_csv(rows[0], rows[1:])
    parsed = ingest.parse_csv_text(text)
    assert parsed == rows


# a lone CR, quotes, commas, LF and empty fields: csv.writer on Python 3.11
# leaves a field holding only "\r" unquoted and writes a one-empty-field
# row as '""', so the writer is not a plain csv.writer
_writer_field = st.text(alphabet=st.sampled_from(list('a",\r\n é')), max_size=6)


@settings(max_examples=1000, deadline=None)
@given(st.lists(_writer_field, max_size=5),
       st.lists(st.lists(_writer_field, min_size=1, max_size=5), max_size=6))
def test_format_csv_equals_reference(header, rows):
    assert ingest.format_csv(header, rows) == reference.format_csv(header, rows)


@pytest.mark.parametrize("rows", [[["\r"]], [[""]], [["", ""]], [['"']], [["a,b", 'say "hi"']]])
def test_format_csv_edge_rows_equal_reference(rows):
    assert ingest.format_csv(["h"], rows) == reference.format_csv(["h"], rows)


def test_round_trip_torture_file(tmp_path):
    rows = [
        ["id", "note"],
        ["1", 'comma, "quote" and\nnewline'],
        ["2", ""],
        ["3", '""'],
        ["4", "\r\n mixed \r terminators"],
    ]
    path = tmp_path / "t.csv"
    ingest.write_csv(path, rows[0], rows[1:])
    header, data = ingest.read_csv(path)
    assert [header] + data == rows


# --------------------------------------------------------------------------
# Posting parsing
# --------------------------------------------------------------------------

def _write(tmp_path, text):
    path = tmp_path / "p.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_csv_maps_by_header_and_ignores_unknown(tmp_path):
    path = _write(
        tmp_path,
        "job_id,weird_extra,title,fraudulent\n7,zzz,Chef,1\n",
    )
    rows = ingest.parse_csv(path)
    assert rows[0].job_id == 7
    assert rows[0].title == "Chef"
    assert rows[0].fraudulent == 1
    assert rows[0].description == ""  # missing column -> empty


def test_parse_csv_bad_flag_value(tmp_path):
    path = _write(tmp_path, "job_id,fraudulent\n1,yes\n")
    with pytest.raises(DataError, match="fraudulent"):
        ingest.parse_csv(path)


def test_parse_csv_empty_flag_defaults_zero_with_warning(tmp_path, caplog):
    path = _write(tmp_path, "job_id,telecommuting,fraudulent\n1,,1\n")
    with caplog.at_level(logging.WARNING, logger="jobfraud.ingest"):
        rows = ingest.parse_csv(path)
    assert rows[0].telecommuting == 0
    assert any("telecommuting" in r.message for r in caplog.records)


def test_parse_csv_missing_file():
    with pytest.raises(DataError):
        ingest.parse_csv("/nonexistent/file.csv")


_HEADER_NAMES = ingest.COLUMNS + ["extra", " title ", ""]
_cells = st.sampled_from(["", "0", "1", " 7 ", "12", "x", "Chef", "US, NY"])


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.sampled_from(_HEADER_NAMES), min_size=1, max_size=22),
    st.lists(st.lists(_cells, min_size=1, max_size=22), max_size=5),
)
def test_postings_from_records_equals_reference(header, records):
    """Same rows, or the same error, for records no wider than the header."""
    records = [r[: len(header)] for r in records]

    def outcome(fn):
        try:
            return fn(header, records, "p.csv")
        except DataError as exc:
            return ("error", str(exc))

    assert outcome(ingest.postings_from_records) == outcome(reference.postings_from_records)


def test_postings_from_records_full_text_order_and_empty():
    header = ["job_id", "benefits", "title", "requirements", "description", "company_profile"]
    records = [["1", "E", "A B", "", "D,d", "<b>C</b>"], ["2", "", "", "", "", ""]]
    full, empty = ingest.postings_from_records(header, records, "p.csv")
    assert full.full_text == "a b c d d e"
    assert empty.full_text == ""


def test_record_wider_than_header_is_a_data_error(tmp_path):
    path = _write(tmp_path, "job_id,title\n1,Chef\n2,Cook,extra\n")
    with pytest.raises(DataError, match="record 3: 3 fields, but the header has 2"):
        ingest.parse_csv(path)


def test_record_narrower_than_header_reads_empty_fields(tmp_path):
    path = _write(tmp_path, "job_id,title,fraudulent\n4\n")
    (row,) = ingest.parse_csv(path)
    assert (row.job_id, row.title, row.fraudulent) == (4, "", 0)


def test_byte_order_mark_is_not_part_of_the_header(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfjob_id,title\n17,Chef\n")
    header, _ = ingest.read_csv(path)
    assert header == ["job_id", "title"]
    assert ingest.parse_csv(path)[0].job_id == 17


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
def test_non_utf8_bytes_are_a_data_error(tmp_path, bom):
    path = tmp_path / "latin1.csv"
    data = bom + "job_id,title\n1,caf\u00e9\n".encode("latin-1")
    path.write_bytes(data)
    offset = data.index(b"\xe9")
    with pytest.raises(DataError, match=f"latin1.csv is not UTF-8: byte 0xe9 at offset {offset}"):
        ingest.read_csv(path)


# --------------------------------------------------------------------------
# normalize_text
# --------------------------------------------------------------------------

# Pieces that exercise every step: tags, the six entities and overlaps
# such as "&amp;lt;" (entity order decides the result), an unclosed "<",
# digits, Unicode whitespace, and non-ASCII letters whose lowercase is
# ASCII (KELVIN SIGN -> "k") or longer (U+0130 -> "i" + combining dot).
_normalize_pieces = st.sampled_from([
    "<p>", "</b>", "<br/>", "<", ">", "&amp;", "&lt;", "&gt;", "&quot;", "&#39;", "&nbsp;",
    "&amp;lt;", "&amp;amp;", "&lt;b&gt;", "&", ";", "#39", "amp", "lt", "Ab", "z", "Q",
    "0", "9", "42", " ", "  ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85",
    "\u00a0", "\u2003", "\u2028", "\u3000", "\u212a", "\u0130", "\u00c9", "\u00e9",
    "\u00df", "\u1e9e", "\u03a3", "-", ",", ".", "'", '"', "\x00", "\x7f", "\u00ff",
])


@settings(max_examples=2000, deadline=None)
@given(st.lists(_normalize_pieces, max_size=30).map("".join))
def test_normalize_equals_reference_on_pieces(s):
    assert ingest.normalize_text(s) == reference.normalize_text(s)


@settings(max_examples=1000, deadline=None)
@given(st.text(max_size=80))
def test_normalize_equals_reference_on_any_text(s):
    assert ingest.normalize_text(s) == reference.normalize_text(s)


def test_normalize_full_texts_equal_reference(fixture_csv):
    for posting in ingest.parse_csv(fixture_csv):
        text = " ".join(getattr(posting, name) for name in ingest.TEXT_CONCAT_FIELDS)
        assert posting.full_text == reference.normalize_text(text)
        assert posting.title_clean == reference.normalize_text(posting.title)


def test_normalize_strips_tags_and_entities():
    assert ingest.normalize_text("<p>Hello&amp;World</p>") == "hello world"


def test_normalize_punctuation():
    assert (
        ingest.normalize_text("Senior Manager, Sales & Marketing")
        == "senior manager sales marketing"
    )


def test_normalize_empty():
    assert ingest.normalize_text("") == ""


def test_normalize_keeps_digits():
    assert ingest.normalize_text("401k plan!") == "401k plan"


def test_normalize_dangling_angle_bracket():
    # '<' with no closing '>' falls through to punctuation removal
    assert ingest.normalize_text("a < b") == "a b"


def test_normalize_entity_decoded_not_reparsed_as_tag():
    assert ingest.normalize_text("&lt;b&gt;bold&lt;/b&gt;") == "b bold b"


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80))
def test_normalize_idempotent_and_in_language(s):
    once = ingest.normalize_text(s)
    assert ingest.normalize_text(once) == once
    if once:
        for token in once.split(" "):
            assert token and all(c.islower() or c.isdigit() for c in token)
            assert all(c in "abcdefghijklmnopqrstuvwxyz0123456789" for c in token)
    assert once == once.strip()
    assert "  " not in once


# --------------------------------------------------------------------------
# assemble_dataset
# --------------------------------------------------------------------------

def test_assemble_counts():
    rows = [make_posting(job_id=1, fraudulent=0), make_posting(job_id=2, fraudulent=1)]
    ds = ingest.assemble_dataset(rows)
    assert ds.summary == {"total": 2, "genuine": 1, "fake": 1}


def test_assemble_preserves_order_and_count():
    rows = [make_posting(job_id=i, title=f"T{i}") for i in range(7)]
    ds = ingest.assemble_dataset(rows)
    assert [p.job_id for p in ds.postings] == list(range(7))


def test_assemble_empty_is_error():
    with pytest.raises(DataError):
        ingest.assemble_dataset([])


def test_fixture_summary_reported(fixture_dataset):
    summary = fixture_dataset.summary
    assert summary["total"] == 2000
    assert summary["genuine"] + summary["fake"] == summary["total"]
