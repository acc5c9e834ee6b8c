"""Feature construction: vocabulary, sequence encoding, one-hot numerics, EDA.

The two featurizers are records built whole from the training split: a
TextVectorizer, which holds the vocabulary, from
TextVectorizer.from_ranking of the training texts' token ranking, and a
CategoricalEncoder from CategoricalEncoder.fit of the training postings.
Each ``transform`` applies that state unchanged to any rows, so no leakage
flows backward through the vocabulary or the category lists.
"""

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DataError

PAD_ID = 0
OOV_ID = 1
PAD_TOKEN = "<pad>"
OOV_TOKEN = "<oov>"

# Fixed column order of the one-hot blocks in the numeric vector.
CATEGORICAL_COLUMNS = (
    "employment_type",
    "required_experience",
    "required_education",
    "industry",
    "function",
    "country",
)


# Rows per chunk of a token pass. A pass holds the token lists of one chunk
# at a time (a SplitTexts keeps only integer codes), so its memory does not
# grow with the row count. Small chunks let each chunk reuse the blocks the
# last one freed: after one prepare of 300 rows, 1,024-row chunks left
# 1.3 MB more resident than 64-row chunks, at the same speed.
CHUNK_ROWS = 64


def _split_chunks(texts, limit=None):
    """(start, token lists) per chunk of CHUNK_ROWS texts; with a limit,
    only each text's first `limit` tokens."""
    for start in range(0, len(texts), CHUNK_ROWS):
        chunk = texts[start:start + CHUNK_ROWS]
        if limit is None:
            yield start, [text.split() for text in chunk]
        else:
            yield start, [text.split(None, limit)[:limit] for text in chunk]


def _mapped(tokens, index: dict, default: int) -> tuple:
    """(tokens per text, flat int64 index.get(token, default) of every
    token, text after text); the lookups run inside map, one C loop."""
    lengths = np.fromiter(map(len, tokens), np.int64, len(tokens))
    flat = itertools.chain.from_iterable(tokens)
    codes = np.fromiter(map(index.get, flat, itertools.repeat(default)), np.int64,
                        int(lengths.sum()))
    return lengths, codes


class SplitTexts:
    """Texts split once, every token held as a dense integer code.

    ``tokens[c]`` is the token of code c, in first-seen order, and
    ``chunks`` holds (start row, tokens per text, flat codes) per chunk of
    CHUNK_ROWS texts. A training set-up ranks, encodes and counts from
    the codes, mapping each distinct token once instead of every token
    once per output.
    """

    def __init__(self, texts):
        seen = {}
        self.chunks = []
        for start, tokens in _split_chunks(texts):
            # the chunk's distinct tokens, once each; new ones take the next codes
            for token in dict.fromkeys(itertools.chain.from_iterable(tokens)):
                seen.setdefault(token, len(seen))
            self.chunks.append((start, *_mapped(tokens, seen, -1)))
        self.tokens = tuple(seen)
        self.rows = len(texts)

    def __len__(self):
        return self.rows

    def rank(self, rows=None) -> list:
        """rank_tokens of the texts at the distinct indices `rows` (all
        texts when None)."""
        if rows is None:
            keep = np.ones(self.rows, dtype=bool)
        else:
            keep = np.zeros(self.rows, dtype=bool)
            keep[np.asarray(rows, dtype=np.int64)] = True
        counts = np.zeros(len(self.tokens), dtype=np.int64)
        for start, lengths, codes in self.chunks:
            kept = np.repeat(keep[start:start + len(lengths)], lengths)
            counts += np.bincount(codes[kept], minlength=len(self.tokens))
        seen = np.flatnonzero(counts).tolist()
        ranked = sorted(zip(map(self.tokens.__getitem__, seen), counts[seen].tolist()))
        # token order so far; the stable sort keeps it among equal counts
        ranked.sort(key=operator.itemgetter(1), reverse=True)
        return ranked

    def coded_chunks(self, index: dict, default: int, limit=None):
        """coded_chunks of the split texts, each distinct token looked up once."""
        table = np.fromiter(map(index.get, self.tokens, itertools.repeat(default)), np.int64,
                            len(self.tokens))
        for start, lengths, codes in self.chunks:
            if limit is not None and lengths.max(initial=0) > limit:
                first = np.cumsum(lengths) - lengths
                codes = codes[np.arange(len(codes)) - np.repeat(first, lengths) < limit]
                lengths = np.minimum(lengths, limit)
            yield slice(start, start + len(lengths)), lengths, table[codes]


def rank_tokens(texts) -> list:
    """(token, count) of every token in texts, by descending count with
    ties in token order."""
    return SplitTexts(texts).rank()


def coded_chunks(texts, index: dict, default: int, limit=None):
    """Per chunk of CHUNK_ROWS texts: (rows, lengths, codes).

    `rows` is the chunk's slice of texts, `lengths` the number of tokens
    kept from each text (its first `limit` when a limit is given, else
    all) and `codes` the flat int64 index.get(token, default) of every
    kept token, text after text. `texts` is a list of strings, split
    here and each token looked up (one output, as in predict), or a
    SplitTexts, whose distinct tokens are looked up (several outputs of
    one split, as in prepare).
    """
    if isinstance(texts, SplitTexts):
        yield from texts.coded_chunks(index, default, limit)
        return
    for start, tokens in _split_chunks(texts, limit):
        lengths, codes = _mapped(tokens, index, default)
        yield slice(start, start + len(tokens)), lengths, codes


class TextVectorizer:
    """Maps normalized text to fixed-length integer id sequences: longer
    texts are truncated to `sequence_length`, shorter ones padded with PAD
    on the right, and a token outside `tokens` becomes OOV.

    `tokens` is the vocabulary, token i having id i: PAD, OOV, then tokens
    by descending training frequency. Its token -> id `index` is derived
    once, here.
    """

    def __init__(self, tokens, sequence_length: int):
        self.tokens = tuple(tokens)
        self.sequence_length = sequence_length
        self.index = {token: i for i, token in enumerate(self.tokens)}

    @classmethod
    def from_ranking(cls, ranked, max_size: int, sequence_length: int) -> "TextVectorizer":
        """PAD, OOV, then the first max_size - 2 tokens of a rank_tokens list."""
        if max_size < 3:
            raise DataError(f"max_size must be at least 3, got {max_size}")
        return cls((PAD_TOKEN, OOV_TOKEN, *(token for token, _ in ranked[: max_size - 2])),
                   sequence_length)

    def transform(self, texts) -> np.ndarray:
        length = self.sequence_length
        out = np.zeros((len(texts), length), dtype=np.int64)  # PAD_ID until written
        positions = np.arange(length)
        for rows, lengths, ids in coded_chunks(texts, self.index, OOV_ID, limit=length):
            # a boolean mask assigns in row-major order, the order of ids
            out[rows][positions < lengths[:, None]] = ids
        return out


def country_of(location: str) -> str:
    """Text before the first comma of `location`, uppercased."""
    return location.split(",", 1)[0].strip().upper()


def _column_value(posting, column: str) -> str:
    if column == "country":
        return country_of(posting.location)
    return getattr(posting, column)


def encode_numeric(postings, categories: dict) -> np.ndarray:
    """One row per posting: flags, a has-salary indicator, then the one-hot
    blocks.

    A known category value sets its column inside its block; unknown or
    empty values leave the block all zeros.
    """
    width = 4 + sum(len(categories[column]) for column in CATEGORICAL_COLUMNS)
    out = np.zeros((len(postings), width), dtype=np.float64)
    if not postings:
        return out
    out[:, :4] = [
        (p.telecommuting, p.has_company_logo, p.has_questions, p.salary_range != "")
        for p in postings
    ]
    # column of each posting's value in each block, -1 for unknown or empty
    codes = []
    offset = 4
    for column in CATEGORICAL_COLUMNS:
        index = {}
        for col, value in enumerate(categories[column], start=offset):
            index.setdefault(value, col)  # a repeated value keeps its first column
        index.pop("", None)
        if column == "country":
            values = [country_of(p.location) for p in postings]
        else:
            values = map(operator.attrgetter(column), postings)
        codes.append(list(map(index.get, values, itertools.repeat(-1))))
        offset += len(categories[column])
    codes = np.array(codes, dtype=np.int64)
    rows = np.broadcast_to(np.arange(len(postings)), codes.shape)
    known = codes >= 0
    out[rows[known], codes[known]] = 1.0
    return out


@dataclass(frozen=True)
class CategoricalEncoder:
    """Posting -> numeric feature vector (flags + salary + one-hot blocks),
    with the category list of each column in CATEGORICAL_COLUMNS."""

    categories: dict

    @classmethod
    def fit(cls, postings) -> "CategoricalEncoder":
        """Sorted category list per column, from nonempty training values only."""
        if not postings:
            raise DataError("cannot fit encoders on an empty split")
        categories = {}
        for column in CATEGORICAL_COLUMNS:
            seen = {_column_value(p, column) for p in postings}
            seen.discard("")
            categories[column] = sorted(seen)
        return cls(categories)

    @property
    def width(self) -> int:
        return 4 + sum(len(v) for v in self.categories.values())

    def transform(self, postings) -> np.ndarray:
        return encode_numeric(postings, self.categories)


# --------------------------------------------------------------------------
# EDA
# --------------------------------------------------------------------------

def term_frequencies(texts, top_k: int) -> list:
    """Global (token, count) pairs, descending count then token order."""
    return rank_tokens(texts)[:top_k]


def binary_feature_distribution(dataset) -> dict:
    """Exact 0/1 counts for the three flags and the label."""
    flags = ("telecommuting", "has_company_logo", "has_questions", "fraudulent")
    out = {}
    for flag in flags:
        ones = sum(getattr(p, flag) for p in dataset.postings)
        out[flag] = {"zeros": len(dataset.postings) - ones, "ones": ones}
    return out


def eda_report(dataset, top_k: int = 20) -> dict:
    titles = [p.title_clean for p in dataset.postings]
    full_texts = [p.full_text for p in dataset.postings]
    return {
        "binary_distribution": binary_feature_distribution(dataset),
        "title_terms": [[t, c] for t, c in term_frequencies(titles, top_k)],
        "full_text_terms": [[t, c] for t, c in term_frequencies(full_texts, top_k)],
    }
