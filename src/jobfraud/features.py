"""Feature construction: vocabulary, sequence encoding, one-hot numerics, EDA.

Everything here is fit on the training split only and applied unchanged to
validation/test rows, so no leakage flows backward through the vocabulary
or the category lists.
"""

import itertools
import operator
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .base import Estimator
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


@dataclass(frozen=True)
class Vocabulary:
    """Frequency-ranked token ids; 0/1 are reserved for PAD/OOV."""

    token_to_id: dict
    id_to_token: tuple
    max_size: int

    def __len__(self):
        return len(self.id_to_token)

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, OOV_ID)


def build_vocabulary(corpus, max_size: int = 10000) -> Vocabulary:
    """Rank tokens by corpus frequency (ties broken lexicographically).

    Keeps the top max_size - 2 tokens; ids 0 and 1 are PAD and OOV. An
    empty corpus yields just the two reserved entries.
    """
    if max_size < 3:
        raise DataError(f"max_size must be at least 3, got {max_size}")
    counts = Counter()
    for text in corpus:
        counts.update(text.split())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    id_to_token = [PAD_TOKEN, OOV_TOKEN]
    id_to_token.extend(token for token, _ in ranked[: max_size - 2])
    token_to_id = {token: i for i, token in enumerate(id_to_token)}
    return Vocabulary(token_to_id, tuple(id_to_token), max_size)


def encode_sequence(text: str, vocab: Vocabulary, length: int) -> list:
    """Token ids truncated to the first `length` or right-padded with PAD."""
    ids = [vocab.lookup(tok) for tok in text.split()[:length]]
    ids.extend([PAD_ID] * (length - len(ids)))
    return ids


class TextVectorizer(Estimator):
    """Maps normalized text to fixed-length integer id sequences.

    Parameters
    ----------
    max_tokens : vocabulary capacity including the PAD/OOV slots.
    sequence_length : output length; longer texts are truncated, shorter
        ones padded with PAD on the right.
    """

    def __init__(self, max_tokens=10000, sequence_length=256):
        self.max_tokens = max_tokens
        self.sequence_length = sequence_length

    def fit(self, texts):
        self.vocabulary_ = build_vocabulary(texts, self.max_tokens)
        return self

    def transform(self, texts) -> np.ndarray:
        self._check_fitted("vocabulary_")
        out = np.zeros((len(texts), self.sequence_length), dtype=np.int64)
        for i, text in enumerate(texts):
            out[i] = encode_sequence(text, self.vocabulary_, self.sequence_length)
        return out

    def fit_transform(self, texts):
        return self.fit(texts).transform(texts)


def country_of(location: str) -> str:
    """Text before the first comma of `location`, uppercased."""
    return location.split(",", 1)[0].strip().upper()


def _column_value(posting, column: str) -> str:
    if column == "country":
        return country_of(posting.location)
    return getattr(posting, column)


def fit_categorical_encoders(postings) -> dict:
    """Sorted category list per column, from nonempty training values only."""
    if not postings:
        raise DataError("cannot fit encoders on an empty split")
    categories = {}
    for column in CATEGORICAL_COLUMNS:
        seen = {_column_value(p, column) for p in postings}
        seen.discard("")
        categories[column] = sorted(seen)
    return categories


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


class CategoricalEncoder(Estimator):
    """Posting -> numeric feature vector (flags + salary + one-hot blocks)."""

    def fit(self, postings):
        self.categories_ = fit_categorical_encoders(postings)
        self.width_ = 4 + sum(len(v) for v in self.categories_.values())
        return self

    def transform(self, postings) -> np.ndarray:
        self._check_fitted("categories_")
        return encode_numeric(postings, self.categories_)

    def fit_transform(self, postings):
        return self.fit(postings).transform(postings)


# --------------------------------------------------------------------------
# EDA
# --------------------------------------------------------------------------

def term_frequencies(texts, top_k: int) -> list:
    """Global (token, count) pairs, descending count then token order."""
    counts = Counter()
    for text in texts:
        counts.update(text.split())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top_k]


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
