from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import features_reference as text_reference
import ingest_reference as reference
from jobfraud import features
from jobfraud.errors import DataError
from jobfraud.features import (
    CategoricalEncoder,
    SplitTexts,
    TextVectorizer,
    encode_numeric,
    rank_tokens,
    term_frequencies,
)

from conftest import make_posting


# --------------------------------------------------------------------------
# Vocabulary
# --------------------------------------------------------------------------

def build_vocabulary(corpus, max_size, sequence_length=1):
    """The vectorizer of a corpus' vocabulary: its token ranking, cut to max_size."""
    return TextVectorizer.from_ranking(rank_tokens(corpus), max_size, sequence_length)


def test_build_vocabulary_frequency_and_ties():
    # hand count: b=2, a=1, c=1; tie a<c lexicographic
    vocab = build_vocabulary(["a b b", "b c"], max_size=10)
    assert vocab.index == {"<pad>": 0, "<oov>": 1, "b": 2, "a": 3, "c": 4}


def test_build_vocabulary_empty_corpus():
    assert len(build_vocabulary([], max_size=50).tokens) == 2


def test_build_vocabulary_capacity_cut():
    vocab = build_vocabulary(["x x x y"], max_size=3)
    assert vocab.tokens == ("<pad>", "<oov>", "x")


def test_build_vocabulary_min_size():
    with pytest.raises(DataError):
        build_vocabulary(["a"], max_size=2)


def test_vocabulary_inverse_maps():
    vocab = build_vocabulary(["q w e r t y"], max_size=10)
    for token, idx in vocab.index.items():
        assert vocab.tokens[idx] == token


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=8), min_size=1, max_size=10))
def test_vocabulary_order_independent_of_doc_order(docs):
    corpus = [" ".join(d) for d in docs]
    v1 = build_vocabulary(corpus, 10)
    v2 = build_vocabulary(list(reversed(corpus)), 10)
    assert v1.tokens == v2.tokens


# --------------------------------------------------------------------------
# Sequence encoding
# --------------------------------------------------------------------------

def encode_sequence(text, corpus, length, max_tokens=10):
    """The id row a vectorizer fit on corpus gives one text."""
    vec = build_vocabulary(corpus, max_tokens, sequence_length=length)
    return vec.transform([text])[0].tolist()


def test_encode_sequence_pads():
    assert encode_sequence("hello world", ["hello world"], 4) == [2, 3, 0, 0]


def test_encode_sequence_truncates():
    assert encode_sequence("a b c d e", ["a b c d e"], 3) == [2, 3, 4]


def test_encode_sequence_oov():
    assert encode_sequence("zzz", ["known"], 2) == [1, 0]


@settings(max_examples=100, deadline=None)
@given(
    st.text(alphabet="ab c", max_size=30),
    st.integers(min_value=1, max_value=12),
)
def test_encode_sequence_length_and_range(text, length):
    ids = encode_sequence(text, ["a b", "c c"], length, max_tokens=5)
    assert len(ids) == length
    assert all(0 <= i < 5 for i in ids)


def test_text_vectorizer_transform_shape():
    tv = build_vocabulary(["a b", "b c"], 10, sequence_length=5)
    out = tv.transform(["a", "b c d"])
    assert out.shape == (2, 5)
    assert out.dtype == np.int64


# Texts of a few tokens from a small alphabet, so counts tie often; the
# literal reserved tokens are ordinary tokens to the ranking. Tokens are
# joined by any whitespace str.split() knows, with some at either end.
_token = st.sampled_from(["a", "b", "c", "dd", "e1", "<pad>", "<oov>"])
_space = st.sampled_from([" ", "  ", "\t", "\n", " \r\n"])
_text = st.builds(
    lambda tokens, sep, lead, trail: lead + sep.join(tokens) + trail,
    st.lists(_token, max_size=14), _space, st.sampled_from(["", " "]), st.sampled_from(["", "\n"]),
)
_texts = st.lists(_text, max_size=12)
_chunk_rows = st.integers(min_value=1, max_value=5)


@settings(max_examples=300, deadline=None)
@given(
    _texts, _texts, st.lists(st.sampled_from(["zz", "a", "q9"]), max_size=4),
    st.integers(min_value=3, max_value=9), st.integers(min_value=1, max_value=16), _chunk_rows,
)
def test_vectorizer_equals_reference(train, other, unseen, max_tokens, length, chunk_rows):
    """Ties, PAD/OOV literals, unseen tokens, texts longer than the
    sequence, empty texts and chunk boundaries included, for texts given
    as strings and as SplitTexts."""
    texts = other + [" ".join(unseen)] + train
    train_rows = range(len(texts) - len(train), len(texts))
    with mock.patch.object(features, "CHUNK_ROWS", chunk_rows):
        split = SplitTexts(texts)
        fitted = build_vocabulary(train, max_tokens, length)
        ranked = TextVectorizer.from_ranking(split.rank(train_rows), max_tokens, length)
        outputs = [fitted.transform(texts), ranked.transform(split), ranked.transform(texts)]
    id_to_token, token_to_id = text_reference.build_vocabulary(train, max_tokens)
    for vec in (fitted, ranked):
        assert vec.tokens == id_to_token
        assert vec.index == token_to_id
    expected = text_reference.encode_sequences(texts, token_to_id, length)
    for ids in outputs:
        assert ids.dtype == np.int64 and np.array_equal(ids, expected)


@settings(max_examples=200, deadline=None)
@given(_texts, st.lists(st.booleans(), min_size=12, max_size=12),
       st.integers(min_value=0, max_value=12), _chunk_rows)
def test_rankings_equal_reference(texts, picks, top_k, chunk_rows):
    rows = [i for i in range(len(texts)) if picks[i]]
    with mock.patch.object(features, "CHUNK_ROWS", chunk_rows):
        ranked = rank_tokens(texts)
        top = term_frequencies(texts, top_k)
        ranked_rows = SplitTexts(texts).rank(rows)
    assert ranked == text_reference.ranked(texts)
    assert top == ranked[:top_k]
    assert [t for t, _ in top] == text_reference.select_terms(texts, top_k)
    assert ranked_rows == text_reference.ranked([texts[i] for i in rows])


@pytest.mark.parametrize("extra", [-1, 0, 1, features.CHUNK_ROWS + 1])
def test_vectorizer_around_the_chunk_size(extra):
    rows = features.CHUNK_ROWS + extra
    texts = [" ".join(["a", "b", "c", "d"][: 1 + i % 4] * (1 + i % 3)) for i in range(rows)]
    texts[-1] = "d d unseen " * 4
    split = SplitTexts(texts)
    vec = TextVectorizer.from_ranking(split.rank(range(0, rows, 2)), 4, 7)
    _, token_to_id = text_reference.build_vocabulary(texts[::2], 4)
    assert vec.index == token_to_id
    expected = text_reference.encode_sequences(texts, token_to_id, 7)
    assert np.array_equal(vec.transform(texts), expected)
    assert np.array_equal(vec.transform(split), expected)


# --------------------------------------------------------------------------
# Categorical / numeric encoding
# --------------------------------------------------------------------------


def test_categories_sorted_lexicographically():
    postings = [
        make_posting(job_id=1, employment_type="Full-time"),
        make_posting(job_id=2, employment_type="Contract"),
    ]
    cats = CategoricalEncoder.fit(postings).categories
    assert cats["employment_type"] == ["Contract", "Full-time"]


def test_country_from_location():
    assert features.country_of("US, NY, New York") == "US"
    assert features.country_of("gb, London") == "GB"
    assert features.country_of("") == ""


def test_empty_values_excluded_from_categories():
    postings = [make_posting(job_id=1, industry=""), make_posting(job_id=2, industry="Retail")]
    assert CategoricalEncoder.fit(postings).categories["industry"] == ["Retail"]


def test_encode_numeric_layout():
    postings = [
        make_posting(job_id=1, employment_type="Contract"),
        make_posting(job_id=2, employment_type="Full-time"),
    ]
    cats = CategoricalEncoder.fit(postings).categories
    p = make_posting(
        job_id=3, telecommuting=1, has_company_logo=0, has_questions=1,
        salary_range="", employment_type="Part-time", required_experience="zz",
        required_education="zz", industry="zz", function="zz", location="ZZ",
    )
    vec = encode_numeric([p], cats)[0]
    assert vec[0] == 1 and vec[1] == 0 and vec[2] == 1 and vec[3] == 0
    assert vec[4:].sum() == 0  # all categoricals unknown -> zero blocks


def test_encode_numeric_salary_flag():
    cats = CategoricalEncoder.fit([make_posting()]).categories
    p = make_posting(telecommuting=0, has_company_logo=0, has_questions=0,
                     salary_range="40000-50000")
    assert encode_numeric([p], cats)[0, 3] == 1.0


def test_encode_numeric_known_unit_vector():
    postings = [
        make_posting(job_id=1, employment_type="Contract"),
        make_posting(job_id=2, employment_type="Full-time"),
    ]
    cats = CategoricalEncoder.fit(postings).categories
    p = make_posting(employment_type="Full-time")
    block = encode_numeric([p], cats)[0, 4:6]
    assert list(block) == [0.0, 1.0]


_category = st.sampled_from(["", "A", "B", "Full-time", "US", "us"])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.fixed_dictionaries({
        "telecommuting": st.sampled_from([0, 1]),
        "has_questions": st.sampled_from([0, 1]),
        "salary_range": st.sampled_from(["", "10-20"]),
        "employment_type": _category,
        "industry": _category,
        "location": st.sampled_from(["", "US, NY", "us", " A ,x", "B"]),
    }), max_size=6),
    st.fixed_dictionaries({
        column: st.lists(_category, max_size=4) for column in features.CATEGORICAL_COLUMNS
    }),
)
def test_encode_numeric_equals_reference(fields, categories):
    """Unknown, empty and repeated categories included."""
    postings = [make_posting(job_id=i, **f) for i, f in enumerate(fields)]
    got = encode_numeric(postings, categories)
    expected = [reference.encode_numeric(p, categories) for p in postings]
    assert got.dtype == np.float64 and got.shape[0] == len(postings)
    assert np.array_equal(got, np.array(expected).reshape(got.shape))


def test_encoder_transform_equals_reference(fixture_dataset):
    postings = fixture_dataset.postings
    enc = CategoricalEncoder.fit(postings[:1000])
    expected = np.array([reference.encode_numeric(p, enc.categories) for p in postings])
    assert np.array_equal(enc.transform(postings), expected)


def test_one_hot_blocks_sum_at_most_one(fixture_dataset):
    postings = fixture_dataset.postings[:200]
    enc = CategoricalEncoder.fit(postings[:100])
    X = enc.transform(postings)
    offset = 4
    for column in features.CATEGORICAL_COLUMNS:
        width = len(enc.categories[column])
        block = X[:, offset : offset + width]
        assert (block.sum(axis=1) <= 1.0).all()
        offset += width
    assert offset == enc.width


def test_encoder_fit_on_train_only_matches_refit(fixture_dataset):
    """Leakage check: the pipeline state equals a train-only refit."""
    postings = fixture_dataset.postings
    train = postings[:800]
    a = CategoricalEncoder.fit(train)
    b = CategoricalEncoder.fit(list(train))
    assert a.categories == b.categories


# --------------------------------------------------------------------------
# EDA
# --------------------------------------------------------------------------

def test_term_frequencies_hand_count():
    assert term_frequencies(["a b", "b"], top_k=2) == [("b", 2), ("a", 1)]


def test_term_frequencies_totals_match_recount():
    texts = ["x y x", "y z", "x"]
    counted = dict(term_frequencies(texts, top_k=10))
    brute = {}
    for t in texts:
        for tok in t.split():
            brute[tok] = brute.get(tok, 0) + 1
    assert counted == brute


def test_binary_distribution_counts():
    ds = type("D", (), {})()
    ds.postings = (
        make_posting(job_id=1, telecommuting=0, fraudulent=1),
        make_posting(job_id=2, telecommuting=1, fraudulent=0),
    )
    dist = features.binary_feature_distribution(ds)
    assert dist["telecommuting"] == {"zeros": 1, "ones": 1}
    assert dist["fraudulent"] == {"zeros": 1, "ones": 1}


def test_binary_distribution_matches_summary(fixture_dataset):
    dist = features.binary_feature_distribution(fixture_dataset)
    assert dist["fraudulent"]["ones"] == fixture_dataset.summary["fake"]
    assert dist["fraudulent"]["zeros"] == fixture_dataset.summary["genuine"]


def test_eda_report_schema(fixture_dataset):
    report = features.eda_report(fixture_dataset, top_k=5)
    assert set(report) == {"binary_distribution", "title_terms", "full_text_terms"}
    assert len(report["title_terms"]) == 5
    assert all(isinstance(c, int) for _, c in report["title_terms"])
