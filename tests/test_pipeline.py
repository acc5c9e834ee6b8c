import weakref

import numpy as np
import pytest

import features_reference
from jobfraud import bilstm, features, forests
from jobfraud.config import (
    BilstmSection,
    FeatureSection,
    GbmSection,
    LeafwiseSection,
    MODEL_KINDS,
    RandomForestSection,
    RunConfig,
    TrainSection,
)
from jobfraud.errors import DataError
from jobfraud.features import CategoricalEncoder, TextVectorizer, rank_tokens
from jobfraud.pipeline import DetectionPipeline, prepare, train_pipeline

FAST = RunConfig(
    seed=19,
    features=FeatureSection(max_tokens=1500, sequence_length=48, tabular_terms=120),
    bilstm=BilstmSection(embedding_dim=8, hidden_units=10, dense_units=10),
    train=TrainSection(max_epochs=2, batch_size=16, patience=1),
    random_forest=RandomForestSection(n_trees=8, max_depth=8),
    gbm=GbmSection(n_rounds=8),
    leafwise_gbm=LeafwiseSection(n_rounds=8, min_samples_leaf=5),
)


@pytest.fixture(scope="module")
def small_dataset(small_csv):
    from jobfraud.ingest import load_dataset

    return load_dataset(small_csv)


@pytest.fixture(scope="module")
def prepared(small_dataset):
    return prepare(small_dataset, FAST, kinds=MODEL_KINDS)


def test_prepare_fits_featurizers_on_train_only(small_dataset, prepared):
    """Leakage check: refitting on the train rows reproduces the state."""
    train_postings = [small_dataset.postings[i] for i in prepared.splits.train]
    train_texts = [p.full_text for p in train_postings]
    vocab = TextVectorizer.from_ranking(rank_tokens(train_texts), FAST.features.max_tokens,
                                        FAST.features.sequence_length)
    assert vocab.tokens == prepared.vectorizer.tokens
    assert prepared.vectorizer.sequence_length == FAST.features.sequence_length
    enc = CategoricalEncoder.fit(train_postings)
    assert enc.categories == prepared.encoder.categories
    assert features_reference.select_terms(train_texts, FAST.features.tabular_terms) == prepared.terms


def test_prepare_encodes_every_row(small_dataset, prepared):
    n = len(small_dataset.postings)
    assert prepared.ids.shape == (n, FAST.features.sequence_length)
    assert prepared.numeric.shape[0] == n
    assert prepared.tabular.shape == (
        n, prepared.numeric.shape[1] + FAST.features.tabular_terms,
    )
    assert prepared.labels.shape == (n,)


# a vocabulary of one token, with more terms than vocabulary slots
TINY_VOCAB = RunConfig(
    seed=5, features=FeatureSection(max_tokens=3, sequence_length=9, tabular_terms=40),
)


@pytest.mark.parametrize("kinds", [("bilstm",), ("gbm",), MODEL_KINDS],
                         ids=["bilstm", "gbm", "all"])
@pytest.mark.parametrize("cfg", [RunConfig(), FAST, TINY_VOCAB], ids=["default", "fast", "tiny"])
@pytest.mark.parametrize("data", ["small_dataset", "fixture_dataset"])
def test_prepare_equals_reference(request, data, cfg, kinds):
    dataset = request.getfixturevalue(data)
    prepared = prepare(dataset, cfg, kinds=kinds)
    expected = features_reference.prepare_text(
        dataset.postings, prepared.splits.train, prepared.numeric, cfg.features, kinds)
    vocabulary = prepared.vectorizer and prepared.vectorizer.tokens
    assert vocabulary == expected["vocabulary"]
    assert prepared.terms == expected["terms"]
    for name in ("ids", "tabular"):
        got, want = getattr(prepared, name), expected[name]
        assert (got is None and want is None) or (
            got.dtype == want.dtype and np.array_equal(got, want)), name


def test_featurizers_keep_their_traced_names(small_dataset, prepared, monkeypatch):
    """The benchmark traces TextVectorizer.transform (its result is the id
    matrix, its argument the texts), CategoricalEncoder.transform,
    forests.build_tabular and BiLstmClassifier.fit by the name its caller
    looks up, each defined on its own class: prepare, featurize and
    train_pipeline must keep calling them."""
    calls = []

    def spy(owner, name, label):
        assert name in vars(owner), label
        original = getattr(owner, name)

        def traced(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((label, args, result))
            return result

        monkeypatch.setattr(owner, name, traced)

    spy(features.TextVectorizer, "transform", "vectorize")
    spy(features.CategoricalEncoder, "transform", "encode")
    spy(forests, "build_tabular", "tabular")
    spy(bilstm.BiLstmClassifier, "fit", "fit")
    postings = small_dataset.postings

    prepare(small_dataset, FAST, kinds=MODEL_KINDS)
    assert [c[0] for c in calls] == ["encode", "vectorize", "tabular"]
    (_, _, numeric), (_, args, ids), (_, _, tabular) = calls
    assert numeric.shape[0] == len(postings)
    assert len(args[1]) == len(postings) and ids.shape == (len(postings), 48)
    assert tabular.shape[0] == len(postings)

    calls.clear()
    kwargs = dict(cfg=FAST, encoder=prepared.encoder, model=None, fingerprint=None)
    DetectionPipeline("bilstm", vectorizer=prepared.vectorizer, **kwargs).featurize(postings[:9])
    DetectionPipeline("gbm", terms=prepared.terms, **kwargs).featurize(postings[:9])
    assert [c[0] for c in calls] == ["encode", "vectorize", "encode", "tabular"]
    assert len(calls[1][1][1]) == 9 and np.array_equal(calls[1][2], prepared.ids[:9])

    calls.clear()
    pipe = train_pipeline(small_dataset, FAST, "bilstm", prepared=prepared)
    assert [c[0] for c in calls] == ["fit"] and calls[0][2] is pipe.model


def test_models_share_test_indices(small_dataset, prepared):
    reports = {}
    for kind in ("gbm", "leafwise_gbm"):
        pipe = train_pipeline(small_dataset, FAST, kind, prepared=prepared)
        reports[kind] = pipe.test_metrics
    totals = {r.confusion.total for r in reports.values()}
    assert totals == {len(prepared.splits.test)}


@pytest.mark.parametrize("kind", ["gbm", "bilstm"])
def test_featurize_matches_prepared_rows(small_dataset, prepared, kind):
    pipe = train_pipeline(small_dataset, FAST, kind, prepared=prepared)
    rows = list(small_dataset.postings[:25])
    if kind == "gbm":
        assert np.array_equal(pipe.featurize(rows), prepared.tabular[:25])
    else:
        ids, numeric = pipe.featurize(rows)
        assert ids.dtype == np.int64 and np.array_equal(ids, prepared.ids[:25])
        assert numeric.dtype == np.float64 and np.array_equal(numeric, prepared.numeric[:25])


def test_unknown_kind_rejected(small_dataset):
    with pytest.raises(DataError):
        train_pipeline(small_dataset, FAST, "svm")


def test_bundle_config_tensor_mismatch_is_store_error(tmp_path, small_dataset, prepared):
    import json

    from jobfraud.errors import ModelStoreError

    pipe = train_pipeline(small_dataset, FAST, "bilstm", prepared=prepared)
    pipe.save(tmp_path / "m")
    manifest_path = tmp_path / "m" / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["config"]["run_config"]["bilstm"]["hidden_units"] = 99  # no longer matches tensors
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ModelStoreError):
        DetectionPipeline.load(tmp_path / "m")


def test_ensemble_bundle_round_trip(tmp_path, small_dataset, prepared):
    pipe = train_pipeline(small_dataset, FAST, "leafwise_gbm", prepared=prepared)
    scores = pipe.predict_scores(small_dataset.postings[:40])
    pipe.save(tmp_path / "m")
    loaded = DetectionPipeline.load(tmp_path / "m")
    assert loaded.kind == "leafwise_gbm"
    assert np.array_equal(loaded.predict_scores(small_dataset.postings[:40]), scores)
    assert loaded.cfg == pipe.cfg


def test_bilstm_bundle_ignores_workspace_contents(tmp_path, small_dataset, prepared, monkeypatch):
    """Every kernel buffer is written before it is read: a fit whose
    buffers start out NaN saves the same bytes, and none of them outlives
    the fit."""
    pipe = train_pipeline(small_dataset, FAST, "bilstm", prepared=prepared)
    pipe.save(tmp_path / "clean")
    allocated = []

    def poisoned(shape):
        buffer = np.full(shape, np.nan)
        allocated.append(weakref.ref(buffer))
        return buffer

    monkeypatch.setattr(bilstm, "_allocate", poisoned)
    pipe = train_pipeline(small_dataset, FAST, "bilstm", prepared=prepared)
    pipe.save(tmp_path / "poisoned")
    assert allocated and not any(ref() is not None for ref in allocated)
    for name in ("manifest.json", "weights.bin"):
        clean, poisoned_bytes = ((tmp_path / d / name).read_bytes() for d in ("clean", "poisoned"))
        assert clean == poisoned_bytes, name
