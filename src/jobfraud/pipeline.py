"""End-to-end detection pipelines: featurization + one trained model.

``prepare`` performs the shared, leakage-safe work once (split, fit the
vectorizer/encoders/term list on the training rows only, encode every
row); ``train_pipeline`` then fits any of the four model kinds on the same
split, so compare-style runs score every model on identical test indices.
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import bilstm, bundle as bundle_mod, forests, metrics, trainer
from .config import MODEL_KINDS, RunConfig, config_from_dict
from .errors import DataError, ModelStoreError, UsageError
from .features import CATEGORICAL_COLUMNS, CategoricalEncoder, SplitTexts, TextVectorizer, Vocabulary
from .ingest import Dataset, dataset_fingerprint


@dataclass
class PreparedData:
    dataset: Dataset
    splits: trainer.SplitResult
    labels: np.ndarray
    encoder: CategoricalEncoder
    numeric: np.ndarray
    vectorizer: TextVectorizer | None = None
    ids: np.ndarray | None = None
    terms: list | None = None
    tabular: np.ndarray | None = None


def prepare(dataset: Dataset, cfg: RunConfig, kinds=("bilstm",)) -> PreparedData:
    """Split, then fit all featurizers on the training rows only."""
    postings = dataset.postings
    splits = trainer.split_dataset(len(postings), cfg.seed)
    train_postings = [postings[i] for i in splits.train]
    labels = np.array([p.fraudulent for p in postings], dtype=np.int64)
    encoder = CategoricalEncoder().fit(train_postings)
    prepared = PreparedData(
        dataset=dataset,
        splits=splits,
        labels=labels,
        encoder=encoder,
        numeric=encoder.transform(postings),
    )
    # every text is split once; one ranking of the training rows' tokens
    # gives the vocabulary and the terms
    texts = SplitTexts([p.full_text for p in postings])
    ranked = texts.rank(splits.train)
    if "bilstm" in kinds:
        prepared.vectorizer = TextVectorizer(
            max_tokens=cfg.features.max_tokens,
            sequence_length=cfg.features.sequence_length,
        ).fit_ranking(ranked)
        prepared.ids = prepared.vectorizer.transform(texts)
    if any(k != "bilstm" for k in kinds):
        prepared.terms = [token for token, _ in ranked[: cfg.features.tabular_terms]]
        prepared.tabular = forests.build_tabular(prepared.numeric, texts, prepared.terms)
    return prepared


# Tree-ensemble kind -> estimator class; each reads its own RunConfig section.
_ENSEMBLES = {
    "random_forest": forests.RandomForest,
    "gbm": forests.GradientBoosting,
    "leafwise_gbm": forests.LeafwiseGradientBoosting,
}


class DetectionPipeline:
    """A fitted featurizer stack plus one trained classifier."""

    def __init__(self, kind: str, cfg: RunConfig, encoder, model, fingerprint,
                 vectorizer=None, terms=None, history=None, test_metrics=None):
        self.kind = kind
        self.fingerprint = fingerprint  # of the dataset the split was drawn from
        self.cfg = cfg
        self.encoder = encoder
        self.model = model
        self.vectorizer = vectorizer
        self.terms = terms
        self.history = history
        self.test_metrics = test_metrics

    # -- prediction ---------------------------------------------------------

    def featurize(self, postings):
        """The model's input: the (ids, numeric) pair for the BiLSTM, the
        tabular matrix for a tree ensemble."""
        numeric = self.encoder.transform(postings)
        texts = [p.full_text for p in postings]
        if self.kind == "bilstm":
            return self.vectorizer.transform(texts), numeric
        return forests.build_tabular(numeric, texts, self.terms)

    def predict_scores(self, postings) -> np.ndarray:
        return self.model.decision_scores(self.featurize(postings))

    # -- persistence --------------------------------------------------------

    def to_bundle(self) -> bundle_mod.ModelBundle:
        config = {
            "run_config": self.cfg.to_dict(),
            "encoder_categories": self.encoder.categories_,
        }
        extra = {}
        tensors = ()
        if self.kind == "bilstm":
            config["model_config"] = asdict(self.model.config_)
            extra["vocabulary"] = list(self.vectorizer.vocabulary_.id_to_token)
            tensors = [(name, t.values) for name, t in self.model.params_.named_tensors()]
        else:
            extra["ensemble"] = forests.ensemble_to_dict(self.model.model_)
            extra["terms"] = list(self.terms)
        extra["dataset_fingerprint"] = self.fingerprint
        return bundle_mod.make_bundle(
            kind=self.kind,
            config=config,
            tensors=tensors,
            extra=extra,
            history=self.history.to_dict() if self.history else None,
            test_metrics=self.test_metrics.to_dict() if self.test_metrics else None,
        )

    def save(self, directory) -> None:
        bundle_mod.save_model(self.to_bundle(), directory)

    @classmethod
    def from_bundle(cls, bundle: bundle_mod.ModelBundle) -> "DetectionPipeline":
        """Rebuild the pipeline a bundle holds; a manifest field that is
        missing or ill-typed raises ModelStoreError."""
        try:
            return cls._from_manifest(bundle)
        except KeyError as exc:
            raise ModelStoreError(f"bundle manifest lacks field {exc}") from exc
        except (TypeError, ValueError, AttributeError, UsageError) as exc:
            raise ModelStoreError(f"bundle manifest is malformed: {exc}") from exc

    @classmethod
    def _from_manifest(cls, bundle: bundle_mod.ModelBundle) -> "DetectionPipeline":
        manifest = bundle.manifest
        kind = manifest["model"]
        if kind not in MODEL_KINDS:
            raise ModelStoreError(f"bundle holds unknown model kind {kind!r}")
        cfg = config_from_dict(manifest["config"]["run_config"])
        categories = manifest["config"]["encoder_categories"]
        if not (
            isinstance(categories, dict)
            and sorted(categories) == sorted(CATEGORICAL_COLUMNS)
            and all(isinstance(v, list) and all(isinstance(c, str) for c in v)
                    and len(set(v)) == len(v) for v in categories.values())
        ):
            raise ModelStoreError(
                f"encoder_categories must map {', '.join(CATEGORICAL_COLUMNS)} "
                f"to lists of distinct strings, got {categories!r:.80}"
            )
        encoder = CategoricalEncoder()
        encoder.categories_ = categories
        encoder.width_ = 4 + sum(len(v) for v in encoder.categories_.values())
        stored = manifest["dataset_fingerprint"]
        fingerprint = {"rows": int(stored["rows"]), "job_id_crc32": int(stored["job_id_crc32"])}

        if kind == "bilstm":
            mc = manifest["config"]["model_config"]
            model_cfg = bilstm.ModelConfig(**mc)
            tokens = manifest["vocabulary"]
            token_to_id = {t: i for i, t in enumerate(tokens)}
            if len(tokens) != model_cfg.vocab_size or len(token_to_id) != len(tokens):
                raise ModelStoreError(
                    f"vocabulary has {len(tokens)} tokens ({len(token_to_id)} distinct), "
                    f"the model expects {model_cfg.vocab_size} distinct tokens"
                )
            if model_cfg.numeric_width != encoder.width_:
                raise ModelStoreError(
                    f"encoder categories give {encoder.width_} numeric features, "
                    f"the model expects {model_cfg.numeric_width}"
                )
            if model_cfg.sequence_length != cfg.features.sequence_length:
                raise ModelStoreError(
                    f"run config gives sequence_length {cfg.features.sequence_length}, "
                    f"the model expects {model_cfg.sequence_length}"
                )
            vocab = Vocabulary(token_to_id, tuple(tokens), cfg.features.max_tokens)
            vectorizer = TextVectorizer(
                max_tokens=cfg.features.max_tokens,
                sequence_length=model_cfg.sequence_length,
            )
            vectorizer.vocabulary_ = vocab
            model = bilstm.BiLstmClassifier(cfg, mc["vocab_size"])
            model.params_ = bilstm.params_from_arrays(model_cfg, bundle.tensor)
            model.config_ = model_cfg
            model.classes_ = np.array([0, 1])
            return cls(kind, cfg, encoder, model, fingerprint, vectorizer=vectorizer)

        if manifest["ensemble"]["kind"] != kind:
            stored = manifest["ensemble"]["kind"]
            raise ModelStoreError(f"bundle of model {kind!r} holds a {stored!r:.40} ensemble")
        ensemble = forests.ensemble_from_dict(manifest["ensemble"])
        terms = manifest["terms"]
        if not isinstance(terms, list) or len({t for t in terms if isinstance(t, str)}) != len(terms):
            raise ModelStoreError(f"terms must be a list of distinct strings, got {terms!r:.80}")
        if ensemble.n_features != encoder.width_ + len(terms):
            raise ModelStoreError(
                f"ensemble has {ensemble.n_features} features, the encoder and "
                f"{len(terms)} terms give {encoder.width_ + len(terms)}"
            )
        model = _ENSEMBLES[kind](cfg)
        model.model_ = ensemble
        model.classes_ = np.array([0, 1])
        return cls(kind, cfg, encoder, model, fingerprint, terms=terms)

    @classmethod
    def load(cls, directory) -> "DetectionPipeline":
        return cls.from_bundle(bundle_mod.load_model(directory))


def train_pipeline(dataset: Dataset, cfg: RunConfig, kind: str,
                   prepared: PreparedData | None = None) -> DetectionPipeline:
    """Fit one model kind on the prepared split and score the test rows."""
    if kind not in MODEL_KINDS:
        raise DataError(f"unknown model kind {kind!r}")
    if prepared is None:
        prepared = prepare(dataset, cfg, kinds=(kind,))
    splits = prepared.splits
    train_idx = np.array(splits.train, dtype=np.int64)
    val_idx = np.array(splits.validation, dtype=np.int64)
    test_idx = np.array(splits.test, dtype=np.int64)
    y = prepared.labels

    def rows(idx):
        """The model input of the rows at idx."""
        if kind == "bilstm":
            return prepared.ids[idx], prepared.numeric[idx]
        return prepared.tabular[idx]

    if kind == "bilstm":
        model = bilstm.BiLstmClassifier(cfg, len(prepared.vectorizer.vocabulary_))
        model.fit(rows(train_idx), y[train_idx], validation_data=(rows(val_idx), y[val_idx]))
        history = model.history_
    else:
        model = _ENSEMBLES[kind](cfg)
        model.fit(rows(train_idx), y[train_idx])
        history = None

    test_scores = model.decision_scores(rows(test_idx))
    report = metrics.compute_report(y[test_idx], test_scores, cfg.threshold)
    return DetectionPipeline(
        kind=kind,
        cfg=cfg,
        encoder=prepared.encoder,
        model=model,
        fingerprint=dataset_fingerprint(prepared.dataset.postings),
        vectorizer=prepared.vectorizer,
        terms=prepared.terms,
        history=history,
        test_metrics=report,
    )
