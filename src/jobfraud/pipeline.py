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
from .features import CATEGORICAL_COLUMNS, CategoricalEncoder, SplitTexts, TextVectorizer
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
    encoder = CategoricalEncoder.fit(train_postings)
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
        prepared.vectorizer = TextVectorizer.from_ranking(
            ranked, cfg.features.max_tokens, cfg.features.sequence_length)
        prepared.ids = prepared.vectorizer.transform(texts)
    if any(k != "bilstm" for k in kinds):
        prepared.terms = [token for token, _ in ranked[: cfg.features.tabular_terms]]
        prepared.tabular = forests.build_tabular(prepared.numeric, texts, prepared.terms)
    return prepared


def _distinct_strings(stored) -> bool:
    """Whether a stored manifest value is a list of distinct strings."""
    return isinstance(stored, list) and len({s for s in stored if isinstance(s, str)}) == len(stored)


# Tree-ensemble kind -> its fit on (X, y), with the settings of its RunConfig section.
_FIT_ENSEMBLE = {
    "random_forest": lambda X, y, cfg: forests.fit_random_forest(
        X, y, seed=cfg.seed, **vars(cfg.random_forest)),
    "gbm": lambda X, y, cfg: forests.fit_gbm(X, y, **vars(cfg.gbm)),
    "leafwise_gbm": lambda X, y, cfg: forests.fit_leafwise_gbm(X, y, **vars(cfg.leafwise_gbm)),
}


@dataclass(eq=False)
class DetectionPipeline:
    """A fitted featurizer stack plus one trained model: a BiLstmClassifier,
    or the EnsembleModel of a tree kind; each scores rows with
    ``decision_scores``."""

    kind: str
    cfg: RunConfig
    encoder: CategoricalEncoder
    model: object
    fingerprint: dict  # of the dataset the split was drawn from
    vectorizer: TextVectorizer | None = None
    terms: list | None = None
    test_metrics: metrics.MetricsReport | None = None

    @property
    def history(self):
        """The model's training history, when it was trained in this process."""
        return getattr(self.model, "history", None)

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
            "encoder_categories": self.encoder.categories,
        }
        extra = {}
        tensors = ()
        if self.kind == "bilstm":
            extra["vocabulary"] = list(self.vectorizer.tokens)
            tensors = [(name, t.values) for name, t in self.model.params.named_tensors()]
        else:
            extra["ensemble"] = forests.ensemble_to_dict(self.model)
            extra["terms"] = list(self.terms)
        extra["dataset_fingerprint"] = self.fingerprint
        return bundle_mod.make_bundle(
            kind=self.kind,
            config=config,
            tensors=tensors,
            extra=extra,
            history=asdict(self.history) if self.history else None,
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
        if not (isinstance(categories, dict) and sorted(categories) == sorted(CATEGORICAL_COLUMNS)
                and all(map(_distinct_strings, categories.values()))):
            raise ModelStoreError(
                f"encoder_categories must map {', '.join(CATEGORICAL_COLUMNS)} "
                f"to lists of distinct strings, got {categories!r:.80}"
            )
        encoder = CategoricalEncoder(categories)
        stored = manifest["dataset_fingerprint"]
        fingerprint = {"rows": int(stored["rows"]), "job_id_crc32": int(stored["job_id_crc32"])}

        if kind == "bilstm":
            tokens = manifest["vocabulary"]
            if not _distinct_strings(tokens):
                raise ModelStoreError(
                    f"vocabulary must be a list of strings (all distinct), got {tokens!r:.80}")
            # the stored tensors' shapes must be the ones fit gives these featurizers
            model_cfg = bilstm.ModelConfig.of_run(cfg, len(tokens), encoder.width)
            vectorizer = TextVectorizer(tokens, cfg.features.sequence_length)
            model = bilstm.BiLstmClassifier(model_cfg,
                                            bilstm.params_from_arrays(model_cfg, bundle.tensor))
            return cls(kind, cfg, encoder, model, fingerprint, vectorizer=vectorizer)

        if manifest["ensemble"]["kind"] != kind:
            stored = manifest["ensemble"]["kind"]
            raise ModelStoreError(f"bundle of model {kind!r} holds a {stored!r:.40} ensemble")
        ensemble = forests.ensemble_from_dict(manifest["ensemble"])
        terms = manifest["terms"]
        if not _distinct_strings(terms):
            raise ModelStoreError(f"terms must be a list of distinct strings, got {terms!r:.80}")
        if ensemble.n_features != encoder.width + len(terms):
            raise ModelStoreError(
                f"ensemble has {ensemble.n_features} features, the encoder and "
                f"{len(terms)} terms give {encoder.width + len(terms)}"
            )
        return cls(kind, cfg, encoder, ensemble, fingerprint, terms=terms)

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
        model = bilstm.BiLstmClassifier.fit(cfg, len(prepared.vectorizer.tokens),
                                            rows(train_idx), y[train_idx],
                                            validation_data=(rows(val_idx), y[val_idx]))
    else:
        model = _FIT_ENSEMBLE[kind](rows(train_idx), y[train_idx], cfg)

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
        test_metrics=report,
    )
