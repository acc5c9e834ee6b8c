"""Span tracing for the benchmark's traced runs, and the per-layer metrics.

A traced run wraps the package's functions at the module or class
attribute their callers look up (``cli.read_csv``, ``forests.best_split``,
``trainer.Adam.step``, ...), so each call at a layer boundary records one
span {name, start, end, parent} without any change to the program. Spans
stay in memory and are written out when the run ends. A span's self time
is its duration minus the time its child spans cover.

A trace point the program no longer has is skipped, and a per-layer
metric whose spans are missing is reported as missing, so a run still
gives every metric it can when the program's internals change.

Untraced runs install nothing; the end-to-end metrics come only from them.
"""

import functools
import json
import statistics
import time

TREE_KINDS = ("random_forest", "gbm", "leafwise_gbm")
EXACT_SPLIT_KINDS = ("random_forest", "gbm")  # the learners that call fit_tree/best_split


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent, attrs):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with attribute patching."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._patches = []
        self.skipped = set()  # trace points the program does not have

    def begin(self, name, **attrs) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), parent, attrs)
        self.spans.append(span)
        self._open.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def _traced(self, fn, name, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(span)
            if note is not None:
                try:
                    span.attrs.update(note(args, result))
                except Exception:  # a changed signature leaves the span without its note
                    pass
            return result

        return traced

    def patch(self, owner, attr, name, note=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self._traced(original.__func__, name, note))
        else:
            replacement = self._traced(original, name, note)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[index[id(s.parent)]] += s.duration
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": None if s.parent is None else index[id(s.parent)],
                "self_s": s.duration - child_time[i],
                **s.attrs,
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
            fh.write("\n")

    def self_time_by_name(self) -> dict:
        totals = {}
        for s in self.spans:
            totals[s.name] = totals.get(s.name, 0.0) + s.duration
            if s.parent is not None:
                totals[s.parent.name] = totals.get(s.parent.name, 0.0) - s.duration
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


# --------------------------------------------------------------------------
# Trace points: (module, owner attribute path, span name, note)
# --------------------------------------------------------------------------

def _rows(arg_index):
    return lambda args, result: {"rows": len(args[arg_index])}


def _parsed(args, result):
    return {"bytes": len(args[0].encode("utf-8")), "records": len(result) - 1}


def _padding(args, result):
    return {"pad": int((result == 0).sum()), "ids": int(result.size), "rows": len(args[1])}


TRACE_POINTS = (
    # ingest: callers are ingest.load_dataset / ingest.parse_csv and cli.predict
    ("ingest", "parse_csv_text", "ingest.parse_csv_text", _parsed),
    ("ingest", "read_csv", "ingest.read_csv", None),
    ("cli", "read_csv", "ingest.read_csv", None),
    ("ingest", "parse_csv", "ingest.parse_csv", None),
    ("cli", "parse_csv", "ingest.parse_csv", None),
    ("ingest", "assemble_dataset", "ingest.assemble_dataset", None),
    ("cli", "assemble_dataset", "ingest.assemble_dataset", None),
    ("ingest", "load_dataset", "ingest.load_dataset", None),
    ("cli", "write_csv", "ingest.write_csv", None),
    # features and pipeline
    ("features", "TextVectorizer.fit", "features.TextVectorizer.fit", None),
    ("features", "TextVectorizer.transform", "features.TextVectorizer.transform", _padding),
    ("features", "CategoricalEncoder.fit", "features.CategoricalEncoder.fit", None),
    ("features", "CategoricalEncoder.transform", "features.CategoricalEncoder.transform", None),
    ("pipeline", "prepare", "pipeline.prepare", lambda args, result: {"rows": len(args[0].postings)}),
    ("pipeline", "train_pipeline", "pipeline.train_pipeline", None),
    ("pipeline", "DetectionPipeline.featurize", "pipeline.featurize", _rows(1)),
    ("pipeline", "DetectionPipeline.predict_scores", "pipeline.predict_scores", None),
    ("pipeline", "DetectionPipeline.save", "pipeline.save", None),
    ("pipeline", "DetectionPipeline.load", "pipeline.load", None),
    # BiLSTM, its trainer and the autodiff tape
    ("bilstm", "BiLstmClassifier.fit", "bilstm.fit", None),
    ("bilstm", "init_params", "bilstm.init_params", None),
    ("bilstm", "model_forward", "bilstm.model_forward", _rows(0)),
    ("bilstm", "predict_scores", "bilstm.predict_scores", None),
    ("trainer", "split_dataset", "trainer.split_dataset", None),
    ("trainer", "train", "trainer.train", lambda args, result: {"epochs": result.stopped_epoch}),
    ("trainer", "_evaluate", "trainer.evaluate", None),
    ("trainer", "Adam.step", "trainer.adam_step", None),
    ("ndgrad", "backward", "ndgrad.backward", lambda args, result: {"nodes": len(args[0])}),
    # tree learners
    ("forests", "select_terms", "forests.select_terms", None),
    ("forests", "build_tabular", "forests.build_tabular", None),
    ("forests", "fit_random_forest", "forests.fit_random_forest", None),
    ("forests", "fit_gbm", "forests.fit_gbm", None),
    ("forests", "fit_leafwise_gbm", "forests.fit_leafwise_gbm", None),
    ("forests", "fit_tree", "forests.fit_tree", None),
    ("forests", "best_split", "forests.best_split", None),
    ("forests", "compute_bins", "forests.compute_bins", None),
    ("forests", "ensemble_predict", "forests.ensemble_predict", lambda args, result: {"rows": len(args[1])}),
    # metrics and the model store
    ("metrics", "compute_report", "metrics.compute_report", None),
    ("bundle", "save_model", "bundle.save_model", None),
    ("bundle", "load_model", "bundle.load_model", None),
)


def install(tracer: Tracer, package) -> None:
    """Patch every trace point of the imported ``package`` modules; one
    that does not exist is added to ``tracer.skipped``."""
    for module_name, path, name, note in TRACE_POINTS:
        owner = getattr(package, module_name, None)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            tracer.skipped.add(f"{module_name}.{path}")
            continue
        tracer.patch(owner, attr, name, note)


# --------------------------------------------------------------------------
# Per-layer metrics
# --------------------------------------------------------------------------

PER_LAYER = {
    "ingest.parse_s": "s",
    "ingest.normalize_s": "s",
    "ingest.mb_per_s": "MB/s",
    "ingest.records": "count",
    "ingest.parse_calls": "count",
    "ingest.write_s": "s",
    "features.vectorize_s": "s",
    "features.encode_s": "s",
    "features.pad_share": "ratio",
    "pipeline.prepare_s": "s",
    "pipeline.featurize_rows_per_s": "1/s",
    "ndgrad.tape_nodes_per_batch": "count",
    "ndgrad.backward_s_per_batch": "s",
    "bilstm.forward_s_per_batch": "s",
    "bilstm.eval_rows_per_s": "1/s",
    "bilstm.eval_s_per_256_rows": "s",
    "bilstm.init_params_s": "s",
    "bilstm.fit_s": "s",
    "trainer.adam_step_s": "s",
    "trainer.epoch_s": "s",
    "trainer.val_eval_s": "s",
    "trainer.epochs": "count",
    "trainer.batches": "count",
    "forests.best_split_calls": "count",
    "forests.best_split_s": "s",
    "forests.fit_tree_s": "s",
    "forests.compute_bins_s": "s",
    "forests.lgbt_grow_s": "s",
    "forests.tree_nodes": "count",
    "forests.tabular_s": "s",
    "forests.predict_rows_per_s": "1/s",
    "forests.rf_fit_s": "s",
    "forests.gbm_fit_s": "s",
    "forests.lgbt_fit_s": "s",
    "metrics.report_s": "s",
    "bundle.save_s": "s",
    "bundle.manifest_bytes": "count",
    "bundle.blob_bytes": "count",
    "bundle.load_s": "s",
    "trace.overhead_ratio": "ratio",
}

_EVAL_CALLERS = ("trainer.evaluate", "bilstm.predict_scores")


def _root(span: Span) -> Span:
    while span.parent is not None:
        span = span.parent
    return span


class _Spans:
    """Spans grouped by name, each layer read from the workload's own phase.

    A layer metric comes from the spans under the workload's own
    operations and set-up (phase "own"); a layer those never reach is read
    from the one-off coverage operations (phase "cover") instead.
    """

    def __init__(self, spans):
        self.by_phase = {"own": {}, "cover": {}}
        for s in spans:
            if s.parent is None:
                continue
            phase = _root(s).attrs["phase"]
            self.by_phase[phase].setdefault(s.name, []).append(s)

    def get(self, name, keep=None) -> list:
        for phase in ("own", "cover"):
            found = [s for s in self.by_phase[phase].get(name, []) if keep is None or keep(s)]
            if found:
                return found
        raise KeyError(f"no {name!r} span was recorded")

    def median_s(self, name, keep=None) -> float:
        return statistics.median(s.duration for s in self.get(name, keep))

    def rate(self, name, field, keep=None) -> float:
        spans = self.get(name, keep)
        return sum(s.attrs[field] for s in spans) / sum(s.duration for s in spans)

    def per_root(self, name, root_name=None) -> dict:
        """{root span: [spans named `name` under it]}, optionally only
        under roots called `root_name`."""
        groups = {}
        for phase in ("own", "cover"):
            for s in self.by_phase[phase].get(name, []):
                root = _root(s)
                if root_name is None or root.name == root_name:
                    groups.setdefault(id(root), []).append(s)
            if groups:
                return groups
        raise KeyError(f"no {name!r} span was recorded under {root_name or 'any operation'}")


def _median_per_fit(spans: _Spans, name, value) -> float:
    """Sum over the exact-split learners of the median, per fit of that
    learner, of value(list of `name` spans in that fit)."""
    total = 0.0
    for kind in EXACT_SPLIT_KINDS:
        groups = spans.per_root(name, f"op.train.{kind}")
        total += statistics.median(value(g) for g in groups.values())
    return total


def layer_metrics(tracer: Tracer, outside: dict) -> tuple:
    """(metrics, missing): every PER_LAYER metric that can be computed from
    the recorded spans, or from ``outside``, which maps a metric name to a
    function giving its value. A metric whose layer left no spans, or whose
    function fails, is left out and named in ``missing`` with the reason."""
    sp = _Spans(tracer.spans)
    train_forward = lambda s: s.parent is not None and s.parent.name not in _EVAL_CALLERS
    eval_forward = lambda s: s.parent is not None and s.parent.name in _EVAL_CALLERS
    eval_rate = lambda: sp.rate("bilstm.model_forward", "rows", eval_forward)
    vec = lambda: sp.get("features.TextVectorizer.transform")
    trains = lambda: sp.get("trainer.train")

    def featurize_rows_per_s():
        name = "pipeline.prepare" if sp.by_phase["own"].get("pipeline.prepare") \
            else "pipeline.featurize"
        return sp.rate(name, "rows")

    def lgbt_grow_s():
        bins_inside = {id(s.parent): s.duration for s in sp.get("forests.compute_bins")}
        return statistics.median(s.duration - bins_inside[id(s)]
                                 for s in sp.get("forests.fit_leafwise_gbm"))

    formulas = {
        "ingest.parse_s": lambda: sp.median_s("ingest.parse_csv_text"),
        "ingest.normalize_s": lambda: sp.median_s("ingest.assemble_dataset"),
        "ingest.mb_per_s": lambda: sp.rate("ingest.parse_csv_text", "bytes") / 1e6,
        "ingest.records": lambda: statistics.median(
            s.attrs["records"] for s in sp.get("ingest.parse_csv_text")),
        "ingest.parse_calls": lambda: statistics.median(
            len(g) for g in sp.per_root("ingest.parse_csv_text").values()),
        "ingest.write_s": lambda: sp.median_s("ingest.write_csv"),
        "features.vectorize_s": lambda: statistics.median(s.duration for s in vec()),
        "features.encode_s": lambda: sp.median_s("features.CategoricalEncoder.transform"),
        "features.pad_share": lambda: sum(s.attrs["pad"] for s in vec())
        / sum(s.attrs["ids"] for s in vec()),
        "pipeline.prepare_s": lambda: sp.median_s("pipeline.prepare"),
        "pipeline.featurize_rows_per_s": featurize_rows_per_s,
        "ndgrad.tape_nodes_per_batch": lambda: statistics.median(
            s.attrs["nodes"] for s in sp.get("ndgrad.backward")),
        "ndgrad.backward_s_per_batch": lambda: sp.median_s("ndgrad.backward"),
        "bilstm.forward_s_per_batch": lambda: sp.median_s("bilstm.model_forward", train_forward),
        "bilstm.eval_rows_per_s": eval_rate,
        "bilstm.eval_s_per_256_rows": lambda: 256.0 / eval_rate(),
        "bilstm.init_params_s": lambda: sp.median_s("bilstm.init_params"),
        "bilstm.fit_s": lambda: sp.median_s("bilstm.fit"),
        "trainer.adam_step_s": lambda: sp.median_s("trainer.adam_step"),
        "trainer.epoch_s": lambda: statistics.median(
            s.duration / s.attrs["epochs"] for s in trains()),
        "trainer.val_eval_s": lambda: sp.median_s("trainer.evaluate"),
        "trainer.epochs": lambda: statistics.median(s.attrs["epochs"] for s in trains()),
        "trainer.batches": lambda: statistics.median(
            len(g) for g in sp.per_root("trainer.adam_step").values()),
        "forests.best_split_calls": lambda: _median_per_fit(sp, "forests.best_split", len),
        "forests.best_split_s": lambda: _median_per_fit(
            sp, "forests.best_split", lambda g: sum(s.duration for s in g)),
        "forests.fit_tree_s": lambda: _median_per_fit(
            sp, "forests.fit_tree", lambda g: sum(s.duration for s in g)),
        "forests.compute_bins_s": lambda: sp.median_s("forests.compute_bins"),
        "forests.lgbt_grow_s": lgbt_grow_s,
        "forests.tabular_s": lambda: sp.median_s("forests.build_tabular"),
        "forests.predict_rows_per_s": lambda: sp.rate("forests.ensemble_predict", "rows"),
        "forests.rf_fit_s": lambda: sp.median_s("forests.fit_random_forest"),
        "forests.gbm_fit_s": lambda: sp.median_s("forests.fit_gbm"),
        "forests.lgbt_fit_s": lambda: sp.median_s("forests.fit_leafwise_gbm"),
        "metrics.report_s": lambda: sp.median_s("metrics.compute_report"),
        "bundle.save_s": lambda: sp.median_s("bundle.save_model"),
        "bundle.load_s": lambda: sp.median_s("bundle.load_model"),
        **outside,
    }
    metrics, missing = {}, {}
    for name, unit in PER_LAYER.items():
        try:
            metrics[name] = {"value": formulas[name](), "unit": unit}
        except Exception as exc:  # the layer was not reached, or is gone
            missing[name] = f"{type(exc).__name__}: {exc}"
    return metrics, missing
