"""Command-line entry points: eda, train, evaluate, predict, compare.

stdout carries only machine-readable payloads (JSON, CSV); diagnostics go
to stderr. Exit codes: 0 success, 1 usage, 2 data/parse, 3 model store,
4 numeric failure.
"""

import argparse
import contextlib
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .bundle import replace_file
from .config import MODEL_ALIASES, MODEL_KINDS, RunConfig, load_config
from .errors import (
    CsvParseError,
    DataError,
    ModelStoreError,
    NumericError,
    ShapeError,
    UsageError,
)
from .features import eda_report
from .ingest import (
    assemble_dataset,
    dataset_fingerprint,
    load_dataset,
    postings_from_records,
    read_csv,
    write_csv,
)
from .metrics import compute_report, report_tables
from .pipeline import DetectionPipeline, prepare, train_pipeline
from .trainer import split_dataset


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="jobfraud", description="Fake job posting detection.")
    sub = parser.add_subparsers(dest="command", metavar="{eda,train,evaluate,predict,compare}")

    p = sub.add_parser("eda", help="dataset statistics as JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--top-k", type=int, default=20)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train one model and save its bundle")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--model", choices=("bilstm", "rf", "gbm", "lgbt"), default=None)

    p = sub.add_parser("evaluate", help="score a saved model on a split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("test", "val", "all"), default="test")
    p.add_argument("--threshold", type=float, default=None,
                   help="decision threshold (default: the bundle's)")

    p = sub.add_parser("predict", help="append probabilities to a CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("compare", help="train all four models on one split")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    return parser


def _load_run_config(path, seed=None, model=None) -> RunConfig:
    cfg = load_config(path) if path else RunConfig()
    if seed is not None:
        cfg = cfg.replace(seed=seed)
    if model is not None:
        cfg = cfg.replace(model=MODEL_ALIASES[model])
    return cfg


def _check_out_dir(out, *beside) -> None:
    """Refuse, before any work, an output file whose directory does not
    exist or this process cannot write, or when it or a file written
    `beside` it names a directory."""
    out = Path(out)
    if not out.parent.is_dir():
        raise UsageError(f"--out {out}: directory {out.parent} does not exist")
    if not os.access(out.parent, os.W_OK | os.X_OK):
        raise UsageError(f"--out {out}: directory {out.parent} is not writable")
    for path in (out, *beside):
        if path.is_dir():
            raise UsageError(f"--out {out}: {path} is a directory")


@contextlib.contextmanager
def _writing(out):
    """Turn an OSError while writing the output files of `--out` into a
    usage error (exit 1) that names it."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"--out {out}: cannot write: {exc}") from exc


def _cmd_eda(args) -> int:
    _check_out_dir(args.out)
    dataset = load_dataset(args.data)
    report = eda_report(dataset, args.top_k)
    with _writing(args.out):
        replace_file(args.out, (json.dumps(report, indent=2) + "\n").encode("utf-8"))
    return 0


def _cmd_train(args) -> int:
    cfg = _load_run_config(args.config, args.seed, args.model)
    dataset = load_dataset(args.data)
    pipe = train_pipeline(dataset, cfg, cfg.model)
    pipe.save(args.out)
    payload = {
        "model": cfg.model,
        "history": asdict(pipe.history) if pipe.history else None,
        "test_metrics": pipe.test_metrics.to_dict(),
    }
    print(json.dumps(payload, indent=2))
    return 0


def _split_indices(split: str, n: int, seed: int):
    if split == "all":
        return list(range(n))
    result = split_dataset(n, seed)
    return list(result.test if split == "test" else result.validation)


def _cmd_evaluate(args) -> int:
    pipe = DetectionPipeline.load(args.model)
    dataset = load_dataset(args.data)
    found = dataset_fingerprint(dataset.postings)
    if args.split != "all" and found != pipe.fingerprint:
        raise DataError(
            f"--split {args.split} needs the file the model was trained on; {args.data} "
            f"has {found}, the model {pipe.fingerprint} (--split all scores every row)"
        )
    indices = _split_indices(args.split, len(dataset.postings), pipe.cfg.seed)
    postings = [dataset.postings[i] for i in indices]
    labels = np.array([p.fraudulent for p in postings])
    scores = pipe.predict_scores(postings)
    threshold = pipe.cfg.threshold if args.threshold is None else args.threshold
    report = compute_report(labels, scores, threshold)
    print(json.dumps({"model": pipe.kind, "split": args.split, **report.to_dict()}, indent=2))
    return 0


def _cmd_predict(args) -> int:
    _check_out_dir(args.out)
    pipe = DetectionPipeline.load(args.model)
    header, raw_rows = read_csv(args.input)
    dataset = assemble_dataset(postings_from_records(header, raw_rows, args.input))
    scores = pipe.predict_scores(dataset.postings).tolist()
    threshold = pipe.cfg.threshold
    width = len(header)  # postings_from_records refused any wider record
    out_rows = [
        record + [""] * (width - len(record)) + [f"{score:.6f}", "1" if score >= threshold else "0"]
        for record, score in zip(raw_rows, scores)
    ]
    with _writing(args.out):
        write_csv(args.out, [h.strip() for h in header] + ["probability", "predicted_label"],
                  out_rows)
    return 0


def _cmd_compare(args) -> int:
    out_path = Path(args.out)
    json_path = out_path.with_suffix(".json")
    if json_path == out_path:
        raise UsageError(f"--out {out_path}: the table and its JSON report {json_path} "
                         "would be one file; give the table another suffix")
    _check_out_dir(out_path, json_path)
    cfg = _load_run_config(args.config)
    dataset = load_dataset(args.data)
    prepared = prepare(dataset, cfg, kinds=MODEL_KINDS)
    results = []
    histories = {}
    for kind in MODEL_KINDS:
        logging.getLogger(__name__).info("training %s", kind)
        pipe = train_pipeline(dataset, cfg, kind, prepared=prepared)
        results.append((kind, pipe.test_metrics))
        if pipe.history is not None:
            histories[kind] = asdict(pipe.history)
    table_text, payload = report_tables(results)
    payload_text = json.dumps({"reports": payload, "histories": histories}, indent=2)
    with _writing(out_path):
        replace_file(out_path, table_text.encode("utf-8"))
        replace_file(json_path, (payload_text + "\n").encode("utf-8"))
    print(payload_text)
    return 0


_COMMANDS = {
    "eda": _cmd_eda,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
    "compare": _cmd_compare,
}


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        if not argv:
            raise UsageError("a subcommand is required")
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except CsvParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ModelStoreError as exc:
        print(f"model store error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, ShapeError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
