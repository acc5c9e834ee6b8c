import contextlib
import dataclasses
import io
import itertools
import json
import os
import re
import shutil
import tempfile
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_reference as reference
from jobfraud import bundle, cli, errors, ingest, synth, trainer
from jobfraud.cli import run_cli
from jobfraud.config import RunConfig
from jobfraud.pipeline import DetectionPipeline

# a fast configuration for end-to-end runs on the 300-row fixture
FAST_CONFIG = {
    "seed": 42,
    "features": {"max_tokens": 2000, "sequence_length": 64, "tabular_terms": 150},
    "bilstm": {"embedding_dim": 8, "hidden_units": 12, "dense_units": 12},
    "train": {"max_epochs": 3, "batch_size": 16, "patience": 2},
    "random_forest": {"n_trees": 10, "max_depth": 8},
    "gbm": {"n_rounds": 10},
    "leafwise_gbm": {"n_rounds": 10, "min_samples_leaf": 5},
}


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FAST_CONFIG), encoding="utf-8")
    return path


def _train_bundle(tmp_path_factory, small_csv, model, run_config=FAST_CONFIG):
    out = tmp_path_factory.mktemp("model") / model
    config = tmp_path_factory.mktemp("cfg") / "config.json"
    config.write_text(json.dumps(run_config), encoding="utf-8")
    code = run_cli([
        "train", "--data", str(small_csv), "--config", str(config),
        "--out", str(out), "--model", model,
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_model_dir(tmp_path_factory, small_csv):
    return _train_bundle(tmp_path_factory, small_csv, "gbm")


@pytest.fixture(scope="module")
def trained_rf_dir(tmp_path_factory, small_csv):
    return _train_bundle(tmp_path_factory, small_csv, "rf")


@pytest.fixture(scope="module")
def tree_bundles(tmp_path_factory, small_csv, trained_model_dir, trained_rf_dir):
    """The rf, gbm and lgbt bundles of the 300-row fixture."""
    return {
        "rf": trained_rf_dir,
        "gbm": trained_model_dir,
        "lgbt": _train_bundle(tmp_path_factory, small_csv, "lgbt"),
    }


@pytest.fixture(scope="module")
def strict_bilstm_dir(tmp_path_factory, small_csv):
    """A BiLSTM bundle trained with "threshold": 0.9, with a step large
    enough that some scores land between 0.5 and 0.9."""
    out = tmp_path_factory.mktemp("model") / "bilstm"
    config = tmp_path_factory.mktemp("cfg") / "config.json"
    config.write_text(json.dumps({
        **FAST_CONFIG,
        "threshold": 0.9,
        "train": {**FAST_CONFIG["train"], "learning_rate": 0.01},
    }), encoding="utf-8")
    code = run_cli([
        "train", "--data", str(small_csv), "--config", str(config),
        "--out", str(out), "--model", "bilstm",
    ])
    assert code == 0
    return out


def test_no_arguments_exits_one(capsys):
    assert run_cli([]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage" in captured.err.lower()


def test_unknown_subcommand_exits_one(capsys):
    assert run_cli(["frobnicate"]) == 1


def test_missing_required_flag_exits_one(capsys):
    assert run_cli(["eda", "--data", "x.csv"]) == 1


def test_eda_writes_report(tmp_path, small_csv):
    out = tmp_path / "eda.json"
    code = run_cli(["eda", "--data", str(small_csv), "--top-k", "7", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert set(report) == {"binary_distribution", "title_terms", "full_text_terms"}
    assert len(report["title_terms"]) == 7
    assert set(report["binary_distribution"]) == {
        "telecommuting", "has_company_logo", "has_questions", "fraudulent",
    }


def test_eda_missing_file_exits_two(capsys):
    assert run_cli(["eda", "--data", "/nope.csv", "--out", "/tmp/x.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text('job_id,title\n1,"unterminated\n', encoding="utf-8")
    assert run_cli(["eda", "--data", str(bad), "--out", str(tmp_path / "o.json")]) == 2
    assert "record" in capsys.readouterr().err


def test_train_prints_history_and_saves_bundle(tmp_path, small_csv, fast_config, capsys):
    out = tmp_path / "model"
    code = run_cli([
        "train", "--data", str(small_csv), "--config", str(fast_config),
        "--out", str(out), "--model", "bilstm", "--seed", "7",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == "bilstm"
    assert payload["history"]["stopped_epoch"] <= FAST_CONFIG["train"]["max_epochs"]
    assert (out / "manifest.json").is_file() and (out / "weights.bin").is_file()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["run_config"]["seed"] == 7


def test_evaluate_reports_metrics(trained_model_dir, small_csv, capsys):
    code = run_cli([
        "evaluate", "--model", str(trained_model_dir), "--data", str(small_csv),
        "--split", "test",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == "gbm"
    assert 0.0 <= payload["accuracy"] <= 1.0
    assert payload["confusion"]["tn"] + payload["confusion"]["fp"] + payload[
        "confusion"
    ]["fn"] + payload["confusion"]["tp"] == 60  # 20% of 300


def test_evaluate_missing_model_exits_three(small_csv, capsys):
    assert (
        run_cli(["evaluate", "--model", "/no/model", "--data", str(small_csv)]) == 3
    )
    assert "model store error" in capsys.readouterr().err


def test_predict_appends_columns(tmp_path, trained_model_dir, small_csv, capsys):
    out = tmp_path / "preds.csv"
    code = run_cli([
        "predict", "--model", str(trained_model_dir),
        "--input", str(small_csv), "--out", str(out),
    ])
    assert code == 0
    header, rows = ingest.read_csv(out)
    assert header[-2:] == ["probability", "predicted_label"]
    assert len(rows) == 300  # one output row per input row
    probs = [float(r[-2]) for r in rows]
    assert all(0.0 <= p <= 1.0 for p in probs)
    assert set(r[-1] for r in rows) <= {"0", "1"}


def test_predict_works_without_label_column(tmp_path, trained_model_dir, capsys):
    unlabeled = tmp_path / "unlabeled.csv"
    unlabeled.write_text(
        "job_id,title,location,description\n"
        '5,Data Engineer,"US, TX, Austin",work with the team\n',
        encoding="utf-8",
    )
    out = tmp_path / "p.csv"
    code = run_cli([
        "predict", "--model", str(trained_model_dir),
        "--input", str(unlabeled), "--out", str(out),
    ])
    assert code == 0
    _, rows = ingest.read_csv(out)
    assert len(rows) == 1


@pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
def test_record_wider_than_header_exits_two(
    tmp_path, trained_model_dir, small_csv, command, capsys
):
    """A record with more fields than the header would put its scores under
    the wrong columns; every command refuses it, naming the record."""
    header, records = ingest.read_csv(small_csv)
    records[4] = records[4] + ["spill", "over"]
    wide = tmp_path / "wide.csv"
    ingest.write_csv(wide, header, records)
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--data", str(wide), "--model", "gbm", "--out", str(out)],
        "evaluate": ["evaluate", "--model", str(trained_model_dir), "--data", str(wide),
                     "--split", "all"],
        "predict": ["predict", "--model", str(trained_model_dir), "--input", str(wide),
                    "--out", str(out)],
    }[command]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert f"data error: record 6: {len(header) + 2} fields, but the header has {len(header)}" in err
    assert not out.exists()


def test_predict_pads_short_records(tmp_path, trained_model_dir):
    short = tmp_path / "short.csv"
    short.write_text("job_id,title,location,description\n5,Data Engineer\n", encoding="utf-8")
    out = tmp_path / "p.csv"
    assert run_cli(["predict", "--model", str(trained_model_dir),
                    "--input", str(short), "--out", str(out)]) == 0
    _, rows = ingest.read_csv(out)
    assert rows[0][:4] == ["5", "Data Engineer", "", ""] and len(rows[0]) == 6


def test_predict_labels_use_bundle_threshold(tmp_path_factory, tmp_path, strict_bilstm_dir,
                                             small_csv):
    """Every kind labels a score at or above its bundle's threshold 0.9 as 1."""
    strict = {**FAST_CONFIG, "threshold": 0.9}
    bundles = [strict_bilstm_dir] + [_train_bundle(tmp_path_factory, small_csv, model, strict)
                                     for model in ("rf", "gbm", "lgbt")]
    for bundle in bundles:
        out = tmp_path / f"preds-{bundle.name}.csv"
        code = run_cli([
            "predict", "--model", str(bundle),
            "--input", str(small_csv), "--out", str(out),
        ])
        assert code == 0
        _, rows = ingest.read_csv(out)
        probs = np.array([float(r[-2]) for r in rows])
        labels = np.array([int(r[-1]) for r in rows])
        assert ((probs >= 0.5) & (probs < 0.9)).any(), bundle.name  # rows the threshold decides
        assert np.array_equal(labels, (probs >= 0.9).astype(int)), bundle.name


def test_evaluate_threshold_defaults_to_bundle(strict_bilstm_dir, small_csv, capsys):
    argv = ["evaluate", "--model", str(strict_bilstm_dir), "--data", str(small_csv)]
    assert run_cli(argv) == 0
    assert json.loads(capsys.readouterr().out)["threshold"] == 0.9
    assert run_cli(argv + ["--threshold", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["threshold"] == 0.5


def _no_read(*args, **kwargs):
    raise AssertionError("an input was read before the options were checked")


@pytest.mark.parametrize("value", ["1.5", "-0.5", "nan", "inf"])
def test_evaluate_threshold_outside_unit_interval_exits_one(trained_model_dir, small_csv, value,
                                                           monkeypatch, capsys):
    """--threshold gets the range check of a config file's threshold,
    before --data is read."""
    monkeypatch.setattr(cli, "load_dataset", _no_read)
    argv = ["evaluate", "--model", str(trained_model_dir), "--data", str(small_csv),
            "--threshold", value]
    assert run_cli(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"usage error: --threshold must lie in [0, 1], got {float(value)!r}\n")
    assert out == "" and "Traceback" not in err


def test_evaluate_threshold_inside_unit_interval_scores(trained_model_dir, small_csv, capsys):
    argv = ["evaluate", "--model", str(trained_model_dir), "--data", str(small_csv),
            "--threshold", "0.7"]
    assert run_cli(argv) == 0
    assert json.loads(capsys.readouterr().out)["threshold"] == 0.7


def test_eda_negative_top_k_exits_one(tmp_path, small_csv, monkeypatch, capsys):
    """A negative --top-k is refused before the data is read; 0 keeps working."""
    out = tmp_path / "eda.json"
    with monkeypatch.context() as mp:
        mp.setattr(cli, "load_dataset", _no_read)
        assert run_cli(["eda", "--data", str(small_csv), "--top-k", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: --top-k must be at least 0, got -1\n")
    assert "Traceback" not in err and not out.exists()
    assert run_cli(["eda", "--data", str(small_csv), "--top-k", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["title_terms"] == []


def test_bilstm_predict_csv_does_not_depend_on_eval_chunk(tmp_path, strict_bilstm_dir,
                                                         small_csv, monkeypatch):
    """The printed probabilities are the same bytes whatever the eval
    chunk: one row per call, 7, the default, and the whole file in one."""
    rows = len(ingest.read_csv(small_csv)[1])
    outputs = {}
    for chunk in (1, 7, trainer.EVAL_CHUNK, rows):
        monkeypatch.setattr(trainer, "EVAL_CHUNK", chunk)
        out = tmp_path / f"scored-{chunk}.csv"
        assert run_cli(["predict", "--model", str(strict_bilstm_dir), "--input",
                        str(small_csv), "--out", str(out)]) == 0
        outputs[chunk] = out.read_bytes()
    assert len(set(outputs.values())) == 1


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_manifest_missing_field_exits_three(
    tmp_path, trained_model_dir, strict_bilstm_dir, small_csv, command, capsys
):
    for source, field in ((trained_model_dir, "terms"), (strict_bilstm_dir, "vocabulary")):
        model = tmp_path / field
        shutil.copytree(source, model)
        manifest = json.loads((model / "manifest.json").read_text(encoding="utf-8"))
        del manifest[field]
        (model / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        if command == "evaluate":
            argv = ["evaluate", "--model", str(model), "--data", str(small_csv)]
        else:
            argv = ["predict", "--model", str(model), "--input", str(small_csv),
                    "--out", str(tmp_path / "p.csv")]
        assert run_cli(argv) == 3
        err = capsys.readouterr().err
        assert "model store error" in err and field in err


def test_predict_non_utf8_input_exits_two(tmp_path, trained_model_dir, capsys):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"job_id,title\n1,caf\xe9\n")
    code = run_cli([
        "predict", "--model", str(trained_model_dir),
        "--input", str(bad), "--out", str(tmp_path / "p.csv"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "latin1.csv is not UTF-8: byte 0xe9 at offset 18" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("split", ["test", "val"])
def test_evaluate_split_on_other_file_exits_two(
    tmp_path, trained_model_dir, small_csv, split, capsys
):
    header, records = ingest.read_csv(small_csv)
    for name, rows in (("fewer", records[:-1]), ("reordered", records[::-1])):
        other = tmp_path / f"{name}.csv"
        ingest.write_csv(other, header, rows)
        argv = ["evaluate", "--model", str(trained_model_dir), "--data", str(other)]
        assert run_cli(argv + ["--split", split]) == 2
        assert "trained on" in capsys.readouterr().err
        assert run_cli(argv + ["--split", "all"]) == 0  # any file can be scored whole
        capsys.readouterr()


def test_manifest_fingerprint_matches_training_file(trained_model_dir, small_csv):
    manifest = json.loads((trained_model_dir / "manifest.json").read_text(encoding="utf-8"))
    postings = ingest.load_dataset(small_csv).postings
    ids = "\n".join(str(p.job_id) for p in postings).encode()
    assert manifest["dataset_fingerprint"] == {"rows": 300, "job_id_crc32": zlib.crc32(ids)}


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_bundle_without_fingerprint_exits_three(
    tmp_path, trained_model_dir, small_csv, command, capsys
):
    model = tmp_path / "model"
    shutil.copytree(trained_model_dir, model)
    manifest = json.loads((model / "manifest.json").read_text(encoding="utf-8"))
    del manifest["dataset_fingerprint"]
    (model / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    if command == "evaluate":
        argv = ["evaluate", "--model", str(model), "--data", str(small_csv)]
    else:
        argv = ["predict", "--model", str(model), "--input", str(small_csv),
                "--out", str(tmp_path / "p.csv")]
    assert run_cli(argv) == 3
    err = capsys.readouterr().err
    assert "model store error" in err and "dataset_fingerprint" in err


def test_config_unknown_key_exits_one(tmp_path, small_csv, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"trian": {"max_epochs": 2}}), encoding="utf-8")
    code = run_cli([
        "train", "--data", str(small_csv), "--config", str(config),
        "--out", str(tmp_path / "m"),
    ])
    assert code == 1
    assert "trian" in capsys.readouterr().err


def test_config_unknown_nested_key_exits_one(tmp_path, small_csv, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"train": {"max_epoch": 2}}), encoding="utf-8")
    assert (
        run_cli([
            "train", "--data", str(small_csv), "--config", str(config),
            "--out", str(tmp_path / "m"),
        ])
        == 1
    )


@pytest.mark.parametrize("config, model, key", [
    ({"train": {"max_epochs": 2, "patience": 3}}, "bilstm", "'train.patience' must be smaller"),
    ({"train": {"max_epochs": "2"}}, "bilstm", "'train.max_epochs' must be int"),
    ({"train": {"batch_size": True}}, "bilstm", "'train.batch_size' must be int"),
    ({"threshold": "x"}, "bilstm", "'threshold' must be float"),
    ({"threshold": 1.5}, "gbm", "'threshold' must lie in [0, 1]"),
    ({"features": {"sequence_length": 0}}, "bilstm", "'features.sequence_length' must be positive"),
    ({"bilstm": {"hidden_units": -4}}, "bilstm", "'bilstm.hidden_units' must be positive"),
    ({"features": {"tabular_terms": -2}}, "gbm", "'features.tabular_terms' must be positive"),
    ({"random_forest": {"n_trees": 0}}, "rf", "'random_forest.n_trees' must be positive"),
    ({"gbm": {"min_samples_leaf": 0}}, "gbm", "'gbm.min_samples_leaf' must be positive"),
    ({"features": {"max_tokens": 2}}, "bilstm", "'features.max_tokens' must be at least 3, got 2"),
    ({"leafwise_gbm": {"n_bins": 1}}, "lgbt", "'leafwise_gbm.n_bins' must be at least 2, got 1"),
    ({"leafwise_gbm": {"max_leaves": 1}}, "lgbt",
     "'leafwise_gbm.max_leaves' must be at least 2, got 1"),
    ({"random_forest": {"max_depth": 0}}, "rf", "'random_forest.max_depth' must be positive"),
    ({"gbm": {"max_depth": -1}}, "gbm", "'gbm.max_depth' must be positive, got -1"),
], ids=["patience", "str-int", "bool-int", "str-float", "threshold-range", "sequence-length",
        "hidden-units", "tabular-terms", "n-trees", "min-samples-leaf", "max-tokens", "n-bins",
        "max-leaves", "rf-max-depth", "gbm-max-depth"])
def test_config_bad_value_exits_one(tmp_path, small_csv, config, model, key, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = run_cli([
        "train", "--data", str(small_csv), "--config", str(path),
        "--out", str(tmp_path / "m"), "--model", model,
    ])
    assert code == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("error, code, line", [
    (errors.UsageError("bad flag"), 1, "usage error: bad flag"),
    (errors.CsvParseError("unterminated quote", 7), 2, "parse error: record 7: unterminated quote"),
    (errors.DataError("no rows"), 2, "data error: no rows"),
    (errors.ModelStoreError("no bundle"), 3, "model store error: no bundle"),
    (errors.NumericError("not finite"), 4, "numeric error: not finite"),
    (errors.ShapeError("bad shape"), 4, "numeric error: bad shape"),
], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None)
def test_error_family_sets_exit_code_and_prefix(error, code, line, monkeypatch, capsys):
    """A command that raises an error family exits with its code and one
    stderr line with its prefix; only a usage error adds the usage line."""
    def fail(args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "eda", fail)
    assert run_cli(["eda", "--data", "in.csv", "--out", "out.json"]) == code
    captured = capsys.readouterr()
    usage = "usage: jobfraud [-h] {eda,train,evaluate,predict,compare} ...\n"
    assert captured.err == line + "\n" + (usage if code == 1 else "")
    assert captured.out == ""


# every integer count and size of the config; the seed takes any integer
INT_FIELDS = [
    f"{section.name}.{f.name}"
    for section in dataclasses.fields(RunConfig) if dataclasses.is_dataclass(section.type)
    for f in dataclasses.fields(section.type) if f.type is int
]


@pytest.mark.parametrize("key", INT_FIELDS)
def test_config_int_beyond_its_cap_exits_one(tmp_path, small_csv, key, capsys):
    section, field = key.split(".")
    path = tmp_path / "big.json"
    path.write_text(json.dumps({section: {field: 2**70}}), encoding="utf-8")
    code = run_cli([
        "train", "--data", str(small_csv), "--config", str(path),
        "--out", str(tmp_path / "m"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"config key '{key}' must be at most" in err and "Traceback" not in err
    assert not (tmp_path / "m").exists()


def _out_argv(command, out, small_csv, model_dir, monkeypatch):
    """The argv of `command` writing `out`, with every read of its inputs
    made to fail the test."""
    def no_work(*args, **kwargs):
        raise AssertionError("work began before --out was checked")

    for name in ("load_dataset", "read_csv"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr(cli.DetectionPipeline, "load", no_work)
    return {
        "eda": ["eda", "--data", str(small_csv), "--out", str(out)],
        "predict": ["predict", "--model", str(model_dir), "--input", str(small_csv),
                    "--out", str(out)],
        "compare": ["compare", "--data", str(small_csv), "--out", str(out)],
        "train": ["train", "--data", str(small_csv), "--out", str(out)],
    }[command]


@pytest.mark.parametrize("command", ["eda", "predict", "compare"])
def test_out_in_missing_directory_exits_one(tmp_path, small_csv, trained_model_dir, command,
                                            monkeypatch, capsys):
    """An --out whose directory does not exist is refused before any input is read."""
    out = tmp_path / "missing" / "out.csv"
    argv = _out_argv(command, out, small_csv, trained_model_dir, monkeypatch)
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert f"usage error: --out {out}: directory {out.parent} does not exist" in err
    assert "Traceback" not in err and not out.parent.exists()


@pytest.mark.parametrize("command", ["eda", "predict", "compare", "compare-json"])
def test_out_naming_a_directory_exits_one(tmp_path, small_csv, trained_model_dir, command,
                                          monkeypatch, capsys):
    """An --out that names a directory, or whose JSON report beside it
    would, is refused before any input is read; the directory stays."""
    out = tmp_path / "report.txt"
    directory = out.with_suffix(".json") if command == "compare-json" else out
    directory.mkdir()
    argv = _out_argv(command.removesuffix("-json"), out, small_csv, trained_model_dir,
                     monkeypatch)
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert f"usage error: --out {out}: {directory} is a directory" in err
    assert "Traceback" not in err
    assert directory.is_dir() and not any(directory.iterdir())


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                    reason="root writes into a directory whatever its permissions")
@pytest.mark.parametrize("command", ["eda", "predict", "compare", "train"])
def test_out_in_unwritable_directory_exits_one(tmp_path, small_csv, trained_model_dir, command,
                                               monkeypatch, capsys):
    """An --out in a directory this process cannot write is refused before
    any input is read; for train, a bundle directory that does not exist
    yet."""
    locked = tmp_path / "locked"
    locked.mkdir()
    out = locked / "out.csv"
    argv = _out_argv(command, out, small_csv, trained_model_dir, monkeypatch)
    locked.chmod(0o555)
    try:
        assert run_cli(argv) == 1
    finally:
        locked.chmod(0o755)
    err = capsys.readouterr().err
    assert f"usage error: --out {out}: directory {locked} is not writable" in err
    assert "Traceback" not in err and not any(locked.iterdir())


@pytest.mark.parametrize("where", ["out", "parent"])
def test_train_out_naming_a_file_exits_one(tmp_path, small_csv, trained_model_dir, where,
                                           monkeypatch, capsys):
    """A bundle --out that is a file, or lies under one, is refused before
    the data is read; the file stays."""
    file = tmp_path / "taken"
    file.write_text("kept\n", encoding="utf-8")
    out = file if where == "out" else file / "model"
    argv = _out_argv("train", out, small_csv, trained_model_dir, monkeypatch)
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert f"usage error: --out {out}: {file} is not a directory" in err
    assert "Traceback" not in err and file.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("command", ["eda", "predict", "compare"])
def test_out_under_a_file_exits_one(tmp_path, small_csv, trained_model_dir, command,
                                    monkeypatch, capsys):
    """An output file under a file is refused as such, before any input is
    read; the file stays."""
    file = tmp_path / "taken"
    file.write_text("kept\n", encoding="utf-8")
    out = file / "out.csv"
    argv = _out_argv(command, out, small_csv, trained_model_dir, monkeypatch)
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert f"usage error: --out {out}: {file} is not a directory" in err
    assert "Traceback" not in err and file.read_text(encoding="utf-8") == "kept\n"


def test_train_creates_missing_bundle_directories(tmp_path, half_fake_csv, capsys):
    """The --out check lets train create the missing parents of its bundle."""
    out = tmp_path / "a" / "b" / "model"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    assert run_cli(["train", "--data", str(half_fake_csv), "--config", str(config),
                    "--model", "gbm", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "weights.bin"]


def test_predict_replaces_output_through_a_temp_file(tmp_path, trained_model_dir, small_csv,
                                                     monkeypatch, capsys):
    """predict writes beside --out and renames into place: a failed
    rename exits 1 naming --out, and leaves the old output whole and no
    temp file behind."""
    out = tmp_path / "scored.csv"
    out.write_text("old\n", encoding="utf-8")

    def failing_replace(source, target):
        assert source.parent == out.parent and source.read_bytes().startswith(b"job_id,")
        raise OSError("rename failed")

    monkeypatch.setattr(bundle.os, "replace", failing_replace)
    argv = ["predict", "--model", str(trained_model_dir), "--input", str(small_csv),
            "--out", str(out)]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert f"--out {out}: cannot write: rename failed" in err and "Traceback" not in err
    assert out.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scored.csv"]
    monkeypatch.undo()
    assert run_cli(argv) == 0 and out.read_text(encoding="utf-8").startswith("job_id,")


def test_eda_output_that_cannot_be_written_exits_one(tmp_path, small_csv, monkeypatch, capsys):
    """An OSError while eda writes --out exits 1 naming --out and the
    error; the old output stays whole."""
    out = tmp_path / "eda.json"
    out.write_text("old\n", encoding="utf-8")

    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "replace_file", full_disk)
    assert run_cli(["eda", "--data", str(small_csv), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"--out {out}: cannot write: [Errno 28] No space left on device" in err
    assert "Traceback" not in err
    assert out.read_text(encoding="utf-8") == "old\n"


def test_compare_refuses_out_that_is_its_json_report(tmp_path, small_csv, monkeypatch, capsys):
    """compare writes its JSON report at --out with a .json suffix; an
    --out that already ends in .json would be overwritten by it, so it is
    refused before any work."""
    def no_work(*args, **kwargs):
        raise AssertionError("work began before --out was checked")

    monkeypatch.setattr(cli, "prepare", no_work)
    monkeypatch.setattr(cli, "load_dataset", no_work)
    out = tmp_path / "report.json"
    assert run_cli(["compare", "--data", str(small_csv), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"usage error: --out {out}: the table and its JSON report {out} would be one file" in err
    assert "Traceback" not in err and not out.exists()


def _build_out(base, segments) -> str:
    """`base` followed by each segment: a directory made there, a name that
    does not exist, a file made there (each made only where the path so
    far is a directory), or a separator."""
    out = str(base)
    for i, segment in enumerate(segments):
        if segment == "sep":
            out += os.sep
            continue
        made = os.path.isdir(out)
        out = os.path.join(out, f"s{i}.out")
        if made and segment == "dir":
            os.mkdir(out)
        elif made and segment == "file":
            with open(out, "w", encoding="utf-8") as fh:
                fh.write("kept\n")
    return out


def _writable_dir(path) -> bool:
    return os.path.isdir(path) and os.access(path, os.W_OK | os.X_OK)


def _out_accepted(command, out) -> bool:
    """Whether the filesystem lets `command` write `out`: a bundle is made,
    parents included, under its nearest existing ancestor, which must be a
    writable directory; an output file needs a name (no trailing
    separator), a writable directory to hold it and no directory in its
    place, nor in that of the JSON report compare writes beside it."""
    if command == "train":
        existing = out
        while not os.path.exists(existing):
            existing = os.path.dirname(existing)
        return _writable_dir(existing)
    files = [out]
    if command == "compare":
        files.append(os.path.splitext(out)[0] + ".json")
    return (not out.endswith(os.sep) and _writable_dir(os.path.dirname(out))
            and not any(map(os.path.isdir, files)))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(command=st.sampled_from(["eda", "predict", "compare", "train"]),
       segments=st.lists(st.sampled_from(["dir", "missing", "file", "sep"]),
                         min_size=1, max_size=3))
def test_composed_out_paths_are_checked_before_any_work(fuzz_dir, small_csv, trained_model_dir,
                                                         command, segments):
    """An --out of one to three segments either passes the path checks and
    reaches the input read, or, where the filesystem would refuse it, exits
    1 as a usage error naming --out, with no traceback and nothing made."""
    with tempfile.TemporaryDirectory(dir=fuzz_dir) as base, pytest.MonkeyPatch.context() as mp:
        out = _build_out(base, segments)
        before = sorted(os.walk(base))
        argv = _out_argv(command, out, small_csv, trained_model_dir, mp)
        if _out_accepted(command, out):
            with pytest.raises(AssertionError, match="work began before --out was checked"):
                run_cli(argv)
        else:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert run_cli(argv) == 1, out
            assert err.getvalue().startswith("usage error: --out "), err.getvalue()
            assert "Traceback" not in err.getvalue()
            assert sorted(os.walk(base)) == before


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model, section", [("gbm", "gbm"), ("lgbt", "leafwise_gbm")])
def test_overflowing_boosting_step_exits_four(tmp_path, small_csv, model, section, capsys):
    """A learning rate that drives the training scores to inf is a numeric
    error naming the round, not a bundle that load refuses."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({section: {"learning_rate": 1e308}}), encoding="utf-8")
    out = tmp_path / "m"
    argv = ["train", "--data", str(small_csv), "--config", str(config), "--model", model,
            "--out", str(out)]
    assert run_cli(argv) == 4
    err = capsys.readouterr().err
    assert "numeric error: boosting round 1: training scores are no longer finite" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("field", ["n_rounds", "learning_rate"])
@pytest.mark.parametrize("model, section", [("gbm", "gbm"), ("lgbt", "leafwise_gbm")])
def test_boosting_rounds_and_rate_must_be_positive(tmp_path, small_csv, model, section, field,
                                                   value, capsys):
    """A boosted ensemble of no rounds, or of steps that do not descend,
    is a config error, not a bundle."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({section: {field: value}}), encoding="utf-8")
    out = tmp_path / "m"
    argv = ["train", "--data", str(small_csv), "--config", str(config), "--model", model,
            "--out", str(out)]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert f"usage error: config key '{section}.{field}' must be positive, got {value}" in err
    assert "Traceback" not in err and not out.exists()


@pytest.fixture(scope="module")
def half_fake_csv(tmp_path_factory):
    """A 40-row file, half of it fake: one training batch of 26 rows."""
    path = tmp_path_factory.mktemp("data") / "half-fake.csv"
    synth.write_fixture(path, n_rows=40, seed=3, fraud_rate=0.5)
    return path


# a tiny configuration for sweeps on the 40-row file: one batch per epoch
TINY_CONFIG = {
    "features": {"max_tokens": 50, "sequence_length": 16, "tabular_terms": 10},
    "bilstm": {"embedding_dim": 4, "hidden_units": 4, "dense_units": 4},
    "train": {"max_epochs": 2, "batch_size": 40, "patience": 1},
    "random_forest": {"n_trees": 2, "max_depth": 3},
    "gbm": {"n_rounds": 2},
    "leafwise_gbm": {"n_rounds": 2, "min_samples_leaf": 2},
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rate", [1e308, float("inf")])
@pytest.mark.parametrize("data, run_config", [("half_fake_csv", TINY_CONFIG),
                                              ("small_csv", FAST_CONFIG)],
                         ids=["one-batch", "many-batches"])
def test_huge_bilstm_learning_rate_exits_four(request, tmp_path, data, run_config, rate, capsys):
    """A BiLSTM step too large for float64 is a numeric error naming the
    epoch, from Adam's gradient check or from the validation loss, with no
    float warning on the way and no bundle saved."""
    config = {**run_config, "train": {**run_config["train"], "learning_rate": rate}}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")  # inf: Infinity
    out = tmp_path / "m"
    code = run_cli(["train", "--data", str(request.getfixturevalue(data)), "--config",
                    str(tmp_path / "config.json"), "--model", "bilstm", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 4, err
    assert err.startswith("numeric error: epoch 1")
    assert "Traceback" not in err and not out.exists()


# a step of 1e300 leaves a tiny model finite weights too large to score
HUGE_STEP_CONFIG = {
    "train": {"learning_rate": 1e300},
    "bilstm": {"embedding_dim": 4, "hidden_units": 4, "dense_units": 4},
    "features": {"sequence_length": 16},
}


@pytest.mark.filterwarnings("error")
def test_bilstm_weights_too_large_to_score_exit_four_before_a_bundle(tmp_path, small_csv,
                                                                   capsys):
    """Finite weights whose scoring overflows are a numeric error naming the
    epoch, with no float warning on the way and no bundle saved, not a
    bundle that scores every row 0."""
    (tmp_path / "config.json").write_text(json.dumps(HUGE_STEP_CONFIG), encoding="utf-8")
    out = tmp_path / "m"
    code = run_cli(["train", "--data", str(small_csv), "--config", str(tmp_path / "config.json"),
                    "--model", "bilstm", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 4, err
    assert err.startswith("numeric error: epoch 1") and "input table" in err, err
    assert "Traceback" not in err and not out.exists()


@pytest.fixture(scope="module")
def tiny_bilstm_dir(tmp_path_factory, half_fake_csv):
    return _train_bundle(tmp_path_factory, half_fake_csv, "bilstm", TINY_CONFIG)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["predict", "evaluate"])
@pytest.mark.parametrize("tensors, phase", [
    (("embedding", "forward_lstm.wx"), "input table"),  # embedding @ Wx overflows
    (("dense_b", "out_w"), "pre-sigmoid logit"),  # every hidden unit is 1e300
])
def test_bilstm_bundle_too_large_to_score_exits_four(tmp_path, tiny_bilstm_dir, half_fake_csv,
                                                      tensors, phase, command, capsys):
    """A bundle of finite weights whose scoring overflows exits 4, naming
    what overflowed, with no float warning and no output file."""
    pipe = DetectionPipeline.load(tiny_bilstm_dir)
    for name, tensor in pipe.model.params.named_tensors():
        if name in tensors:
            tensor.values[...] = 1e300
    pipe.save(tmp_path / "huge")
    scored = tmp_path / "scored.csv"
    argv = {
        "predict": ["--input", str(half_fake_csv), "--out", str(scored)],
        "evaluate": ["--data", str(half_fake_csv), "--split", "test"],
    }[command]
    code = run_cli([command, "--model", str(tmp_path / "huge"), *argv])
    err = capsys.readouterr().err
    assert code == 4, err
    assert err.startswith("numeric error: ") and phase in err, err
    assert "Traceback" not in err and not scored.exists()


# every value a config sweep sets a field to
_SWEEP_VALUES = (0, -1, 0.5, 1e-320, 1e308, -1e308, float("nan"), float("inf"), 2**62, True,
                 "x", None)
_TREE_MODELS = {"random_forest": "rf", "gbm": "gbm", "leafwise_gbm": "lgbt"}


def _config_fields():
    """(section or None, name) of every RunConfig field."""
    for f in dataclasses.fields(RunConfig):
        if dataclasses.is_dataclass(f.type):
            yield from ((f.name, g.name) for g in dataclasses.fields(f.type))
        else:
            yield None, f.name


@pytest.mark.filterwarnings("error")
def test_config_sweep_exits_zero_to_four_without_a_traceback(tmp_path, half_fake_csv, capsys):
    """Every RunConfig field set to each sweep value in turn, one train per
    config on the 40-row file, of the section's model (the BiLSTM for a
    field outside the tree sections): each run exits 0-4 and writes no
    traceback."""
    fields = list(_config_fields())
    assert len(fields) == 29
    failures = []
    for run, ((section, name), value) in enumerate(itertools.product(fields, _SWEEP_VALUES)):
        config = json.loads(json.dumps(TINY_CONFIG))
        (config.setdefault(section, {}) if section else config)[name] = value
        path = tmp_path / f"config-{run}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["train", "--data", str(half_fake_csv), "--config", str(path),
                "--out", str(tmp_path / f"m{run}")]
        if section in _TREE_MODELS:
            argv += ["--model", _TREE_MODELS[section]]
        try:
            code = run_cli(argv)
        except Exception as exc:  # it would reach the user as a traceback
            code = repr(exc)
        err = capsys.readouterr().err
        if code not in range(5) or "Traceback" in err:
            failures.append((section, name, value, code))
    assert failures == []


# the JSON of every value a structural config mutation sets a section or a
# field to: none is a size within its cap
_CONFIG_VALUES = ("null", "true", "false", "[]", "[1]", "{}", '{"x": 1}', '"x"', "NaN",
                  "Infinity", "-Infinity", "1e308", str(2**70), str(-(2**70)))
# the path of every RunConfig section and field
_CONFIG_PATHS = [(f.name,) for f in dataclasses.fields(RunConfig) if dataclasses.is_dataclass(f.type)]
_CONFIG_PATHS += [(section, name) if section else (name,) for section, name in _config_fields()]


def _mutate_config(config: dict, edit: str, at: int, value) -> None:
    """Set a section or field of `config` to the JSON `value`, add an
    unknown key with that value to it or to one of its sections, or delete
    one of its top-level keys."""
    value = json.loads(value)
    if edit == "set":
        *section, name = _CONFIG_PATHS[at % len(_CONFIG_PATHS)]
        parent = config
        if section:
            if not isinstance(config.get(section[0]), dict):
                config[section[0]] = {}
            parent = config[section[0]]
        parent[name] = value
    elif edit == "add":
        objects = [config, *(v for v in config.values() if isinstance(v, dict))]
        objects[at % len(objects)]["unknown"] = value
    else:  # TINY_CONFIG has more sections than an example makes edits
        del config[list(config)[at % len(config)]]


@pytest.mark.filterwarnings("error")
@settings(max_examples=100, derandomize=True, deadline=None)
@given(model=st.sampled_from(["bilstm", "rf", "gbm", "lgbt"]),
       edits=st.lists(st.tuples(st.sampled_from(["set", "add", "delete"]),
                                st.integers(0, 2**16), st.sampled_from(_CONFIG_VALUES)),
                      min_size=1, max_size=3))
def test_mutated_config_trains_or_exits_without_a_traceback(half_fake_csv, fuzz_dir, model, edits):
    """TINY_CONFIG with one to three structural mutations trains `model` on
    the 40-row file, or refuses it, with an exit code of 0-4 and no
    traceback on stderr."""
    config = json.loads(json.dumps(TINY_CONFIG))
    for edit in edits:
        _mutate_config(config, *edit)
    path = fuzz_dir / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")  # NaN and ±inf as NaN, ±Infinity
    out = fuzz_dir / "trained"
    shutil.rmtree(out, ignore_errors=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(["train", "--data", str(half_fake_csv), "--config", str(path),
                        "--model", model, "--out", str(out)])
    assert code in range(5) and "Traceback" not in err.getvalue(), (code, err.getvalue())


@pytest.mark.parametrize("manifest, message", [
    (b'{"format_version": "\xe9"}', "can't decode byte 0xe9 in position 20"),
    (b"[]", "not a JSON object"),
    ({"tensors": 5}, "tensor directory must be a list"),
    ({"tensors": [5]}, "malformed tensor directory entry 5"),
], ids=["non-utf8", "not-an-object", "tensors-not-a-list", "tensor-entry-not-an-object"])
def test_bad_manifest_exits_three(
    tmp_path, trained_model_dir, small_csv, manifest, message, capsys
):
    model = tmp_path / "model"
    shutil.copytree(trained_model_dir, model)
    if isinstance(manifest, dict):  # fields to overwrite in the trained manifest
        stored = json.loads((model / "manifest.json").read_text(encoding="utf-8"))
        manifest = json.dumps({**stored, **manifest}).encode("utf-8")
    (model / "manifest.json").write_bytes(manifest)
    code = run_cli([
        "predict", "--model", str(model), "--input", str(small_csv),
        "--out", str(tmp_path / "p.csv"),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "model store error" in err and message in err


def _first_leaf(node):
    while "feature" in node:
        node = node["left"]
    return node


def _root(ensemble):
    return ensemble["trees"][0]


@pytest.mark.parametrize("bundle, edit, message", [
    ("gbm", lambda e: _root(e).update(feature=10**6), "split feature must be an integer in [0, "),
    ("gbm", lambda e: _root(e).update(feature=-1), "integer in [0, 199), got -1"),
    ("gbm", lambda e: _root(e).update(feature="3"), "integer in [0, 199), got '3'"),
    ("gbm", lambda e: _root(e).update(feature=3.0), "integer in [0, 199), got 3.0"),
    ("gbm", lambda e: _root(e).update(feature=True), "integer in [0, 199), got True"),
    ("gbm", lambda e: _root(e).update(threshold="x"), "split threshold must be a finite number"),
    ("gbm", lambda e: _first_leaf(_root(e)).update(value="x"), "leaf value must be a finite"),
    ("gbm", lambda e: _first_leaf(_root(e)).update(value=None), "finite number, got None"),
    ("gbm", lambda e: e.update(learning_rate=None), "learning_rate must be a finite number"),
    ("gbm", lambda e: e.update(base_score="x"), "base_score must be a finite number, got 'x'"),
    ("gbm", lambda e: e.update(kind="random_forest"), "holds a 'random_forest' ensemble"),
    ("gbm", lambda e: e["trees"].append([]), "tree node must be an object, got []"),
    ("rf", lambda e: e.update(trees=[]), "a random forest needs at least one tree"),
    ("rf", lambda e: _first_leaf(e["trees"][-1]).update(value=None), "leaf value must be"),
    ("rf", lambda e: _first_leaf(e["trees"][-1]).update(value=5), "must lie in [0, 1], got 5.0"),
    ("rf", lambda e: _first_leaf(_root(e)).update(value=-0.5), "must lie in [0, 1], got -0.5"),
    ("gbm", lambda e: e.update(learning_rate=1e308), "learning_rate times the leaf values can"),
], ids=["feature-out-of-range", "feature-negative", "feature-string", "feature-float",
        "feature-bool", "threshold-string", "value-string", "value-null", "learning-rate-null",
        "base-score-string", "kind-mismatch", "tree-not-an-object", "rf-no-trees",
        "rf-value-null", "rf-value-above-one", "rf-value-negative", "learning-rate-overflows"])
def test_ill_typed_tree_manifest_exits_three(
    tmp_path, trained_model_dir, trained_rf_dir, small_csv, bundle, edit, message, capsys
):
    model = tmp_path / "model"
    shutil.copytree(trained_model_dir if bundle == "gbm" else trained_rf_dir, model)
    manifest = json.loads((model / "manifest.json").read_text(encoding="utf-8"))
    edit(manifest["ensemble"])
    (model / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    code = run_cli([
        "predict", "--model", str(model), "--input", str(small_csv),
        "--out", str(tmp_path / "p.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert "model store error" in err and message in err
    assert not (tmp_path / "p.csv").exists()


def _drop_category(config):
    column = next(c for c, values in config["encoder_categories"].items() if values)
    config["encoder_categories"][column].pop()


def _repeat_token(manifest):
    manifest["vocabulary"][-1] = manifest["vocabulary"][2]


@pytest.mark.parametrize("bundle, edit, message", [
    ("gbm", lambda m: m["ensemble"].update(n_features=600), "ensemble has 600 features"),
    ("gbm", lambda m: m["terms"].pop(), "the encoder and 149 terms give"),
    ("gbm", lambda m: _drop_category(m["config"]), "terms give 198"),
    ("bilstm", lambda m: _drop_category(m["config"]), "tensor 'dense_w' has shape"),
    ("bilstm", lambda m: m.update(vocabulary=m["vocabulary"][:-5]),
     "tensor 'embedding' has shape"),
    ("bilstm", _repeat_token, "vocabulary must be a list of strings (all distinct)"),
], ids=["gbm-n-features", "gbm-term-dropped", "gbm-category-dropped",
        "bilstm-category-dropped", "bilstm-tokens-dropped", "bilstm-token-repeated"])
def test_mismatched_bundle_parts_exit_three(
    tmp_path, trained_model_dir, strict_bilstm_dir, small_csv, bundle, edit, message, capsys
):
    """The featurizers a bundle stores must give the input its model reads:
    a BiLSTM's tensor shapes follow from its run config, vocabulary and
    encoder width, as in its fit."""
    model = tmp_path / "model"
    shutil.copytree(trained_model_dir if bundle == "gbm" else strict_bilstm_dir, model)
    manifest = json.loads((model / "manifest.json").read_text(encoding="utf-8"))
    edit(manifest)
    (model / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    code = run_cli([
        "predict", "--model", str(model), "--input", str(small_csv),
        "--out", str(tmp_path / "p.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert "model store error" in err and message in err
    assert not (tmp_path / "p.csv").exists()


def _swap_category(value):
    """An edit that replaces one category with `value`, keeping the width."""
    def edit(config):
        config["encoder_categories"]["industry"][0] = value
    return edit


def _rename_category(config):
    categories = config["encoder_categories"]
    categories["sector"] = categories.pop("industry")  # same width, unknown column


def _repeat_category(config):
    """A category listed twice: same width, every later one-hot column shifted."""
    industry = config["encoder_categories"]["industry"]
    industry[1] = industry[0]


@pytest.mark.parametrize("edit", [
    _swap_category(["Retail"]),
    _swap_category({}),
    _swap_category(5),
    lambda c: c["encoder_categories"].update(industry="Retail"),
    _rename_category,
    lambda c: c["encoder_categories"].pop("country"),
    lambda c: c.update(encoder_categories=list(c["encoder_categories"])),
    _repeat_category,
], ids=["entry-list", "entry-object", "entry-number", "value-string", "key-renamed",
        "key-missing", "not-an-object", "entry-repeated"])
@pytest.mark.parametrize("bundle", ["gbm", "rf", "bilstm"])
def test_ill_typed_encoder_categories_exit_three(
    tmp_path, trained_model_dir, trained_rf_dir, strict_bilstm_dir, small_csv, bundle, edit, capsys
):
    source = {"gbm": trained_model_dir, "rf": trained_rf_dir, "bilstm": strict_bilstm_dir}
    model = tmp_path / "model"
    shutil.copytree(source[bundle], model)
    manifest = json.loads((model / "manifest.json").read_text(encoding="utf-8"))
    edit(manifest["config"])
    (model / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    code = run_cli([
        "predict", "--model", str(model), "--input", str(small_csv),
        "--out", str(tmp_path / "p.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert "model store error: encoder_categories must map" in err and "Traceback" not in err
    assert not (tmp_path / "p.csv").exists()


def _set_term(value):
    def edit(terms):
        terms[3] = value
    return edit


@pytest.mark.parametrize("edit", [
    _set_term(["sales"]),
    _set_term({"sales": 1}),
    _set_term(5),
    lambda terms: terms.__setitem__(3, terms[0]),
], ids=["term-list", "term-object", "term-number", "term-repeated"])
@pytest.mark.parametrize("bundle", ["rf", "gbm", "lgbt"])
def test_ill_typed_terms_exit_three(tmp_path, tree_bundles, small_csv, bundle, edit, capsys):
    """A tree bundle's terms are distinct strings; any other entry would
    count the wrong tokens, or none."""
    model = tmp_path / "model"
    shutil.copytree(tree_bundles[bundle], model)
    manifest = json.loads((model / "manifest.json").read_text(encoding="utf-8"))
    edit(manifest["terms"])
    (model / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    code = run_cli([
        "predict", "--model", str(model), "--input", str(small_csv),
        "--out", str(tmp_path / "p.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert "model store error: terms must be a list of distinct strings" in err
    assert "Traceback" not in err
    assert not (tmp_path / "p.csv").exists()


def _refused_bilstm_edit(tmp_path, source, data, edit, capsys) -> str:
    """stderr of a predict with the BiLSTM bundle at source, its manifest
    changed by edit, after checking that it exits 3 with no traceback and
    no output."""
    model = tmp_path / "model"
    shutil.copytree(source, model)
    manifest = json.loads((model / "manifest.json").read_text(encoding="utf-8"))
    edit(manifest)
    (model / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    code = run_cli([
        "predict", "--model", str(model), "--input", str(data), "--out", str(tmp_path / "p.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 3 and "Traceback" not in err
    assert not (tmp_path / "p.csv").exists()
    return err


def _set_token(value):
    def edit(manifest):
        manifest["vocabulary"][2] = value
    return edit


@pytest.mark.parametrize("edit", [
    _set_token(5),
    _set_token(None),
    _set_token(1.5),
    _set_token(True),
    _set_token(["sales"]),
    lambda m: m["vocabulary"].__setitem__(3, m["vocabulary"][2]),
], ids=["token-number", "token-null", "token-float", "token-bool", "token-list",
        "token-repeated"])
def test_ill_typed_vocabulary_exits_three(tmp_path, strict_bilstm_dir, small_csv, edit, capsys):
    """A BiLSTM bundle's vocabulary is distinct strings; any other entry
    would turn its token into OOV, or another token's id."""
    err = _refused_bilstm_edit(tmp_path, strict_bilstm_dir, small_csv, edit, capsys)
    assert "model store error: vocabulary must be a list of strings (all distinct)" in err


@pytest.mark.parametrize("key, value, message", [
    ("bilstm.hidden_units", 4096,
     "tensor 'forward_lstm.wx' has shape (48, 8), expected (16384, 8)"),
    ("bilstm.embedding_dim", 4096, "tensor 'embedding' has shape"),
    ("bilstm.dense_units", 4096, "tensor 'dense_w' has shape"),
    ("bilstm.hidden_units", 10**7, "config key 'bilstm.hidden_units' must be at most 4096"),
    ("features.sequence_length", 64.0,
     "config key 'features.sequence_length' must be int, got 64.0"),
    ("bilstm.hidden_units", 12.0, "config key 'bilstm.hidden_units' must be int, got 12.0"),
], ids=["hidden-units-huge", "embedding-dim-huge", "dense-units-huge", "hidden-units-past-cap",
        "sequence-length-float", "hidden-units-float"])
def test_bad_model_config_exits_three(tmp_path, strict_bilstm_dir, small_csv, key, value,
                                      message, capsys):
    """A BiLSTM's sizes are read from its run config, typed and capped like
    any config, and a claim of tensors larger than the stored ones is
    refused on the first stored shape that differs, before anything of the
    claimed size is allocated: the load's peak stays below half of the
    smallest claimed model here (the dense claim, 2.4 MiB)."""
    section, field = key.split(".")

    def edit(manifest):
        manifest["config"]["run_config"][section][field] = value

    tracemalloc.start()
    try:
        err = _refused_bilstm_edit(tmp_path, strict_bilstm_dir, small_csv, edit, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"model store error: bundle manifest is malformed: {message}" in err
    assert peak < 2**20


def test_bundle_with_a_stored_model_config_predicts_the_same(tmp_path, strict_bilstm_dir,
                                                            small_csv):
    """Older bundles also store the model's shape as config.model_config.
    A bundle stores it no more, and load ignores that member: put back,
    it changes no output byte."""
    manifest = json.loads((strict_bilstm_dir / "manifest.json").read_text(encoding="utf-8"))
    assert "model_config" not in manifest["config"]
    model = tmp_path / "model"
    shutil.copytree(strict_bilstm_dir, model)
    shape = DetectionPipeline.load(strict_bilstm_dir).model.config
    manifest["config"]["model_config"] = dataclasses.asdict(shape)
    (model / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    outputs = []
    for source in (strict_bilstm_dir, model):
        out = tmp_path / f"{source.name}.csv"
        assert run_cli(["predict", "--model", str(source), "--input", str(small_csv),
                        "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tensor, value", [("out_b", np.nan), ("embedding", -np.inf)])
def test_non_finite_weight_exits_three(tmp_path, strict_bilstm_dir, small_csv, tensor, value,
                                       capsys):
    """A stored weight that is not finite, under a recomputed checksum, is
    refused at load rather than scored as NaN."""
    model = tmp_path / "model"
    shutil.copytree(strict_bilstm_dir, model)
    manifest = json.loads((model / "manifest.json").read_text(encoding="utf-8"))
    entry = next(e for e in manifest["tensors"] if e["name"] == tensor)
    blob = bytearray((model / "weights.bin").read_bytes())
    blob[entry["offset"] : entry["offset"] + 8] = np.array([value], dtype="<f8").tobytes()
    manifest["weights_crc32"] = zlib.crc32(blob)
    (model / "weights.bin").write_bytes(blob)
    (model / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    code = run_cli([
        "predict", "--model", str(model), "--input", str(small_csv),
        "--out", str(tmp_path / "p.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert f"model store error: tensor {tensor!r} holds a value that is not finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "p.csv").exists()


def _nested(levels, inner, wrap):
    """`inner` wrapped `levels` times by the format string `wrap`."""
    for _ in range(levels):
        inner = wrap.format(inner)
    return inner


def _deep_history(manifest):
    manifest["history"] = "@"
    return json.dumps(manifest).replace('"@"', _nested(100_000, "", "[{}]"))


def _deep_first_tree(manifest):
    manifest["ensemble"]["trees"][0] = "@"
    split = '{{"feature": 0, "threshold": 0.5, "left": {}, "right": {{"value": 0.1}}}}'
    return json.dumps(manifest).replace('"@"', _nested(990, '{"value": 0.2}', split))


@pytest.mark.parametrize("nest", [_deep_history, _deep_first_tree], ids=["history", "tree"])
def test_deeply_nested_manifest_exits_three(
    tmp_path, trained_model_dir, small_csv, nest, capsys
):
    model = tmp_path / "model"
    shutil.copytree(trained_model_dir, model)
    manifest = json.loads((model / "manifest.json").read_text(encoding="utf-8"))
    (model / "manifest.json").write_text(nest(manifest), encoding="utf-8")
    code = run_cli([
        "predict", "--model", str(model), "--input", str(small_csv),
        "--out", str(tmp_path / "p.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert "model store error: malformed manifest" in err and "recursion" in err
    assert "Traceback" not in err


def test_deeply_nested_config_exits_one(tmp_path, small_csv, capsys):
    config = tmp_path / "deep.json"
    config.write_text('{"seed": ' + _nested(100_000, "", "[{}]") + "}", encoding="utf-8")
    code = run_cli([
        "train", "--data", str(small_csv), "--config", str(config),
        "--out", str(tmp_path / "m"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "deep.json is not valid JSON" in err and "recursion" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m").exists()


# the values a manifest mutation puts in place of a JSON value
_SWAPS = (None, 5, -1, "x", [], {}, True, 1e308, [1], 2**70, 10**7)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A 20-row input and room for the mutated bundles and their output."""
    root = tmp_path_factory.mktemp("fuzz")
    synth.write_fixture(root / "input.csv", n_rows=20, seed=3)
    return root


def _json_paths(value, path):
    """The path of value and of every value inside it."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    else:
        children = enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


# the messages that begin stderr on each refusal exit code
_REFUSALS = {2: ("parse error: ", "data error: "), 3: ("model store error: ",)}


def _exits_zero_or(refusal, argv, out) -> bool:
    """Whether run_cli(argv) exits 0, after checking that no exception
    escapes, stderr has no traceback, and any other exit is `refusal`, with
    its class's message and nothing written at `out`."""
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(argv)
    err = err.getvalue()
    assert "Traceback" not in err
    if code == 0:
        return True
    assert code == refusal and err.startswith(_REFUSALS[refusal]) and not out.exists(), err
    return False


def _check_scored(out, rows=None) -> None:
    """A well-formed predict output, of `rows` records when given."""
    header, records = ingest.read_csv(out)
    assert header[-2:] == ["probability", "predicted_label"] and rows in (None, len(records))
    for row in records:
        assert 0.0 <= float(row[-2]) <= 1.0 and row[-1] in ("0", "1")


def _fuzz_predict(model, fuzz_dir) -> None:
    """The bundle at `model` scores fuzz_dir's 20 rows or exits 3."""
    out = fuzz_dir / "p.csv"
    argv = ["predict", "--model", str(model), "--input", str(fuzz_dir / "input.csv"),
            "--out", str(out)]
    if _exits_zero_or(3, argv, out):
        _check_scored(out, rows=20)


def _predicts_or_exits_three(source, fuzz_dir, section, at, value):
    """The bundle at `source` with one manifest value swapped, at a JSON
    path drawn evenly from one of its top-level fields, either still
    predicts, with a well-formed output CSV, or exits 3 as a bad bundle; no
    exception escapes and stderr has no traceback."""
    manifest = json.loads((source / "manifest.json").read_text(encoding="utf-8"))
    field = list(manifest)[section % len(manifest)]
    paths = list(_json_paths(manifest[field], (field,)))
    path = paths[at % len(paths)]
    parent = manifest
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    model = fuzz_dir / "model"
    shutil.copytree(source, model, dirs_exist_ok=True)
    (model / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    _fuzz_predict(model, fuzz_dir)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    bundle=st.sampled_from(["rf", "gbm", "lgbt"]),
    section=st.integers(0, 2**16),
    at=st.integers(0, 2**32),
    value=st.sampled_from(_SWAPS),
)
def test_mutated_tree_manifest_predicts_or_exits_three(
    tree_bundles, fuzz_dir, bundle, section, at, value
):
    _predicts_or_exits_three(tree_bundles[bundle], fuzz_dir, section, at, value)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(section=st.integers(0, 2**16), at=st.integers(0, 2**32), value=st.sampled_from(_SWAPS))
def test_mutated_bilstm_manifest_predicts_or_exits_three(
    strict_bilstm_dir, fuzz_dir, section, at, value
):
    _predicts_or_exits_three(strict_bilstm_dir, fuzz_dir, section, at, value)


# the float64 words a damaged blob may gain
_WORDS = (np.nan, np.inf, -np.inf, np.finfo(np.float64).max, -np.finfo(np.float64).max)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(damage=st.sampled_from(["overwrite", "truncate", "extend", "word"]),
       at=st.integers(0, 2**32), data=st.binary(min_size=1, max_size=64),
       word=st.sampled_from(_WORDS))
def test_damaged_bilstm_weights_predict_or_exit_three(strict_bilstm_dir, fuzz_dir, damage, at,
                                                      data, word):
    """A BiLSTM bundle's weights.bin with bytes overwritten, cut off or
    appended, or one aligned word set to a non-finite or extreme float,
    under a recomputed checksum, either still predicts, with a well-formed
    output CSV, or exits 3 as a bad bundle."""
    blob = bytearray((strict_bilstm_dir / "weights.bin").read_bytes())
    i = at % len(blob)
    if damage == "overwrite":
        blob[i : i + len(data)] = data[: len(blob) - i]
    elif damage == "truncate":
        del blob[i:]
    elif damage == "extend":
        blob += data
    else:
        i -= i % 8
        blob[i : i + 8] = np.array([word], dtype="<f8").tobytes()
    manifest = json.loads((strict_bilstm_dir / "manifest.json").read_text(encoding="utf-8"))
    manifest["weights_crc32"] = zlib.crc32(blob)
    model = fuzz_dir / "model"
    shutil.copytree(strict_bilstm_dir, model, dirs_exist_ok=True)
    (model / "weights.bin").write_bytes(blob)
    (model / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    _fuzz_predict(model, fuzz_dir)


# the bytes a CSV mutation writes, inserts or deletes: NUL, bytes that are
# not UTF-8, CSV syntax, line ends and a byte order mark
_CSV_BYTES = (b"\x00", b"\xff", b"\xc3", b'"', b",", b"\r", b"\n", b"\xef\xbb\xbf")


@settings(max_examples=100, derandomize=True, deadline=None)
@given(edit=st.sampled_from(["overwrite", "insert", "delete"]),
       token=st.sampled_from(_CSV_BYTES), at=st.integers(0, 2**32))
def test_mutated_csv_bytes_score_or_exit_two(trained_model_dir, fuzz_dir, edit, token, at):
    """fuzz_dir's input with a token written over its bytes at a position,
    inserted there, or deleted (one of its occurrences, else as many bytes
    at the position): predict with a tree bundle and eda each exit 0 with
    well-formed output, or exit 2 as bad data with none."""
    data = (fuzz_dir / "input.csv").read_bytes()
    found = [m.start() for m in re.finditer(re.escape(token), data)]
    i = found[at % len(found)] if edit == "delete" and found else at % len(data)
    cut = 0 if edit == "insert" else len(token)
    mutated = fuzz_dir / "mutated.csv"
    mutated.write_bytes(data[:i] + (b"" if edit == "delete" else token) + data[i + cut :])
    out = fuzz_dir / "scored.csv"
    if _exits_zero_or(2, ["predict", "--model", str(trained_model_dir), "--input",
                          str(mutated), "--out", str(out)], out):
        _check_scored(out)
    out = fuzz_dir / "eda.json"
    if _exits_zero_or(2, ["eda", "--data", str(mutated), "--out", str(out)], out):
        report = json.loads(out.read_text(encoding="utf-8"))
        assert set(report) == {"binary_distribution", "title_terms", "full_text_terms"}


def test_integer_base_score_predicts_like_float(tmp_path, trained_model_dir, small_csv):
    """A hand-edited "base_score": 0 reads as 0.0."""
    outputs = []
    for base_score in (0, 0.0):
        model = tmp_path / f"model-{base_score!r}"
        shutil.copytree(trained_model_dir, model)
        manifest = json.loads((model / "manifest.json").read_text(encoding="utf-8"))
        manifest["ensemble"]["base_score"] = base_score
        (model / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        out = tmp_path / f"p-{base_score!r}.csv"
        code = run_cli(["predict", "--model", str(model), "--input", str(small_csv),
                        "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_config_non_utf8_exits_one(tmp_path, small_csv, capsys):
    config = tmp_path / "latin1.json"
    config.write_bytes(b'{"seed": "\xe9"}')
    code = run_cli([
        "train", "--data", str(small_csv), "--config", str(config),
        "--out", str(tmp_path / "m"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "latin1.json is not valid JSON" in err and "byte 0xe9 in position 10" in err


def test_compare_emits_tables_and_json(tmp_path, small_csv, fast_config, capsys):
    out = tmp_path / "report.md"
    code = run_cli([
        "compare", "--data", str(small_csv), "--config", str(fast_config),
        "--out", str(out),
    ])
    assert code == 0
    text = out.read_text(encoding="utf-8")
    for name in ("bilstm", "random_forest", "gbm", "leafwise_gbm"):
        assert name in text
    assert "Confusion matrix" in text
    payload = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
    assert len(payload["reports"]) == 4
    assert "bilstm" in payload["histories"]
    stdout_payload = json.loads(capsys.readouterr().out)
    assert stdout_payload == payload


def test_roundtrip_predictions_identical_after_reload(tmp_path, trained_model_dir, small_csv):
    from jobfraud.pipeline import DetectionPipeline

    ds = ingest.load_dataset(small_csv)
    pipe = DetectionPipeline.load(trained_model_dir)
    scores_a = pipe.predict_scores(ds.postings[:100])
    pipe.save(tmp_path / "again")
    scores_b = DetectionPipeline.load(tmp_path / "again").predict_scores(ds.postings[:100])
    assert np.array_equal(scores_a, scores_b)


def test_predict_parses_input_once(tmp_path, trained_model_dir, small_csv, monkeypatch):
    from jobfraud.pipeline import DetectionPipeline

    texts = []
    parse = ingest.parse_csv_text
    monkeypatch.setattr(ingest, "parse_csv_text", lambda text: texts.append(text) or parse(text))
    out = tmp_path / "preds.csv"
    code = run_cli([
        "predict", "--model", str(trained_model_dir),
        "--input", str(small_csv), "--out", str(out),
    ])
    assert code == 0
    assert len(texts) == 1
    monkeypatch.undo()
    # the output is the input's records followed by the loaded pipeline's scores
    header, records = ingest.read_csv(small_csv)
    pipe = DetectionPipeline.load(trained_model_dir)
    scores = pipe.predict_scores(ingest.load_dataset(small_csv).postings)
    expected = reference.format_csv(
        [h.strip() for h in header] + ["probability", "predicted_label"],
        [r + [f"{s:.6f}", str(int(s >= pipe.cfg.threshold))] for r, s in zip(records, scores)],
    )
    assert out.read_bytes() == expected.encode("utf-8")


def test_val_accuracy_uses_configured_threshold(strict_bilstm_dir, small_csv):
    from jobfraud.pipeline import DetectionPipeline
    from jobfraud.trainer import split_dataset

    manifest = json.loads((strict_bilstm_dir / "manifest.json").read_text(encoding="utf-8"))
    history = manifest["history"]
    pipe = DetectionPipeline.load(strict_bilstm_dir)
    postings = ingest.load_dataset(small_csv).postings
    val = split_dataset(len(postings), pipe.cfg.seed).validation
    labels = np.array([postings[i].fraudulent for i in val])
    scores = pipe.predict_scores([postings[i] for i in val])  # best epoch's weights

    def accuracy(threshold):
        return float(((scores >= threshold) == labels).mean())

    assert accuracy(0.9) != accuracy(0.5)  # the threshold decides the accuracy
    assert history["val_accuracy"][history["best_epoch"] - 1] == accuracy(0.9)
