import json
from pathlib import Path

import numpy as np
import pytest

from jobfraud import bundle
from jobfraud.bundle import ModelBundle, load_model, make_bundle, pack_tensors, save_model
from jobfraud.errors import ModelStoreError


def sample_bundle():
    rng = np.random.default_rng(0)
    tensors = [
        ("w1", rng.normal(size=(3, 4))),
        ("b1", rng.normal(size=(4,))),
        ("w2", rng.normal(size=(4, 1))),
    ]
    return make_bundle(kind="demo", config={"seed": 1}, tensors=tensors), dict(tensors)


def test_pack_tensor_directory_coverage():
    b, _ = sample_bundle()
    offsets = [e["offset"] for e in b.manifest["tensors"]]
    sizes = [int(np.prod(e["shape"])) * 8 for e in b.manifest["tensors"]]
    assert offsets == [0, 96, 128]
    assert sum(sizes) == len(b.weights)


def test_save_load_round_trip_bytes_identical(tmp_path):
    b, arrays = sample_bundle()
    save_model(b, tmp_path / "m")
    loaded = load_model(tmp_path / "m")
    assert loaded.weights == b.weights
    save_model(loaded, tmp_path / "m2")
    assert (tmp_path / "m2" / "weights.bin").read_bytes() == (
        tmp_path / "m" / "weights.bin"
    ).read_bytes()
    for name, values in arrays.items():
        assert np.array_equal(loaded.tensor(name), values)


def test_tensor_values_little_endian_float64(tmp_path):
    b, arrays = sample_bundle()
    save_model(b, tmp_path / "m")
    raw = (tmp_path / "m" / "weights.bin").read_bytes()
    first = np.frombuffer(raw, dtype="<f8", count=12).reshape(3, 4)
    assert np.array_equal(first, arrays["w1"])


def test_corrupted_blob_detected(tmp_path):
    b, _ = sample_bundle()
    save_model(b, tmp_path / "m")
    blob_path = tmp_path / "m" / "weights.bin"
    data = bytearray(blob_path.read_bytes())
    data[10] ^= 0xFF
    blob_path.write_bytes(bytes(data))
    with pytest.raises(ModelStoreError, match="checksum"):
        load_model(tmp_path / "m")


def test_truncated_blob_detected(tmp_path):
    b, _ = sample_bundle()
    save_model(b, tmp_path / "m")
    blob_path = tmp_path / "m" / "weights.bin"
    blob_path.write_bytes(blob_path.read_bytes()[:-8])
    with pytest.raises(ModelStoreError):
        load_model(tmp_path / "m")


def test_missing_files(tmp_path):
    b, _ = sample_bundle()
    save_model(b, tmp_path / "m")
    (tmp_path / "m" / "weights.bin").unlink()
    with pytest.raises(ModelStoreError, match="missing"):
        load_model(tmp_path / "m")
    with pytest.raises(ModelStoreError, match="missing"):
        load_model(tmp_path / "nowhere")


def test_malformed_manifest(tmp_path):
    b, _ = sample_bundle()
    save_model(b, tmp_path / "m")
    (tmp_path / "m" / "manifest.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelStoreError, match="malformed"):
        load_model(tmp_path / "m")


def test_future_format_version_rejected(tmp_path):
    b, _ = sample_bundle()
    save_model(b, tmp_path / "m")
    path = tmp_path / "m" / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["format_version"] = 99
    path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ModelStoreError, match="version 99"):
        load_model(tmp_path / "m")


def test_offset_gap_detected(tmp_path):
    directory, blob = pack_tensors([("a", np.zeros(2)), ("b", np.zeros(2))])
    directory[1]["offset"] += 8  # introduce a gap
    manifest = {
        "format_version": bundle.FORMAT_VERSION,
        "model": "demo",
        "config": {},
        "tensors": directory,
        "weights_crc32": __import__("zlib").crc32(blob),
    }
    save_model(ModelBundle(manifest=manifest, weights=blob), tmp_path / "m")
    with pytest.raises(ModelStoreError, match="starts at byte"):
        load_model(tmp_path / "m")


def test_empty_blob_for_tree_models(tmp_path):
    b = make_bundle(kind="gbm", config={}, tensors=(), extra={"ensemble": {"trees": []}})
    save_model(b, tmp_path / "m")
    loaded = load_model(tmp_path / "m")
    assert loaded.weights == b""
    assert loaded.manifest["ensemble"] == {"trees": []}


@pytest.mark.parametrize("failing", [bundle.WEIGHTS_NAME, bundle.MANIFEST_NAME])
def test_save_cut_short_leaves_no_partial_file(tmp_path, monkeypatch, failing):
    """A save whose write of one file fails halfway (disk full) leaves the
    previous bundle loadable, or new weights under the old manifest, which
    load refuses on the checksum; never a truncated file or a temp file."""
    old, _ = sample_bundle()
    save_model(old, tmp_path / "m")
    names = (bundle.MANIFEST_NAME, bundle.WEIGHTS_NAME)
    before = {name: (tmp_path / "m" / name).read_bytes() for name in names}
    new = make_bundle(kind="demo", config={"seed": 2}, tensors=[("w", np.arange(6.0))])

    class HalfWrite:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    def failing_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return HalfWrite(fh) if failing in Path(path).name else fh

    monkeypatch.setattr(bundle, "open", failing_open, raising=False)
    with pytest.raises(ModelStoreError, match="No space left on device"):
        save_model(new, tmp_path / "m")
    monkeypatch.undo()

    assert sorted(p.name for p in (tmp_path / "m").iterdir()) == sorted(names)
    assert (tmp_path / "m" / bundle.MANIFEST_NAME).read_bytes() == before[bundle.MANIFEST_NAME]
    if failing == bundle.WEIGHTS_NAME:
        assert load_model(tmp_path / "m") == old
    else:  # the weights went first
        assert (tmp_path / "m" / bundle.WEIGHTS_NAME).read_bytes() == new.weights
        with pytest.raises(ModelStoreError, match="checksum"):
            load_model(tmp_path / "m")

