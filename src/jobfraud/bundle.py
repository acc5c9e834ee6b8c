"""Portable model store: manifest.json plus a raw weight blob.

The manifest carries everything needed to rebuild the pipeline (format
version, model kind, configuration, vocabulary, encoders, feature layout,
a tensor directory, training history, test metrics, and the fingerprint of
the training data). ``weights.bin`` holds IEEE-754 binary64 values,
little-endian, concatenated row-major in manifest tensor order; tree
ensembles serialize inside the manifest and write an empty blob. A CRC-32
of the blob is stored and verified on load.
"""

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ModelStoreError

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "weights.bin"


@dataclass(frozen=True)
class ModelBundle:
    manifest: dict
    weights: bytes

    def tensor(self, name: str) -> np.ndarray:
        """Materialize one named tensor from the blob."""
        for entry in self.manifest["tensors"]:
            if entry["name"] == name:
                shape = tuple(entry["shape"])
                count = int(np.prod(shape)) if shape else 1
                start = entry["offset"]
                flat = np.frombuffer(self.weights, dtype="<f8", count=count, offset=start)
                return flat.reshape(shape).astype(np.float64)
        raise ModelStoreError(f"tensor {name!r} not present in manifest")


def pack_tensors(named_arrays) -> tuple:
    """(tensor directory, blob) for (name, ndarray) pairs, in order."""
    directory = []
    chunks = []
    offset = 0
    for name, values in named_arrays:
        data = np.ascontiguousarray(values, dtype="<f8").tobytes()
        directory.append({"name": name, "shape": list(values.shape), "offset": offset})
        chunks.append(data)
        offset += len(data)
    return directory, b"".join(chunks)


def make_bundle(
    kind: str,
    config: dict,
    tensors=(),
    extra: dict | None = None,
    history: dict | None = None,
    test_metrics: dict | None = None,
) -> ModelBundle:
    directory, blob = pack_tensors(tensors)
    manifest = {
        "format_version": FORMAT_VERSION,
        "model": kind,
        "config": config,
        "tensors": directory,
        "weights_crc32": zlib.crc32(blob),
        "history": history,
        "test_metrics": test_metrics,
    }
    if extra:
        manifest.update(extra)
    return ModelBundle(manifest=manifest, weights=blob)


def _replace_file(path: Path, data: bytes) -> None:
    """Write `data` to a temporary file beside `path`, then rename it over
    `path`: a reader sees the old file or the new one, never a part."""
    temp = path.with_name(f".{path.name}.tmp")
    try:
        with open(temp, "wb") as fh:
            fh.write(data)
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def save_model(bundle: ModelBundle, directory) -> None:
    """Write the bundle's two files. The weights go first: a save cut short
    between the two leaves new weights under the old manifest, which load
    refuses on the checksum."""
    directory = Path(directory)
    manifest = json.dumps(bundle.manifest, indent=2) + "\n"
    try:
        directory.mkdir(parents=True, exist_ok=True)
        _replace_file(directory / WEIGHTS_NAME, bundle.weights)
        _replace_file(directory / MANIFEST_NAME, manifest.encode("utf-8"))
    except OSError as exc:
        raise ModelStoreError(f"cannot write bundle to {directory}: {exc}") from exc


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_coverage(manifest: dict, blob: bytes) -> None:
    """The tensor directory is a list of {name: str, shape: [count, ...],
    offset: count} entries that lie end to end over the whole blob."""
    directory = manifest.get("tensors")
    if not isinstance(directory, list):
        raise ModelStoreError(f"tensor directory must be a list, got {directory!r}")
    offset = 0
    for entry in directory:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(map(_is_count, entry["shape"]))
            and _is_count(entry.get("offset"))
        ):
            raise ModelStoreError(f"malformed tensor directory entry {entry!r}")
        if entry["offset"] != offset:
            raise ModelStoreError(
                f"tensor {entry['name']!r} starts at byte {entry['offset']}, expected {offset}"
            )
        offset += int(np.prod(entry["shape"]) if entry["shape"] else 1) * 8
    if offset != len(blob):
        raise ModelStoreError(
            f"weight blob holds {len(blob)} bytes but tensors cover {offset}"
        )


def load_model(directory) -> ModelBundle:
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    weights_path = directory / WEIGHTS_NAME
    for path in (manifest_path, weights_path):
        if not path.is_file():
            raise ModelStoreError(f"missing bundle file {path}")
    try:
        manifest = json.loads(manifest_path.read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # deep nesting
        raise ModelStoreError(f"malformed manifest {manifest_path}: {exc}") from exc
    except OSError as exc:
        raise ModelStoreError(f"cannot read {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ModelStoreError(f"malformed manifest {manifest_path}: not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelStoreError(
            f"bundle format version {version!r} is not supported (expected {FORMAT_VERSION})"
        )
    try:
        with open(weights_path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ModelStoreError(f"cannot read {weights_path}: {exc}") from exc
    if zlib.crc32(blob) != manifest.get("weights_crc32"):
        raise ModelStoreError(f"checksum mismatch in {weights_path}")
    _check_coverage(manifest, blob)
    return ModelBundle(manifest=manifest, weights=blob)
