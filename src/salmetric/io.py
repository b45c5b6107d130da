"""File formats: float map files, graymap import, dataset manifests, reports.

Map file layout (little-endian, normative):

    bytes 0..3    magic "SMAP"
    bytes 4..7    version, unsigned 32-bit, currently 1
    bytes 8..11   width, unsigned 32-bit
    bytes 12..15  height, unsigned 32-bit
    then          width*height 32-bit floats, row-major, top-left origin

``read_map`` also accepts binary graymaps (P5) at 8 or 16 bits, rescaled to
[0, 1] by the max code value declared in their header. Manifests and reports
are JSON with sorted keys, so equal content always produces equal bytes.
"""

import json
import os
import struct
import sys
from collections.abc import Mapping
from dataclasses import asdict

import numpy as np

from .core import DatasetIndex, FixationSet, GridMap, ImageRecord
from .errors import (
    BadMagicError,
    DuplicateIdError,
    IoFailureError,
    NonFiniteValueError,
    OutOfBoundsFixationError,
    SalmetricError,
    SchemaError,
    TruncatedPayloadError,
)
from .gaussian import sigma_for_dataset
from .metrics import EvalConfig, MetricReport

MAP_MAGIC = b"SMAP"
MAP_VERSION = 1
_FLOAT32_MAX = float(np.finfo(np.float32).max)


def write_map(grid: GridMap, path) -> None:
    """Write a map in the float map format above."""
    if np.any(np.abs(grid.values) > _FLOAT32_MAX):
        raise NonFiniteValueError("map values overflow the 32-bit payload")
    header = MAP_MAGIC + struct.pack("<III", MAP_VERSION, grid.width, grid.height)
    payload = grid.values.astype("<f4").tobytes(order="C")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(payload)
    except OSError as exc:
        raise IoFailureError(f"cannot write {path}: {exc}") from exc


def read_map(path) -> GridMap:
    """Read a float map file or a binary graymap; an error in it names the file."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc
    try:
        if data[:4] == MAP_MAGIC:
            return _parse_smap(data)
        if data[:2] == b"P5":
            return _parse_pgm(data)
    except SalmetricError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    raise BadMagicError(f"{path} does not start with a recognized map header")


def read_map_frame(path) -> tuple[int, int]:
    """The ``(width, height)`` of a map file: a float map's from its 16-byte
    header and the file's size, a graymap's from the file read whole, its
    header parsed once. Raises what :func:`read_map` raises for a bad header
    or a payload of the wrong length; the payload's values are checked only
    when the map is read."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            data = fh.read(16)
            if data[:2] == b"P5":
                data += fh.read()
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc
    try:
        if data[:4] == MAP_MAGIC:
            return _smap_frame(data, size)
        if data[:2] == b"P5":
            width, height, _, offset, dtype = _pgm_layout(data)
            _check_raster(len(data) - offset, width * height * dtype.itemsize)
            return width, height
    except SalmetricError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    raise BadMagicError(f"{path} does not start with a recognized map header")


class MapFiles(Mapping):
    """Maps by key, read from their files with :func:`read_map` on every
    access and never cached, so a caller that drops each map before it takes
    the next holds one map at a time. ``paths`` maps each key to its file."""

    def __init__(self, paths):
        self._paths = dict(paths)

    def __getitem__(self, key) -> GridMap:
        return read_map(self._paths[key])

    def __contains__(self, key) -> bool:
        return key in self._paths

    def __iter__(self):
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)


def _smap_frame(data: bytes, size: int) -> tuple[int, int]:
    """Check a float map's header, ``data[:16]``, against the file's ``size``."""
    if size < 16:
        raise TruncatedPayloadError("file shorter than the fixed header")
    version, width, height = struct.unpack("<III", data[4:16])
    if version != MAP_VERSION:
        raise BadMagicError(f"unsupported map file version {version}")
    if width < 1 or height < 1:
        raise BadMagicError("header declares an empty map")
    expected = 16 + 4 * width * height
    if size != expected:
        raise TruncatedPayloadError(
            f"payload is {size - 16} bytes, header promises {expected - 16}"
        )
    return width, height


def _parse_smap(data: bytes) -> GridMap:
    width, height = _smap_frame(data, len(data))
    values = np.frombuffer(data, dtype="<f4", offset=16)
    if not np.all(np.isfinite(values)):
        raise NonFiniteValueError("map payload contains non-finite values")
    return GridMap._adopt(values.astype(np.float64).reshape(height, width), finite=True)


def _pgm_header_tokens(data: bytes):
    """Yield (token, end_offset) for the 4 header fields, honoring comments."""
    pos = 0
    found = 0
    while found < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] not in (0x0A, 0x0D):
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise TruncatedPayloadError("graymap header ends early")
        yield data[start:pos], pos
        found += 1
    # exactly one whitespace byte separates the header from the raster


def _pgm_layout(data: bytes):
    """A graymap header's width, height and maxval, the raster's offset and
    its code type."""
    tokens = list(_pgm_header_tokens(data))
    magic = tokens[0][0]
    if magic != b"P5":
        raise BadMagicError("not a binary graymap")
    try:
        width, height, maxval = (int(tok) for tok, _ in tokens[1:])
    except ValueError as exc:
        raise SchemaError(f"bad graymap header: {exc}") from exc
    if width < 1 or height < 1 or not (0 < maxval < 65536):
        raise SchemaError("graymap header values out of range")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    return width, height, maxval, tokens[3][1] + 1, dtype


def _check_raster(length: int, expected: int) -> None:
    if length < expected:
        raise TruncatedPayloadError(
            f"graymap raster is {max(length, 0)} bytes, expected {expected}"
        )


def _parse_pgm(data: bytes) -> GridMap:
    width, height, maxval, offset, dtype = _pgm_layout(data)
    expected = width * height * dtype.itemsize
    raster = data[offset : offset + expected]
    _check_raster(len(raster), expected)
    codes = np.frombuffer(raster, dtype=dtype)
    top = int(codes.max())
    if top > maxval:
        raise SchemaError(f"graymap code {top} exceeds its maxval {maxval}")
    return GridMap._adopt((codes.astype(np.float64) / maxval).reshape(height, width))


def read_manifest(path) -> DatasetIndex:
    """Load and validate a dataset manifest.

    Schema: {"name", "width", "height", "sigma"?, "images": [{"id",
    "fixations": [[x, y], ...]}]}. When sigma is absent it falls back to the
    default paired with the dataset name."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    return manifest_to_dataset(doc)


def manifest_to_dataset(doc) -> DatasetIndex:
    if not isinstance(doc, dict):
        raise SchemaError("manifest root must be an object")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise SchemaError("manifest 'name' must be a string")
    width, height = doc.get("width"), doc.get("height")
    if type(width) is not int or type(height) is not int:
        raise SchemaError("manifest needs integer 'width' and 'height'")
    if width < 1 or height < 1:
        raise SchemaError("manifest frame must be at least 1x1")
    images_doc = doc.get("images")
    if not isinstance(images_doc, list) or not images_doc:
        raise SchemaError("manifest needs a non-empty 'images' list")
    seen = set()
    records = []
    for entry in images_doc:
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
            raise SchemaError("each image needs a string 'id'")
        image_id = entry["id"]
        if image_id in seen:
            raise DuplicateIdError(f"duplicate image id {image_id!r}")
        seen.add(image_id)
        fixations_doc = entry.get("fixations")
        if not isinstance(fixations_doc, list):
            raise SchemaError(f"image {image_id!r} needs a 'fixations' list")
        coords = []
        for pair in fixations_doc:
            if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                    or not all(type(v) is int for v in pair)):
                raise SchemaError(f"image {image_id!r}: fixations must be [x, y] integer pairs")
            x, y = pair
            if not (0 <= x < width and 0 <= y < height):
                raise OutOfBoundsFixationError(
                    f"image {image_id!r}: fixation [{x}, {y}] outside the {width}x{height} frame"
                )
            coords.append((x, y))
        records.append(ImageRecord(id=image_id, fixations=FixationSet(coords, (width, height))))
    if "sigma" in doc:
        sigma = doc["sigma"]
        # the upper bound also turns away an integer too large for a float
        if (isinstance(sigma, bool) or not isinstance(sigma, (int, float))
                or not 0 < sigma <= sys.float_info.max):
            raise SchemaError("manifest 'sigma' must be a positive finite number")
        sigma = float(sigma)
    else:
        sigma = sigma_for_dataset(name)
    return DatasetIndex(records, name=name, sigma=sigma)


def dataset_to_manifest(dataset: DatasetIndex) -> dict:
    width, height = dataset.frame
    return {
        "name": dataset.name,
        "width": width,
        "height": height,
        "sigma": dataset.sigma,
        "images": [
            {"id": rec.id, "fixations": [[x, y] for x, y in rec.fixations.coords]}
            for rec in dataset.images
        ],
    }


def dump_json(doc, path) -> None:
    """Write a JSON document with sorted keys; equal content gives equal bytes."""
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailureError(f"cannot write {path}: {exc}") from exc


def write_manifest(dataset: DatasetIndex, path) -> None:
    dump_json(dataset_to_manifest(dataset), path)


def write_report(report: MetricReport, path) -> None:
    """Serialize a metric report; two writes of equal reports are byte-identical."""
    config = asdict(report.config)
    config["metrics"] = list(config["metrics"])
    doc = {
        "aggregate": report.aggregate,
        "config": config,
        "per_image": report.per_image,
        "per_image_std": report.per_image_std,
    }
    dump_json(doc, path)


def read_report(path) -> MetricReport:
    """Load a report written by :func:`write_report`, including one written
    before the fn-fast sampler was removed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not a valid report: {exc}") from exc
    try:
        config_doc = dict(doc["config"])
        for key in ("fn_fast", "cc_threshold"):  # config of the removed fn-fast sampler
            config_doc.pop(key, None)
        config_doc["metrics"] = tuple(config_doc["metrics"])
        config = EvalConfig(**config_doc)
        return MetricReport(
            per_image=doc["per_image"],
            per_image_std=doc["per_image_std"],
            aggregate=doc["aggregate"],
            config=config,
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"{path} is missing report fields: {exc}") from exc
    except ValueError as exc:
        raise SchemaError(f"{path} has an invalid config: {exc}") from exc
