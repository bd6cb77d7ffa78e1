"""ENVI raster reader/writer: plain-text header plus raw binary cube in
BSQ, BIL, or BIP interleave.

Cubes normalize to a band-major float32 array (bands, lines, samples) on
load; label rasters are decoded from their file samples. Supported sample
types: int16, uint16, float32, float64 (ENVI data type codes 2, 12, 4, 5),
either byte order. The reader and the writer share one description of each
encoding: INTERLEAVE_AXES, DTYPE_CODES and _sample_dtype.
"""
from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, read_file, write_atomic

# ENVI data type code -> numpy dtype char (byte order prefixed at use)
DTYPE_CODES = {2: "i2", 4: "f4", 5: "f8", 12: "u2"}
# interleave -> the cube axes (0 band, 1 line, 2 sample) in file order, outermost first
INTERLEAVE_AXES = {"bsq": (0, 1, 2), "bil": (1, 0, 2), "bip": (1, 2, 0)}
INTERLEAVES = tuple(INTERLEAVE_AXES)
LABEL_MAX = 2**31 - 1  # labels are stored as int32
BIP_BLOCK = 1 << 18  # samples per cast from BIP: a whole-cube transposing cast misses cache


@dataclass
class HyperCube:
    """Hyperspectral cube, band-major float32: data is (bands, height, width)."""

    data: np.ndarray

    bands = property(lambda self: self.data.shape[0])
    height = property(lambda self: self.data.shape[1])
    width = property(lambda self: self.data.shape[2])

    @classmethod
    def from_array(cls, data):
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.ndim != 3:
            raise DataError(f"cube array must be (bands, h, w), got shape {data.shape}")
        return cls(data)


@dataclass
class LabelRaster:
    """Per-pixel class labels, (height, width) int32; 0 means unlabeled, 1..K
    are classes."""

    labels: np.ndarray

    height = property(lambda self: self.labels.shape[0])
    width = property(lambda self: self.labels.shape[1])

    @classmethod
    def from_array(cls, labels, source=None):
        """Labels from a 2-D array of integers in [0, LABEL_MAX], checked before
        the int32 cast; `source` names the file in errors."""
        values = np.asarray(labels)
        where = "" if source is None else f" in '{source}'"
        if values.ndim != 2:
            raise DataError(f"label array{where} must be 2-D, got shape {values.shape}")
        ok = (values >= 0) & (values <= LABEL_MAX)
        if values.dtype.kind == "f":
            ok &= np.floor(values) == values
        if not ok.all():
            y, x = np.argwhere(~ok)[0]
            raise DataError(
                f"label {values[y, x]}{where} at pixel (x={x}, y={y}) is not an integer "
                f"in [0, {LABEL_MAX}] (0 = unlabeled)"
            )
        return cls(np.ascontiguousarray(values, dtype=np.int32))


def parse_envi_header(path):
    """Parse `key = value` lines, including `{ ... }` values spanning lines.

    Keys are lower-cased; values are returned as stripped strings (brace
    contents joined for multi-line lists).
    """
    text = read_file(path, "ENVI header").decode(errors="replace")
    header = {}
    lines = iter(text.splitlines())
    for line in lines:
        line = line.strip()
        if not line or line.upper() == "ENVI" or "=" not in line:
            continue
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if value.startswith("{"):
            parts = [value[1:]]
            while "}" not in parts[-1]:
                try:
                    parts.append(next(lines))
                except StopIteration:
                    raise DataError(f"unterminated '{{' for header key '{key}'") from None
            parts[-1] = parts[-1][:parts[-1].index("}")]
            value = " ".join(p.strip() for p in parts).strip()
        header[key] = value
    return header


def _require(header, key):
    if key not in header:
        raise DataError(f"ENVI header missing required key '{key}'")
    return header[key]


def _int_key(header, key, default=None):
    raw = _require(header, key) if default is None else header.get(key, default)
    try:
        return int(raw)
    except ValueError:
        raise DataError(f"ENVI header key '{key}' is not an integer: '{raw}'") from None


def _sample_dtype(interleave, data_type, byte_order):
    """The numpy dtype of one sample of an (interleave, data type, byte order)
    encoding, once each is checked to be one this module reads and writes."""
    if interleave not in INTERLEAVE_AXES:
        raise DataError(f"unsupported interleave '{interleave}' (need bsq, bil, or bip)")
    if data_type not in DTYPE_CODES:
        raise DataError(
            f"unsupported ENVI data type {data_type} (supported: {sorted(DTYPE_CODES)})"
        )
    if byte_order not in (0, 1):
        raise DataError(f"byte order must be 0 (little) or 1 (big), got {byte_order}")
    return np.dtype(("<" if byte_order == 0 else ">") + DTYPE_CODES[data_type])


def read_envi_samples(header_path, data_path=None):
    """The samples of an ENVI raster in their file dtype: a read-only
    band-major (bands, lines, samples) view of the data file's bytes."""
    header = parse_envi_header(header_path)
    samples, lines, bands = (_int_key(header, key) for key in ("samples", "lines", "bands"))
    code = _int_key(header, "data type")
    byte_order = _int_key(header, "byte order")
    interleave = _require(header, "interleave").lower()
    offset = _int_key(header, "header offset", default=0)
    dtype = _sample_dtype(interleave, code, byte_order)
    for key, value, low in (("samples", samples, 1), ("lines", lines, 1), ("bands", bands, 1),
                            ("header offset", offset, 0)):
        if value < low:
            raise DataError(
                f"ENVI header '{header_path}' key '{key}' must be >= {low}, got {value}"
            )

    if data_path is None:
        data_path = Path(header_path).with_suffix(".img")
    raw = read_file(data_path, "ENVI data file")
    count = samples * lines * bands
    expected = offset + count * dtype.itemsize
    if len(raw) != expected:
        raise DataError(
            f"ENVI data size mismatch for '{data_path}': header declares "
            f"{expected} bytes ({samples}x{lines}x{bands} {dtype.str} at offset "
            f"{offset}) but the file has {len(raw)}"
        )
    flat = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
    axes = INTERLEAVE_AXES[interleave]
    in_file = flat.reshape([(bands, lines, samples)[a] for a in axes])
    return in_file.transpose(np.argsort(axes))


def load_envi(header_path, data_path=None):
    """Load an ENVI raster into a band-major HyperCube."""
    view = read_envi_samples(header_path, data_path)
    bands, lines, samples = view.shape
    if view.strides[0] >= view.strides[2]:  # bands are not innermost: one cast
        return HyperCube.from_array(view)
    data = np.empty(view.shape, dtype=np.float32)
    step = max(1, BIP_BLOCK // (bands * samples))  # whole lines, at least one
    for start in range(0, lines, step):
        data[:, start:start + step] = view[:, start:start + step]
    return HyperCube(data)


def write_envi(cube, header_path, data_path, interleave="bsq", data_type=4, byte_order=0):
    """Write a HyperCube as an ENVI header + raw binary pair. Integer types
    take the rounded samples; one the type cannot hold (or a NaN) is a
    DataError, where a cast would wrap it."""
    dtype = _sample_dtype(interleave, data_type, byte_order)
    arr = cube.data
    if dtype.kind in "iu":
        arr = np.rint(arr)
        lo, hi = np.iinfo(dtype).min, np.iinfo(dtype).max
        # NaN propagates through min and max and fails both comparisons
        if not (lo <= arr.min(initial=lo) and arr.max(initial=hi) <= hi):
            b, y, x = np.argwhere(~((arr >= lo) & (arr <= hi)))[0]
            raise DataError(
                f"ENVI data '{data_path}': band {b} pixel (x={x}, y={y}) holds "
                f"{arr[b, y, x]:g}, outside the {dtype.name} range [{lo}, {hi}]"
            )
    write_atomic(data_path, arr.transpose(INTERLEAVE_AXES[interleave]).astype(dtype, order="C"))

    out = [
        "ENVI",
        "description = {written by hsinet}",
        f"samples = {cube.width}",
        f"lines = {cube.height}",
        f"bands = {cube.bands}",
        "header offset = 0",
        "file type = ENVI Standard",
        f"data type = {data_type}",
        f"interleave = {interleave}",
        f"byte order = {byte_order}",
    ]
    write_atomic(header_path, ("\n".join(out) + "\n").encode())


def load_label_raster(path):
    """Read labels from the file samples of an ENVI single-band raster (.hdr)
    or from a whitespace-separated text grid (.txt)."""
    path = Path(path)
    if path.suffix.lower() == ".txt":
        raw = read_file(path, "label grid")
        try:
            with warnings.catch_warnings():
                # numpy warns on a grid with no rows; that case is raised below
                warnings.simplefilter("ignore", UserWarning)
                grid = np.loadtxt(io.BytesIO(raw), dtype=np.int64, ndmin=2)
        except ValueError as e:
            raise DataError(f"label grid '{path}' is malformed: {e}") from None
        if grid.size == 0:
            raise DataError(f"label grid '{path}' holds no labels")
        return LabelRaster.from_array(grid, source=path)
    if path.suffix.lower() == ".hdr":
        samples = read_envi_samples(path)
        if samples.shape[0] != 1:
            raise DataError(f"label raster '{path}' must have 1 band, got {samples.shape[0]}")
        return LabelRaster.from_array(samples[0], source=path)
    raise DataError(f"cannot infer label format from '{path}' (need .hdr or .txt)")
