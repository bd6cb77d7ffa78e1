"""ENVI raster reader/writer: plain-text header plus raw binary cube in
BSQ, BIL, or BIP interleave.

Cubes normalize to a band-major float32 array (bands, lines, samples) on
load. Supported on-disk sample types: int16, uint16, float32, float64
(ENVI data type codes 2, 12, 4, 5), either byte order.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

# ENVI data type code -> numpy dtype char (byte order prefixed at use)
DTYPE_CODES = {2: "i2", 4: "f4", 5: "f8", 12: "u2"}
INTERLEAVES = ("bsq", "bil", "bip")
REQUIRED_KEYS = ("samples", "lines", "bands", "interleave", "data type", "byte order")


@dataclass
class HyperCube:
    """Hyperspectral cube, band-major float32."""

    bands: int
    height: int
    width: int
    data: np.ndarray  # (bands, height, width)
    wavelengths: np.ndarray | None = None

    def __post_init__(self):
        if self.data.shape != (self.bands, self.height, self.width):
            raise DataError(
                f"cube data shape {self.data.shape} != declared "
                f"{(self.bands, self.height, self.width)}"
            )

    @classmethod
    def from_array(cls, data, wavelengths=None):
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.ndim != 3:
            raise DataError(f"cube array must be (bands, h, w), got shape {data.shape}")
        b, h, w = data.shape
        return cls(bands=b, height=h, width=w, data=data, wavelengths=wavelengths)


@dataclass
class LabelRaster:
    """Per-pixel class labels; 0 means unlabeled, 1..K are classes."""

    height: int
    width: int
    labels: np.ndarray  # (height, width) int32

    def __post_init__(self):
        if self.labels.shape != (self.height, self.width):
            raise DataError(
                f"label shape {self.labels.shape} != declared {(self.height, self.width)}"
            )

    @classmethod
    def from_array(cls, labels):
        labels = np.ascontiguousarray(labels, dtype=np.int32)
        if labels.ndim != 2:
            raise DataError(f"label array must be 2-D, got shape {labels.shape}")
        if labels.min() < 0:
            raise DataError("labels must be non-negative (0 = unlabeled)")
        return cls(height=labels.shape[0], width=labels.shape[1], labels=labels)


def parse_envi_header(path):
    """Parse `key = value` lines, including `{ ... }` values spanning lines.

    Keys are lower-cased; values are returned as stripped strings (brace
    contents joined for multi-line lists).
    """
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise DataError(f"ENVI header '{path}' does not exist") from None
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


def load_envi(header_path, data_path=None):
    """Load an ENVI raster into a band-major HyperCube."""
    header = parse_envi_header(header_path)
    samples = _int_key(header, "samples")
    lines = _int_key(header, "lines")
    bands = _int_key(header, "bands")
    code = _int_key(header, "data type")
    byte_order = _int_key(header, "byte order")
    interleave = _require(header, "interleave").lower()
    offset = _int_key(header, "header offset", default=0)

    if interleave not in INTERLEAVES:
        raise DataError(f"unsupported interleave '{interleave}' (need bsq, bil, or bip)")
    if code not in DTYPE_CODES:
        raise DataError(
            f"unsupported ENVI data type {code} (supported: {sorted(DTYPE_CODES)})"
        )
    if byte_order not in (0, 1):
        raise DataError(f"byte order must be 0 (little) or 1 (big), got {byte_order}")

    dtype = np.dtype(("<" if byte_order == 0 else ">") + DTYPE_CODES[code])
    if data_path is None:
        data_path = Path(header_path).with_suffix(".img")
    try:
        raw = Path(data_path).read_bytes()
    except FileNotFoundError:
        raise DataError(f"ENVI data file '{data_path}' does not exist") from None
    count = samples * lines * bands
    expected = offset + count * dtype.itemsize
    if len(raw) != expected:
        raise DataError(
            f"ENVI data size mismatch for '{data_path}': header declares "
            f"{expected} bytes ({samples}x{lines}x{bands} {dtype.str} at offset "
            f"{offset}) but the file has {len(raw)}"
        )
    flat = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
    if interleave == "bsq":
        cube = flat.reshape(bands, lines, samples)
    elif interleave == "bil":
        cube = flat.reshape(lines, bands, samples).transpose(1, 0, 2)
    else:  # bip
        cube = flat.reshape(lines, samples, bands).transpose(2, 0, 1)

    wavelengths = None
    if "wavelength" in header:
        try:
            wl = np.array([float(v) for v in header["wavelength"].split(",") if v.strip()])
            if wl.size == bands:
                wavelengths = wl
        except ValueError:
            pass  # malformed wavelength list is metadata only, ignore
    return HyperCube.from_array(cube, wavelengths=wavelengths)


def write_envi(cube, header_path, data_path, interleave="bsq", data_type=4, byte_order=0):
    """Write a HyperCube as an ENVI header + raw binary pair."""
    if interleave not in INTERLEAVES:
        raise DataError(f"unsupported interleave '{interleave}'")
    if data_type not in DTYPE_CODES:
        raise DataError(f"unsupported ENVI data type {data_type}")
    if byte_order not in (0, 1):
        raise DataError(f"byte order must be 0 or 1, got {byte_order}")
    dtype = np.dtype(("<" if byte_order == 0 else ">") + DTYPE_CODES[data_type])

    arr = cube.data
    if dtype.kind in "iu":
        arr = np.rint(arr)
    if interleave == "bil":
        arr = arr.transpose(1, 0, 2)
    elif interleave == "bip":
        arr = arr.transpose(1, 2, 0)
    np.ascontiguousarray(arr).astype(dtype).tofile(data_path)

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
    if cube.wavelengths is not None:
        wl = ", ".join(repr(float(v)) for v in cube.wavelengths)
        out.append(f"wavelength = {{{wl}}}")
    Path(header_path).write_text("\n".join(out) + "\n")


def load_label_raster(path, data_path=None):
    """Read labels from an ENVI single-band integer raster (.hdr) or a
    whitespace-separated text grid (.txt)."""
    path = Path(path)
    if path.suffix.lower() == ".txt":
        try:
            grid = np.loadtxt(path, dtype=np.int64, ndmin=2)
        except ValueError as e:
            raise DataError(f"label grid '{path}' is malformed: {e}") from None
        return LabelRaster.from_array(grid)
    if path.suffix.lower() == ".hdr":
        cube = load_envi(path, data_path)
        if cube.bands != 1:
            raise DataError(f"label raster must have exactly 1 band, got {cube.bands}")
        return LabelRaster.from_array(np.rint(cube.data[0]).astype(np.int32))
    raise DataError(f"cannot infer label format from '{path}' (need .hdr or .txt)")
