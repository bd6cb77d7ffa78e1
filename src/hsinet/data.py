"""Dataset assembly: per-class splits, patch extraction, D4 augmentation,
per-band standardization, manifests, and a synthetic multi-domain generator.

Pixels are addressed by flat index y * width + x over the label raster.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .envi import HyperCube, LabelRaster, load_envi, load_label_raster, write_envi
from .errors import ConfigError, DataError, ShapeError, _build, read_file, read_json, write_json
from .ops import center_taps

_EMPTY_IDX = np.empty(0, dtype=np.int64)
# squared distances synth_generate holds at once (int64, 8 MB)
_D2_BLOCK = 1 << 20


@dataclass
class DomainDataset:
    """A hyperspectral cube with labels, class count, and train/test pixel sets."""

    cube: HyperCube
    labels: LabelRaster
    classes: int
    name: str = "domain"
    sensor: str = "A"
    train_idx: np.ndarray = field(default_factory=lambda: _EMPTY_IDX.copy())
    test_idx: np.ndarray = field(default_factory=lambda: _EMPTY_IDX.copy())

    def __post_init__(self):
        if (self.labels.height, self.labels.width) != (self.cube.height, self.cube.width):
            raise DataError(f"dataset '{self.name}' label raster {self.labels.height}x"
                            f"{self.labels.width} does not match its cube "
                            f"{self.cube.height}x{self.cube.width}")
        pixels = self.labels.labels.size
        if not 2 <= self.classes <= pixels:
            raise DataError(f"dataset '{self.name}' declares {self.classes} classes; its "
                            f"{pixels} pixels can hold 2 to {pixels}")
        if self.labels.labels.max(initial=0) > self.classes:
            raise DataError(f"dataset '{self.name}' label {int(self.labels.labels.max())} "
                            f"exceeds declared class count {self.classes}")
        flat = self.labels.labels.ravel()
        for what, idx in (("train", self.train_idx), ("test", self.test_idx)):
            if idx.size and (idx.min() < 0 or idx.max() >= flat.size):
                raise DataError(f"{what} index out of raster range")
            if idx.size and (flat[idx] == 0).any():
                raise DataError(f"{what} split contains unlabeled pixels")
        if self.train_idx.size and self.test_idx.size:
            in_train = np.zeros(flat.size, dtype=bool)
            in_train[self.train_idx] = True
            if in_train[self.test_idx].any():
                raise DataError("train and test splits overlap")

    @property
    def labeled_count(self):
        return int((self.labels.labels > 0).sum())


@dataclass
class SynthConfig:
    """Synthetic domain: smooth per-class spectra + blob-shaped class map + noise."""

    classes: int
    bands: int
    height: int
    width: int
    noise_std: float = 0.05
    blob_scale: int = 8
    seed: int = 0
    signature_seed: int | None = None
    name: str = "synth"
    sensor: str = "A"

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError(f"synthetic domain needs >= 2 classes, got {self.classes}")
        for key in ("bands", "height", "width"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.classes > self.height * self.width:
            raise ConfigError(f"synthetic domain 'classes' {self.classes} exceeds the "
                              f"{self.height * self.width} pixels of its {self.height}x"
                              f"{self.width} raster")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.blob_scale < 1:
            raise ConfigError(f"blob_scale must be >= 1, got {self.blob_scale}")
        if min(self.seed, self.signature_seed or 0) < 0:
            raise ConfigError("synthetic domain seeds must be >= 0")


def split_per_class(ds, n_per_class, rng):
    """Pick exactly n_per_class train pixels from every class; the rest of the
    labeled pixels go to test. Unlabeled pixels (label 0) are in neither."""
    if n_per_class < 1:
        raise ConfigError(f"n_per_class must be >= 1, got {n_per_class}")
    flat = ds.labels.labels.ravel()
    train_parts = []
    test_parts = []
    for cls in range(1, ds.classes + 1):
        idx = np.flatnonzero(flat == cls)
        if idx.size < n_per_class:
            raise DataError(f"dataset '{ds.name}' class {cls} has only {idx.size} labeled "
                            f"pixels, need {n_per_class}")
        perm = rng.permutation(idx.size)
        train_parts.append(idx[perm[:n_per_class]])
        test_parts.append(idx[perm[n_per_class:]])
    train = np.sort(np.concatenate(train_parts)).astype(np.int64)
    test = np.sort(np.concatenate(test_parts)).astype(np.int64)
    return train, test


def with_split(ds, n_per_class, rng):
    train, test = split_per_class(ds, n_per_class, rng)
    return replace(ds, train_idx=train, test_idx=test)


def _check_patch(patch):
    if patch < 1 or patch % 2 == 0:
        raise ConfigError(f"patch size must be odd and >= 1, got {patch}")


def _check_reflect(shape, pad, what):
    """Reject a (bands, height, width) raster too small to reflect-pad by `pad`."""
    if not (pad < shape[1] and pad < shape[2]):
        raise DataError(f"{what} raster {shape[1]}x{shape[2]} too small for reflect "
                        f"padding of {pad}")


def _reflected(n, pad):
    """The indices -pad .. n + pad - 1 of an axis of length n > pad, each
    reflected into the axis (-1 to 1, n to n - 2)."""
    i = np.abs(np.arange(-pad, n + pad))
    return np.minimum(i, 2 * (n - 1) - i)


def _reflect_pad(data, pad, what):
    """A (bands, height, width) raster reflect-padded by `pad` on both spatial
    axes (index -1 mirrors index 1) and held pixel-major, as (height + 2 pad,
    width + 2 pad, bands); `what` names it in errors. The padded copy is one
    gather at the reflected indices, of whole contiguous pixel rows when the
    raster is held pixel-major (a BIP file's cube)."""
    _check_reflect(data.shape, pad, what)
    _, h, w = data.shape
    return data.transpose(1, 2, 0)[_reflected(h, pad)[:, None], _reflected(w, pad)]


def extract_patch(cube, x, y, patch):
    """Neighborhood centered at (x, y) as (1, bands, patch, patch); borders
    are reflect-padded (index -1 mirrors index 1)."""
    _check_patch(patch)
    if not (0 <= x < cube.width and 0 <= y < cube.height):
        raise DataError(f"pixel ({x}, {y}) outside raster {cube.width}x{cube.height}")
    padded = _reflect_pad(cube.data, patch // 2, "cube")
    return padded[np.newaxis, y:y + patch, x:x + patch].transpose(0, 3, 1, 2).copy()


_D4_TURNS = (0, 1, 2, 3, 3, 1, 0, 2)


def augment_d4(patch, k):
    """Apply the k-th symmetry of the square across the last two axes:
    0 identity, 1-3 rotations by 90/180/270, 4 horizontal flip, 5 vertical
    flip, 6 main-diagonal transpose, 7 anti-diagonal transpose. Element k is
    _D4_TURNS[k] quarter turns (np.rot90), of the transpose when k >= 4."""
    if not 0 <= k < 8:
        raise ConfigError(f"D4 element index {k} out of range 0..7")
    if patch.shape[-1] != patch.shape[-2]:
        raise ShapeError(f"D4 needs square spatial dims, got {patch.shape}")
    if k >= 4:
        patch = np.swapaxes(patch, -2, -1)
    return np.ascontiguousarray(np.rot90(patch, _D4_TURNS[k], axes=(-2, -1)))


def normalize_bands(ds):
    """Standardize every band to zero mean / unit variance using statistics
    from the train pixels only; zero-variance bands are centered with a
    warning and left at scale 1."""
    if ds.train_idx.size == 0:
        raise DataError(f"dataset '{ds.name}': normalize_bands needs a non-empty train split")
    w = ds.cube.width
    ys, xs = np.divmod(ds.train_idx, w)
    vals = ds.cube.data[:, ys, xs].astype(np.float64)
    mean = vals.mean(axis=1)
    std = vals.std(axis=1)
    flat_bands = np.flatnonzero(std == 0)
    if flat_bands.size:
        warnings.warn(
            f"bands {flat_bands.tolist()} have zero variance on the train split; "
            "centering only"
        )
        std = std.copy()
        std[flat_bands] = 1.0
    new = ds.cube.data.astype(np.float64)  # elementwise, in the cube's memory order
    new -= mean[:, None, None]
    new /= std[:, None, None]
    cube = replace(ds.cube, data=new.astype(np.float32))
    return replace(ds, cube=cube)


class PatchBatcher:
    """Assembles centered patches for batches of flat pixel indices, with
    0-based class targets alongside.

    The cube is reflect-padded once and held pixel-major, as (height + 2r,
    width + 2r, bands), r = patch // 2, so a pixel's bands sit side by side.
    `batch` gathers (n, bands, patch, patch) patches for training; `centers`
    gathers the rows an eval forward wraps in ops.Columns, one per pixel.
    """

    def __init__(self, ds, patch):
        _check_patch(patch)
        self.width = ds.cube.width
        r = patch // 2
        self._padded = _reflect_pad(ds.cube.data, r, f"dataset '{ds.name}'")
        # (y, x, bands, patch, patch): the window whose top left is (y, x)
        self._windows = sliding_window_view(self._padded, (patch, patch), axis=(0, 1))
        # the padded offsets from a window's top left of the taps an eval row reads
        self._taps = (center_taps(patch) + r).T
        self._labels = ds.labels.labels.ravel()

    def _targets(self, pixel_idx):
        labels = self._labels[pixel_idx]
        if (labels == 0).any():
            raise DataError("batch contains unlabeled pixels")
        return (labels - 1).astype(np.int64)

    def batch(self, pixel_idx):
        """(patches, targets): the (n, bands, patch, patch) patches centered
        on the pixels."""
        ys, xs = np.divmod(pixel_idx, self.width)
        return self._windows[ys, xs], self._targets(pixel_idx)

    def centers(self, pixel_idx):
        """(rows, targets) for an eval forward: per pixel, one float64 row of
        its patch's taps at ops.center_taps(patch), each tap's bands side by
        side. That is the center row of ops.patch_columns(patch) without the
        taps off the patch, which read 0."""
        ys, xs = np.divmod(pixel_idx, self.width)
        dy, dx = self._taps
        rows = self._padded[ys[:, None] + dy, xs[:, None] + dx]  # (n, taps, bands)
        return rows.reshape(len(pixel_idx), -1).astype(np.float64), self._targets(pixel_idx)


def _nearest_center(cy, cx, h, w):
    """Per pixel of an h x w raster, the index of the nearest center (cy, cx),
    the lowest on ties: np.argmin over the centers x h x w squared distances,
    taken a block of centers at a time so memory stays near _D2_BLOCK."""
    ys = np.arange(h)[None, :, None]
    xs = np.arange(w)[None, None, :]
    step = max(1, _D2_BLOCK // (h * w))
    best = np.full((h, w), np.iinfo(np.int64).max)
    nearest = np.zeros((h, w), dtype=np.int64)
    for start in range(0, cy.size, step):
        d2 = ((ys - cy[start:start + step, None, None]) ** 2
              + (xs - cx[start:start + step, None, None]) ** 2)
        k, d = np.argmin(d2, axis=0), d2.min(axis=0)
        closer = d < best  # strict: a tie keeps the earlier block's lower index
        best[closer] = d[closer]
        nearest[closer] = k[closer] + start
    return nearest


def synth_generate(cfg):
    """Deterministic synthetic domain: per-class spectra are mixtures of
    Gaussian bumps over a continuous band axis (so the same signature seed
    renders consistently at any band count), the class map is a Voronoi
    partition of seeded blob centers (every class owns at least one center),
    and pixels are the class spectrum plus white noise."""
    rng = np.random.default_rng(cfg.seed)
    sig_seed = cfg.seed if cfg.signature_seed is None else cfg.signature_seed
    sig_rng = np.random.default_rng(sig_seed)

    n_bumps = 4
    centers = sig_rng.uniform(0.0, 1.0, (cfg.classes, n_bumps))
    widths = sig_rng.uniform(0.04, 0.25, (cfg.classes, n_bumps))
    amps = sig_rng.uniform(0.4, 1.2, (cfg.classes, n_bumps))
    t = np.linspace(0.0, 1.0, cfg.bands)
    sig = np.zeros((cfg.classes, cfg.bands))
    for j in range(n_bumps):
        sig += amps[:, j:j + 1] * np.exp(
            -((t[None, :] - centers[:, j:j + 1]) ** 2) / (2.0 * widths[:, j:j + 1] ** 2)
        )

    h, w = cfg.height, cfg.width
    n_centers = max(cfg.classes, int(round(h * w / cfg.blob_scale ** 2)))
    n_centers = min(n_centers, h * w)
    pos = rng.choice(h * w, size=n_centers, replace=False)
    cls = np.empty(n_centers, dtype=np.int64)
    cls[:cfg.classes] = np.arange(cfg.classes)
    if n_centers > cfg.classes:
        cls[cfg.classes:] = rng.integers(0, cfg.classes, n_centers - cfg.classes)
    cy, cx = np.divmod(pos, w)
    class_map = cls[_nearest_center(cy, cx, h, w)]

    data = sig[class_map].transpose(2, 0, 1)
    if cfg.noise_std > 0:
        data = data + rng.normal(0.0, cfg.noise_std, data.shape)
    cube = HyperCube.from_array(data.astype(np.float32))
    labels = LabelRaster.from_array((class_map + 1).astype(np.int32))
    return DomainDataset(
        cube=cube,
        labels=labels,
        classes=cfg.classes,
        name=cfg.name,
        sensor=cfg.sensor,
        train_idx=np.arange(h * w, dtype=np.int64),
    )


def load_manifest(path):
    """Load a dataset manifest: {name, sensor, header, data, labels, classes};
    relative paths resolve against the manifest's directory. All labeled
    pixels start in the train split."""
    path = Path(path)
    cfg = read_json(read_file(path, "manifest"), f"manifest '{path}'", DataError)
    for key in ("name", "sensor", "header", "data", "labels", "classes"):  # others are ignored
        if key not in cfg:
            raise DataError(f"manifest '{path}' missing key '{key}'")
        try:
            _build("int" if key == "classes" else "str", cfg[key], f"manifest '{path}' key '{key}'")
        except ConfigError as e:
            raise DataError(str(e)) from None
    base = path.parent
    cube = load_envi(base / cfg["header"], base / cfg["data"])
    labels = load_label_raster(base / cfg["labels"])
    return DomainDataset(
        cube=cube,
        labels=labels,
        classes=cfg["classes"],
        name=cfg["name"],
        sensor=cfg["sensor"],
        train_idx=np.flatnonzero(labels.labels.ravel() > 0),
    )


def dataset_files(out_dir, name):
    """The paths write_dataset writes for dataset `name`: cube header and
    data, label header and data, manifest."""
    return [Path(out_dir) / f"{name}{suffix}"
            for suffix in (".hdr", ".img", "_labels.hdr", "_labels.img", ".json")]


def write_dataset(ds, out_dir, interleave="bsq", data_type=4, byte_order=0):
    """Write a dataset as ENVI cube + ENVI int16 label raster + manifest JSON;
    returns the manifest path."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    cube_hdr, cube_img, label_hdr, label_img, manifest_path = dataset_files(out_dir, ds.name)
    write_envi(ds.cube, cube_hdr, cube_img,
               interleave=interleave, data_type=data_type, byte_order=byte_order)
    label_cube = HyperCube.from_array(ds.labels.labels[np.newaxis].astype(np.float32))
    write_envi(label_cube, label_hdr, label_img, data_type=2, byte_order=byte_order)
    write_json(manifest_path, {"name": ds.name, "sensor": ds.sensor, "header": cube_hdr.name,
                               "data": cube_img.name, "labels": label_hdr.name,
                               "classes": ds.classes})
    return manifest_path
