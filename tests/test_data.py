import json
import struct

import numpy as np
import pytest

from hsinet.data import (DomainDataset, PatchBatcher, SynthConfig, augment_d4,
                         extract_patch, load_manifest, normalize_bands,
                         split_per_class, synth_generate, with_split, write_dataset)
from hsinet.envi import (HyperCube, LabelRaster, load_envi, load_label_raster,
                         parse_envi_header, write_envi)
from hsinet.errors import ConfigError, DataError, ShapeError


def cube_123():
    """2x2 raster, 3 bands, values 1..12 in band-major order."""
    return HyperCube.from_array(np.arange(1, 13, dtype=np.float32).reshape(3, 2, 2))


class TestEnviRoundTrip:
    def test_hand_built_bsq_fixture(self, tmp_path):
        # raw little-endian float32 bytes written independently of the writer
        raw = struct.pack("<12f", *range(1, 13))
        (tmp_path / "fix.img").write_bytes(raw)
        (tmp_path / "fix.hdr").write_text(
            "ENVI\n"
            "samples = 2\n"
            "lines = 2\n"
            "bands = 3\n"
            "header offset = 0\n"
            "data type = 4\n"
            "interleave = bsq\n"
            "byte order = 0\n"
        )
        cube = load_envi(tmp_path / "fix.hdr", tmp_path / "fix.img")
        np.testing.assert_array_equal(cube.data, cube_123().data)

    def test_bip_and_bsq_agree(self, tmp_path):
        cube = cube_123()
        for interleave in ("bsq", "bip"):
            write_envi(cube, tmp_path / f"{interleave}.hdr", tmp_path / f"{interleave}.img",
                       interleave=interleave)
        a = load_envi(tmp_path / "bsq.hdr", tmp_path / "bsq.img")
        b = load_envi(tmp_path / "bip.hdr", tmp_path / "bip.img")
        np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    @pytest.mark.parametrize("data_type", [2, 4, 5, 12])
    @pytest.mark.parametrize("byte_order", [0, 1])
    def test_lossless_matrix(self, tmp_path, interleave, data_type, byte_order):
        rng = np.random.default_rng(17)
        values = rng.integers(0, 200, (4, 3, 5)).astype(np.float32)
        cube = HyperCube.from_array(values)
        hdr = tmp_path / "m.hdr"
        img = tmp_path / "m.img"
        write_envi(cube, hdr, img, interleave=interleave, data_type=data_type,
                   byte_order=byte_order)
        loaded = load_envi(hdr, img)
        np.testing.assert_array_equal(loaded.data, values)

    def test_short_file_is_size_mismatch(self, tmp_path):
        cube = cube_123()
        write_envi(cube, tmp_path / "s.hdr", tmp_path / "s.img")
        data = (tmp_path / "s.img").read_bytes()
        (tmp_path / "s.img").write_bytes(data[:-4])
        with pytest.raises(DataError, match="size mismatch"):
            load_envi(tmp_path / "s.hdr", tmp_path / "s.img")

    def test_missing_required_key(self, tmp_path):
        (tmp_path / "h.hdr").write_text("ENVI\nsamples = 2\nbands = 3\n")
        (tmp_path / "h.img").write_bytes(b"")
        with pytest.raises(DataError, match="'lines'"):
            load_envi(tmp_path / "h.hdr", tmp_path / "h.img")

    def test_unsupported_data_type(self, tmp_path):
        (tmp_path / "h.hdr").write_text(
            "ENVI\nsamples = 1\nlines = 1\nbands = 1\ndata type = 3\n"
            "interleave = bsq\nbyte order = 0\n"
        )
        (tmp_path / "h.img").write_bytes(b"\x00" * 4)
        with pytest.raises(DataError, match="data type 3"):
            load_envi(tmp_path / "h.hdr", tmp_path / "h.img")

    def test_non_integer_header_offset(self, tmp_path):
        write_envi(cube_123(), tmp_path / "h.hdr", tmp_path / "h.img")
        hdr = tmp_path / "h.hdr"
        hdr.write_text(hdr.read_text().replace("header offset = 0", "header offset = abc"))
        with pytest.raises(DataError, match="'header offset'.*'abc'"):
            load_envi(hdr, tmp_path / "h.img")

    def test_multiline_brace_values(self, tmp_path):
        (tmp_path / "h.hdr").write_text(
            "ENVI\nsamples = 1\nlines = 1\nbands = 2\n"
            "wavelength = {400.0,\n 500.0}\n"
            "data type = 4\ninterleave = bsq\nbyte order = 0\n"
        )
        header = parse_envi_header(tmp_path / "h.hdr")
        assert header["wavelength"] == "400.0, 500.0"

    def test_label_raster_text_and_envi(self, tmp_path):
        grid = np.array([[0, 1], [2, 2]])
        (tmp_path / "l.txt").write_text("0 1\n2 2\n")
        labels = load_label_raster(tmp_path / "l.txt")
        np.testing.assert_array_equal(labels.labels, grid)
        cube = HyperCube.from_array(grid[np.newaxis].astype(np.float32))
        write_envi(cube, tmp_path / "l.hdr", tmp_path / "l.img", data_type=2)
        labels2 = load_label_raster(tmp_path / "l.hdr")
        np.testing.assert_array_equal(labels2.labels, grid)


    @pytest.mark.parametrize("text", ["0 1\n2 x\n", "0 1\n2\n"],
                             ids=["non_integer_cell", "ragged_rows"])
    def test_malformed_label_grid_names_the_file(self, tmp_path, text):
        (tmp_path / "bad.txt").write_text(text)
        with pytest.raises(DataError, match="bad.txt"):
            load_label_raster(tmp_path / "bad.txt")

def ip_like_dataset():
    """8504 labeled pixels in 8 equal classes on a 93x92 raster (rest unlabeled)."""
    h, w = 93, 92
    flat = np.zeros(h * w, dtype=np.int32)
    for cls in range(8):
        flat[cls * 1063:(cls + 1) * 1063] = cls + 1
    labels = LabelRaster.from_array(flat.reshape(h, w))
    cube = HyperCube.from_array(
        np.random.default_rng(0).normal(0, 1, (4, h, w)).astype(np.float32))
    return DomainDataset(cube=cube, labels=labels, classes=8, name="ip_like")


class TestSplitPerClass:
    def test_indian_pines_arithmetic(self):
        ds = ip_like_dataset()
        train, test = split_per_class(ds, 200, np.random.default_rng(0))
        assert train.size == 8 * 200 == 1600
        assert test.size == 8504 - 1600 == 6904

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_counts_and_partition(self, seed):
        ds = ip_like_dataset()
        train, test = split_per_class(ds, 200, np.random.default_rng(seed))
        flat = ds.labels.labels.ravel()
        for cls in range(1, 9):
            assert (flat[train] == cls).sum() == 200
        combined = np.sort(np.concatenate([train, test]))
        np.testing.assert_array_equal(combined, ds.labeled_indices())

    def test_small_synthetic_counts(self):
        ds = synth_generate(SynthConfig(classes=3, bands=4, height=8, width=8, seed=0))
        train, test = split_per_class(ds, 2, np.random.default_rng(1))
        flat = ds.labels.labels.ravel()
        assert all((flat[train] == c).sum() == 2 for c in (1, 2, 3))

    def test_class_shortfall_names_class(self):
        flat = np.zeros(16, dtype=np.int32)
        flat[:3] = 1
        flat[3:13] = 2
        ds = DomainDataset(
            cube=HyperCube.from_array(np.zeros((2, 4, 4), dtype=np.float32)),
            labels=LabelRaster.from_array(flat.reshape(4, 4)),
            classes=2,
        )
        with pytest.raises(DataError, match="class 1 has only 3"):
            split_per_class(ds, 5, np.random.default_rng(0))

    def test_deterministic_under_seed(self):
        ds = ip_like_dataset()
        a, _ = split_per_class(ds, 10, np.random.default_rng(44))
        b, _ = split_per_class(ds, 10, np.random.default_rng(44))
        np.testing.assert_array_equal(a, b)


class TestExtractPatch:
    def test_interior_exact_window(self):
        ramp = np.arange(25, dtype=np.float32).reshape(1, 5, 5)
        cube = HyperCube.from_array(ramp)
        patch = extract_patch(cube, 2, 2, 3)
        np.testing.assert_array_equal(patch[0, 0], ramp[0, 1:4, 1:4])

    def test_corner_reflection_hand_computed(self):
        grid = np.arange(1, 10, dtype=np.float32).reshape(1, 3, 3)
        cube = HyperCube.from_array(grid)
        patch = extract_patch(cube, 0, 0, 3)[0, 0]
        expected = np.array([[5, 4, 5], [2, 1, 2], [5, 4, 5]], dtype=np.float32)
        np.testing.assert_array_equal(patch, expected)
        assert patch[0, 0] == grid[0, 1, 1]  # (-1,-1) mirrors (1,1)

    def test_patch_one_is_single_spectrum(self):
        cube = cube_123()
        patch = extract_patch(cube, 1, 0, 1)
        np.testing.assert_array_equal(patch.ravel(), cube.data[:, 0, 1])

    def test_even_patch_rejected(self):
        with pytest.raises(ConfigError):
            extract_patch(cube_123(), 0, 0, 2)

    def test_out_of_bounds_pixel(self):
        with pytest.raises(DataError):
            extract_patch(cube_123(), 2, 0, 1)

    def test_source_cube_unmodified(self):
        cube = cube_123()
        before = cube.data.copy()
        patch = extract_patch(cube, 0, 0, 3)
        patch[...] = -1
        np.testing.assert_array_equal(cube.data, before)


class TestAugmentD4:
    MARKER = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)

    def test_identity(self):
        np.testing.assert_array_equal(augment_d4(self.MARKER, 0), self.MARKER)

    def test_horizontal_flip_is_involution(self):
        once = augment_d4(self.MARKER, 4)
        np.testing.assert_array_equal(augment_d4(once, 4), self.MARKER)

    def test_eight_distinct_outputs(self):
        outs = [augment_d4(self.MARKER, k).tobytes() for k in range(8)]
        assert len(set(outs)) == 8

    def test_closure_under_composition(self):
        outs = {augment_d4(self.MARKER, k).tobytes(): k for k in range(8)}
        for a in range(8):
            for b in range(8):
                composed = augment_d4(augment_d4(self.MARKER, b), a)
                assert composed.tobytes() in outs

    def test_element_orders_divide_four(self):
        for k in range(8):
            out = self.MARKER
            for _ in range(4):
                out = augment_d4(out, k)
            np.testing.assert_array_equal(out, self.MARKER)

    def test_applies_identically_across_bands(self):
        rng = np.random.default_rng(0)
        patch = rng.normal(0, 1, (2, 3, 4, 4))
        out = augment_d4(patch, 1)
        for b in range(3):
            np.testing.assert_array_equal(out[:, b], np.rot90(patch[:, b], 1, axes=(-2, -1)))

    def test_index_out_of_range(self):
        with pytest.raises(ConfigError):
            augment_d4(self.MARKER, 8)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            augment_d4(np.zeros((1, 1, 2, 3)), 1)


class TestSynthGenerate:
    def test_zero_noise_gives_identical_class_spectra(self):
        ds = synth_generate(SynthConfig(classes=3, bands=8, height=12, width=12,
                                        noise_std=0.0, seed=5))
        flat = ds.labels.labels.ravel()
        spectra = ds.cube.data.reshape(8, -1)
        for cls in (1, 2, 3):
            idx = np.flatnonzero(flat == cls)
            ref = spectra[:, idx[0]]
            assert (spectra[:, idx] == ref[:, None]).all()

    @pytest.mark.parametrize("seed", range(10))
    def test_all_classes_present(self, seed):
        ds = synth_generate(SynthConfig(classes=4, bands=4, height=32, width=32,
                                        seed=seed))
        present = set(np.unique(ds.labels.labels))
        assert present == {1, 2, 3, 4}

    def test_deterministic_under_seed(self):
        cfg = SynthConfig(classes=3, bands=6, height=16, width=16, seed=9)
        a = synth_generate(cfg)
        b = synth_generate(cfg)
        assert a.cube.data.tobytes() == b.cube.data.tobytes()
        assert a.labels.labels.tobytes() == b.labels.labels.tobytes()

    def test_band_counts_emulate_sensors(self):
        a = synth_generate(SynthConfig(classes=3, bands=32, height=8, width=8, seed=1))
        b = synth_generate(SynthConfig(classes=3, bands=48, height=8, width=8, seed=1))
        assert a.cube.bands == 32 and b.cube.bands == 48

    def test_all_pixels_start_in_train(self):
        ds = synth_generate(SynthConfig(classes=2, bands=3, height=6, width=6, seed=0))
        assert ds.train_idx.size == 36 and ds.test_idx.size == 0


class TestNormalizeBands:
    def test_constant_band_centered_with_warning(self):
        data = np.random.default_rng(0).normal(0, 1, (3, 6, 6)).astype(np.float32)
        data[1] = 7.0
        ds = DomainDataset(
            cube=HyperCube.from_array(data),
            labels=LabelRaster.from_array(np.ones((6, 6), dtype=np.int32)),
            classes=2, train_idx=np.arange(36, dtype=np.int64),
        )
        with pytest.warns(UserWarning, match="zero variance"):
            out = normalize_bands(ds)
        np.testing.assert_allclose(out.cube.data[1], 0.0, atol=1e-6)

    def test_train_mean_zero_test_mean_not(self):
        ds = synth_generate(SynthConfig(classes=3, bands=5, height=16, width=16,
                                        noise_std=0.3, seed=2))
        ds = with_split(ds, 20, np.random.default_rng(0))
        out = normalize_bands(ds)
        w = out.cube.width
        ys, xs = np.divmod(out.train_idx, w)
        train_vals = out.cube.data[:, ys, xs]
        assert np.abs(train_vals.mean(axis=1)).max() <= 1e-6
        ys, xs = np.divmod(out.test_idx, w)
        test_vals = out.cube.data[:, ys, xs]
        assert np.abs(test_vals.mean(axis=1)).max() > 1e-6

    def test_requires_train_split(self):
        ds = synth_generate(SynthConfig(classes=2, bands=3, height=6, width=6, seed=0))
        ds = DomainDataset(cube=ds.cube, labels=ds.labels, classes=2)
        with pytest.raises(DataError):
            normalize_bands(ds)


class TestBatcherAndManifest:
    def test_batcher_matches_extract_patch(self):
        ds = synth_generate(SynthConfig(classes=3, bands=4, height=10, width=11, seed=3))
        batcher = PatchBatcher(ds, 5)
        idx = np.array([0, 17, 54, 109], dtype=np.int64)
        x, y = batcher.batch(idx)
        for row, pixel in enumerate(idx):
            py, px = divmod(int(pixel), 11)
            np.testing.assert_array_equal(
                x[row], extract_patch(ds.cube, px, py, 5)[0])
            assert y[row] == ds.labels.labels.ravel()[pixel] - 1

    def test_write_then_load_manifest_round_trip(self, tmp_path):
        ds = synth_generate(SynthConfig(classes=3, bands=4, height=8, width=8,
                                        seed=4, name="domA", sensor="R"))
        manifest = write_dataset(ds, tmp_path)
        loaded = load_manifest(manifest)
        np.testing.assert_array_equal(loaded.cube.data, ds.cube.data)
        np.testing.assert_array_equal(loaded.labels.labels, ds.labels.labels)
        assert loaded.name == "domA" and loaded.sensor == "R" and loaded.classes == 3
        assert loaded.train_idx.size == 64

    def test_manifest_missing_key(self, tmp_path):
        (tmp_path / "m.json").write_text(json.dumps({"name": "x"}))
        with pytest.raises(DataError, match="'sensor'"):
            load_manifest(tmp_path / "m.json")
