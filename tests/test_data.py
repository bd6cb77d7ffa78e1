import json
import re
import struct
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import hsinet.envi
from hsinet import data
from hsinet.data import (DomainDataset, PatchBatcher, SynthConfig, augment_d4,
                         extract_patch, load_manifest, normalize_bands,
                         split_per_class, synth_generate, with_split, write_dataset)
from hsinet.envi import (HyperCube, LabelRaster, load_envi, load_label_raster,
                         parse_envi_header, read_envi_samples, write_envi)
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

    @pytest.mark.parametrize("data_type,low,high", [
        (2, -32768, 32767), (4, -1e6, 1e6), (5, -1e6, 1e6), (12, 0, 65535)])
    @pytest.mark.parametrize("byte_order", [0, 1])
    @pytest.mark.parametrize("lines,block", [(7, 2 * 3 * 5), (7, 1), (1, 4)],
                             ids=["ragged_last_block", "block_under_a_line", "one_line"])
    def test_bip_line_blocks_match_one_cast(self, tmp_path, monkeypatch, data_type, low, high,
                                            byte_order, lines, block):
        """A BIP cube is cast a block of lines at a time; the cast of the whole
        sample view in one call is the reference."""
        values = np.random.default_rng(5).uniform(low, high, (3, lines, 5))
        hdr, img = tmp_path / "b.hdr", tmp_path / "b.img"
        write_envi(HyperCube.from_array(values), hdr, img, interleave="bip",
                   data_type=data_type, byte_order=byte_order)
        monkeypatch.setattr(hsinet.envi, "BIP_BLOCK", block)
        reference = np.ascontiguousarray(read_envi_samples(hdr, img), dtype=np.float32)
        loaded = load_envi(hdr, img).data
        assert loaded.flags.c_contiguous and loaded.dtype == np.float32
        np.testing.assert_array_equal(loaded, reference)

    def test_little_endian_float32_bsq_loads_without_a_copy(self, tmp_path):
        write_envi(cube_123(), tmp_path / "z.hdr", tmp_path / "z.img")
        assert not load_envi(tmp_path / "z.hdr", tmp_path / "z.img").data.flags.owndata

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

    def test_negative_header_offset_names_key_and_file(self, tmp_path):
        write_envi(cube_123(), tmp_path / "h.hdr", tmp_path / "h.img")
        hdr = tmp_path / "h.hdr"
        hdr.write_text(hdr.read_text().replace("header offset = 0", "header offset = -4"))
        img = tmp_path / "h.img"
        img.write_bytes(img.read_bytes()[:-4])  # the size check alone would pass
        with pytest.raises(DataError, match="h.hdr' key 'header offset' must be >= 0, got -4"):
            load_envi(hdr, img)

    @pytest.mark.parametrize("key", ["samples", "lines", "bands"])
    def test_zero_size_header_names_key_and_file(self, tmp_path, key):
        """0 bands over an empty data file used to load as an empty cube."""
        write_envi(cube_123(), tmp_path / "h.hdr", tmp_path / "h.img")
        hdr = tmp_path / "h.hdr"
        hdr.write_text(re.sub(rf"^{key} = \d+$", f"{key} = 0", hdr.read_text(), flags=re.M))
        (tmp_path / "h.img").write_bytes(b"")
        with pytest.raises(DataError, match=f"h.hdr' key '{key}' must be >= 1, got 0"):
            load_envi(hdr, tmp_path / "h.img")

    @pytest.mark.parametrize("data_type,value,shown,name,bounds", [
        (12, -5.0, "-5", "uint16", "[0, 65535]"),
        (12, 65535.6, "65536", "uint16", "[0, 65535]"),
        (12, np.nan, "nan", "uint16", "[0, 65535]"),
        (2, 40000.0, "40000", "int16", "[-32768, 32767]"),
        (2, -32768.6, "-32769", "int16", "[-32768, 32767]"),
        (2, np.inf, "inf", "int16", "[-32768, 32767]"),
    ], ids=["uint16_negative", "uint16_past_max", "uint16_nan", "int16_past_max",
            "int16_past_min", "int16_inf"])
    @pytest.mark.parametrize("interleave", ["bsq", "bip"])
    def test_integer_write_outside_the_type_is_rejected(self, tmp_path, interleave, data_type,
                                                        value, shown, name, bounds):
        """The cast used to wrap: -5 became 65531 as uint16, 40000 became -25536
        as int16. The error names the file, band, pixel and rounded value."""
        values = np.arange(1, 13, dtype=np.float32).reshape(3, 2, 2)
        values[2, 1, 0] = value  # band 2, x 0, y 1
        img = tmp_path / "w.img"
        with pytest.raises(DataError, match=re.escape(
                f"ENVI data '{img}': band 2 pixel (x=0, y=1) holds {shown}, outside the "
                f"{name} range {bounds}")):
            write_envi(HyperCube.from_array(values), tmp_path / "w.hdr", img,
                       interleave=interleave, data_type=data_type, byte_order=1)
        assert not img.exists() and not (tmp_path / "w.hdr").exists()

    @pytest.mark.parametrize("data_type,low,high", [(12, 0, 65535), (2, -32768, 32767)])
    def test_integer_write_holds_the_ends_of_the_type(self, tmp_path, data_type, low, high):
        values = np.array([[[low - 0.4, low], [high, high + 0.4]]], dtype=np.float32)
        write_envi(HyperCube.from_array(values), tmp_path / "e.hdr", tmp_path / "e.img",
                   data_type=data_type)
        loaded = load_envi(tmp_path / "e.hdr", tmp_path / "e.img")
        np.testing.assert_array_equal(loaded.data, [[[low, low], [high, high]]])

    def test_failed_write_keeps_the_previous_raster(self, tmp_path, fill_disk):
        """The data file used to be written in place: a full disk left it cut short."""
        hdr, img = tmp_path / "h.hdr", tmp_path / "h.img"
        write_envi(cube_123(), hdr, img)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        fill_disk()
        with pytest.raises(OSError, match="No space left"):
            write_envi(HyperCube.from_array(cube_123().data + 1), hdr, img)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_write_rejects_an_unsupported_encoding_with_the_reader_wording(self, tmp_path):
        for kwargs, message in (
                ({"interleave": "bxx"}, "unsupported interleave 'bxx' (need bsq, bil, or bip)"),
                ({"data_type": 3}, "unsupported ENVI data type 3 (supported: [2, 4, 5, 12])"),
                ({"byte_order": 2}, "byte order must be 0 (little) or 1 (big), got 2")):
            with pytest.raises(DataError, match=re.escape(message)):
                write_envi(cube_123(), tmp_path / "x.hdr", tmp_path / "x.img", **kwargs)

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

    def test_label_raster_of_several_bands_names_the_file(self, tmp_path):
        write_envi(HyperCube.from_array(np.ones((4, 3, 3))), tmp_path / "l.hdr",
                   tmp_path / "l.img", data_type=2)
        with pytest.raises(DataError, match=re.escape(
                f"label raster '{tmp_path / 'l.hdr'}' must have 1 band, got 4")):
            load_label_raster(tmp_path / "l.hdr")

    def test_label_file_of_unknown_format_names_it(self, tmp_path):
        (tmp_path / "l.png").write_bytes(b"\x89PNG")
        with pytest.raises(DataError, match=re.escape(
                f"cannot infer label format from '{tmp_path / 'l.png'}' (need .hdr or .txt)")):
            load_label_raster(tmp_path / "l.png")

    @pytest.mark.parametrize("text", ["0 1\n2 x\n", "0 1\n2\n", "", "0 1\n2 2147483648\n"],
                             ids=["non_integer_cell", "ragged_rows", "empty", "past_int32"])
    def test_malformed_label_grid_names_the_file(self, tmp_path, text):
        (tmp_path / "bad.txt").write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="bad.txt"):
                load_label_raster(tmp_path / "bad.txt")

    @pytest.mark.parametrize("labels,value,at", [
        ([[4294967297, 0]], "4294967297", "(x=0, y=0)"),
        ([[1, -1]], "-1", "(x=1, y=0)"),
        ([[1, 2], [2.5, 1]], "2.5", "(x=0, y=1)"),
        ([[1, np.nan]], "nan", "(x=1, y=0)"),
    ], ids=["past_int32", "negative", "fraction", "nan"])
    def test_label_array_outside_int32_or_not_integral_rejected(self, labels, value, at):
        """Checked before the int32 cast, which wrapped 2**32 + 1 to class 1."""
        with pytest.raises(DataError, match=re.escape(f"label {value} at pixel {at} is not "
                                                      "an integer in [0, 2147483647]")):
            LabelRaster.from_array(np.array(labels))

    def test_envi_label_past_int32_names_value_and_file(self, tmp_path):
        cube = HyperCube.from_array(np.array([[[0.0, 1.0], [3e9, 2.0]]], dtype=np.float32))
        write_envi(cube, tmp_path / "l.hdr", tmp_path / "l.img", data_type=4)
        with pytest.raises(DataError, match=re.escape(
                f"label {np.float32(3e9)} in '{tmp_path / 'l.hdr'}' at pixel (x=0, y=1)")):
            load_label_raster(tmp_path / "l.hdr")

    @pytest.mark.parametrize("data_type", [4, 5])
    def test_fractional_float_label_is_rejected(self, tmp_path, data_type):
        """Labels were rounded through the float32 cube: 1.4 loaded as class 1."""
        cube = HyperCube.from_array(np.array([[[1.4, 2.0], [0.0, 2.6]]]))
        write_envi(cube, tmp_path / "l.hdr", tmp_path / "l.img", data_type=data_type)
        with pytest.raises(DataError, match=re.escape(
                f"in '{tmp_path / 'l.hdr'}' at pixel (x=0, y=0) is not an integer")):
            load_label_raster(tmp_path / "l.hdr")

    def test_float64_label_loads_exactly(self, tmp_path):
        """16777217 has no float32; it used to load as class 16777216."""
        (tmp_path / "l.img").write_bytes(struct.pack(">2d", 16777217.0, 0.0))
        (tmp_path / "l.hdr").write_text("ENVI\nsamples = 2\nlines = 1\nbands = 1\n"
                                        "data type = 5\ninterleave = bsq\nbyte order = 1\n")
        labels = load_label_raster(tmp_path / "l.hdr")
        np.testing.assert_array_equal(labels.labels, [[16777217, 0]])

    @pytest.mark.parametrize("data_type,byte_order", [(2, 0), (2, 1), (12, 0), (12, 1)])
    def test_integer_label_raster_loads_its_samples(self, tmp_path, data_type, byte_order):
        grid = np.array([[0, 1, 65535 if data_type == 12 else 32767], [3, 2, 1]])
        write_envi(HyperCube.from_array(grid[np.newaxis]), tmp_path / "l.hdr",
                   tmp_path / "l.img", data_type=data_type, byte_order=byte_order)
        labels = load_label_raster(tmp_path / "l.hdr").labels
        assert labels.dtype == np.int32
        np.testing.assert_array_equal(labels, grid)


def labeled_indices(ds):
    return np.flatnonzero(ds.labels.labels.ravel() > 0)


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


class TestDomainDataset:
    @pytest.mark.parametrize("classes", [1, 0, 17, 10**12])
    def test_class_count_outside_2_to_pixels_is_data_error(self, classes):
        """A count past the pixels used to reach the network builder, which
        tried to allocate the head (14.6 TiB at 10**12 classes)."""
        with pytest.raises(DataError, match=re.escape(
                f"dataset 'd' declares {classes} classes; its 16 pixels can hold 2 to 16")):
            DomainDataset(cube=HyperCube.from_array(np.zeros((1, 4, 4))),
                          labels=LabelRaster.from_array(np.ones((4, 4), dtype=np.int32)),
                          classes=classes, name="d")


    def test_overlapping_splits_are_rejected(self):
        ds = ip_like_dataset()
        for test in ([5, 7, 9], [7, 9, 5]):
            with pytest.raises(DataError, match="train and test splits overlap"):
                replace(ds, train_idx=np.array([0, 5]), test_idx=np.array(test))
        replace(ds, train_idx=np.array([0, 5]), test_idx=np.array([7, 6, 9]))

    @pytest.mark.parametrize("seed", range(6))
    def test_overlap_check_matches_intersect1d(self, seed):
        """The reference check: np.intersect1d of the two splits is non-empty."""
        ds = ip_like_dataset()
        rng = np.random.default_rng(seed)
        labeled = labeled_indices(ds)
        train = rng.choice(labeled, size=rng.integers(0, 40), replace=False)
        test = rng.choice(labeled, size=rng.integers(0, 40), replace=False)
        if seed % 2:  # random draws of 40 of 8504 pixels rarely share one
            test = np.append(test, train[:1])
        if np.intersect1d(train, test).size:
            with pytest.raises(DataError, match="train and test splits overlap"):
                replace(ds, train_idx=train, test_idx=test)
        else:
            replace(ds, train_idx=train, test_idx=test)


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
        np.testing.assert_array_equal(combined, labeled_indices(ds))

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

    @pytest.mark.parametrize("k,element", [
        (0, [[1, 2], [3, 4]]),  # identity
        (1, [[2, 4], [1, 3]]),  # rotation by 90 degrees (np.rot90)
        (2, [[4, 3], [2, 1]]),  # rotation by 180
        (3, [[3, 1], [4, 2]]),  # rotation by 270
        (4, [[2, 1], [4, 3]]),  # horizontal flip
        (5, [[3, 4], [1, 2]]),  # vertical flip
        (6, [[1, 3], [2, 4]]),  # transpose
        (7, [[4, 2], [3, 1]]),  # anti-transpose
    ])
    def test_each_index_is_its_documented_element(self, k, element):
        """A renumbering keeps the group properties below but moves every
        training bit."""
        np.testing.assert_array_equal(augment_d4(self.MARKER, k), [[element]])

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

    def test_memory_bounded_at_one_center_per_pixel(self):
        tracemalloc.start()
        try:
            synth_generate(SynthConfig(classes=3, bands=4, height=64, width=64, blob_scale=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_blocked_nearest_center_matches_full_argmin(self):
        h, w = 54, 54
        rng = np.random.default_rng(0)
        cy, cx = np.divmod(rng.choice(h * w, size=h * w // 4, replace=False), w)
        assert cy.size * h * w > 2 * data._D2_BLOCK  # spans three blocks
        yy, xx = np.mgrid[0:h, 0:w]
        d2 = (yy[None] - cy[:, None, None]) ** 2 + (xx[None] - cx[:, None, None]) ** 2
        np.testing.assert_array_equal(data._nearest_center(cy, cx, h, w),
                                      np.argmin(d2, axis=0))

    def test_band_counts_emulate_sensors(self):
        a = synth_generate(SynthConfig(classes=3, bands=32, height=8, width=8, seed=1))
        b = synth_generate(SynthConfig(classes=3, bands=48, height=8, width=8, seed=1))
        assert a.cube.bands == 32 and b.cube.bands == 48

    def test_more_classes_than_pixels_is_config_error(self):
        with pytest.raises(ConfigError, match=re.escape(
                "synthetic domain 'classes' 200 exceeds the 144 pixels of its 12x12 raster")):
            SynthConfig(classes=200, bands=4, height=12, width=12)
        SynthConfig(classes=144, bands=4, height=12, width=12)

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

    def test_raster_too_small_for_the_patch_names_the_dataset(self):
        ds = synth_generate(SynthConfig(classes=2, bands=3, height=2, width=2, name="tiny"))
        with pytest.raises(DataError, match="^dataset 'tiny' raster 2x2 too small for reflect "
                                            "padding of 2$"):
            PatchBatcher(ds, 5)

    def test_labels_of_another_raster_name_the_dataset(self, tmp_path):
        """A manifest whose labels come from a 10x12 raster, under a 12x12 cube."""
        for name, height in (("a", 12), ("b", 10)):
            write_dataset(synth_generate(SynthConfig(classes=3, bands=4, height=height,
                                                     width=12, name=name)), tmp_path)
        manifest = tmp_path / "a.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()),
                                        "labels": "b_labels.hdr"}))
        with pytest.raises(DataError, match="^dataset 'a' label raster 10x12 does not match "
                                            "its cube 12x12$"):
            load_manifest(manifest)

    def test_write_then_load_manifest_round_trip(self, tmp_path):
        ds = synth_generate(SynthConfig(classes=3, bands=4, height=8, width=8,
                                        seed=4, name="domA", sensor="R"))
        manifest = write_dataset(ds, tmp_path)
        loaded = load_manifest(manifest)
        np.testing.assert_array_equal(loaded.cube.data, ds.cube.data)
        np.testing.assert_array_equal(loaded.labels.labels, ds.labels.labels)
        assert loaded.name == "domA" and loaded.sensor == "R" and loaded.classes == 3
        assert loaded.train_idx.size == 64

    def test_load_manifest_checks_the_dataset_once(self, tmp_path, monkeypatch):
        ds = synth_generate(SynthConfig(classes=3, bands=4, height=8, width=8, seed=4))
        unlabeled = np.arange(8) % 3 == 0  # columns 0, 3 and 6
        ds = DomainDataset(ds.cube, LabelRaster.from_array(ds.labels.labels * ~unlabeled), 3)
        manifest = write_dataset(ds, tmp_path)
        calls = []
        post_init = DomainDataset.__post_init__
        monkeypatch.setattr(DomainDataset, "__post_init__",
                            lambda self: calls.append(self) or post_init(self))
        loaded = load_manifest(manifest)
        assert calls == [loaded]
        np.testing.assert_array_equal(loaded.train_idx, labeled_indices(loaded))
        assert loaded.train_idx.size == (ds.labels.labels > 0).sum() < 64

    def test_repeated_manifest_key_is_rejected(self, tmp_path):
        ds = synth_generate(SynthConfig(classes=3, bands=4, height=8, width=8, name="d"))
        path = write_dataset(ds, tmp_path)
        path.write_text(path.read_text().replace('"classes": 3', '"classes": 2, "classes": 3'))
        with pytest.raises(DataError, match=re.escape(
                f"manifest '{path}' repeats the key 'classes'")):
            load_manifest(path)

    def test_manifest_missing_key(self, tmp_path):
        (tmp_path / "m.json").write_text(json.dumps({"name": "x"}))
        with pytest.raises(DataError, match="'sensor'"):
            load_manifest(tmp_path / "m.json")

    @pytest.mark.parametrize("manifest,message", [
        (5, "must hold a JSON object, got int"),
        (None, "must hold a JSON object, got NoneType"),
        ({"classes": "x"}, "key 'classes' must be a JSON integer, got str"),
        ({"classes": [3]}, "key 'classes' must be a JSON integer, got list"),
        ({"classes": True}, "key 'classes' must be a JSON integer, got bool"),
        ({"header": 5}, "key 'header' must be a JSON string, got int"),
        ({"name": None}, "key 'name' must be a JSON string, got NoneType"),
    ], ids=["int", "null", "classes_str", "classes_list", "classes_bool", "header_int",
            "name_null"])
    def test_mistyped_manifest_names_the_key_and_file(self, tmp_path, manifest, message):
        ds = synth_generate(SynthConfig(classes=3, bands=4, height=8, width=8, name="d"))
        path = write_dataset(ds, tmp_path)
        if isinstance(manifest, dict):
            manifest = {**json.loads(path.read_text()), **manifest}
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=re.escape(f"manifest '{path}' {message}")):
            load_manifest(path)
