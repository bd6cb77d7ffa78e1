"""Property tests: `hsinet eval` over valid input files mutated by byte flips,
truncations and deleted lines (a deleted ENVI header key, manifest entry, ...),
and by edits a plain byte flip cannot reach: a checkpoint byte flip and
checkpoint metadata values under a recomputed CRC, ENVI header values, and
the entries of a `.txt` label grid.

Every mutated file either still parses (exit 0) or ends in a typed error
(exit 1 for config, 2 for data); `cli.main` never raises and never reports a
numeric failure. A truncated binary file or manifest always fails. The
examples are derandomized, so the run is the same every time.
"""
import contextlib
import io
import json
import shutil
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hsinet.checkpoint import MAGIC, VERSION, _pack_record, _parse_records, save_checkpoint
from hsinet.cli import main
from hsinet.envi import load_label_raster
from hsinet.network import NetworkSpec, build_backbone

# the file each case mutates, and whether every strict prefix of it is invalid
FILES = {"header": ("s1.hdr", False), "data": ("s1.img", True),
         "label_header": ("s1_labels.hdr", False), "label_data": ("s1_labels.img", True),
         "manifest": ("s1.json", True), "checkpoint": ("net.ckpt", True)}

MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2**20), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 2**20)),
    st.tuples(st.just("drop_line"), st.integers(0, 2**20)),
)


def mutate(data, mutation):
    """`data` with one byte XORed by a non-zero mask, cut to a strict prefix,
    or without one of its lines."""
    kind, pos, *mask = mutation
    if kind == "drop_line":
        lines = data.splitlines(keepends=True)
        del lines[pos % len(lines)]
        return b"".join(lines)
    pos %= len(data)
    if kind == "truncate":
        return data[:pos]
    out = bytearray(data)
    out[pos] ^= mask[0]
    return bytes(out)


# every value of a single checkpoint's metadata, its rng state included
META_PATHS = [("dtype",), ("iteration",), ("kind",), ("rng",), ("rng", "bit_generator"),
              ("rng", "has_uint32"), ("rng", "uinteger"), ("rng", "state"),
              ("rng", "state", "inc"), ("rng", "state", "state"), ("spec",),
              *[("spec", key) for key in ("bands", "classes", "dropout_rate", "filters",
                                          "patch", "residual_modules")]]
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**130, 2**130),
    st.sampled_from([0, -1, 1, 2, 3, 4, 5, 10**6, 10**9, 2**63, 2**64]),
    st.floats(), st.text(max_size=6),
    st.sampled_from(["<f2", ">f4", "<f8", "|f4", "<i4", "single", "cross", "PCG64", "MT19937"]),
)
JSON_VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                           max_leaves=6)

HEADER_KEYS = ("samples", "bands", "data type", "interleave", "byte order", "header offset")
HEADER_VALUES = st.one_of(
    st.integers(-2**70, 2**70),
    st.sampled_from(["", "0", "-1", "1.5", "1e9", "0x10", "nan", "bsq", "bil", "bip", "BIP",
                     "2", "4", "5", "12", "{1}", "12 13", "144", "4096", "9223372036854775808"]),
    st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=6),
)
GRID_VALUES = ["0", "1", "3", "4", "-1", "-3", "1.5", "2.0", "1e3", "nan", "x", "2147483647",
               "2147483648", "9223372036854775807", "9223372036854775808",
               "-9223372036854775809", "99999999999999999999999"]
GRID_EDITS = st.one_of(
    st.tuples(st.just("value"), st.integers(0, 2**20), st.sampled_from(GRID_VALUES)),
    st.tuples(st.sampled_from(["drop_token", "add_token"]), st.integers(0, 2**20)),
)
FUZZ = settings(derandomize=True, max_examples=40, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def run_eval(root):
    cfg = {"target": {"manifest": str(root / "s1.json")}, "train_per_class": 4,
           "split_seed": 3, "network": {"filters": 4}}
    (root / "c.json").write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["eval", "--config", str(root / "c.json"),
                     "--checkpoint", str(root / "net.ckpt")])


def eval_edited(valid, edits):
    """Exit code of `hsinet eval` on a copy of `valid` with each file named in
    `edits` replaced by its new bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for path in valid.iterdir():
            shutil.copy(path, root)
        for name, data in edits.items():
            (root / name).write_bytes(data)
        return run_eval(root)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A directory holding a synthetic ENVI domain, its manifest and label
    raster, and a checkpoint of a network for it; eval on it exits 0."""
    root = tmp_path_factory.mktemp("fuzz")
    gen = {"domains": [{"classes": 3, "bands": 4, "height": 12, "width": 12,
                        "noise_std": 0.25, "seed": 51, "name": "s1"}]}
    (root / "gen.json").write_text(json.dumps(gen))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth-gen", "--config", str(root / "gen.json"), "--out", str(root)]) == 0
    spec = NetworkSpec(bands=4, classes=3, filters=4)
    save_checkpoint(build_backbone(spec, np.random.default_rng(0)), root / "net.ckpt")
    assert run_eval(root) == 0
    return root


@pytest.mark.parametrize("which", sorted(FILES))
@FUZZ
@given(mutation=MUTATIONS)
def test_mutated_input_ends_in_typed_error(valid, which, mutation):
    name, prefixes_invalid = FILES[which]
    data = (valid / name).read_bytes()
    mutated = mutate(data, mutation)
    code = eval_edited(valid, {name: mutated})
    assert code in (0, 1, 2)
    if mutation[0] == "truncate" and prefixes_invalid and mutated.rstrip() != data.rstrip():
        assert code in (1, 2)


def with_metadata(ckpt, meta):
    """The checkpoint bytes with its metadata record replaced and the CRC recomputed."""
    (_, dt, shape, _), *rest = _parse_records(ckpt)
    buf = bytearray(MAGIC + struct.pack("<I", VERSION))
    _pack_record(buf, "__meta__", dt, shape, json.dumps(meta).encode())
    for name, dtype, dims, raw in rest:
        _pack_record(buf, name, dtype, dims, bytes(raw))
    buf += struct.pack("<I", zlib.crc32(buf) & 0xFFFFFFFF)
    return bytes(buf)


@FUZZ
@given(path=st.sampled_from(META_PATHS), value=JSON_VALUES)
@example(path=("spec", "filters"), value=10**7)
@example(path=("spec", "bands"), value=10**9)
@example(path=("spec", "residual_modules"), value=10**6)
@example(path=("spec", "filters"), value=4.0)
@example(path=("spec", "patch"), value=5.0)
@example(path=("dtype",), value="<f2")
@example(path=("dtype",), value=">f4")
@example(path=("rng", "state", "state"), value=-1)
def test_edited_checkpoint_metadata_ends_in_typed_error(valid, path, value):
    """A metadata value edit under a recomputed CRC: the checks past the CRC."""
    ckpt = (valid / "net.ckpt").read_bytes()
    meta = json.loads(bytes(next(_parse_records(ckpt))[3]))
    meta["rng"] = np.random.default_rng(0).bit_generator.state
    node = meta
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert eval_edited(valid, {"net.ckpt": with_metadata(ckpt, meta)}) in (0, 1, 2)


@FUZZ
@given(pos=st.integers(0, 2**20), mask=st.integers(1, 255))
@example(pos=2, mask=0x80)  # the metadata record's name stops decoding
def test_flipped_checkpoint_byte_under_a_valid_crc_ends_in_typed_error(valid, pos, mask):
    """A byte flip past the version word with the CRC recomputed, so the flip
    reaches the record headers and data instead of stopping at the CRC check."""
    ckpt = bytearray((valid / "net.ckpt").read_bytes())
    start = len(MAGIC) + 4
    ckpt[start + pos % (len(ckpt) - start - 4)] ^= mask
    ckpt[-4:] = struct.pack("<I", zlib.crc32(ckpt[:-4]) & 0xFFFFFFFF)
    assert eval_edited(valid, {"net.ckpt": bytes(ckpt)}) in (0, 2)


@pytest.mark.parametrize("header", ["s1.hdr", "s1_labels.hdr"])
@FUZZ
@given(key=st.sampled_from(HEADER_KEYS), value=HEADER_VALUES)
def test_edited_header_value_ends_in_typed_error(valid, header, key, value):
    lines = (valid / header).read_text().splitlines()
    assert sum(line.split("=")[0].strip() == key for line in lines) == 1
    edited = [f"{key} = {value}" if line.split("=")[0].strip() == key else line
              for line in lines]
    data = ("\n".join(edited) + "\n").encode()
    assert eval_edited(valid, {header: data}) in (0, 1, 2)


@pytest.fixture(scope="module")
def text_grid(valid):
    """The label raster of `valid` as a `.txt` grid, and its manifest switched to it."""
    grid = load_label_raster(valid / "s1_labels.hdr").labels
    text = "".join(" ".join(str(v) for v in row) + "\n" for row in grid)
    manifest = json.loads((valid / "s1.json").read_text())
    manifest["labels"] = "s1_labels.txt"
    return {"s1.json": json.dumps(manifest).encode(), "s1_labels.txt": text.encode()}


def test_text_grid_evaluates(valid, text_grid):
    assert eval_edited(valid, text_grid) == 0


@FUZZ
@given(edit=GRID_EDITS)
def test_edited_text_grid_ends_in_typed_error(valid, text_grid, edit):
    """Ragged rows, and entries that are floats, negative, or past int64."""
    rows = [row.split() for row in text_grid["s1_labels.txt"].decode().splitlines()]
    kind, pos, *value = edit
    r, c = divmod(pos % (len(rows) * len(rows[0])), len(rows[0]))
    if kind == "value":
        rows[r][c] = value[0]
    elif kind == "drop_token":
        del rows[r][c]
    else:
        rows[r].insert(c, rows[r][c])
    text = "".join(" ".join(row) + "\n" for row in rows).encode()
    code = eval_edited(valid, {**text_grid, "s1_labels.txt": text})
    assert code in (0, 1, 2)
    if kind != "value":
        assert code == 2
