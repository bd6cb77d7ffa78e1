"""Property tests: `hsinet eval` over valid input files mutated by byte flips,
truncations and deleted lines (a deleted ENVI header key, manifest entry, ...).

Every mutated file either still parses (exit 0) or ends in a typed error
(exit 1 for config, 2 for data); `cli.main` never raises and never reports a
numeric failure. A truncated binary file or manifest always fails. The
examples are derandomized, so the run is the same every time.
"""
import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hsinet.checkpoint import save_checkpoint
from hsinet.cli import main
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


def run_eval(root):
    cfg = {"target": {"manifest": str(root / "s1.json")}, "train_per_class": 4,
           "split_seed": 3, "network": {"filters": 4}}
    (root / "c.json").write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["eval", "--config", str(root / "c.json"),
                     "--checkpoint", str(root / "net.ckpt")])


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
@settings(derandomize=True, max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=MUTATIONS)
def test_mutated_input_ends_in_typed_error(valid, which, mutation):
    name, prefixes_invalid = FILES[which]
    data = (valid / name).read_bytes()
    mutated = mutate(data, mutation)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for path in valid.iterdir():
            shutil.copy(path, root)
        (root / name).write_bytes(mutated)
        code = run_eval(root)
    assert code in (0, 1, 2)
    if mutation[0] == "truncate" and prefixes_invalid and mutated.rstrip() != data.rstrip():
        assert code in (1, 2)
