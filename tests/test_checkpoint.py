import hashlib
import json
import struct
import zlib
from dataclasses import asdict

import numpy as np
import pytest

import hsinet.checkpoint

from hsinet.checkpoint import (MAGIC, VERSION, _pack_record, _parse_records, load_checkpoint,
                               save_checkpoint)
from hsinet.cli import main
from hsinet.data import SynthConfig, normalize_bands, synth_generate, with_split
from hsinet.errors import CheckpointError
from hsinet.network import CrossDomainSpec, NetworkSpec, build_backbone, build_cross_domain
from hsinet.trainer import TrainSchedule, train_single
from test_network import shared_bytes


def small_net(seed=0):
    spec = NetworkSpec(bands=4, classes=3, filters=4)
    return build_backbone(spec, np.random.default_rng(seed))


def small_cdn(seed=0):
    spec = CrossDomainSpec([
        NetworkSpec(bands=4, classes=3, filters=4),
        NetworkSpec(bands=6, classes=5, filters=4),
    ])
    return build_cross_domain(spec, np.random.default_rng(seed))


class TestRoundTrip:
    def test_single_network_bit_exact(self, tmp_path):
        net = small_net()
        rng = np.random.default_rng(7)
        rng.random(13)  # advance so the state is non-trivial
        save_checkpoint(net, tmp_path / "a.ckpt", rng=rng, iteration=42)
        ckpt = load_checkpoint(tmp_path / "a.ckpt")
        assert ckpt.kind == "single"
        assert ckpt.iteration == 42
        for (name, arr), (name2, arr2) in zip(net.state(), ckpt.network.state()):
            assert name == name2
            assert arr.tobytes() == arr2.tobytes()
        # restored rng continues the original stream
        assert ckpt.rng.random() == rng.random()

    def test_save_load_save_byte_identical(self, tmp_path):
        net = small_net()
        save_checkpoint(net, tmp_path / "a.ckpt", iteration=3)
        ckpt = load_checkpoint(tmp_path / "a.ckpt")
        save_checkpoint(ckpt.network, tmp_path / "b.ckpt", iteration=3)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_cross_domain_round_trip_preserves_aliasing(self, tmp_path):
        cdn = small_cdn()
        save_checkpoint(cdn, tmp_path / "c.ckpt")
        loaded = load_checkpoint(tmp_path / "c.ckpt").network
        assert shared_bytes(loaded.branches[0]) == shared_bytes(cdn.branches[0])
        w0 = loaded.branches[0].modules[0].conv1.conv.w
        w1 = loaded.branches[1].modules[0].conv1.conv.w
        assert w0 is w1

    def test_spec_echo_restored(self, tmp_path):
        net = small_net()
        save_checkpoint(net, tmp_path / "a.ckpt")
        assert load_checkpoint(tmp_path / "a.ckpt").network.spec == net.spec


class TestCorruption:
    @pytest.mark.parametrize("name,message", [
        ("", "cannot be read: Is a directory"), ("gone.ckpt", "does not exist")])
    def test_unreadable_path_names_it(self, tmp_path, name, message):
        with pytest.raises(CheckpointError, match=f"checkpoint '{tmp_path / name}' {message}"):
            load_checkpoint(tmp_path / name)

    def test_truncated_file_rejected(self, tmp_path):
        net = small_net()
        save_checkpoint(net, tmp_path / "a.ckpt")
        data = (tmp_path / "a.ckpt").read_bytes()
        (tmp_path / "t.ckpt").write_bytes(data[:len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "t.ckpt")

    def test_flipped_byte_fails_crc(self, tmp_path):
        net = small_net()
        save_checkpoint(net, tmp_path / "a.ckpt")
        data = bytearray((tmp_path / "a.ckpt").read_bytes())
        data[len(data) // 2] ^= 0xFF
        (tmp_path / "c.ckpt").write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(tmp_path / "c.ckpt")

    def test_bad_magic(self, tmp_path):
        (tmp_path / "b.ckpt").write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(tmp_path / "b.ckpt")

    def test_unknown_version(self, tmp_path):
        net = small_net()
        save_checkpoint(net, tmp_path / "a.ckpt")
        data = bytearray((tmp_path / "a.ckpt").read_bytes())
        data[len(MAGIC):len(MAGIC) + 4] = struct.pack("<I", 9)
        # refresh the CRC so only the version is wrong
        data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])) & 0xFFFFFFFF)
        (tmp_path / "v.ckpt").write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version 9"):
            load_checkpoint(tmp_path / "v.ckpt")


class TestResume:
    def test_resumed_training_matches_uninterrupted(self, tmp_path):
        ds = synth_generate(SynthConfig(classes=3, bands=4, height=12, width=12,
                                        noise_std=0.2, seed=1))
        ds = normalize_bands(with_split(ds, 10, np.random.default_rng(5)))
        spec = NetworkSpec(bands=4, classes=3, filters=4, dropout_rate=0.5)
        schedule = TrainSchedule(step_size=80, max_iter=200, batch=8)

        # uninterrupted: 200 iterations straight through
        net_a = build_backbone(spec, np.random.default_rng(3))
        rng_a = np.random.default_rng(100)
        train_single(net_a, ds, schedule, rng_a, eval_every=1000)

        # interrupted: 100 iterations, checkpoint, reload, 100 more
        net_b = build_backbone(spec, np.random.default_rng(3))
        rng_b = np.random.default_rng(100)
        half = TrainSchedule(step_size=80, max_iter=100, batch=8)
        train_single(net_b, ds, half, rng_b, eval_every=1000)
        save_checkpoint(net_b, tmp_path / "mid.ckpt", rng=rng_b, iteration=100)
        ckpt = load_checkpoint(tmp_path / "mid.ckpt")
        train_single(ckpt.network, ds, schedule, ckpt.rng,
                     start_iteration=ckpt.iteration, eval_every=1000)

        for (name, a), (_, b) in zip(net_a.state(), ckpt.network.state()):
            assert a.tobytes() == b.tobytes(), f"state diverged at {name}"


class TestAtomicWrite:
    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, fill_disk):
        path = tmp_path / "a.ckpt"
        save_checkpoint(small_net(0), path)
        before = path.read_bytes()
        fill_disk()
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(small_net(1), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["a.ckpt"]
        load_checkpoint(path)


def _records(path):
    """(name, dtype, shape, raw bytes) of every record of a checkpoint file."""
    return [(name, dt, shape, bytes(raw))
            for name, dt, shape, raw in _parse_records(path.read_bytes())]


def _repack(path, records):
    """Write records as a checkpoint with a valid CRC."""
    buf = bytearray(MAGIC + struct.pack("<I", VERSION))
    for record in records:
        buf += b"".join(_pack_record(*record))
    buf += struct.pack("<I", zlib.crc32(buf) & 0xFFFFFFFF)
    path.write_bytes(bytes(buf))
    return path


def _drop(name):
    return lambda records: [r for r in records if r[0] != name]


def _flatten(name):
    return lambda records: [(n, dt, (int(np.prod(shape)),) if n == name else shape, raw)
                            for n, dt, shape, raw in records]


def _meta(change):
    """Replace the metadata with change(metadata)."""
    def edit(records):
        (_, dt, shape, raw), *rest = records
        return [("__meta__", dt, shape, json.dumps(change(json.loads(raw))).encode()), *rest]
    return edit


def _set(**fields):
    return _meta(lambda meta: {**meta, **fields})


def _without(name):
    return _meta(lambda meta: {k: v for k, v in meta.items() if k != name})


def _spec(*branches, **fields):
    """Set fields of the single spec, or of the specs of the given branches."""
    def change(meta):
        if not branches:
            return {**meta, "spec": {**meta["spec"], **fields}}
        return {**meta, "branches": [{**b, **fields} if i in branches else b
                                     for i, b in enumerate(meta["branches"])]}
    return _meta(change)


def _rng(**fields):
    """A saved PCG64 state with `fields` replaced; `state` and `inc` sit in its
    inner "state" object."""
    state = np.random.default_rng(0).bit_generator.state
    inner = {k: fields.pop(k) for k in ("state", "inc") if k in fields}
    return _set(rng={**state, **fields, "state": {**state["state"], **inner}})


def _retag(name, dtype):
    return lambda records: [(n, dtype if n == name else dt, shape, raw)
                            for n, dt, shape, raw in records]


def _repeat(name):
    """Append a second copy of the `name` record."""
    return lambda records: [*records, *[r for r in records if r[0] == name]]


def _append(name):
    """Append a one-value float32 record `name`."""
    return lambda records: [*records, (name, "<f4", (1,), bytes(4))]


def _eval(tmp_path, checkpoint):
    """Exit code of `hsinet eval` on `checkpoint` under a valid minimal target
    config, so the config check passes and the checkpoint is what fails."""
    cfg = {"target": {"synth": {"classes": 3, "bands": 4, "height": 8, "width": 8}},
           "train_per_class": 2}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    return main(["eval", "--config", str(tmp_path / "c.json"), "--checkpoint", str(checkpoint)])


class TestMalformedRecords:
    @pytest.mark.parametrize("net,edit,message", [
        (small_cdn, _drop("branch1.c9.b"), "checkpoint missing tensor 'branch1.c9.b'"),
        (small_cdn, _drop("shared.res2.conv2.bn.running_var"),
         "checkpoint missing tensor 'shared.res2.conv2.bn.running_var'"),
        (small_net, _drop("c5x5.w.vel"), "checkpoint missing tensor 'c5x5.w.vel'"),
        (small_cdn, _flatten("shared.res1.conv1.w"),
         "tensor 'shared.res1.conv1.w' has shape (16,), expected (4, 4, 1, 1)"),
        (small_cdn, _set(kind="triple"), "unknown checkpoint kind 'triple'"),
        (small_net, _drop("__meta__"), "checkpoint has no metadata record"),
        (small_net, _meta(lambda meta: [meta]), "metadata record must hold a JSON object"),
        (small_net, _without("dtype"), "checkpoint metadata has no 'dtype'"),
        (small_cdn, _set(dtype=4), "checkpoint metadata 'dtype' is malformed"),
        (small_net, _set(dtype="<i4"), "checkpoint metadata 'dtype' is malformed"),
        (small_net, _without("spec"), "checkpoint metadata has no 'spec'"),
        (small_net, _set(spec=5), "checkpoint metadata 'spec' is malformed"),
        (small_net, _set(spec={**asdict(small_net().spec), "depth": 3}),
         "checkpoint metadata 'spec' is malformed"),
        (small_net, _set(spec={**asdict(small_net().spec), "patch": 4}),
         "checkpoint metadata 'spec' is malformed: patch must be odd"),
        (small_cdn, _without("branches"), "checkpoint metadata has no 'branches'"),
        (small_cdn, _set(branches={"bands": 4}), "checkpoint metadata 'branches' is malformed"),
        (small_cdn, _set(branches=[]), "checkpoint metadata 'branches' is malformed"),
        (small_cdn, _without("iteration"), "checkpoint metadata has no 'iteration'"),
        (small_net, _set(iteration="7"), "checkpoint metadata 'iteration' is malformed"),
        (small_net, _set(rng={"state": 1}), "checkpoint metadata 'rng' is malformed"),
        (small_net, _retag("c9.w", "<zz"), "tensor record 'c9.w' is malformed"),
        (small_cdn, _retag("__meta__", "<f4"),
         "metadata record has dtype tag '<f4', not 'json'"),
        (small_net, _set(dtype="<f2"),
         "tensor 'c1x1.w' has dtype <f4, but the checkpoint metadata says <f2"),
        (small_cdn, _set(dtype=">f4"),
         "tensor 'shared.res1.conv1.w' has dtype <f4, but the checkpoint metadata says >f4"),
        (small_net, _retag("c9.b", "<i4"),
         "tensor 'c9.b' has dtype <i4, but the checkpoint metadata says <f4"),
        (small_net, _set(rng={**np.random.default_rng(0).bit_generator.state, "uinteger": -5}),
         "checkpoint metadata 'rng' is malformed"),
        (small_net, _spec(filters=4.0),
         "checkpoint metadata 'spec' is malformed: spec 'filters' must be a JSON integer, "
         "got float"),
        (small_cdn, _spec(1, patch=5.0),
         "checkpoint metadata 'branches' is malformed: branches entry 1: spec 'patch' must be "
         "a JSON integer, got float"),
        (small_net, _spec(patch=True),
         "checkpoint metadata 'spec' is malformed: spec 'patch' must be a JSON integer, "
         "got bool"),
        (small_net, _spec(bands=0),
         "checkpoint metadata 'spec' is malformed: bands must be positive, got 0"),
        (small_net, _spec(classes=1),
         "checkpoint metadata 'spec' is malformed: need at least 2 classes, got 1"),
        (small_net, _rng(state=1.5), "checkpoint metadata 'rng' is malformed"),
        (small_net, _rng(inc=True), "checkpoint metadata 'rng' is malformed"),
        (small_net, _rng(has_uint32=2), "checkpoint metadata 'rng' is malformed"),
        (small_net, _rng(uinteger=1.0), "checkpoint metadata 'rng' is malformed"),
        (small_net, _rng(bit_generator="MT19937"), "checkpoint metadata 'rng' is malformed"),
        (small_net, _repeat("c9.b"), "checkpoint repeats the record 'c9.b'"),
        (small_cdn, _repeat("__meta__"), "checkpoint repeats the record '__meta__'"),
        (small_net, _append("c10.w"),
         "checkpoint holds tensor 'c10.w', which its single network does not have"),
        (small_cdn, _append("branch2.c9.b"),
         "checkpoint holds tensor 'branch2.c9.b', which its cross network does not have"),
    ], ids=["missing_branch", "missing_shared", "missing_single", "wrong_shape",
            "unknown_kind", "no_meta", "meta_not_object", "no_dtype", "dtype_not_string",
            "dtype_not_float", "no_spec", "spec_not_object", "unknown_spec_key",
            "spec_out_of_range", "no_branches", "branches_not_list", "no_branch",
            "no_iteration", "iteration_not_int", "bad_rng", "bad_tensor_dtype", "meta_not_json",
            "half_meta_dtype", "big_endian_meta_dtype", "record_dtype_not_meta_dtype",
            "rng_out_of_range", "float_filters", "float_patch", "bool_patch", "zero_bands",
            "one_class", "rng_float_state", "rng_bool_inc", "rng_has_uint32_2",
            "rng_float_uinteger", "rng_not_pcg64", "repeated_tensor", "repeated_meta",
            "unknown_single_tensor", "unknown_branch_tensor"])
    def test_rejected_naming_the_record_and_eval_exits_2(self, tmp_path, capsys, net, edit,
                                                         message):
        save_checkpoint(net(), tmp_path / "ok.ckpt")
        path = _repack(tmp_path / "bad.ckpt", edit(_records(tmp_path / "ok.ckpt")))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert message in str(exc.value)
        assert _eval(tmp_path, path) == 2
        assert message in capsys.readouterr().err

    def test_repeated_metadata_key_is_rejected_and_eval_exits_2(self, tmp_path, capsys):
        save_checkpoint(small_net(), tmp_path / "ok.ckpt")
        (_, dt, shape, raw), *rest = _records(tmp_path / "ok.ckpt")
        assert b'"iteration":' in raw
        raw = raw.replace(b'"iteration":', b'"iteration":3,"iteration":', 1)
        path = _repack(tmp_path / "bad.ckpt", [("__meta__", dt, shape, raw), *rest])
        message = "metadata record repeats the key 'iteration'"
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)
        assert _eval(tmp_path, path) == 2
        assert f"data error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("at,codec", [(2, "utf-8"), (2 + len("__meta__") + 1, "ascii")],
                             ids=["name", "dtype"])
    def test_undecodable_record_header_is_rejected_and_eval_exits_2(self, tmp_path, capsys, at,
                                                                    codec):
        """A name or dtype tag byte that does not decode, under a valid CRC,
        used to escape as UnicodeDecodeError."""
        save_checkpoint(small_net(), tmp_path / "ok.ckpt")
        data = bytearray((tmp_path / "ok.ckpt").read_bytes())
        start = len(MAGIC) + 4  # the metadata record
        data[start + at] ^= 0x80
        data[-4:] = struct.pack("<I", zlib.crc32(data[:-4]) & 0xFFFFFFFF)
        (tmp_path / "bad.ckpt").write_bytes(data)
        message = f"malformed record header at offset {start}: '{codec}' codec can't decode"
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(tmp_path / "bad.ckpt")
        assert _eval(tmp_path, tmp_path / "bad.ckpt") == 2
        assert f"data error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("net,edit,message", [
        (small_net, _spec(filters=10**7),
         "checkpoint metadata 'spec.filters' is 10000000, but tensor 'c1x1.w' has shape "
         "(4, 4, 1, 1)"),
        (small_net, _spec(bands=10**9),
         "checkpoint metadata 'spec.bands' is 1000000000, but tensor 'c1x1.w'"),
        (small_net, _spec(classes=10**6),
         "checkpoint metadata 'spec.classes' is 1000000, but tensor 'c9.w' has shape "
         "(3, 4, 1, 1)"),
        (small_net, _spec(residual_modules=10**6),
         "checkpoint metadata 'spec.residual_modules' is 1000000, but the checkpoint "
         "holds 2 residual modules"),
        (small_cdn, _spec(1, bands=10**9),
         "checkpoint metadata 'branches[1].bands' is 1000000000, but tensor "
         "'branch1.c1x1.w' has shape (4, 6, 1, 1)"),
        (small_cdn, _spec(0, 1, residual_modules=10**6),
         "checkpoint metadata 'branches[0].residual_modules' is 1000000"),
        (small_cdn, _flatten("branch0.c9.w"),
         "tensor 'branch0.c9.w' has shape (12,), expected (3, 4, 1, 1)"),
    ], ids=["filters", "bands", "classes", "residual_modules", "branch_bands",
            "branch_residual_modules", "flat_head"])
    def test_sizes_checked_against_the_records_before_allocating(
            self, tmp_path, capsys, monkeypatch, net, edit, message):
        """A spec that its records contradict is rejected naming the field,
        without building a network for it."""
        def refuse(spec, *args, **kwargs):
            raise AssertionError(f"network built for a contradicted spec {spec}")
        save_checkpoint(net(), tmp_path / "ok.ckpt")
        path = _repack(tmp_path / "bad.ckpt", edit(_records(tmp_path / "ok.ckpt")))
        monkeypatch.setattr(hsinet.checkpoint, "Network", refuse)
        monkeypatch.setattr(hsinet.checkpoint, "CrossDomainNetwork", refuse)
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert message in str(exc.value)
        assert _eval(tmp_path, path) == 2
        assert message in capsys.readouterr().err

    def test_unedited_records_repack_to_the_same_bytes(self, tmp_path):
        save_checkpoint(small_cdn(), tmp_path / "ok.ckpt")
        path = _repack(tmp_path / "same.ckpt", _records(tmp_path / "ok.ckpt"))
        assert path.read_bytes() == (tmp_path / "ok.ckpt").read_bytes()

    def test_saving_a_non_network_is_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot checkpoint object of type dict"):
            save_checkpoint({"c9.w": np.zeros(3)}, tmp_path / "x.ckpt")
        assert not (tmp_path / "x.ckpt").exists()


def _arange_filled(network, branches):
    """Overwrite every tensor with arange values, so the bytes depend on
    neither the RNG nor the BLAS build."""
    k = 0
    for branch in branches:
        for _, arr in branch.state():
            arr[...] = np.arange(arr.size).reshape(arr.shape) * 0.25 - k
            k += 1
    return network


class TestFormat:
    """The checkpoint bytes of two fixed networks; a change to the record
    names, their order, the metadata or the packing changes these digests."""

    def test_single_network_bytes(self, tmp_path):
        spec = NetworkSpec(bands=2, classes=2, patch=1, filters=2, residual_modules=2)
        net = build_backbone(spec, np.random.default_rng(0), dtype=np.float64)
        _arange_filled(net, [net])
        save_checkpoint(net, tmp_path / "a.ckpt", rng=np.random.default_rng(3), iteration=7)
        assert hashlib.sha256((tmp_path / "a.ckpt").read_bytes()).hexdigest() == SINGLE_SHA256

    def test_cross_network_bytes(self, tmp_path):
        spec = CrossDomainSpec([
            NetworkSpec(bands=2, classes=2, patch=3, filters=2, residual_modules=2),
            NetworkSpec(bands=3, classes=3, patch=3, filters=2, residual_modules=2),
        ])
        cdn = build_cross_domain(spec, np.random.default_rng(0))
        _arange_filled(cdn, cdn.branches)
        save_checkpoint(cdn, tmp_path / "c.ckpt", rng=np.random.default_rng(4), iteration=11)
        assert hashlib.sha256((tmp_path / "c.ckpt").read_bytes()).hexdigest() == CROSS_SHA256


SINGLE_SHA256 = "ba32b94a2aae4e08fa5b6cdb54235c56c8a1258c0af8901d38712307b93f28c6"
CROSS_SHA256 = "171816b88a73a3b55146e6e2eaca3fd11a329bc4263dfbd09611f49b2a2d36b8"
