"""Binary checkpoint format: little-endian, magic + version, length-prefixed
(name, dtype, shape, raw data) records, CRC32 trailer.

The first record is a JSON metadata blob (spec echo, RNG state, iteration
counter, network kind). Round-trips are bit-exact, including momentum buffers
and batch-norm running statistics, so a resumed run reproduces an
uninterrupted one.
"""
from __future__ import annotations

import json
import re
import struct
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (CheckpointError, ConfigError, _at_least, _list, _object, _record, _valid,
                     read_file, read_json, write_atomic)
from .network import CrossDomainNetwork, CrossDomainSpec, Network, NetworkSpec

MAGIC = b"HSICKPT\x00"
VERSION = 1
_META_NAME = "__meta__"
_JSON_DTYPE = "json"


def _pack_record(name, dtype_str, shape, raw):
    """One record as its (header, payload) parts; `raw` is bytes-like."""
    name_b = name.encode("utf-8")
    dt_b = dtype_str.encode("ascii")
    header = struct.pack(f"<H{len(name_b)}sB{len(dt_b)}sB{len(shape)}IQ", len(name_b), name_b,
                         len(dt_b), dt_b, len(shape), *shape, memoryview(raw).nbytes)
    return header, raw


def _pack_tensor(name, arr):
    """The record parts of an array: its payload is the little-endian array
    itself, which the file is joined from without a copy of its own."""
    a = np.ascontiguousarray(arr)
    dt = a.dtype.newbyteorder("<")
    return _pack_record(name, dt.str, a.shape, a.astype(dt, copy=False))


# a saved PCG64 state; numpy would truncate a float in it and take a bool as an integer
_PCG64 = _object({"bit_generator": _valid("str", "PCG64".__eq__, "'PCG64'"),
                  "state": _object({"state": "int", "inc": "int"}, ("state", "inc")),
                  "has_uint32": _valid("int", (0, 1).__contains__, "0 or 1"),
                  "uinteger": "int"}, ("bit_generator", "state", "has_uint32", "uinteger"))
_SPEC = _record(NetworkSpec, "spec")
_FLOAT_DTYPE = _valid("str", lambda name: np.dtype(name).kind == "f", "a floating-point dtype")


def _restore_rng(state, where):
    """A generator at a saved PCG64 state."""
    rng = np.random.default_rng(0)
    rng.bit_generator.state = _PCG64(state, where)
    return rng


@dataclass
class Checkpoint:
    """A loaded checkpoint: the rebuilt network plus resume context."""

    network: object
    rng: object
    iteration: int
    kind: str


def save_checkpoint(network, path, rng=None, iteration=0):
    """Serialize a Network or CrossDomainNetwork: the metadata record, then one
    record per (name, array) of network.state()."""
    if isinstance(network, CrossDomainNetwork):
        meta = {"kind": "cross", **asdict(network.spec)}
    elif isinstance(network, Network):
        meta = {"kind": "single", "spec": asdict(network.spec)}
    else:
        raise CheckpointError(f"cannot checkpoint object of type {type(network).__name__}")
    meta.update(dtype=np.dtype(network.dtype).newbyteorder("<").str, iteration=iteration,
                rng=None if rng is None else rng.bit_generator.state)
    parts = [MAGIC, struct.pack("<I", VERSION),
             *_pack_record(_META_NAME, _JSON_DTYPE, (),
                           json.dumps(meta, sort_keys=True, separators=(",", ":")).encode())]
    for name, arr in network.state():
        parts += _pack_tensor(name, arr)
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(struct.pack("<I", crc & 0xFFFFFFFF))
    write_atomic(path, b"".join(parts))


def _parse_records(data):
    """Yield (name, dtype_str, shape, raw) until the CRC trailer."""
    view = memoryview(data)  # record payloads are views, not copies
    off = len(MAGIC) + 4
    end = len(data) - 4
    while off < end:
        start = off
        try:
            (name_len,) = struct.unpack_from("<H", data, off)
            off += 2
            name = data[off:off + name_len].decode("utf-8")
            off += name_len
            (dt_len,) = struct.unpack_from("<B", data, off)
            off += 1
            dtype_str = data[off:off + dt_len].decode("ascii")
            off += dt_len
            (ndim,) = struct.unpack_from("<B", data, off)
            off += 1
            shape = struct.unpack_from(f"<{ndim}I", data, off) if ndim else ()
            off += 4 * ndim
            (nbytes,) = struct.unpack_from("<Q", data, off)
            off += 8
        except (struct.error, UnicodeDecodeError) as e:  # cut short, or a tag not text
            raise CheckpointError(f"malformed record header at offset {start}: {e}") from e
        if off + nbytes > end:
            raise CheckpointError(
                f"truncated record '{name}' at offset {start}: needs {nbytes} data bytes"
            )
        yield name, dtype_str, shape, view[off:off + nbytes]
        off += nbytes


def load_checkpoint(path):
    """Rebuild the network (and RNG/iteration) from a checkpoint file."""
    data = read_file(path, "checkpoint", CheckpointError)
    if len(data) < len(MAGIC) + 8:
        raise CheckpointError(f"file too short ({len(data)} bytes) to be a checkpoint")
    if data[:len(MAGIC)] != MAGIC:
        raise CheckpointError("bad magic bytes: not a checkpoint file")
    (version,) = struct.unpack_from("<I", data, len(MAGIC))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version} (expected {VERSION})")
    (crc_stored,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(memoryview(data)[:-4]) & 0xFFFFFFFF != crc_stored:
        raise CheckpointError("CRC mismatch: checkpoint is corrupt or truncated")

    records = {}
    for name, dtype_str, shape, raw in _parse_records(data):
        if name in records:
            raise CheckpointError(f"checkpoint repeats the record '{name}'")
        if name == _META_NAME:
            if dtype_str != _JSON_DTYPE:
                raise CheckpointError(f"metadata record has dtype tag '{dtype_str}', "
                                      f"not '{_JSON_DTYPE}'")
            records[name] = raw
        else:
            try:
                records[name] = np.frombuffer(raw, dtype=np.dtype(dtype_str)).reshape(shape)
            except (TypeError, ValueError) as e:
                raise CheckpointError(f"tensor record '{name}' is malformed: {e}") from None
    meta = records.pop(_META_NAME, None)
    if meta is None:
        raise CheckpointError("checkpoint has no metadata record")
    kind, network, iteration, rng = _parse_meta(meta, records)
    state = dict(network.state())
    unknown = sorted(records.keys() - state.keys())
    if unknown:
        raise CheckpointError(f"checkpoint holds tensor '{unknown[0]}', which its {kind} "
                              f"network does not have")
    for name, arr in state.items():
        src = _tensor(records, name)
        if src.shape != arr.shape:
            raise CheckpointError(
                f"tensor '{name}' has shape {src.shape}, expected {arr.shape}"
            )
        if src.dtype != arr.dtype:
            raise CheckpointError(
                f"tensor '{name}' has dtype {src.dtype.str}, but the checkpoint metadata "
                f"says {arr.dtype.str}"
            )
        arr[...] = src

    return Checkpoint(network=network, rng=rng, iteration=iteration, kind=kind)


def _tensor(records, name):
    if name not in records:
        raise CheckpointError(f"checkpoint missing tensor '{name}'")
    return records[name]


def _parse_meta(raw, records):
    """(kind, the network its tensors fill, iteration, rng) from the metadata
    record, or a CheckpointError naming the field that is missing or malformed
    or that disagrees with the tensor records."""
    meta = read_json(bytes(raw), "metadata record", CheckpointError)
    kind = meta.get("kind")
    if kind not in ("single", "cross"):
        raise CheckpointError(f"unknown checkpoint kind '{kind}'")

    def field(name, parse):
        if name not in meta:
            raise CheckpointError(f"checkpoint metadata has no '{name}'")
        try:
            return parse(meta[name], name)
        except (TypeError, ValueError, OverflowError, ConfigError) as e:
            raise CheckpointError(f"checkpoint metadata '{name}' is malformed: {e}") from None

    dtype = np.dtype(field("dtype", _FLOAT_DTYPE))
    # every size the network allocates is checked against the records first
    if kind == "single":
        network = field("spec", lambda d, where: Network(_sized(_SPEC(d, where), records),
                                                         dtype=dtype))
    else:
        network = field("branches", lambda b, where: CrossDomainNetwork(
            _sized(CrossDomainSpec(_list(_SPEC)(b, where)), records), dtype))
    rng = None if meta.get("rng") is None else field("rng", _restore_rng)
    return kind, network, field("iteration", _at_least(0)), rng


def _sized(spec, records):
    """A NetworkSpec or CrossDomainSpec, once the sizes of each branch agree
    with its records: c1x1.w is (filters, bands, 1, 1), c9.w is (classes,
    filters, 1, 1), and residual_modules counts the res<i>.conv1.w records."""
    single = isinstance(spec, NetworkSpec)
    shared = "" if single else r"shared\."
    modules = sum(1 for name in records if re.fullmatch(rf"{shared}res\d+\.conv1\.w", name))
    for i, sp in enumerate([spec] if single else spec.branches):
        where, prefix = ("spec", "") if single else (f"branches[{i}]", f"branch{i}.")
        for name, attrs in ((f"{prefix}c1x1.w", ("filters", "bands")),
                            (f"{prefix}c9.w", ("classes", "filters"))):
            shape = _tensor(records, name).shape
            if len(shape) != 4 or shape[2:] != (1, 1):
                want = tuple(getattr(sp, a) for a in attrs) + (1, 1)
                raise CheckpointError(f"tensor '{name}' has shape {shape}, expected {want}")
            for attr, size in zip(attrs, shape):
                if getattr(sp, attr) != size:
                    raise CheckpointError(f"checkpoint metadata '{where}.{attr}' is "
                                          f"{getattr(sp, attr)}, but tensor '{name}' has "
                                          f"shape {shape}")
        if sp.residual_modules != modules:
            raise CheckpointError(
                f"checkpoint metadata '{where}.residual_modules' is {sp.residual_modules}, "
                f"but the checkpoint holds {modules} residual modules"
            )
    return spec
