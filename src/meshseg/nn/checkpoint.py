"""Versioned binary checkpoint container.

Byte layout:
  bytes 0-7   magic "MSEGCKPT"
  bytes 8-11  format version, uint32 little-endian
  bytes 12-19 JSON header length H, uint64 little-endian
  bytes 20..  UTF-8 JSON header (network config echo + tensor index with
              name, shape, byte offset into the payload)
  then        payload: the tensors, row-major float32, in index order

Running batch-norm statistics are stored alongside the trainable tensors
under "<bn>.running_mean/var" names.
"""

from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np

from .layers import BN_EPS, BN_MOMENTUM, BatchNorm
from .network import NetworkConfig, SegmentationNetwork

MAGIC = b"MSEGCKPT"
VERSION = 1


class CheckpointError(ValueError):
    pass


def _all_tensors(net: SegmentationNetwork):
    for name, p in net.parameters():
        yield name, p.value
    for name, bn in _batch_norms(net):
        yield f"{name}.running_mean", bn.running_mean
        yield f"{name}.running_var", bn.running_var


def _batch_norms(net: SegmentationNetwork):
    def walk(prefix, blocks):
        for b, blk in enumerate(blocks):
            for branch_name in ("geodesic", "euclidean"):
                branch = getattr(blk, branch_name, None)
                if branch is None:
                    continue
                for name, m in branch.named_modules():
                    if isinstance(m, BatchNorm):
                        yield f"{prefix}.{b}.{branch_name}.{name}", m

    for lvl, blocks in enumerate(net.encoder):
        yield from walk(f"encoder.{lvl}", blocks)
    for i, blocks in enumerate(net.decoder):
        yield from walk(f"decoder.{i}", blocks)
    yield "head.bn", net.head_bn


def save_checkpoint(net: SegmentationNetwork, path):
    tensors = list(_all_tensors(net))
    index = []
    offset = 0
    for name, value in tensors:
        index.append({"name": name, "shape": list(value.shape), "offset": offset})
        offset += value.size * 4
    header = {
        "config": dataclasses.asdict(net.config),
        "tensors": index,
        "payload_bytes": offset,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for _, value in tensors:
            f.write(np.ascontiguousarray(value, dtype="<f4").tobytes())


def load_checkpoint(path) -> SegmentationNetwork:
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != MAGIC:
        raise CheckpointError("bad magic, not a checkpoint file")
    if len(data) < 20:
        raise CheckpointError("truncated checkpoint: incomplete preamble")
    (version,) = struct.unpack_from("<I", data, 8)
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (hlen,) = struct.unpack_from("<Q", data, 12)
    if 20 + hlen > len(data):
        raise CheckpointError(
            f"truncated checkpoint: header of {hlen} bytes runs past the end of the file")
    try:
        header = json.loads(data[20:20 + hlen].decode("utf-8"))
        cfg = header["config"]
        cfg["geo_widths"] = tuple(tuple(w) for w in cfg["geo_widths"])
        cfg["euc_widths"] = tuple(tuple(w) for w in cfg["euc_widths"])
        entries = [(e["name"], tuple(e["shape"]), int(e["offset"])) for e in header["tensors"]]
        payload_bytes = int(header["payload_bytes"])
    except (KeyError, TypeError, ValueError) as e:  # ValueError covers bad JSON and UTF-8
        raise CheckpointError(f"malformed checkpoint header: {e}") from e
    payload = data[20 + hlen:]
    if len(payload) != payload_bytes:
        raise CheckpointError(
            f"payload is {len(payload)} bytes, the header says {payload_bytes}")

    # Older checkpoints echo the BatchNorm constants in their config.
    for key, value in (("bn_momentum", BN_MOMENTUM), ("bn_eps", BN_EPS)):
        stored = cfg.pop(key, value)
        if stored != value:
            raise CheckpointError(f"stored {key} {stored!r} differs from the fixed {value!r}")
    try:
        net = SegmentationNetwork(NetworkConfig(**cfg))
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"stored network config rejected: {e}") from e

    lookup = {name: value for name, value in _all_tensors(net)}
    missing = set(lookup)
    for name, shape, offset in entries:
        if name not in lookup:
            raise CheckpointError(f"unknown tensor {name!r} in checkpoint")
        target = lookup[name]
        missing.discard(name)
        if tuple(target.shape) != shape:
            raise CheckpointError(
                f"tensor {name!r} shape {shape} does not match config {target.shape}"
            )
        end = offset + 4 * target.size
        if offset < 0 or end > len(payload):
            raise CheckpointError(f"tensor {name!r} runs past the end of the payload")
        target[...] = np.frombuffer(payload, dtype="<f4", count=target.size,
                                    offset=offset).reshape(shape)
    if missing:
        raise CheckpointError(f"checkpoint lacks tensor {min(missing)!r}")
    return net
