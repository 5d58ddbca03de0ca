"""Versioned binary checkpoint container.

Byte layout:
  bytes 0-7   magic "MSEGCKPT"
  bytes 8-11  format version, uint32 little-endian
  bytes 12-19 JSON header length H, uint64 little-endian
  bytes 20..  UTF-8 JSON header: "config", the network config, and
              "tensors", the tensor names in payload order
  then        payload: the tensors, row-major float32, in that order

The config fixes every tensor's name, size and shape, so the header stores
no shapes or offsets: the reader builds the network from the config and
slices each named tensor out of the payload at the network's size. Tensor
names come from the network's module walk: first every parameter under its
`net.parameters()` name, then each BatchNorm's running statistics under
"<bn>.running_mean/var". Versions 1 and 2 are refused, and so is a file
whose names are not the walk's names once each, whose payload is not 4
bytes per network value, or that holds a non-finite value or a negative
running variance.
"""

from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np

from .layers import BatchNorm
from .network import NetworkConfig, SegmentationNetwork

MAGIC = b"MSEGCKPT"
VERSION = 3


class CheckpointError(ValueError):
    pass


def _all_tensors(net: SegmentationNetwork):
    for name, p in net.parameters():
        yield name, p.value
    for name, m in net.named_modules():
        if isinstance(m, BatchNorm):
            yield f"{name}.running_mean", m.running_mean
            yield f"{name}.running_var", m.running_var


def save_checkpoint(net: SegmentationNetwork, path):
    tensors = list(_all_tensors(net))
    header = {"config": dataclasses.asdict(net.config), "tensors": [n for n, _ in tensors]}
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
        raise CheckpointError(
            f"unsupported checkpoint version {version} (this reader reads version "
            f"{VERSION}); train the network again with `meshseg train`")
    (hlen,) = struct.unpack_from("<Q", data, 12)
    if 20 + hlen > len(data):
        raise CheckpointError(
            f"truncated checkpoint: header of {hlen} bytes runs past the end of the file")
    try:
        header = json.loads(data[20:20 + hlen].decode("utf-8"))
        cfg, names = header["config"], header["tensors"]
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise TypeError("'tensors' is not a list of names")
    except (KeyError, TypeError, ValueError) as e:  # ValueError covers bad JSON and UTF-8
        raise CheckpointError(f"malformed checkpoint header: {e}") from e
    try:
        net = SegmentationNetwork(NetworkConfig(**cfg))
    except (TypeError, ValueError, MemoryError) as e:
        raise CheckpointError(f"stored network config rejected: {e}") from e

    tensors = dict(_all_tensors(net))
    if sorted(names) != sorted(tensors):
        raise CheckpointError(
            "stored tensor names are not those of the network its config builds")
    sizes = [tensors[name].size for name in names]
    payload = memoryview(data)[20 + hlen:]
    if len(payload) != 4 * sum(sizes):
        raise CheckpointError(
            f"payload is {len(payload)} bytes, the network needs {4 * sum(sizes)}")
    floats = np.frombuffer(payload, dtype="<f4")
    for name, values in zip(names, np.split(floats, np.cumsum(sizes)[:-1])):
        if not np.isfinite(values).all():
            raise CheckpointError(f"tensor {name!r} holds non-finite values")
        if name.endswith(".running_var") and (values < 0).any():
            raise CheckpointError(f"tensor {name!r} holds a negative variance")
        tensors[name][...] = values.reshape(tensors[name].shape)
    return net
