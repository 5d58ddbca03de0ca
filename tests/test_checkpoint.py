import json
import struct

import numpy as np
import pytest

from meshseg.nn.checkpoint import (
    MAGIC,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from meshseg.nn.network import SegmentationNetwork

from test_network import small_config, small_instance


def trained_net(rng):
    """Small network with non-default running stats and parameters."""
    net = SegmentationNetwork(small_config())
    features, geo, euc, traces = small_instance(rng)
    for _ in range(3):
        net.forward(features, geo, euc, traces, train=True)
    return net, (features, geo, euc, traces)


def test_round_trip_preserves_outputs(tmp_path, rng):
    net, (features, geo, euc, traces) = trained_net(rng)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(net, path)
    back = load_checkpoint(path)
    assert back.config == net.config
    a = net.forward(features, geo, euc, traces, train=False)
    b = back.forward(features, geo, euc, traces, train=False)
    # Weights are stored as float32, so eval outputs agree to that precision.
    assert np.allclose(a, b, atol=1e-4)


def test_round_trip_preserves_running_stats(tmp_path, rng):
    net, _ = trained_net(rng)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(net, path)
    back = load_checkpoint(path)
    assert not np.allclose(net.head_bn.running_mean, 0.0)
    assert np.allclose(back.head_bn.running_mean, net.head_bn.running_mean, atol=1e-6)
    assert np.allclose(back.head_bn.running_var, net.head_bn.running_var, atol=1e-6)


def test_parameters_stored_float32(tmp_path, rng):
    net, _ = trained_net(rng)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(net, path)
    back = load_checkpoint(path)
    for (_, pa), (_, pb) in zip(net.parameters(), back.parameters()):
        assert pb.value.dtype == np.float64
        assert np.allclose(pb.value, pa.value.astype(np.float32), atol=0)


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_unsupported_version(tmp_path, rng):
    net, _ = trained_net(rng)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(net, path)
    data = bytearray(path.read_bytes())
    data[8:12] = struct.pack("<I", 99)
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(path)


def _edit_header(data, mutate):
    (hlen,) = struct.unpack_from("<Q", data, 12)
    header = json.loads(data[20:20 + hlen])
    mutate(header)
    blob = json.dumps(header, sort_keys=True).encode()
    return data[:12] + struct.pack("<Q", len(blob)) + blob + data[20 + hlen:]


def _rewrite_header(path, mutate):
    path.write_bytes(_edit_header(path.read_bytes(), mutate))


def test_unknown_tensor_name(tmp_path, rng):
    net, _ = trained_net(rng)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(net, path)
    _rewrite_header(path, lambda h: h["tensors"][0].update(name="nonexistent.weight"))
    with pytest.raises(CheckpointError, match="unknown tensor"):
        load_checkpoint(path)


def test_shape_mismatch(tmp_path, rng):
    net, _ = trained_net(rng)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(net, path)
    _rewrite_header(path, lambda h: h["tensors"][0].update(shape=[1, 1]))
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(path)


def _header_end(data):
    return 20 + struct.unpack_from("<Q", data, 12)[0]


def _last_tensor_past_payload(header):
    header["tensors"][-1]["offset"] = header["payload_bytes"] - 2


@pytest.mark.parametrize("corrupt, message", [
    (lambda d: d[:16], "incomplete preamble"),
    (lambda d: d[:_header_end(d) - 5], "header of .* runs past the end"),
    (lambda d: d[:20] + b"#" + d[21:], "malformed checkpoint header"),
    (lambda d: d[:20] + b"\xff" + d[21:], "malformed checkpoint header"),
    (lambda d: _edit_header(d, lambda h: h.pop("payload_bytes")), "malformed checkpoint header"),
    (lambda d: _edit_header(d, lambda h: h["config"].update(num_levels=3)), "config rejected"),
    (lambda d: _edit_header(d, lambda h: h["config"].update(bogus=1)), "config rejected"),
    (lambda d: d[:-4], "header says"),
    (lambda d: d + b"\x00", "header says"),
    (lambda d: _edit_header(d, _last_tensor_past_payload), "runs past the end of the payload"),
    (lambda d: _edit_header(d, lambda h: h["tensors"].pop(3)), "lacks tensor"),
    (lambda d: _edit_header(d, lambda h: h["config"].update(bn_momentum=0.2)), "bn_momentum"),
    (lambda d: _edit_header(d, lambda h: h["config"].update(bn_eps="1e-5")), "bn_eps"),
], ids=["preamble", "header-past-end", "header-json", "header-utf8", "header-key",
        "config-widths", "config-field", "payload-short", "payload-long", "tensor-past-end",
        "tensor-missing", "config-bn-momentum", "config-bn-eps"])
def test_malformed_checkpoint_raises(tmp_path, rng, corrupt, message):
    net, _ = trained_net(rng)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(net, path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_header_with_batch_norm_constants_loads(tmp_path, rng):
    # Checkpoints written while the network config carried the BatchNorm
    # constants still load.
    net, (features, geo, euc, traces) = trained_net(rng)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(net, path)
    _rewrite_header(path, lambda h: h["config"].update(bn_momentum=0.1, bn_eps=1e-5))
    back = load_checkpoint(path)
    assert back.config == net.config
    assert np.allclose(back.forward(features, geo, euc, traces, train=False),
                       net.forward(features, geo, euc, traces, train=False), atol=1e-4)


def test_magic_constant():
    assert MAGIC == b"MSEGCKPT"
