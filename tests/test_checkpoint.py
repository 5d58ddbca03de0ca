import json
import struct

import numpy as np
import pytest

from meshseg.nn.checkpoint import (
    MAGIC,
    CheckpointError,
    _all_tensors,
    load_checkpoint,
    save_checkpoint,
)
from meshseg.nn.layers import BatchNorm, Param
from meshseg.nn.network import NetworkConfig, SegmentationNetwork

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
    # Tensors are stored as float32: the loaded network computes exactly as
    # the saved one does once its tensors are rounded to float32.
    for _, value in _all_tensors(net):
        value[...] = value.astype(np.float32)
    a = net.forward(features, geo, euc, traces, train=False)
    b = back.forward(features, geo, euc, traces, train=False)
    assert np.array_equal(a, b)


def _assert_loads_float32_rounding(back, net):
    """Every tensor of back is float64 and exactly its float32 rounding in net."""
    stored, loaded = _all_tensors(net), _all_tensors(back)
    for (name, a), (back_name, b) in zip(stored, loaded, strict=True):
        assert back_name == name and b.dtype == np.float64
        assert np.array_equal(b, a.astype(np.float32)), name


def test_round_trip_preserves_running_stats(tmp_path, rng):
    net, _ = trained_net(rng)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(net, path)
    back = load_checkpoint(path)
    bn, back_bn = net.head.modules[1], back.head.modules[1]
    assert not np.allclose(bn.running_mean, 0.0)
    assert np.array_equal(back_bn.running_mean, bn.running_mean.astype(np.float32))
    assert np.array_equal(back_bn.running_var, bn.running_var.astype(np.float32))


def test_parameters_stored_float32(tmp_path, rng):
    net, _ = trained_net(rng)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(net, path)
    _assert_loads_float32_rounding(load_checkpoint(path), net)


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


@pytest.mark.parametrize("version", [1, 2], ids=["v1", "v2"])
def test_old_version_is_refused(tmp_path, rng, version):
    net, _ = trained_net(rng)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(net, path)
    data = bytearray(path.read_bytes())
    data[8:12] = struct.pack("<I", version)
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match=f"version {version} .*train the network again"):
        load_checkpoint(path)


def _reachable(obj, kind, seen=None):
    """Every `kind` instance reachable from obj through meshseg objects'
    attributes and the lists, tuples and dicts they hold, by id."""
    seen = {} if seen is None else seen
    if isinstance(obj, kind):
        seen[id(obj)] = obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _reachable(item, kind, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            _reachable(item, kind, seen)
    elif type(obj).__module__.startswith("meshseg") and hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            _reachable(item, kind, seen)
    return seen


@pytest.mark.parametrize("config", [
    NetworkConfig.dual_default(),
    NetworkConfig.single_default("geo"),
    NetworkConfig.single_default("euc"),
], ids=["dual", "geo", "euc"])
def test_tensor_names_follow_the_module_walk(tmp_path, config):
    net = SegmentationNetwork(config)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(net, path)
    data = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", data, 12)
    stored = json.loads(data[20:20 + hlen])["tensors"]

    params = list(net.parameters())
    bns = [(name, m) for name, m in net.named_modules() if isinstance(m, BatchNorm)]
    expected = [name for name, _ in params]
    for name, _ in bns:
        expected += [f"{name}.running_mean", f"{name}.running_var"]
    assert stored == expected
    assert len(set(stored)) == len(stored)
    # Every Param and BatchNorm of the network is walked exactly once.
    ids = [id(p) for _, p in params]
    assert len(set(ids)) == len(ids)
    assert set(ids) == set(_reachable(net, Param))
    assert sorted(id(m) for _, m in bns) == sorted(_reachable(net, BatchNorm))


def _edit_header(data, mutate):
    (hlen,) = struct.unpack_from("<Q", data, 12)
    header = json.loads(data[20:20 + hlen])
    mutate(header)
    blob = json.dumps(header, sort_keys=True).encode()
    return data[:12] + struct.pack("<Q", len(blob)) + blob + data[20 + hlen:]


def _header_end(data):
    return 20 + struct.unpack_from("<Q", data, 12)[0]


def _payload_chunks(data):
    """The stored tensor names, and the payload's bytes cut per name at the
    sizes of the network its stored config builds."""
    header = json.loads(data[20:_header_end(data)])
    net = SegmentationNetwork(NetworkConfig(**header["config"]))
    sizes = {name: value.size for name, value in _all_tensors(net)}
    start, chunks = _header_end(data), []
    for name in header["tensors"]:
        chunks.append(data[start:start + 4 * sizes[name]])
        start += 4 * sizes[name]
    return header["tensors"], chunks


def _set_payload_value(data, name, value):
    """data with the first float of tensor `name` set to value."""
    names, chunks = _payload_chunks(data)
    start = _header_end(data) + sum(len(c) for c in chunks[:names.index(name)])
    return data[:start] + np.float32(value).astype("<f4").tobytes() + data[start + 4:]


@pytest.mark.parametrize("name, value, message", [
    ("encoder.0.0.geo.phi.0.weight", np.nan, "non-finite"),
    ("head.3.bias", np.inf, "non-finite"),
    ("head.1.running_mean", -np.inf, "non-finite"),
    ("encoder.0.0.euc.phi.4.running_var", np.nan, "non-finite"),
    ("head.1.running_var", -1e-3, "negative variance"),
], ids=["nan-weight", "inf-bias", "inf-running-mean", "nan-running-var", "negative-var"])
def test_bad_tensor_values_raise_naming_the_tensor(tmp_path, rng, name, value, message):
    net, _ = trained_net(rng)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(net, path)
    path.write_bytes(_set_payload_value(path.read_bytes(), name, value))
    with pytest.raises(CheckpointError, match=f"{name!r} holds .*{message}"):
        load_checkpoint(path)


def test_negative_values_outside_running_variances_load(tmp_path, rng):
    net, _ = trained_net(rng)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(net, path)
    data = path.read_bytes()
    for name in ("head.1.running_mean", "head.1.gamma", "head.3.weight"):
        data = _set_payload_value(data, name, -2.5)
    path.write_bytes(data)
    back = load_checkpoint(path)
    assert back.head.modules[1].running_mean[0] == -2.5
    assert back.head.modules[1].gamma.value[0] == -2.5
    assert back.head.modules[3].weight.value[0, 0] == -2.5


def test_tensors_load_in_any_stored_order(tmp_path, rng):
    net, _ = trained_net(rng)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(net, path)
    data = path.read_bytes()
    names, chunks = _payload_chunks(data)
    order = rng.permutation(len(names))
    assert (order != np.arange(len(names))).any()
    data = _edit_header(data, lambda h: h.update(tensors=[names[i] for i in order]))
    data = data[:_header_end(data)] + b"".join(chunks[i] for i in order)
    path.write_bytes(data)
    _assert_loads_float32_rounding(load_checkpoint(path), net)


NAMES_REFUSED = "stored tensor names are not those of the network its config builds"


@pytest.mark.parametrize("corrupt, message", [
    (lambda d: d[:16], "incomplete preamble"),
    (lambda d: d[:_header_end(d) - 5], "header of .* runs past the end"),
    (lambda d: d[:20] + b"#" + d[21:], "malformed checkpoint header"),
    (lambda d: d[:20] + b"\xff" + d[21:], "malformed checkpoint header"),
    (lambda d: _edit_header(d, lambda h: h.pop("tensors")), "malformed checkpoint header"),
    (lambda d: _edit_header(d, lambda h: h.update(tensors=[["head.3.bias"]] + h["tensors"][1:])),
     "malformed checkpoint header: 'tensors' is not a list of names"),
    (lambda d: _edit_header(d, lambda h: h["config"].update(num_levels=3)), "config rejected"),
    (lambda d: _edit_header(d, lambda h: h["config"].update(bogus=1)), "config rejected"),
    (lambda d: d[:-4], "payload is .* bytes, the network needs"),
    (lambda d: d + b"\x00", "payload is .* bytes, the network needs"),
    (lambda d: _edit_header(d, lambda h: h.update(tensors=["no.such"] + h["tensors"][1:])),
     NAMES_REFUSED),
    (lambda d: _edit_header(d, lambda h: h.update(tensors=h["tensors"][:3] + h["tensors"][4:])),
     NAMES_REFUSED),
    (lambda d: _edit_header(d, lambda h: h.update(tensors=h["tensors"][:4] + h["tensors"][3:])),
     NAMES_REFUSED),
    (lambda d: _edit_header(d, lambda h: h["config"].update(bn_momentum=0.2)), "bn_momentum"),
    (lambda d: _edit_header(d, lambda h: h["config"].update(bn_eps="1e-5")), "bn_eps"),
    (lambda d: _edit_header(d, lambda h: h["config"].update(geo_widths=[[0, 4]] * 2)),
     "config rejected: a .* width pair must be"),
    (lambda d: _edit_header(d, lambda h: h["config"].update(head_hidden=0)),
     "config rejected: head_hidden must be at least 1"),
], ids=["preamble", "header-past-end", "header-json", "header-utf8", "header-key",
        "header-names", "config-widths", "config-field", "payload-short", "payload-long",
        "tensor-renamed", "tensor-missing", "tensor-repeated", "config-bn-momentum",
        "config-bn-eps", "config-zero-width", "config-zero-head"])
def test_malformed_checkpoint_raises(tmp_path, rng, corrupt, message):
    net, _ = trained_net(rng)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(net, path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_magic_constant():
    assert MAGIC == b"MSEGCKPT"
