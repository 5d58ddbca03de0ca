"""PLY (ascii / binary little-endian) and OFF (ascii) mesh readers/writers.

Vertex layout: x y z [red green blue] [nx ny nz] [label]. Byte color
channels are mapped to [0, 1] by /255. Binary PLY is written with double
precision so that save -> load round trips are bit exact. Labels round trip
exactly as well: the binary writer refuses a label outside the int32 its
header declares, and the ASCII reader parses every integer-typed column as
int64. Both encodings are read by one walk over the header's elements, with
the same checks.
"""

from __future__ import annotations

import os
from itertools import chain

import numpy as np

from .core import Mesh, MeshValidationError, check_mesh


class MeshParseError(ValueError):
    """Raised on malformed PLY/OFF input; message carries the offset."""


_PLY_DTYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}

# One triangle per row, as the ASCII PLY and OFF writers print it.
_FACE_ROW = "3 %d %d %d"


def _ascii_rows(row: str, values: np.ndarray) -> str:
    """Each row of a 2-D array, or each record of a record array, printed
    with the format `row` and a newline: the text np.savetxt writes, but
    formatted once for the whole block instead of once per row."""
    if values.dtype.names is None:
        flat = values.ravel().tolist()
    else:
        flat = list(chain.from_iterable(values.tolist()))
    return (row + "\n") * len(values) % tuple(flat)


def load_mesh(path) -> Mesh:
    """Load and validate a mesh; the format follows the file extension."""
    fmt = os.path.splitext(str(path))[1].lstrip(".").lower()
    loader = {"ply": _load_ply, "off": _load_off}.get(fmt)
    if loader is None:
        raise MeshParseError(f"{path}: unsupported mesh format {fmt!r}")
    try:
        mesh = loader(path)
    except MeshParseError:
        raise
    except (ValueError, OverflowError) as e:
        # A non-numeric token, non-ASCII (UnicodeDecodeError), or an integer
        # token beyond int64.
        raise MeshParseError(f"{path}: {e}") from e
    return check_mesh(mesh)


def save_mesh(mesh: Mesh, path, binary: bool = True):
    """Write a mesh in the format its file extension names."""
    fmt = os.path.splitext(str(path))[1].lstrip(".").lower()
    if fmt == "ply":
        _save_ply(mesh, path, binary=binary)
    elif fmt == "off":
        _save_off(mesh, path)
    else:
        raise MeshParseError(f"{path}: unsupported mesh format {fmt!r}")


# ---------------------------------------------------------------- OFF

def _load_off(path) -> Mesh:
    with open(path, "r") as f:
        lines = [ln.strip() for ln in f]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != "OFF":
        raise MeshParseError(f"{path}: line 1: missing OFF header")
    try:
        nv, nf, _ = (int(t) for t in lines[1].split())
    except (ValueError, IndexError):
        raise MeshParseError(f"{path}: line 2: malformed count line")
    body = lines[2:]
    if len(body) < nv + nf:
        raise MeshParseError(f"{path}: truncated file, expected {nv + nf} body lines")
    positions = np.empty((nv, 3))
    for i in range(nv):
        parts = body[i].split()
        if len(parts) < 3:
            raise MeshParseError(f"{path}: vertex line {i}: expected 3 coordinates")
        positions[i] = [float(p) for p in parts[:3]]
    faces = np.empty((nf, 3), dtype=np.int64)
    for i in range(nf):
        parts = body[nv + i].split()
        if len(parts) < 4 or int(parts[0]) != 3:
            raise MeshParseError(f"{path}: face line {i}: only triangles supported")
        faces[i] = [int(p) for p in parts[1:4]]
    return Mesh(positions=positions, faces=faces)


def _save_off(mesh: Mesh, path):
    with open(path, "w") as f:
        f.write(f"OFF\n{mesh.num_vertices} {mesh.num_faces} 0\n")
        f.write(_ascii_rows("%.9g %.9g %.9g", mesh.positions))
        f.write(_ascii_rows(_FACE_ROW, mesh.faces))


# ---------------------------------------------------------------- PLY

def _load_ply(path) -> Mesh:
    with open(path, "rb") as f:
        data = f.read()

    end_header = data.find(b"end_header")
    if end_header < 0:
        raise MeshParseError(f"{path}: missing end_header")
    header = data[:end_header].decode("ascii", errors="replace").splitlines()
    body_offset = data.find(b"\n", end_header) + 1

    if not header or header[0].strip() != "ply":
        raise MeshParseError(f"{path}: byte 0: missing ply magic")

    fmt = None
    elements = []  # (name, count, [(prop_name, dtype) or ('face_list', idx_dtype)])
    for lineno, raw in enumerate(header[1:], start=2):
        parts = raw.split()
        if not parts or parts[0] == "comment":
            continue
        if parts[0] == "format":
            fmt = parts[1]
            if fmt not in ("ascii", "binary_little_endian"):
                raise MeshParseError(
                    f"{path}: line {lineno}: unsupported format {fmt!r}"
                )
        elif parts[0] == "element":
            try:
                elements.append((parts[1], int(parts[2]), []))
            except (ValueError, IndexError):
                raise MeshParseError(f"{path}: line {lineno}: malformed element line")
            if elements[-1][1] < 0:
                raise MeshParseError(f"{path}: line {lineno}: negative element count")
        elif parts[0] == "property":
            if not elements:
                raise MeshParseError(f"{path}: line {lineno}: property before element")
            props = elements[-1][2]
            try:
                if parts[1] == "list":
                    props.append(("__list__", (_PLY_DTYPES[parts[2]], _PLY_DTYPES[parts[3]])))
                else:
                    props.append((parts[2], _PLY_DTYPES[parts[1]]))
            except (KeyError, IndexError):
                raise MeshParseError(f"{path}: line {lineno}: malformed property line")
    if fmt is None:
        raise MeshParseError(f"{path}: missing format line")
    if any(p == "__list__" for name, _, props in elements if name == "vertex" for p, _ in props):
        raise MeshParseError(f"{path}: list property in the vertex element")
    # Rows of an unknown element are skipped by their size, which a list
    # property does not have (a damaged "element face" line ends up here).
    for name, _, props in elements:
        if name not in ("vertex", "face") and any(p == "__list__" for p, _ in props):
            raise MeshParseError(f"{path}: list property in unknown element {name!r}")
    vertex = [dict(props) for name, _, props in elements if name == "vertex"]
    if not vertex:
        raise MeshParseError(f"{path}: no vertex element")
    declared = vertex[-1]
    if not {"x", "y", "z"} <= declared.keys():
        raise MeshParseError(f"{path}: vertex element lacks x/y/z")

    # One walk over the elements for both encodings: `body` is the bytes of
    # the file or its ASCII tokens, and `at` an offset into it.
    binary = fmt == "binary_little_endian"
    body = data if binary else data[body_offset:].decode("ascii").split()
    at = body_offset if binary else 0

    def where(i, skip=0):
        """The location of row i of the current element in a message."""
        return f"byte {at + i * row + skip}: " if binary else ""

    records = {}
    for name, count, props in elements:
        if name == "face":
            if len(props) != 1 or props[0][0] != "__list__":
                raise MeshParseError(f"{path}: unsupported face properties")
            # Every face before the first non-triangle is a record of its
            # count and three indices, so that face is found at its true index.
            fields = [("n", props[0][1][0], ()), ("idx", props[0][1][1], (3,))]
        else:
            # Fields of a skipped element go unnamed, so names may repeat.
            fields = [(p if name == "vertex" else "", d, ()) for p, d in props]
        if binary:
            dtype = np.dtype([(p, "<" + d, shape) for p, d, shape in fields])
            row = dtype.itemsize
        else:
            # One 8-byte field per token, int64 for an integer type.
            dtype = np.dtype([(p, "i8" if d[0] in "iu" else "f8", shape)
                              for p, d, shape in fields])
            row = dtype.itemsize // 8
        if name not in ("vertex", "face"):
            at += row * count
            continue
        # A skipped element may have moved `at` past the end of the body.
        complete = min(count, max(0, len(body) - at) // row)
        if binary:
            rec = np.frombuffer(body, dtype=dtype, count=complete, offset=min(at, len(body)))
        else:
            rec = _ascii_records(body[at:at + complete * row], dtype)
        bad = np.flatnonzero(rec["n"] != 3) if name == "face" else []
        if len(bad):
            raise MeshParseError(f"{path}: {where(bad[0], dtype['n'].itemsize)}"
                                 f"face {bad[0]}: only triangles supported")
        if complete < count:
            raise MeshParseError(f"{path}: {where(complete)}truncated {name} data")
        records[name] = rec
        at += row * count

    vertices = records["vertex"]

    def take(keys):
        if all(k in declared for k in keys):
            return np.stack([vertices[k] for k in keys], axis=1, dtype=np.float64)
        return None

    positions = take(["x", "y", "z"])
    colors = take(["red", "green", "blue"])
    if colors is not None and declared["red"] in ("u1", "i1"):
        colors = colors / 255.0
    normals = take(["nx", "ny", "nz"])
    labels = vertices["label"].astype(np.int64) if "label" in declared else None
    faces = (records["face"]["idx"].astype(np.int64) if "face" in records
             else np.empty((0, 3), dtype=np.int64))
    return Mesh(positions=positions, faces=faces, colors=colors,
                normals=normals, labels=labels)


def _ascii_records(tokens, dtype) -> np.ndarray:
    """Records of `dtype`, whose fields hold int64 or float64 values, from
    its ASCII tokens. The block parses once, as int64 when every value is an
    integer and as float64 otherwise. float64 holds integers exactly only up
    to 2^53, so each integer column of a float block parses again, as int64.
    """
    kinds = "".join(dtype[n].base.kind * (dtype[n].itemsize // 8) for n in dtype.names)
    if set(kinds) == {"i"}:
        return np.array(tokens, dtype=np.int64).view(dtype)
    block = np.array(tokens, dtype=np.float64)
    for k in (k for k, kind in enumerate(kinds) if kind == "i"):
        block.view(np.int64)[k::len(kinds)] = np.array(tokens[k::len(kinds)], dtype=np.int64)
    return block.view(dtype)


def _save_ply(mesh: Mesh, path, binary: bool = True):
    if binary and mesh.labels is not None:
        # The header declares int labels; a wider value would wrap silently.
        limits = np.iinfo(np.int32)
        bad = np.flatnonzero((mesh.labels < limits.min) | (mesh.labels > limits.max))
        if bad.size:
            raise MeshValidationError(
                f"{path}: label {mesh.labels[bad[0]]} at vertex {bad[0]} does not fit the "
                f"int32 of binary PLY ({bad.size} such label{'s' if bad.size > 1 else ''})")
    names = ["x", "y", "z"]
    columns = [mesh.positions]
    if mesh.colors is not None:
        names += ["red", "green", "blue"]
        columns.append(mesh.colors)
    if mesh.normals is not None:
        names += ["nx", "ny", "nz"]
        columns.append(mesh.normals)

    header = ["ply"]
    header.append("format binary_little_endian 1.0" if binary else "format ascii 1.0")
    header.append(f"element vertex {mesh.num_vertices}")
    header += [f"property double {name}" for name in names]
    dtype = [(name, "<f8") for name in names]
    if mesh.labels is not None:
        header.append("property int label")
        # Binary rows hold the int32 the header declares; ASCII rows print
        # the labels as they are.
        dtype.append(("label", "<i4" if binary else "<i8"))
    header.append(f"element face {mesh.num_faces}")
    header.append("property list uchar int vertex_indices")
    header.append("end_header")

    rec = np.empty(mesh.num_vertices, dtype=dtype)
    col = np.concatenate(columns, axis=1)
    for k, name in enumerate(names):
        rec[name] = col[:, k]
    if mesh.labels is not None:
        rec["label"] = mesh.labels

    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode("ascii"))
        if binary:
            f.write(rec.tobytes())
            face_rec = np.empty(
                mesh.num_faces, dtype=[("n", "u1"), ("idx", "<i4", (3,))]
            )
            face_rec["n"] = 3
            face_rec["idx"] = mesh.faces.astype(np.int32)
            f.write(face_rec.tobytes())
        else:
            row = " ".join(["%.17g"] * len(names) + ["%d"] * (mesh.labels is not None))
            f.write(_ascii_rows(row, rec).encode("ascii"))
            f.write(_ascii_rows(_FACE_ROW, mesh.faces).encode("ascii"))
