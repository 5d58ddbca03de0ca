"""PLY (ascii / binary little-endian) and OFF (ascii) mesh readers/writers.

Vertex layout: x y z [red green blue] [nx ny nz] [label]. Byte color
channels are mapped to [0, 1] by /255. Binary PLY is written with double
precision so that save -> load round trips are bit exact.
"""

from __future__ import annotations

import os

import numpy as np

from .core import Mesh, check_mesh


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
    except ValueError as e:  # a non-numeric token, or non-ASCII (UnicodeDecodeError)
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
        np.savetxt(f, mesh.positions, fmt="%.9g")
        np.savetxt(f, mesh.faces, fmt=_FACE_ROW)


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

    parsed = {}
    if fmt == "ascii":
        tokens = data[body_offset:].decode("ascii").split()
        needed = sum(
            count * (4 if name == "face" else len(props))
            for name, count, props in elements
        )
        if len(tokens) < needed:
            raise MeshParseError(
                f"{path}: truncated body, expected {needed} values, got {len(tokens)}"
            )
        pos = 0
        for name, count, props in elements:
            if name == "vertex":
                end = pos + count * len(props)
                cols = np.array(tokens[pos:end], dtype=np.float64).reshape(count, len(props))
                parsed["vertex"] = (cols, props)
                pos = end
            elif name == "face":
                # As in the binary reader, every face before the first
                # non-triangle has 4 tokens, so that face has its true index.
                rows = np.array(tokens[pos:pos + 4 * count], dtype=np.int64).reshape(count, 4)
                bad = np.flatnonzero(rows[:, 0] != 3)
                if bad.size:
                    raise MeshParseError(f"{path}: face {bad[0]}: only triangles supported")
                parsed["face"] = rows[:, 1:].copy()
                pos += 4 * count
            else:
                pos += count * max(1, len(props))
    else:
        offset = body_offset
        for name, count, props in elements:
            if name == "vertex":
                dtype = np.dtype([(p, "<" + d) for p, d in props])
                if len(data) - offset < dtype.itemsize * count:
                    raise MeshParseError(
                        f"{path}: byte {offset}: truncated vertex data"
                    )
                arr = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
                offset += dtype.itemsize * count
                cols = np.stack(
                    [arr[p].astype(np.float64) for p, _ in props], axis=1
                )
                parsed["vertex"] = (cols, props)
            elif name == "face":
                if len(props) != 1 or props[0][0] != "__list__":
                    raise MeshParseError(f"{path}: unsupported face properties")
                cnt_dt, idx_dt = props[0][1]
                dtype = np.dtype([("n", "<" + cnt_dt), ("idx", "<" + idx_dt, (3,))])
                # Every face before the first non-triangle has this fixed
                # stride, so that face is found at its true index. A skipped
                # element may have moved offset past the end of the data.
                complete = min(count, max(0, len(data) - offset) // dtype.itemsize)
                rec = np.frombuffer(
                    data, dtype=dtype, count=complete, offset=min(offset, len(data))
                )
                bad = np.flatnonzero(rec["n"] != 3)
                if bad.size:
                    i = int(bad[0])
                    raise MeshParseError(
                        f"{path}: byte {offset + i * dtype.itemsize + dtype['n'].itemsize}: "
                        f"face {i}: only triangles supported"
                    )
                if complete < count:
                    raise MeshParseError(
                        f"{path}: byte {offset + complete * dtype.itemsize}: truncated face data"
                    )
                offset += dtype.itemsize * count
                parsed["face"] = rec["idx"].astype(np.int64)
            else:
                row = sum(np.dtype(d).itemsize for _, d in props)
                offset += row * count

    if "vertex" not in parsed:
        raise MeshParseError(f"{path}: no vertex element")
    cols, props = parsed["vertex"]
    names = [p for p, _ in props]
    dtypes = dict(props)

    def take(keys):
        if all(k in names for k in keys):
            return cols[:, [names.index(k) for k in keys]]
        return None

    positions = take(["x", "y", "z"])
    if positions is None:
        raise MeshParseError(f"{path}: vertex element lacks x/y/z")
    colors = take(["red", "green", "blue"])
    if colors is not None and dtypes["red"] in ("u1", "i1"):
        colors = colors / 255.0
    normals = take(["nx", "ny", "nz"])
    labels = None
    if "label" in names:
        labels = cols[:, names.index("label")].astype(np.int64)
    faces = parsed.get("face", np.empty((0, 3), dtype=np.int64))
    return Mesh(positions=positions, faces=faces, colors=colors,
                normals=normals, labels=labels)


def _save_ply(mesh: Mesh, path, binary: bool = True):
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
            np.savetxt(f, rec, fmt=["%.17g"] * len(names) + ["%d"] * (mesh.labels is not None))
            np.savetxt(f, mesh.faces, fmt=_FACE_ROW)
