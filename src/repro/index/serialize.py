"""Serialization of precomputed diagrams: binary v3 snapshots + legacy JSON.

Diagrams are precomputation artifacts; persisting them is how a service
avoids rebuilding on restart and how N worker processes share one
zero-copy snapshot.  Two payload formats live behind one envelope:

* **v3/v4 (binary, the default)** — a one-line JSON meta header followed
  by 64-byte-aligned raw array sections: the id grid, the interned
  result table (either the vectorized builder's cons forest —
  ``rep``/``par`` node arrays plus the tiny corner groups — or a packed
  CSR ``lengths``/``values`` pair), the per-axis grid values, and the
  source points.  Sections load as ``np.frombuffer`` views straight into
  the file bytes, so :func:`map_diagram` serves a diagram from an mmap
  without copying the grid or the table, and the store's lazy table
  backing (:class:`~repro.diagram.store.ConsForestTable` /
  :class:`~repro.diagram.store.PackedTable`) survives the round trip.
  This also fixes the legacy writer's ``O(cells x |result|)`` payload
  blowup: the id grid and the interned table are written once each.
  Dense stores write the historical v3 payload (an ``int32``/``uint``
  dense grid section) unchanged; non-dense grid backends write v4, the
  same layout with the grid's own arrays as sections — ``rle_*`` run
  arrays (mmapped zero-copy, like the dense grid) or ``quad_*`` node
  arrays with the measured error in the meta line.  v1–v3 files keep
  loading byte-compatibly.
* **v1 JSON (legacy)** — source points plus one expanded result list per
  cell; still produced by :func:`diagram_to_json` and loaded forever.

Durability envelope
-------------------
:func:`save_diagram` wraps the payload in a one-line versioned header
carrying a SHA-256 checksum and the payload byte count::

    repro.skyline-diagram/3 sha256=<hex> bytes=<n>
    <binary v3 payload>

(JSON payloads keep the historical ``/2`` header) and writes atomically
(temp file in the target directory, fsync, rename), so a crash mid-save
never leaves a half-written file at the destination.  :func:`load_diagram`
verifies the header before parsing: truncation is caught by the byte
count, bit rot by the checksum, and both raise
:class:`~repro.errors.SerializationError` with a ``salvage`` report
describing what survived.  Bare-JSON files from before the envelope (v1)
and ``/2`` JSON envelopes still load byte-compatibly.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import tempfile
from typing import Any

import numpy as np

from repro.diagram.base import DynamicDiagram, SkylineDiagram
from repro.diagram.store import (
    ConsForestTable,
    DenseBackend,
    PackedTable,
    ResultStore,
    RLEBackend,
)
from repro.errors import SerializationError
from repro.geometry.grid import Grid
from repro.geometry.point import Dataset
from repro.geometry.subcell import SubcellGrid

_FORMAT = "repro.skyline-diagram"
_VERSION = 1
_JSON_ENVELOPE_VERSION = 2
_BINARY_ENVELOPE_VERSION = 3
_BINARY_V4_VERSION = 4
_BINARY_VERSIONS = (_BINARY_ENVELOPE_VERSION, _BINARY_V4_VERSION)
_ENVELOPE_VERSION = _JSON_ENVELOPE_VERSION  # historical alias (JSON payloads)
_HEADER_PREFIX = b"repro.skyline-diagram/"
_ALIGN = 64

# Seams for fault injection (repro.testing.faults patches these to simulate
# IO failures at the worst moments).
_replace = os.replace
_fsync = os.fsync


def diagram_to_json(diagram: SkylineDiagram) -> str:
    """Serialize a quadrant/global/skyband diagram to a JSON string."""
    cells = _rows_from_store(diagram.store)
    payload = {
        "format": _FORMAT,
        "version": _VERSION,
        "diagram": "cell",
        "kind": diagram.kind,
        "mask": diagram.mask,
        "algorithm": diagram.algorithm,
        "points": [list(p) for p in diagram.grid.dataset],
        "shape": list(diagram.grid.shape),
        "cells": cells,
    }
    k = getattr(diagram, "k", None)
    if k is not None:
        payload["k"] = int(k)
    return json.dumps(payload)


def diagram_from_json(text: str) -> SkylineDiagram:
    """Parse a diagram serialized by :func:`diagram_to_json`."""
    payload = _load(text, expected="cell")
    try:
        grid = Grid(Dataset(payload["points"]))
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"malformed points: {exc}") from exc
    if list(grid.shape) != payload["shape"]:
        raise SerializationError(
            f"grid shape {grid.shape} does not match recorded "
            f"{payload['shape']}"
        )
    results = _results_from_rows(grid.shape, payload["cells"])
    if "k" in payload:
        from repro.diagram.skyband import SkybandDiagram

        k = payload["k"]
        if not isinstance(k, int) or k < 1:
            raise SerializationError(f"invalid skyband width k={k!r}")
        return SkybandDiagram(
            grid, results, k=k, algorithm=payload["algorithm"]
        )
    return SkylineDiagram(
        grid,
        results,
        kind=payload["kind"],
        mask=payload["mask"],
        algorithm=payload["algorithm"],
    )


def dynamic_diagram_to_json(diagram: DynamicDiagram) -> str:
    """Serialize a dynamic diagram to a JSON string."""
    cells = _rows_from_store(diagram.store)
    payload = {
        "format": _FORMAT,
        "version": _VERSION,
        "diagram": "dynamic",
        "algorithm": diagram.algorithm,
        "points": [list(p) for p in diagram.subcells.dataset],
        "shape": list(diagram.subcells.shape),
        "cells": cells,
    }
    return json.dumps(payload)


def dynamic_diagram_from_json(text: str) -> DynamicDiagram:
    """Parse a diagram serialized by :func:`dynamic_diagram_to_json`."""
    payload = _load(text, expected="dynamic")
    try:
        subcells = SubcellGrid(Dataset(payload["points"]))
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"malformed points: {exc}") from exc
    if list(subcells.shape) != payload["shape"]:
        raise SerializationError(
            f"subcell shape {subcells.shape} does not match recorded "
            f"{payload['shape']}"
        )
    results = _results_from_rows(subcells.shape, payload["cells"])
    return DynamicDiagram(subcells, results, algorithm=payload["algorithm"])


# ----------------------------------------------------------------------
# Envelope (versions 2 and 3): checksummed header + atomic file IO
# ----------------------------------------------------------------------
def envelope_bytes(
    payload: str | bytes, binary_version: int | None = None
) -> bytes:
    """Wrap a serialized payload in the versioned, checksummed header.

    ``str`` payloads (JSON) get the historical ``/2`` header; ``bytes``
    payloads (binary snapshots) get ``/3`` by default, or the explicit
    ``binary_version`` (``4`` for non-dense grid-backend payloads).
    """
    if isinstance(payload, str):
        body = payload.encode("utf-8")
        version = _JSON_ENVELOPE_VERSION
    else:
        body = payload
        version = (
            _BINARY_ENVELOPE_VERSION
            if binary_version is None
            else int(binary_version)
        )
        if version not in _BINARY_VERSIONS:
            raise ValueError(
                f"unknown binary envelope version {binary_version!r}"
            )
    digest = hashlib.sha256(body).hexdigest()
    header = (
        f"{_HEADER_PREFIX.decode('ascii')}{version} "
        f"sha256={digest} bytes={len(body)}\n"
    )
    return header.encode("ascii") + body


def verify_envelope(
    blob: bytes | memoryview,
) -> tuple[int | None, memoryview, str | None]:
    """Verify an envelope; return ``(version, payload, sha256)``.

    ``version`` is ``None`` for bare v1 payloads (no header, no
    checksum), 2 for JSON envelopes, 3 for dense binary snapshots and 4
    for grid-backend (RLE) binary snapshots; the
    payload is returned as a zero-copy ``memoryview`` into ``blob``.
    Truncated or corrupted envelopes raise :class:`SerializationError`
    whose ``salvage`` attribute reports the recorded header, the
    expected and actual byte counts/checksums, and whether the payload
    prefix is still parseable.
    """
    view = memoryview(blob)
    if bytes(view[: len(_HEADER_PREFIX)]) != _HEADER_PREFIX:
        return None, view, None
    newline = bytes(view[:256]).find(b"\n")
    if newline < 0:
        newline = bytes(view).find(b"\n")
    if newline < 0:
        raise _salvage_error(
            "envelope truncated inside the header", header=None, body=b""
        )
    header = bytes(view[:newline]).decode("ascii", errors="replace")
    body = view[newline + 1 :]
    tokens = header.split()
    fields = dict(
        token.split("=", 1) for token in tokens[1:] if "=" in token
    )
    try:
        version = int(tokens[0].split("/", 1)[1])
    except (IndexError, ValueError) as exc:
        raise _salvage_error(
            f"malformed envelope header {header!r}", header, body
        ) from exc
    if version not in (_JSON_ENVELOPE_VERSION, *_BINARY_VERSIONS):
        raise _salvage_error(
            f"unsupported envelope version {version} "
            f"(expected {_JSON_ENVELOPE_VERSION}, "
            f"{_BINARY_ENVELOPE_VERSION} or {_BINARY_V4_VERSION})",
            header,
            body,
        )
    try:
        expected_bytes = int(fields["bytes"])
        expected_sha = fields["sha256"]
    except (KeyError, ValueError) as exc:
        raise _salvage_error(
            f"malformed envelope header {header!r}", header, body
        ) from exc
    if len(body) != expected_bytes:
        raise _salvage_error(
            f"payload truncated: {len(body)} bytes of {expected_bytes}",
            header,
            body,
            expected_bytes=expected_bytes,
        )
    digest = hashlib.sha256(body).hexdigest()
    if digest != expected_sha:
        raise _salvage_error(
            f"payload checksum mismatch (recorded {expected_sha[:12]}…, "
            f"found {digest[:12]}…)",
            header,
            body,
            expected_sha=expected_sha,
            actual_sha=digest,
        )
    return version, body, expected_sha


def open_envelope(blob: bytes) -> str:
    """Verify an envelope and return a *text* payload.

    Bytes that do not start with the envelope header are treated as a
    bare v1 payload (pre-envelope files keep loading).  Binary v3
    snapshots have no text payload and raise; use :func:`load_diagram`
    or :func:`map_diagram` for those.
    """
    version, body, _ = verify_envelope(blob)
    if version in _BINARY_VERSIONS:
        raise SerializationError(
            f"binary v{version} snapshot payloads are not text; "
            "use load_diagram/map_diagram"
        )
    try:
        return bytes(body).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SerializationError(f"undecodable payload: {exc}") from exc


def _salvage_error(
    message: str,
    header: str | None,
    body: bytes | memoryview,
    **extra: Any,
) -> SerializationError:
    salvage: dict[str, Any] = {
        "header": header,
        "payload_bytes": len(body),
        **extra,
    }
    try:
        json.loads(bytes(body).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        salvage["payload_parseable"] = False
    else:
        salvage["payload_parseable"] = True
    error = SerializationError(f"{message}; salvage report: {salvage}")
    error.salvage = salvage
    return error


# ----------------------------------------------------------------------
# Binary v3 payload: JSON meta line + 64-byte-aligned raw array sections
# ----------------------------------------------------------------------
def _min_uint_dtype(max_value: int) -> np.dtype:
    """Smallest unsigned dtype holding values in ``[0, max_value]``."""
    for candidate in (np.uint8, np.uint16, np.uint32):
        if max_value <= np.iinfo(candidate).max:
            return np.dtype(candidate)
    return np.dtype(np.int64)


def _packed_arrays(
    entries, id_dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(lengths, values)`` arrays of a sequence of result tuples."""
    lengths = np.fromiter(
        (len(t) for t in entries), dtype=np.int64, count=len(entries)
    )
    total = int(lengths.sum())
    values = np.fromiter(
        (pid for t in entries for pid in t), dtype=np.int64, count=total
    )
    max_len = int(lengths.max()) if lengths.size else 0
    return lengths.astype(_min_uint_dtype(max_len)), values.astype(id_dtype)


def diagram_to_v3_bytes(
    diagram: SkylineDiagram | DynamicDiagram,
) -> bytes:
    """Serialize a dense-backend diagram to the binary v3 payload."""
    payload, version = diagram_to_binary_bytes(diagram)
    if version != _BINARY_ENVELOPE_VERSION:
        raise SerializationError(
            f"store backend {diagram.store.backend_kind!r} needs the v4 "
            "payload; use diagram_to_binary_bytes/save_diagram"
        )
    return payload


def diagram_to_binary_bytes(
    diagram: SkylineDiagram | DynamicDiagram,
) -> tuple[bytes, int]:
    """Serialize any diagram to its binary payload; return ``(bytes, version)``.

    The id grid and the interned result table are written once each —
    the save payload is ``O(cells + table)``, not the legacy JSON
    writer's ``O(cells x |result|)`` per-cell expansion.  A lazy
    :class:`~repro.diagram.store.ConsForestTable` backing is written as
    its cons forest (``rep``/``par`` plus the corner groups) without
    upgrading the store; list and :class:`PackedTable` backings are
    written packed (CSR).  Dense stores keep the exact v3 layout (and
    header) older readers accept; RLE stores write the same four arrays
    the in-memory backend reads as v4 sections, so an mmapped v4 file
    serves the compressed grid zero-copy.
    """
    store = diagram.store
    backend = store.backend
    version = (
        _BINARY_ENVELOPE_VERSION
        if backend.kind == "dense"
        else _BINARY_V4_VERSION
    )
    meta: dict[str, Any] = {
        "format": _FORMAT,
        "version": version,
        "algorithm": diagram.algorithm,
        "shape": list(store.shape),
    }
    if version == _BINARY_V4_VERSION:
        meta["backend"] = backend.kind
    if isinstance(diagram, DynamicDiagram):
        meta["diagram"] = "dynamic"
        grid = diagram.subcells
    else:
        meta["diagram"] = "cell"
        meta["kind"] = diagram.kind
        meta["mask"] = int(diagram.mask)
        k = getattr(diagram, "k", None)
        if k is not None:
            meta["k"] = int(k)
        grid = diagram.grid
    n = len(grid.dataset)
    pid_dtype = _min_uint_dtype(max(0, n - 1))
    sections: list[tuple[str, np.ndarray]] = [
        ("points", np.asarray(grid.dataset.points, dtype=np.float64)),
    ]
    if backend.kind == "dense":
        sections.append(
            (
                "ids",
                np.ascontiguousarray(
                    store.ids,
                    dtype=_min_uint_dtype(max(0, store.distinct_count - 1)),
                ),
            )
        )
    elif backend.kind == "rle":
        # The backend's own dtypes, so the loader's frombuffer views are
        # usable directly (zero-copy under map_diagram).
        sections += [
            ("rle_row_start", backend.row_start),
            ("rle_row_nruns", backend.row_nruns),
            ("rle_run_vals", backend.run_vals),
            ("rle_run_ends", backend.run_ends),
        ]
    else:  # pragma: no cover - new backends must add a section writer
        raise SerializationError(
            f"no binary payload writer for backend {backend.kind!r}"
        )
    for d, axis in enumerate(grid.axes):
        sections.append((f"axis{d}", np.asarray(axis, dtype=np.float64)))
    table = store._table
    if type(table) is ConsForestTable:
        meta["table"] = "forest"
        glen, gval = _packed_arrays(table._groups, pid_dtype)
        sections += [
            ("table_rep", np.ascontiguousarray(table._rep, dtype=np.int32)),
            ("table_par", np.ascontiguousarray(table._par, dtype=np.int32)),
            ("group_lengths", glen),
            ("group_values", gval),
        ]
    else:
        meta["table"] = "packed"
        entries = store.table_view()
        lengths, values = _packed_arrays(entries, pid_dtype)
        sections += [
            ("table_lengths", lengths),
            ("table_values", values),
        ]
    toc = []
    offset = 0
    for name, array in sections:
        array = np.ascontiguousarray(array)
        offset = -(-offset // _ALIGN) * _ALIGN
        toc.append(
            {
                "name": name,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
            }
        )
        offset += array.nbytes
    meta["sections"] = toc
    meta_line = json.dumps(meta, separators=(",", ":")).encode("utf-8") + b"\n"
    base = -(-len(meta_line) // _ALIGN) * _ALIGN
    parts = [meta_line, b"\0" * (base - len(meta_line))]
    position = 0
    for entry, (_, array) in zip(toc, sections):
        parts.append(b"\0" * (entry["offset"] - position))
        parts.append(np.ascontiguousarray(array).tobytes())
        position = entry["offset"] + array.nbytes
    return b"".join(parts), version


def _v3_meta(payload: bytes | memoryview) -> tuple[dict, int]:
    """Parse a binary meta line; return ``(meta, section_base_offset)``."""
    view = memoryview(payload)
    probe = bytes(view[: 1 << 20])
    newline = probe.find(b"\n")
    if newline < 0:
        raise SerializationError("binary snapshot is missing its meta line")
    try:
        meta = json.loads(probe[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"invalid snapshot meta line: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("format") != _FORMAT:
        raise SerializationError("not a serialized skyline diagram")
    if meta.get("version") not in _BINARY_VERSIONS:
        raise SerializationError(
            f"unsupported version {meta.get('version')!r}"
        )
    required = ("diagram", "shape", "sections", "table")
    if meta["version"] == _BINARY_V4_VERSION:
        required += ("backend",)
    for key in required:
        if key not in meta:
            raise SerializationError(f"missing field {key!r}")
    return meta, -(-(newline + 1) // _ALIGN) * _ALIGN


def _v3_sections(
    payload: bytes | memoryview, meta: dict, base: int
) -> dict[str, np.ndarray]:
    """Zero-copy ``np.frombuffer`` views of every section of a payload."""
    arrays: dict[str, np.ndarray] = {}
    size = len(payload)
    for entry in meta["sections"]:
        try:
            name = entry["name"]
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(e) for e in entry["shape"])
            offset = base + int(entry["offset"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(
                f"malformed v3 section entry {entry!r}: {exc}"
            ) from exc
        count = 1
        for extent in shape:
            count *= extent
        if offset < 0 or offset + count * dtype.itemsize > size:
            raise SerializationError(
                f"v3 section {name!r} overruns the payload "
                f"({offset}+{count * dtype.itemsize} > {size})"
            )
        arrays[name] = np.frombuffer(
            payload, dtype=dtype, count=count, offset=offset
        ).reshape(shape)
    return arrays


def _v3_table(meta: dict, arrays: dict[str, np.ndarray], n: int):
    """Reconstruct the (lazy) interned table of a v3 payload."""
    try:
        if meta["table"] == "forest":
            lengths = arrays["group_lengths"].astype(np.int64)
            offsets = np.zeros(lengths.size + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            values = arrays["group_values"]
            groups = [
                tuple(values[offsets[g] : offsets[g + 1]].tolist())
                for g in range(lengths.size)
            ]
            return ConsForestTable(
                arrays["table_rep"], arrays["table_par"], groups
            )
        if meta["table"] == "packed":
            lengths = arrays["table_lengths"].astype(np.int64)
            offsets = np.zeros(lengths.size + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            return PackedTable(offsets, arrays["table_values"])
    except KeyError as exc:
        raise SerializationError(
            f"v3 payload is missing table section {exc}"
        ) from exc
    raise SerializationError(
        f"unknown v3 table encoding {meta['table']!r}"
    )


def _binary_grid_backend(
    meta: dict, arrays: dict[str, np.ndarray], shape: tuple[int, ...]
):
    """Reconstruct the grid backend recorded by a v3/v4 payload.

    v3 payloads (and v4 ``backend: dense``, which the writer never emits
    but the format allows) carry one dense ``ids`` section; v4 carries
    the backend's own arrays as sections, returned as the loader's
    zero-copy views — read-only is fine, every backend mutates by
    replacement, never in place.
    """
    kind = meta.get("backend", "dense")
    try:
        if kind == "dense":
            ids = arrays["ids"]
            if tuple(ids.shape) != shape:
                raise SerializationError(
                    f"id grid of shape {tuple(ids.shape)} for recorded "
                    f"shape {list(shape)}"
                )
            return DenseBackend(ids)
        if kind == "rle":
            return RLEBackend(
                shape,
                arrays["rle_row_start"],
                arrays["rle_row_nruns"],
                arrays["rle_run_vals"],
                arrays["rle_run_ends"],
            )
    except KeyError as exc:
        raise SerializationError(
            f"{kind} payload is missing grid section {exc}"
        ) from exc
    except ValueError as exc:
        raise SerializationError(
            f"malformed {kind} grid sections: {exc}"
        ) from exc
    raise SerializationError(f"unknown grid backend {kind!r}")


def diagram_from_v3(
    payload: bytes | memoryview,
) -> SkylineDiagram | DynamicDiagram:
    """Parse a binary v3 snapshot payload into a diagram.

    The id grid and the table's index arrays are ``np.frombuffer`` views
    into ``payload`` — no copy is made, so parsing an mmapped file
    yields a diagram whose hot arrays are shared, read-only pages.  The
    grid is rebuilt deterministically from the stored points and
    validated against the recorded shape and axis sections.
    """
    meta, base = _v3_meta(payload)
    arrays = _v3_sections(payload, meta, base)
    if "points" not in arrays:
        raise SerializationError("binary payload has no 'points' section")
    try:
        dataset = Dataset([tuple(row) for row in arrays["points"].tolist()])
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"malformed points: {exc}") from exc
    if meta["diagram"] == "dynamic":
        grid = SubcellGrid(dataset)
    else:
        grid = Grid(dataset)
    shape = tuple(int(e) for e in meta["shape"])
    if tuple(grid.shape) != shape:
        raise SerializationError(
            f"grid shape {grid.shape} does not match recorded {list(shape)}"
        )
    for d, axis in enumerate(grid.axes):
        stored = arrays.get(f"axis{d}")
        if stored is not None and not np.array_equal(
            stored, np.asarray(axis, dtype=np.float64)
        ):
            raise SerializationError(
                f"axis {d} grid values do not match the stored points"
            )
    backend = _binary_grid_backend(meta, arrays, shape)
    table = _v3_table(meta, arrays, len(dataset))
    if backend.num_cells:
        top = backend.min_max()[1]
        if top >= len(table):
            raise SerializationError(
                f"cell ids reference result {top} but the table "
                f"has {len(table)} entries"
            )
    store = ResultStore(shape, backend, table)
    if meta["diagram"] == "dynamic":
        return DynamicDiagram(grid, store, algorithm=meta["algorithm"])
    if "k" in meta:
        from repro.diagram.skyband import SkybandDiagram

        k = meta["k"]
        if not isinstance(k, int) or k < 1:
            raise SerializationError(f"invalid skyband width k={k!r}")
        return SkybandDiagram(grid, store, k=k, algorithm=meta["algorithm"])
    return SkylineDiagram(
        grid,
        store,
        kind=meta["kind"],
        mask=meta["mask"],
        algorithm=meta["algorithm"],
    )


def save_diagram(
    diagram: SkylineDiagram | DynamicDiagram,
    path: str,
    format: str = "binary",
) -> None:
    """Atomically write a diagram to ``path`` inside the sha256 envelope.

    ``format="binary"`` (the default) writes the binary snapshot payload
    — v3 for dense stores, v4 for RLE grid backends, either way the
    format :func:`map_diagram` serves zero-copy; ``format="json"``
    writes the legacy v1 JSON payload in a ``/2`` envelope.  Either way
    the payload lands in a temp file in the destination directory, is
    flushed and fsynced, then renamed over ``path`` — a crash or
    injected IO error at any step leaves either the old file or
    nothing, never a torn write.
    """
    payload: str | bytes
    binary_version: int | None = None
    if format == "binary":
        payload, binary_version = diagram_to_binary_bytes(diagram)
    elif format == "json":
        if isinstance(diagram, DynamicDiagram):
            payload = dynamic_diagram_to_json(diagram)
        else:
            payload = diagram_to_json(diagram)
    else:
        raise ValueError(f"unknown save format {format!r}")
    blob = envelope_bytes(payload, binary_version)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        prefix=".skyline-diagram-", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            _fsync(handle.fileno())
        _replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_diagram(path: str) -> SkylineDiagram | DynamicDiagram:
    """Load any diagram saved by :func:`save_diagram` (or a bare v1 file).

    The envelope checksum and byte count are verified before any parsing;
    corruption raises :class:`SerializationError` (with a ``salvage``
    report when the envelope was present) instead of returning a diagram
    built from damaged data.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise SerializationError(f"cannot read {path!r}: {exc}") from exc
    version, body, _ = verify_envelope(blob)
    if version in _BINARY_VERSIONS:
        return diagram_from_v3(body)
    try:
        text = bytes(body).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SerializationError(f"undecodable payload: {exc}") from exc
    try:
        meta = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise SerializationError("not a serialized skyline diagram")
    if meta.get("diagram") == "dynamic":
        return dynamic_diagram_from_json(text)
    return diagram_from_json(text)


def map_diagram(
    path: str,
) -> tuple[SkylineDiagram | DynamicDiagram, str]:
    """Memory-map a binary v3 snapshot; return ``(diagram, sha256)``.

    The file is mapped read-only and the diagram's id grid and table
    index arrays are views into the mapping, so N processes mapping the
    same snapshot share one copy of the hot pages — this is the worker
    side of the serving subsystem.  The mapping stays alive for the
    diagram's lifetime via a reference on the store.  Only binary v3/v4
    envelopes can be mapped (v4 RLE snapshots serve the compressed run
    arrays zero-copy the same way); JSON envelopes raise (load those
    with :func:`load_diagram`).
    """
    try:
        with open(path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError) as exc:
        raise SerializationError(f"cannot map {path!r}: {exc}") from exc
    try:
        version, body, sha = verify_envelope(mapped)
        if version not in _BINARY_VERSIONS:
            raise SerializationError(
                f"only binary v3/v4 snapshots can be mapped; {path!r} holds "
                f"{'a bare v1 payload' if version is None else f'a v{version} envelope'}"
            )
        diagram = diagram_from_v3(body)
    except BaseException:
        try:
            mapped.close()
        except BufferError:
            # The in-flight exception still holds payload views; the
            # mapping is reclaimed when they are garbage collected.
            pass
        raise
    # Anchor the mapping to the store so the pages outlive this frame.
    diagram.store._mmap = mapped
    return diagram, sha


# ----------------------------------------------------------------------
def _load(text: str, expected: str) -> dict[str, Any]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise SerializationError("not a serialized skyline diagram")
    if payload.get("version") != _VERSION:
        raise SerializationError(
            f"unsupported version {payload.get('version')!r}"
        )
    if payload.get("diagram") != expected:
        raise SerializationError(
            f"expected a {expected!r} diagram, found {payload.get('diagram')!r}"
        )
    for key in ("points", "shape", "cells"):
        if key not in payload:
            raise SerializationError(f"missing field {key!r}")
    return payload


def _rows_from_store(store: ResultStore) -> list[list[int]]:
    """Row-major per-cell results as JSON-ready lists (one table read each)."""
    table = [list(result) for result in store.table_view()]
    return [table[i] for i in store.dense_ids().reshape(-1).tolist()]


def _results_from_rows(
    shape: tuple[int, ...], rows: list[list[int]]
) -> ResultStore:
    expected = 1
    for extent in shape:
        expected *= extent
    if not isinstance(rows, list) or len(rows) != expected:
        raise SerializationError(
            f"{len(rows) if isinstance(rows, list) else type(rows).__name__}"
            f" cell entries for {expected} cells"
        )
    flat = np.empty(expected, dtype=np.int32)
    table: list[tuple[int, ...]] = []
    intern: dict[tuple[int, ...], int] = {}
    for k, row in enumerate(rows):
        try:
            result = tuple(int(i) for i in row)
        except (TypeError, ValueError) as exc:
            raise SerializationError(
                f"cell entry {k} is not a list of point ids: {row!r}"
            ) from exc
        rid = intern.get(result)
        if rid is None:
            rid = len(table)
            table.append(result)
            intern[result] = rid
        flat[k] = rid
    return ResultStore(shape, flat.reshape(shape), table)
