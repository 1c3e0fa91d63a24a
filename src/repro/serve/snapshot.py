"""Snapshot generations: mmap one diagram file, swap atomically on change.

A *snapshot* is one published generation of a diagram: the mmapped
file, the diagram whose arrays are views into that mapping, and the
envelope's sha256 as the generation tag.  :class:`SnapshotManager`
watches one path and republishes on change with the same discipline the
engine's ``rebuild(refresh=True)`` applies in-process:

* the current generation keeps serving until the *entire* replacement
  file has been mapped and its checksum and payload verified;
* a corrupt or torn replacement is rejected — the manager records the
  error in :attr:`SnapshotManager.last_error` and keeps the old
  generation (the save side writes atomically via temp-file + rename,
  so a torn file can only appear through external damage);
* publishing is one attribute assignment, atomic under the GIL, so a
  reader never observes a half-swapped generation.

Change detection is by stat identity (inode, size, mtime) — the write
side always replaces the file wholesale, so a changed identity is the
only signal needed and an unchanged one costs a single ``stat`` call
per refresh.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from repro.diagram.base import DynamicDiagram, SkylineDiagram
from repro.errors import SerializationError
from repro.index.serialize import map_diagram


def _stat_key(path: str) -> tuple[int, int, int]:
    info = os.stat(path)
    return (info.st_ino, info.st_size, info.st_mtime_ns)


@dataclass(frozen=True)
class Snapshot:
    """One immutable published generation of a served diagram."""

    diagram: SkylineDiagram | DynamicDiagram
    generation: str  # the envelope's sha256 — content-addressed identity
    path: str
    stat_key: tuple[int, int, int] = field(compare=False)


class SnapshotManager:
    """Serve one snapshot path, swapping generations only after verify.

    Thread-compatible in the way the serving stack needs: ``refresh``
    must be called from one thread at a time (each worker process owns
    its manager), while :attr:`current` may be read from any thread.

    ``backend`` converts each mapped generation's grid store to the
    named backend (``dense`` / ``rle``) before it is
    published; the default serves the snapshot's stored backend as
    mapped (dense and rle map zero-copy).  Conversion materializes the
    grid but keeps the interned table on the mapping.
    """

    def __init__(self, path: str, backend: str | None = None) -> None:
        self.path = path
        self.backend = backend
        self._current: Snapshot | None = None
        self.last_error: str | None = None
        self.swaps = 0  # successful publishes, the initial load included
        self.rejected = 0  # replacement files that failed verification

    @property
    def current(self) -> Snapshot | None:
        """The serving generation (``None`` before the first load)."""
        return self._current

    def load(self) -> Snapshot:
        """Map and publish the snapshot; raise if it does not verify.

        Unlike :meth:`refresh`, a failure here propagates — with no
        prior generation there is nothing safe to keep serving.
        """
        snapshot = self._map()
        self._publish(snapshot)
        return snapshot

    def refresh(self) -> Snapshot:
        """Re-check the path; publish a changed file only if it verifies.

        Returns the serving generation either way.  An unchanged stat
        identity is a no-op; a changed file that fails to map or verify
        is rejected (``last_error`` records why) and the old generation
        keeps serving.  Raises only when there is no current generation
        at all (first load failing).
        """
        current = self._current
        if current is None:
            return self.load()
        try:
            if _stat_key(self.path) == current.stat_key:
                return current
        except OSError as exc:
            # The file vanished mid-swap (between unlink and rename of
            # an external copy): keep serving the mapped generation.
            self.last_error = f"cannot stat {self.path!r}: {exc}"
            self.rejected += 1
            return current
        try:
            snapshot = self._map()
        except SerializationError as exc:
            self.last_error = str(exc)
            self.rejected += 1
            return current
        self._publish(snapshot)
        return snapshot

    def _map(self) -> Snapshot:
        # Stat *before* mapping: if the file is replaced in between, the
        # recorded key is stale and the next refresh simply remaps.
        try:
            stat_key = _stat_key(self.path)
        except OSError as exc:
            raise SerializationError(
                f"cannot stat {self.path!r}: {exc}"
            ) from exc
        diagram, sha = map_diagram(self.path)
        store = getattr(diagram, "store", None)
        if (
            self.backend is not None
            and store is not None
            and getattr(store, "backend_kind", None) is not None
            and store.backend_kind != self.backend
        ):
            converted = store.convert(self.backend)
            # The converted grid is materialized, but the interned table
            # is shared and still points into the mapping — carry the
            # mmap keepalive over.
            converted._mmap = store._mmap
            diagram._store = converted
            diagram._kernel = None
        return Snapshot(
            diagram=diagram,
            generation=sha,
            path=self.path,
            stat_key=stat_key,
        )

    def publish(self, diagram, format: str = "binary") -> Snapshot:
        """Write ``diagram`` as the next generation and republish it.

        The update path's save-side counterpart of :meth:`refresh`: an
        incrementally maintained diagram (``repro update``, the engine's
        ``flush_updates``) is written to the watched path atomically
        (temp file + rename, so concurrent readers of the old mapping
        are undisturbed) and the manager swaps to the new generation
        only after the fresh file maps and verifies.
        """
        from repro.index.serialize import save_diagram

        save_diagram(diagram, self.path, format=format)
        return self.refresh()

    def _publish(self, snapshot: Snapshot) -> None:
        self._current = snapshot  # atomic under the GIL
        self.last_error = None
        self.swaps += 1

    def stats(self) -> dict[str, Any]:
        """JSON-ready manager state for health endpoints."""
        current = self._current
        return {
            "path": self.path,
            "generation": current.generation if current else None,
            "swaps": self.swaps,
            "rejected": self.rejected,
            "last_error": self.last_error,
        }
