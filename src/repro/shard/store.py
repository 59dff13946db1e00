"""Zero-copy shared-memory publication of CSR topologies.

The process-pool backend used to pickle a full graph copy into every
worker for every chunk — at n=10⁶–10⁷ the CSR buffers dominate the
pickle, and serializing them repeatedly dominates the sweep.  A
:class:`SharedCSRStore` breaks that: while a store is *active*, pickling
a :class:`~repro.graphs.csr.CSRTopology` publishes its ``indptr``/
``indices``/``ids`` buffers into one shared segment (once) and ships a
~100-byte :class:`SharedCSRHandle` instead; unpickling in a worker
attaches the segment and wraps zero-copy ``memoryview`` buffers — the
graph crosses the pool boundary exactly once, whatever the cell count.

Two segment backends:

* ``"shm"`` — :class:`multiprocessing.shared_memory.SharedMemory`, the
  zero-copy default.
* ``"file"`` — an mmap'd file under the store's directory (by
  convention the :class:`~repro.exec.cache.ArtifactCache` disk layer's
  ``cache_dir``, else a temp directory).  The automatic fallback where
  POSIX shared memory is unavailable (restricted sandboxes raise
  ``PermissionError``/``OSError`` on segment creation).

Lifecycle: the parent owns the segments.  ``activate()`` installs the
reduce hook (see :func:`repro.graphs.csr.set_shared_reducer`);
``close()`` — explicit, via the context manager, or the registered
``atexit`` hook — detaches and unlinks every segment the store created.
Segments are refcounted across publishes (:meth:`release` drops a pin;
the last release unlinks early), so long-lived callers can retire a
graph's segment before the sweep ends.  Workers attach lazily, cache the
attachment per process (every chunk referencing the same graph shares
one topology object *and* its cached components), and detach at
interpreter exit.
"""

from __future__ import annotations

import atexit
import errno
import mmap
import os
import tempfile
import uuid
import warnings
from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.graphs.csr import CSRTopology, set_shared_reducer

_WORD = 8  # bytes per int64 buffer element


@dataclass(frozen=True)
class SharedCSRHandle:
    """What crosses the process boundary instead of the flat buffers.

    Attributes:
        kind: Segment backend — ``"shm"`` or ``"file"``.
        name: Shared-memory segment name, or the mmap'd file's path.
        n: Number of nodes (``len(ids)``; ``indptr`` has ``n + 1``).
        nnz: Length of ``indices`` (``2m``).
    """

    kind: str
    name: str
    n: int
    nnz: int

    @property
    def nbytes(self) -> int:
        """Total segment payload size in bytes."""
        return _WORD * (2 * self.n + 1 + self.nnz)


class SharedCSRStoreError(RuntimeError):
    """Lifecycle misuse of the shared CSR store (e.g. attach after unlink)."""


# ----------------------------------------------------------------------
# Worker-side attachment
# ----------------------------------------------------------------------
#: Per-process attachment cache: segment name -> (topology, closer).
#: Shared across chunks so every cell referencing the same graph gets the
#: same topology object (and its cached ``components()``/``max_degree``).
_ATTACHED: Dict[str, Tuple[CSRTopology, Any]] = {}
#: Detached attachments whose mapping an outliving export kept open, as
#: ``(name, topology, closer)``: held so that garbage collection retries
#: no close (a shm segment's finalizer would, and fail again), and
#: closed by the next :func:`detach_all`.
_UNCLOSED: List[Tuple[str, CSRTopology, Any]] = []
_ATEXIT_REGISTERED = False


def _register_atexit() -> None:
    global _ATEXIT_REGISTERED
    if not _ATEXIT_REGISTERED:
        atexit.register(detach_all)
        _ATEXIT_REGISTERED = True


def _topology_from_buffer(view: memoryview, n: int, nnz: int) -> CSRTopology:
    """Wrap a segment's payload as a topology without copying the rows.

    ``indptr``/``indices`` stay zero-copy int64 views over the segment;
    the identifier tuple is materialized once per process (tuples are
    what every interning consumer expects).
    """
    indptr_end = _WORD * (n + 1)
    indices_end = indptr_end + _WORD * nnz
    ids_end = indices_end + _WORD * n
    indptr = view[:indptr_end].cast("q")
    indices = view[indptr_end:indices_end].cast("q")
    ids = tuple(view[indices_end:ids_end].cast("q"))
    return CSRTopology(ids, indptr, indices)


def attach_csr(handle: SharedCSRHandle) -> CSRTopology:
    """Attach the segment behind ``handle`` (module-level: this is the
    unpickle path workers run, cached per process per segment)."""
    cached = _ATTACHED.get(handle.name)
    if cached is not None:
        return cached[0]
    if handle.kind == "shm":
        topology, closer = _attach_shm(handle)
    elif handle.kind == "file":
        topology, closer = _attach_file(handle)
    else:
        raise SharedCSRStoreError(
            f"unknown shared CSR segment kind {handle.kind!r}"
        )
    _ATTACHED[handle.name] = (topology, closer)
    _register_atexit()
    return topology


def _attach_shm(handle: SharedCSRHandle) -> Tuple[CSRTopology, Any]:
    from multiprocessing import shared_memory

    try:
        segment = shared_memory.SharedMemory(name=handle.name)
    except FileNotFoundError:
        raise SharedCSRStoreError(
            f"shared CSR segment {handle.name!r} is gone — the owning "
            "SharedCSRStore was closed (or unlinked the segment) before "
            "this process attached; keep the store open for the lifetime "
            "of the sweep that ships its handles"
        ) from None
    # Attaching re-registers the segment with the resource tracker (on
    # 3.11 ``SharedMemory.__init__`` registers unconditionally).  Leave
    # it registered: the tracker's name cache is a *set* shared by the
    # whole process family, so any number of attach registrations
    # collapse into the one entry the creating store made, and the
    # owner's final ``unlink()`` unregisters it exactly once.  (An
    # attach-side ``unregister`` here would race when several workers
    # attach concurrently — two idempotent registers, two destructive
    # unregisters — and leave the tracker complaining at shutdown.)
    topology = _topology_from_buffer(
        memoryview(segment.buf), handle.n, handle.nnz
    )
    return topology, segment


class _MappedFile:
    """Keeps an mmap'd fallback segment (and its fd) alive and closable."""

    def __init__(self, path: str) -> None:
        self._file = open(path, "rb")
        self.map = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)

    def close(self) -> None:
        try:
            self.map.close()
        finally:
            self._file.close()


def _attach_file(handle: SharedCSRHandle) -> Tuple[CSRTopology, Any]:
    try:
        mapped = _MappedFile(handle.name)
    except FileNotFoundError:
        raise SharedCSRStoreError(
            f"shared CSR segment file {handle.name!r} is gone — the owning "
            "SharedCSRStore was closed (or unlinked the segment) before "
            "this process attached; keep the store open for the lifetime "
            "of the sweep that ships its handles"
        ) from None
    topology = _topology_from_buffer(
        memoryview(mapped.map), handle.n, handle.nnz
    )
    return topology, mapped


def detach_all() -> None:
    """Close every attachment this process holds (atexit hook; workers
    borrow segments, so detaching never unlinks).

    A mapping cannot close while any buffer export of it is alive.  The
    topology's array view is such an export, so it is dropped first; an
    export held anywhere else (an array kept past its run) leaves that
    segment's mapping open, with a ``ResourceWarning`` naming it, until a
    later call finds the export gone.
    """
    pending = [*_UNCLOSED, *((name, *pair) for name, pair in _ATTACHED.items())]
    _UNCLOSED.clear()
    _ATTACHED.clear()
    for name, topology, closer in pending:
        topology.drop_arrays()
        try:
            # The memoryviews over the segment go first: the mapping
            # closes only once nothing exports it.
            topology.indptr.release()
            topology.indices.release()
            closer.close()
        except BufferError as error:
            _UNCLOSED.append((name, topology, closer))
            warnings.warn(
                f"shared CSR segment {name!r} stays mapped: {error}; an "
                "array over its buffers outlived the detach",
                ResourceWarning,
                stacklevel=2,
            )


def reset_worker_state() -> None:
    """Clear inherited parent-side store state in a pool worker.

    ``fork``-started workers inherit the parent's installed reduce hook
    (and its registry of owned segments).  A worker must never publish
    through it — artifacts it pickles (e.g. into the disk cache) would
    create segments nobody unlinks — so the pool initializer calls this
    first.
    """
    set_shared_reducer(None)


# ----------------------------------------------------------------------
# Parent-side store
# ----------------------------------------------------------------------
class SharedCSRStore:
    """Publishes CSR topologies into shared segments, once each.

    Args:
        backend: ``"auto"`` (try POSIX shared memory, fall back to
            mmap'd files), ``"shm"``, or ``"file"``.
        directory: Directory for ``"file"`` segments — pass the sweep's
            artifact ``cache_dir`` to keep all on-disk state together;
            ``None`` uses a private temp directory, removed on close.

    Usable as a context manager; ``close()`` is also registered with
    ``atexit`` so abandoned stores cannot leak segments.
    """

    def __init__(
        self, backend: str = "auto", directory: Optional[str] = None
    ) -> None:
        if backend not in ("auto", "shm", "file"):
            raise ValueError(
                f"backend must be 'auto', 'shm' or 'file', got {backend!r}"
            )
        self.backend = backend
        self._directory = directory
        self._tempdir: Optional[tempfile.TemporaryDirectory] = None
        #: id(topology) -> (handle, owned segment object or path, refcount)
        self._published: Dict[int, Tuple[SharedCSRHandle, Any, int]] = {}
        #: Strong refs keeping the id() keys stable while published.
        self._pinned: Dict[int, CSRTopology] = {}
        self._active = False
        self._closed = False
        atexit.register(self.close)

    # -- activation ----------------------------------------------------
    def activate(self) -> "SharedCSRStore":
        """Install the reduce hook: topology pickles become handles."""
        if self._closed:
            raise SharedCSRStoreError("cannot activate a closed SharedCSRStore")
        set_shared_reducer(self._reduce_hook)
        self._active = True
        return self

    def deactivate(self) -> None:
        """Restore flat-buffer pickling (segments stay published)."""
        if self._active:
            set_shared_reducer(None)
            self._active = False

    def __enter__(self) -> "SharedCSRStore":
        return self.activate()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- publication ---------------------------------------------------
    def _reduce_hook(self, topology: CSRTopology) -> Optional[tuple]:
        handle = self.publish(topology)
        return (attach_csr, (handle,))

    def publish(self, topology: CSRTopology) -> SharedCSRHandle:
        """The handle for ``topology``, creating its segment on first
        publish (later publishes add a refcount pin and reuse it)."""
        if self._closed:
            raise SharedCSRStoreError("cannot publish into a closed SharedCSRStore")
        key = id(topology)
        entry = self._published.get(key)
        if entry is not None:
            handle, segment, refcount = entry
            self._published[key] = (handle, segment, refcount + 1)
            return handle
        handle, segment = self._create_segment(topology)
        self._published[key] = (handle, segment, 1)
        self._pinned[key] = topology
        return handle

    def release(self, topology: CSRTopology) -> None:
        """Drop one pin; the last release unlinks the segment early."""
        key = id(topology)
        entry = self._published.get(key)
        if entry is None:
            return
        handle, segment, refcount = entry
        if refcount > 1:
            self._published[key] = (handle, segment, refcount - 1)
            return
        del self._published[key]
        del self._pinned[key]
        self._destroy_segment(handle, segment)

    def handle_for(self, topology: CSRTopology) -> Optional[SharedCSRHandle]:
        """The published handle for ``topology``, if any (no publish)."""
        entry = self._published.get(id(topology))
        return entry[0] if entry is not None else None

    @property
    def total_bytes(self) -> int:
        """Bytes currently resident across every published segment."""
        return sum(handle.nbytes for handle, _, _ in self._published.values())

    def __len__(self) -> int:
        return len(self._published)

    # -- segment backends ----------------------------------------------
    def _payload(self, topology: CSRTopology) -> Tuple[bytes, bytes, bytes]:
        indptr = topology.indptr
        indices = topology.indices
        if not isinstance(indptr, array):
            indptr = array("q", indptr)
        if not isinstance(indices, array):
            indices = array("q", indices)
        return (
            indptr.tobytes(),
            indices.tobytes(),
            array("q", topology.ids).tobytes(),
        )

    def _create_segment(
        self, topology: CSRTopology
    ) -> Tuple[SharedCSRHandle, Any]:
        parts = self._payload(topology)
        size = sum(len(part) for part in parts)
        if self.backend in ("auto", "shm"):
            try:
                return self._create_shm(topology, parts, size)
            except (ImportError, OSError) as exc:
                if self.backend == "shm":
                    raise
                # Sandboxes without /dev/shm (or with it read-only) fall
                # through to the mmap'd-file layer.
                if isinstance(exc, OSError) and exc.errno not in (
                    errno.EACCES,
                    errno.EPERM,
                    errno.ENOENT,
                    errno.ENOSPC,
                    errno.EROFS,
                    None,
                ):
                    raise
        return self._create_file(topology, parts, size)

    def _create_shm(
        self, topology: CSRTopology, parts: Tuple[bytes, ...], size: int
    ) -> Tuple[SharedCSRHandle, Any]:
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(
            create=True, size=max(size, 1), name=self._segment_name()
        )
        offset = 0
        for part in parts:
            segment.buf[offset : offset + len(part)] = part
            offset += len(part)
        handle = SharedCSRHandle(
            kind="shm",
            name=segment.name,
            n=topology.n,
            nnz=len(topology.indices),
        )
        return handle, segment

    def _create_file(
        self, topology: CSRTopology, parts: Tuple[bytes, ...], size: int
    ) -> Tuple[SharedCSRHandle, Any]:
        directory = self._segment_dir()
        path = os.path.join(directory, f"{self._segment_name()}.csr")
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as handle_file:
            for part in parts:
                handle_file.write(part)
        os.replace(tmp, path)
        handle = SharedCSRHandle(
            kind="file", name=path, n=topology.n, nnz=len(topology.indices)
        )
        return handle, path

    def _segment_name(self) -> str:
        return f"repro-csr-{os.getpid()}-{uuid.uuid4().hex[:12]}"

    def _segment_dir(self) -> str:
        if self._directory is not None:
            os.makedirs(self._directory, exist_ok=True)
            return self._directory
        if self._tempdir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-shard-")
        return self._tempdir.name

    def _destroy_segment(self, handle: SharedCSRHandle, segment: Any) -> None:
        if handle.kind == "shm":
            # The tracker's name cache is one set shared by the whole
            # process family.  Re-registering before ``unlink()`` is an
            # idempotent no-op in the normal flow (create registered the
            # name and attachers never unregister, see ``_attach_shm``)
            # but keeps the unlink's unregister balanced even if some
            # other actor dropped the entry — an unknown-name unregister
            # prints a KeyError from the tracker process.
            try:
                from multiprocessing import resource_tracker

                resource_tracker.register(segment._name, "shared_memory")
            except Exception:
                pass
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:
                pass
        else:
            try:
                os.unlink(segment)
            except FileNotFoundError:
                pass

    # -- teardown ------------------------------------------------------
    def close(self) -> None:
        """Deactivate, unlink every owned segment, drop all pins.

        Idempotent; registered with ``atexit``.  Handles shipped from
        this store stop resolving once it runs — by design, segments
        must not outlive their owner.
        """
        if self._closed:
            return
        self.deactivate()
        while self._published:
            _key, (handle, segment, _refcount) = self._published.popitem()
            self._destroy_segment(handle, segment)
        self._pinned.clear()
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "active" if self._active else "inactive"
        )
        return (
            f"<SharedCSRStore {state} segments={len(self._published)} "
            f"bytes={self.total_bytes}>"
        )
