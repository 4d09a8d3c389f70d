"""The cross-process compiled-design store: a file-backed tier above compile.

A :class:`~repro.designs.compiled.CompiledDesign` held by one process dies
with it.  Forked grid workers and repeated CLI invocations would therefore
each re-compile the same :class:`~repro.designs.compiled.DesignKey` —
exactly the redundancy a deployment serving one small set of designs
cannot afford.
:class:`DesignStore` persists compiled artifacts in a content-addressed
directory so that every process on the machine shares one compilation:

* **layout** — one subdirectory per key, named by the SHA-256 of the key's
  canonical JSON; inside it ``meta.json`` plus one ``.npy`` per compiled
  array (``entries``, ``indptr``, ``dstar``, ``delta``) and, for a design
  whose block fits the residency budget, ``block.npy``.  Each payload is
  stored at its information size: ``block.npy`` is the 0/1 incidence block
  bit-packed along rows (``np.packbits(block, axis=1)``: uint8,
  ``(m, ceil(n/8))``), and ``entries.npy`` holds the indices in the
  narrowest signed integer dtype that holds ``n − 1`` (int16 up to
  ``n = 2¹⁵``, int32 up to ``2³¹``, else int64);
* **attach** — :meth:`DesignStore.get` maps the arrays with
  ``np.load(mmap_mode="r")``, so the degree vectors and entries cost page
  faults, not copies, and the narrow entries widen to int64 only when
  something reads ``design.entries`` (no decoder's compile or decode
  does).  The artifact adopts a private copy of the verified packed
  bits, and the block's first use (an MN or COMP/DD compile) unpacks
  them, row chunk by row chunk, into the one float32 ``Ψ`` block.  That
  block is private memory of the attaching process: N processes
  attaching one design each hold their own float32 block (the packed
  file, 1/32 of its size, is what they share through the page cache);
* **atomic publication** — artifacts are written into a hidden temp
  directory and renamed into place, so readers never observe a partial
  entry (a lost publication race is silently discarded);
* **single-flight compilation** — :meth:`get_or_compile` serialises cold
  compilations of one key *across processes* through an advisory
  ``flock``, so many workers starting together compile once;
* **byte-budgeted eviction** — :meth:`gc` removes least-recently-used
  entries over the budget, skipping any entry currently mmap-attached by
  a reader (readers hold a shared lock for the life of their mapping) —
  and reaps crash residue: orphaned publication temp dirs, stale
  ``.stats-*`` counter files and aged quarantine holdings past a grace
  period;
* **integrity + self-repair** — no unverified byte is ever used.  Every
  publication writes a per-file SHA-256 manifest into ``meta.json``, and
  every payload file is hashed in full against it before its first use
  (skippable via ``verify=False``):

  - at attach, ``indptr``, ``dstar``, ``delta`` and ``block.npy``, one
    file after another;
  - ``entries.npy`` (most of an entry's bytes, and read by no MN, COMP or
    DD compile or decode) on the first read of entry *values*, through
    the design's one gate (``PoolingDesign._held_entries``), once per
    artifact.  The entry range check rides in the same read: the hash
    takes the ``(min, max)`` of the values in the stored dtype, so a
    check never scans the mapped entries, and an MN attach maps no
    entries page at all.  A late mismatch — a digest that differs, a
    value outside ``[0, n)``, a file gone or unreadable — **heals in
    place**: the entries are regenerated from the key, bit-identical to
    the published ones, and swapped into the design, so the artifact
    and every decoder bound to it carry on unchanged.  The entry is
    quarantined, and until then (another reader's pin defers it) this
    store hashes its ``entries.npy`` at attach;
  - ``entries.npy`` stays eager, hashed at attach, where no regeneration
    is possible or nothing is saved: ``content`` and ``custom`` keys, and
    an entry without ``block.npy`` (its block is scattered from the
    entries).

  A corrupt, torn or out-of-range entry met at attach is **quarantined**
  — renamed into ``.quarantine/`` for post-mortem, counted in
  :class:`StoreStats` — then transparently recompiled through the
  existing single-flight path.  :meth:`fsck` audits the whole store on
  demand (``design store fsck``), hashing every file.  Verification
  never runs on the decode hot path, so warm-decode cost is untouched;
* **telemetry** — per-instance :attr:`stats` counters (hits, misses,
  evictions, publishes, quarantines), plus cumulative cross-process
  counters: every lookup or publish appends one JSON delta line to
  ``stats.log`` (no rename on the lookup path), folded into the
  ``stats.json`` base (tmp + ``os.replace``) once the log passes 64 KiB.
  A torn trailing line from a crashed writer is skipped, never misread.

Layered lookups go **store → compile**:
:func:`~repro.designs.compiled.resolve_compiled` calls
:meth:`DesignStore.get_or_compile` with a bare compile as the factory, so
a hit skips compilation and a miss publishes.  Within one process, reuse
is the caller's: hold the artifact, or pass it as ``design=``.  The store
is opt-in: entry points take ``store=``, and the ambient default
(:func:`resolve_design_store`) is **off** unless ``REPRO_DESIGN_STORE``
names a directory.  Equal keys address bit-identical designs, so no
layer can ever change a result — only skip work.  The store is
machine-local: a ``stream``/``sampled`` design recompiles from its key on
any machine, and a design that cannot (``content``/``custom``) travels as
a :func:`~repro.core.serialization.save_design` ``.npz`` that the
receiving machine loads and publishes (see ``docs/design-lifecycle.md``).

Examples
--------
>>> import tempfile
>>> from repro.designs import DesignKey, DesignStore, compile_from_key
>>> key = DesignKey.for_stream(64, 12, root_seed=7)
>>> with tempfile.TemporaryDirectory() as root:
...     store = DesignStore(root)
...     cold = store.get_or_compile(key, lambda: compile_from_key(key))
...     warm = store.get(key)                     # second lookup: verified attach
...     bool((cold.dstar == warm.dstar).all())
True
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.core.design import PoolingDesign
from repro.designs.compiled import _REGENERABLE_SCHEMES, CompiledDesign, DesignKey, _check_packed_block, _design_from_key, _pack_block
from repro.faults import trip as _fault_trip

try:  # POSIX advisory locking; degraded (still correct single-process) elsewhere
    import fcntl

    _HAS_FLOCK = True
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]
    _HAS_FLOCK = False

__all__ = [
    "DesignStore",
    "StoreStats",
    "StoreEntry",
    "FsckReport",
    "resolve_design_store",
    "default_design_store",
    "reset_default_design_store",
    "DESIGN_STORE_ENV",
    "DESIGN_STORE_BYTES_ENV",
    "STORE_FORMAT_VERSION",
    "RESIDUE_GRACE_S",
]

#: Environment variable naming the ambient store directory.  Unset (or
#: blank) leaves every path store-free — bit-identical to the store never
#: existing.  Explicit ``store=`` arguments always win.
DESIGN_STORE_ENV = "REPRO_DESIGN_STORE"

#: Optional environment byte budget for the ambient store (plain integer).
#: Unset means unbounded — eviction then only runs via ``design store gc``.
DESIGN_STORE_BYTES_ENV = "REPRO_DESIGN_STORE_BYTES"

#: On-disk entry format; bumped on layout changes so stale entries are
#: treated as misses instead of being misread.  Version 2 added the
#: per-file SHA-256 integrity manifest; version 3 made ``block.npy``
#: always float32 (version 2 stored float64 blocks for designs of 2²³+
#: draws); version 4 bit-packs ``block.npy`` and stores ``entries.npy``
#: in the narrowest signed dtype that holds ``n − 1``.  Stale entries
#: read as misses — not as corrupt — and are replaced by a recompile,
#: never half-trusted.
STORE_FORMAT_VERSION = 4

#: The compiled arrays every entry persists, in publication order.
_ARRAY_FIELDS = ("entries", "indptr", "dstar", "delta")

#: Grace period (seconds) before :meth:`DesignStore.gc` reaps crash
#: residue — orphaned ``.tmp-*`` publication dirs, stale ``.stats-*``
#: counter files (a crashed compaction's temp base or set-aside log) and
#: quarantined entries.  Long enough that a slow but live publisher is
#: never swept out from under its own rename.
RESIDUE_GRACE_S = 3600.0

_META_NAME = "meta.json"
_LOCK_NAME = ".lock"
_USED_NAME = ".last-used"
_QUARANTINE_DIR = ".quarantine"

#: The cross-process counters: a compacted base plus an append-only log
#: of JSON delta lines, folded into the base once it passes the threshold.
_STATS_NAME = "stats.json"
_STATS_LOG_NAME = "stats.log"
_STATS_COMPACT_BYTES = 64 * 1024
_STAT_KEYS = (
    "hits",
    "misses",
    "evictions",
    "publishes",
    "quarantined",
)


class _StaleEntry(ValueError):
    """A complete entry in an older on-disk format: a miss, not corruption."""


@dataclass(frozen=True)
class StoreStats:
    """Counters snapshot of one store instance and its directory.

    ``hits``/``misses``/``evictions`` count this instance's lifetime (the
    in-process view); ``publishes`` counts artifacts this instance wrote
    and ``quarantined`` the corrupt entries this instance set aside.
    ``entries``/``nbytes`` describe the directory *now* — shared state, so
    they reflect every process's activity.
    """

    hits: int
    misses: int
    evictions: int
    publishes: int
    entries: int
    nbytes: int
    quarantined: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (``0.0`` before the first lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class StoreEntry:
    """One persisted artifact: its key, footprint and recency."""

    key: DesignKey
    digest: str
    nbytes: int
    last_used: float
    path: Path


@dataclass(frozen=True)
class FsckReport:
    """Audit result from :meth:`DesignStore.fsck`.

    ``checked`` entries were examined; ``ok`` names passed every manifest
    digest; ``quarantined`` names failed and were set aside; ``residue``
    counts crash leftovers visible in the root (orphaned ``.tmp-*`` dirs
    and stale ``.stats-*`` temp files — reaped by :meth:`DesignStore.gc`,
    not by fsck); ``quarantine_held`` counts entries currently parked in
    ``.quarantine/`` awaiting post-mortem or reaping.
    """

    checked: int
    ok: "tuple[str, ...]" = field(default=())
    quarantined: "tuple[str, ...]" = field(default=())
    residue: int = 0
    quarantine_held: int = 0

    @property
    def clean(self) -> bool:
        """True when every checked entry verified and nothing needs attention.

        Held quarantine items count against cleanliness: they are evidence
        of past corruption awaiting post-mortem or reaping, and a clean
        bill of health should not paper over them.
        """
        return not self.quarantined and self.residue == 0 and self.quarantine_held == 0


def _entries_dtype(n: int) -> np.dtype:
    """The narrowest signed integer dtype that holds every index ``< n``."""
    for dtype in (np.int16, np.int32):
        if n - 1 <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _sha256_file(path: Path) -> str:
    """Streaming SHA-256 of one file (256 KiB reads into one reused buffer)."""
    return _sha256_and_range(path)[0]


def _sha256_and_range(path: Path, data: "np.memmap | None" = None) -> "tuple[str, tuple[int, int] | None]":
    """SHA-256 of one file and the ``(min, max)`` of its ``.npy`` values, in one read.

    ``data`` is the file's own ``np.load(mmap_mode="r")`` map: its
    ``offset`` and ``nbytes`` locate the values in the file, and its dtype
    reads them.  The map itself is never touched — the values are read
    out of the buffer the hash streams through, so the range costs no
    second pass over the file and faults no page of the map.  The range
    is returned only for non-empty native signed-integer data read to its
    end; otherwise it is ``None`` and the caller checks the values itself.

    One small buffer is reused across reads, so the call holds about one
    buffer of memory whatever the file size.
    """
    h = hashlib.sha256()
    buf = bytearray(1 << 18)
    view = memoryview(buf)
    start = stop = 0
    if data is not None and data.dtype.kind == "i" and data.dtype.isnative and data.size:
        start, stop = int(data.offset), int(data.offset) + data.nbytes
    lo, hi = np.iinfo(np.int64).max, np.iinfo(np.int64).min
    pos = 0
    with open(path, "rb", buffering=0) as f:
        # The header is read on its own, and every later read fills the
        # whole buffer (short only at EOF), so each chunk of values starts
        # on a whole element.
        while size := _read_full(f, view[: start - pos] if pos < start else view):
            h.update(view[:size])
            count = (min(pos + size, stop) - pos) // data.itemsize if start <= pos < stop else 0
            if count:
                values = np.frombuffer(buf, dtype=data.dtype, count=count)
                lo, hi = min(lo, int(values.min())), max(hi, int(values.max()))
            pos += size
    return h.hexdigest(), ((lo, hi) if stop and pos >= stop else None)


def _design_from_maps(n: int, entries: np.ndarray, indptr: np.ndarray, entry_range: "tuple[int, int] | None") -> PoolingDesign:
    """The entry's design over its maps, with the constructor's checks.

    With the ``(min, max)`` a hash pass read, the range check runs on it
    and no entries page is mapped (an MN decode reads only Ψ's block and
    Δ*); without one, the constructor scans the map.
    """
    if entry_range is None:
        return PoolingDesign(n, entries, indptr)
    return PoolingDesign._with_range(n, entries, indptr, entry_range)


def _read_full(f, view: memoryview) -> int:
    """``readinto`` until ``view`` is full or the file ends; returns the bytes read."""
    got = 0
    while got < len(view) and (size := f.readinto(view[got:])):
        got += size
    return got


def _remove(path: Path) -> bool:
    """Delete a file or a directory tree; True only when ``path`` is gone.

    Files are unlinked: ``shutil.rmtree`` on a file fails, and under
    ``ignore_errors`` it fails silently.
    """
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        path.unlink()
    return not os.path.lexists(path)


class _EntryReadLock:
    """Shared advisory lock held for the lifetime of an mmap attachment.

    :meth:`DesignStore.gc` takes the exclusive side non-blockingly, so an
    entry can never be evicted while any process still holds read mappings
    of its arrays.  The lock's lifetime is tied to the attached
    :class:`~repro.designs.compiled.CompiledDesign` (which keeps a
    reference), releasing automatically when the artifact is dropped.
    """

    def __init__(self, lock_path: Path):
        # _fd must exist before anything can raise: a concurrent eviction
        # between the caller's existence check and this open is an expected
        # race, and __del__ on the half-constructed object must stay silent.
        self._fd: "int | None" = None
        fd = os.open(lock_path, os.O_RDONLY)
        if _HAS_FLOCK:
            try:
                fcntl.flock(fd, fcntl.LOCK_SH)
            except OSError:
                os.close(fd)
                raise
        self._fd = fd

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)  # closing the fd releases the flock
            self._fd = None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        self.close()


@contextmanager
def _flocked(path: Path, exclusive: bool = True) -> Iterator[int]:
    """Hold an advisory lock on ``path`` for the duration of the block."""
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        if _HAS_FLOCK:
            fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
        yield fd
    finally:
        os.close(fd)


class DesignStore:
    """File-backed, mmap-read, cross-process compiled-design store.

    Parameters
    ----------
    root:
        Directory holding the store (created if missing).  Safe to share
        between any number of concurrent processes on one machine.
    max_bytes:
        Byte budget enforced after every publication (and by :meth:`gc`).
        ``None`` (default) disables automatic eviction.
    verify:
        Check each payload file against the entry's SHA-256 manifest before
        its first use (the default): no unverified byte is ever used.  The
        cost is one streaming hash per file, over files kept small by the
        packed layout, and it never runs on the decode hot path.  An
        attach — including each re-attach after a decoder-pool eviction —
        hashes ``indptr``, ``dstar``, ``delta`` and ``block.npy``.  The
        hash of ``entries.npy``, with the entry range check taken from the
        same read, waits for the first read of entry values, which no MN,
        COMP or DD compile or decode makes; a mismatch then regenerates
        the entries from the key in place and quarantines the entry.
        ``content``/``custom`` keys and entries without ``block.npy`` hash
        ``entries.npy`` at attach.  Pass ``False`` to trust the filesystem
        (e.g. an immutable read-only image already verified once); the
        entry range is then checked at attach by a scan of the map.

    Examples
    --------
    >>> import tempfile
    >>> from repro.designs import DesignKey, DesignStore, compile_from_key
    >>> key = DesignKey.for_stream(32, 8, root_seed=1)
    >>> with tempfile.TemporaryDirectory() as root:
    ...     store = DesignStore(root)
    ...     _ = store.get_or_compile(key, lambda: compile_from_key(key))
    ...     store.stats.publishes, store.stats.entries
    (1, 1)
    """

    def __init__(self, root: "str | Path", max_bytes: "int | None" = None, *, verify: bool = True):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None for unbounded)")
        self.root = Path(root)
        self.max_bytes = int(max_bytes) if max_bytes is not None else None
        self.verify = bool(verify)
        self._locks = self.root / ".locks"
        self._locks.mkdir(parents=True, exist_ok=True)
        self._quarantine_dir = self.root / _QUARANTINE_DIR
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._publishes = 0
        self._quarantined = 0
        # Entries whose late entries check failed while another reader's pin
        # deferred their quarantine: attached with an eager entries hash.
        self._suspect: "set[str]" = set()

    # -- addressing -------------------------------------------------------------

    @staticmethod
    def digest(key: DesignKey) -> str:
        """Content address of ``key``: SHA-256 of its canonical JSON."""
        return hashlib.sha256(key.to_json().encode("ascii")).hexdigest()

    def entry_dir(self, key: DesignKey) -> Path:
        """Directory that holds (or would hold) ``key``'s artifact."""
        return self.root / self.digest(key)

    def __contains__(self, key: DesignKey) -> bool:
        return (self.entry_dir(key) / _META_NAME).is_file()

    # -- lookups ----------------------------------------------------------------

    def get(self, key: DesignKey) -> "CompiledDesign | None":
        """Attach ``key``'s persisted artifact, or ``None``.

        The returned :class:`~repro.designs.compiled.CompiledDesign` wraps
        read-only memory maps of the stored arrays plus the packed ``Ψ``
        bits of ``block.npy`` (unpacked on the block's first use), and
        holds a shared advisory lock on the entry, so :meth:`gc` (in this
        or any other process) will not evict it mid-read.  A corrupt or
        partially deleted entry counts as a miss and is quarantined.
        """
        return self._lookup(key, count=True)

    def _lookup(self, key: DesignKey, count: bool) -> "CompiledDesign | None":
        path = self.entry_dir(key)
        if not (path / _META_NAME).is_file():
            if count:
                self._misses += 1
                self._bump(misses=1)
            return None
        try:
            compiled = self._attach(path, key)
        except (ValueError, OSError) as exc:
            # Truncated arrays, a manifest digest mismatch, a vanished file
            # mid-attach, or meta that no longer matches the key: never
            # serve garbage — quarantine the entry for post-mortem (best
            # effort; an entry locked by a healthy reader is left) and let
            # the miss flow into the single-flight recompile path.  A
            # stale-format entry is simply dropped so the recompile can
            # republish it in the current format.
            if count:
                self._misses += 1
                self._bump(misses=1)
            if isinstance(exc, _StaleEntry):
                self._discard(path)
            else:
                self._quarantine(path)
            return None
        self._hits += 1
        self._bump(hits=1)
        self._touch(path)
        return compiled

    def get_or_compile(self, key: DesignKey, factory: Callable[[], CompiledDesign]) -> CompiledDesign:
        """``get(key)`` or compile-and-publish via ``factory`` on a miss.

        Cold keys are compiled by exactly one process machine-wide: the
        compilation runs under an exclusive per-key file lock, and every
        waiter re-checks the store once the leader publishes.
        """
        compiled = self.get(key)
        if compiled is not None:
            return compiled
        with _flocked(self._locks / f"{self.digest(key)}.compile"):
            # Re-check without re-counting the miss: if a leader published
            # while this process waited on the lock, that is one logical
            # lookup resolving warm, not a second miss.
            compiled = self._lookup(key, count=False)
            if compiled is not None:
                return compiled
            compiled = factory()
            if compiled.key != key:
                raise ValueError(f"factory produced key {compiled.key}, expected {key}")
            self.publish(compiled)
            return compiled

    # -- publication ------------------------------------------------------------

    def publish(self, compiled: CompiledDesign) -> Path:
        """Persist a compiled artifact atomically; idempotent per key.

        The arrays are written into a hidden temp directory and renamed
        into place, so concurrent readers only ever see complete entries.
        Losing a publication race to another process is silent — the
        surviving entry is bit-identical by the key invariant.  The
        entries are written in :func:`_entries_dtype` of ``n``.  A design
        whose ``block_resident`` is true also persists its dense ``Ψ``
        block bit-packed as ``block.npy``, which every warm attach adopts
        and unpacks instead of rebuilding the block from the entries.
        """
        path = self.entry_dir(compiled.key)
        if (path / _META_NAME).is_file():
            return path  # already published (same key => same bytes)
        tmp = self.root / f".tmp-{path.name[:16]}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        tmp.mkdir(parents=True)
        try:
            design = compiled.design
            arrays = {
                # The held array, checked but never widened here.
                "entries": design._held_entries().astype(_entries_dtype(compiled.n), copy=False),
                "indptr": design.indptr,
                "dstar": compiled.dstar,
                "delta": compiled.delta,
            }
            nbytes = 0
            for name in _ARRAY_FIELDS:
                np.save(tmp / f"{name}.npy", np.ascontiguousarray(arrays[name]))
                nbytes += (tmp / f"{name}.npy").stat().st_size
            with_block = compiled.block_resident
            if with_block:
                # Materialise (at most once — idempotent on the artifact)
                # and persist the dense Ψ block, one bit per cell: warm
                # attachers unpack it and skip the scatter from the entries.
                np.save(tmp / "block.npy", _pack_block(compiled.incidence_block()))
                nbytes += (tmp / "block.npy").stat().st_size
            (tmp / _LOCK_NAME).touch()
            (tmp / _USED_NAME).touch()
            payload_names = [f"{name}.npy" for name in _ARRAY_FIELDS]
            if with_block:
                payload_names.append("block.npy")
            meta = {
                "format_version": STORE_FORMAT_VERSION,
                "key": json.loads(compiled.key.to_json()),
                "n": compiled.n,
                "m": compiled.m,
                "nbytes": nbytes,
                "block": with_block,
                # Integrity manifest: every payload file's SHA-256, checked
                # at attach so bit rot and torn writes read as misses (the
                # entry is quarantined and recompiled), never as garbage.
                "sha256": {name: _sha256_file(tmp / name) for name in payload_names},
            }
            (tmp / _META_NAME).write_text(json.dumps(meta, sort_keys=True))
            _fault_trip("store.publish.pre_rename", path=tmp)
            try:
                os.rename(tmp, path)
            except OSError:
                if (path / _META_NAME).is_file():
                    # Lost the race: an identical complete entry landed first.
                    shutil.rmtree(tmp, ignore_errors=True)
                    return path
                # A *partial* directory squats on the address (a writer
                # crashed mid-eviction or mid-copy): it is invisible to
                # lookups and ls/gc, so left alone it would wedge this key
                # into compile-every-call forever.  Clear it and retry once.
                self._discard(path)
                try:
                    os.rename(tmp, path)
                except OSError:
                    shutil.rmtree(tmp, ignore_errors=True)
                    return path
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        self._publishes += 1
        self._bump(publishes=1)
        _fault_trip("store.publish", path=path)
        if self.max_bytes is not None:
            self.gc()
        return path

    # -- attachment internals ---------------------------------------------------

    def _attach(self, path: Path, key: DesignKey) -> CompiledDesign:
        """Build a read-only artifact from a complete entry: mapped arrays, packed block bits.

        A verified attach hashes every payload file but ``entries.npy``,
        whose check :meth:`_entries_check` leaves on the design's first
        read of entry values.  It hashes ``entries.npy`` too when a late
        mismatch could not heal or would save nothing (see the module
        docstring), or when the entry failed a late check in this store.
        """
        read_lock = _EntryReadLock(path / _LOCK_NAME)
        try:
            meta = json.loads((path / _META_NAME).read_text())
        except (OSError, ValueError) as exc:
            read_lock.close()
            raise ValueError(f"unreadable store entry {path.name}: {exc}") from exc
        if meta.get("format_version") != STORE_FORMAT_VERSION:
            read_lock.close()
            raise _StaleEntry(f"store entry {path.name} has unsupported format {meta.get('format_version')!r}")
        stored_key = DesignKey.from_json(json.dumps(meta.get("key", {})))
        if stored_key != key:
            read_lock.close()
            raise ValueError(f"store entry {path.name} addresses a different key")
        try:
            # Maps only: headers are parsed, no data page is touched.
            loaded = {name: np.load(path / f"{name}.npy", mmap_mode="r") for name in _ARRAY_FIELDS}
        except Exception as exc:
            read_lock.close()
            raise ValueError(f"corrupt store entry {path.name}: {exc}") from exc
        manifest = meta.get("sha256")
        deferred = (
            self.verify
            and key.scheme in _REGENERABLE_SCHEMES
            and bool(meta.get("block"))
            and isinstance(manifest, dict)
            and {"entries.npy", "block.npy"} <= manifest.keys()
            and path.name not in self._suspect
        )
        entry_range = None
        if self.verify:
            try:
                entry_range = self._verify_manifest(path, meta, entries=loaded["entries"], skip=("entries.npy",) if deferred else ())
            except ValueError:
                read_lock.close()
                raise
            if not deferred:
                self._suspect.discard(path.name)  # hashed in full and intact
        try:
            if deferred:
                check = self._entries_check(path, key, manifest["entries.npy"], loaded["entries"], read_lock)
                design = PoolingDesign._with_pending_check(key.n, loaded["entries"], loaded["indptr"], check)
            else:
                design = _design_from_maps(key.n, loaded["entries"], loaded["indptr"], entry_range)
            compiled = CompiledDesign(design, dstar=loaded["dstar"], delta=loaded["delta"], key=key, copy=False)
            if meta.get("block") and (path / "block.npy").is_file():
                # A private copy of the verified Ψ bits (1/32 of the block):
                # its first use unpacks it, with no scatter from the entries.
                compiled.adopt_packed_block(np.load(path / "block.npy"))
        except Exception as exc:
            read_lock.close()
            raise ValueError(f"corrupt store entry {path.name}: {exc}") from exc
        # The lock must outlive every mapping; the artifact owns it.
        compiled._store_read_lock = read_lock  # type: ignore[attr-defined]
        return compiled

    def _entries_check(self, path: Path, key: DesignKey, expected: str, mapped: np.ndarray, read_lock: _EntryReadLock) -> "Callable[[np.ndarray], np.ndarray]":
        """The check an attach defers to its design's first read of entry values.

        ``check(held)`` hashes ``entries.npy`` against ``expected`` and
        takes the range of its values from the same read
        (:func:`_sha256_and_range` over ``mapped``, the attach's map).  The
        artifact's read lock pins the entry directory, so the path still
        names the mapped file.  It returns ``held`` when the digest
        matches and every value lies in ``[0, n)``.  Otherwise — a
        mismatch, a wild value, a file gone or unreadable — the mapped
        values are never used: the entries are regenerated from the key,
        the artifact's own pin is dropped (it reads ``entries.npy`` no
        more, and its maps of the other files survive a rename) and the
        entry is quarantined.  When another reader's pin defers the
        quarantine, the entry is remembered, so its next attach in this
        store hashes ``entries.npy`` eagerly and misses.
        """

        def check(held: np.ndarray) -> np.ndarray:
            try:
                actual, observed = _sha256_and_range(path / "entries.npy", mapped)
            except OSError:  # gone or unreadable: a mismatch
                actual, observed = "", None
            if actual == expected:
                # A range the hash pass could not take is scanned, as at an unverified attach.
                lo, hi = observed or ((int(held.min()), int(held.max())) if held.size else (0, 0))
                if lo >= 0 and hi < key.n:
                    return held
            healed = _design_from_key(key).entries.astype(_entries_dtype(key.n))
            healed.setflags(write=False)
            read_lock.close()
            if not self._quarantine(path):
                self._suspect.add(path.name)
            return healed

        return check

    @staticmethod
    def _verify_manifest(path: Path, meta: dict, *, entries: "np.memmap | None" = None, skip: "tuple[str, ...]" = ()) -> "tuple[int, int] | None":
        """Check the payload files against the entry's SHA-256 manifest.

        Raises ``ValueError`` on a missing manifest, a missing file or a
        digest mismatch — all of which the caller treats as a corrupt
        entry (quarantine + recompile).  Presence is checked first, for
        every file; the files are then hashed in full, one after another
        in manifest order, on the calling thread — all but the ``skip``
        names, whose hash the caller defers.

        With ``entries`` (the attach's map of ``entries.npy``), the hash of
        that file also takes the ``(min, max)`` of its values from the same
        read, and the range is returned once every digest matched — the
        attach's entry range check.  ``None`` when no range was taken.
        """
        manifest = meta.get("sha256")
        if not isinstance(manifest, dict) or not manifest:
            raise ValueError(f"store entry {path.name} has no integrity manifest")
        for name in manifest:
            if not (path / name).is_file():
                raise ValueError(f"integrity: store entry {path.name} is missing {name}")

        entry_range = None
        for name, expected in manifest.items():
            if name in skip:
                continue
            if name == "entries.npy" and entries is not None:
                actual, observed = _sha256_and_range(path / name, entries)
            else:
                actual, observed = _sha256_file(path / name), None
            if actual != expected:
                raise ValueError(
                    f"integrity: store entry {path.name} file {name} hash mismatch "
                    f"(expected {expected[:12]}…, found {actual[:12]}…)"
                )
            entry_range = observed or entry_range
        return entry_range

    def _touch(self, path: Path) -> None:
        """Refresh the entry's recency marker (LRU input for :meth:`gc`)."""
        try:
            os.utime(path / _USED_NAME)
        except OSError:  # pragma: no cover - raced with an eviction
            pass

    def _discard(self, path: Path) -> bool:
        """Remove one entry unless a reader holds its shared lock."""
        lock_path = path / _LOCK_NAME
        try:
            fd = os.open(lock_path, os.O_RDWR)
        except OSError:
            shutil.rmtree(path, ignore_errors=True)  # no lock file: already partial
            return True
        try:
            if _HAS_FLOCK:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError:
                    return False  # mmap'd by a live reader somewhere
            shutil.rmtree(path, ignore_errors=True)
            return True
        finally:
            os.close(fd)

    def _quarantine(self, path: Path) -> bool:
        """Set a corrupt entry aside in ``.quarantine/`` for post-mortem.

        A single ``os.rename`` — atomic, so concurrent readers either see
        the (corrupt) entry or a miss, never a half-moved directory.  An
        entry pinned by a live reader's shared lock is left in place (it
        attached before the corruption landed; its mmap view is intact).
        Falls back to :meth:`_discard` if the rename itself fails.
        """
        lock_path = path / _LOCK_NAME
        if lock_path.is_file() and _HAS_FLOCK:
            try:
                fd = os.open(lock_path, os.O_RDWR)
            except OSError:
                pass  # lock vanished: entry is partial, quarantine anyway
            else:
                try:
                    try:
                        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    except OSError:
                        return False  # mmap'd by a live reader somewhere
                finally:
                    os.close(fd)
        dest = self._quarantine_dir / f"{path.name}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        try:
            self._quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.rename(path, dest)
        except OSError:
            if not path.exists():
                return True  # raced: another process already moved/removed it
            if not self._discard(path):
                return False
        self._suspect.discard(path.name)
        self._quarantined += 1
        self._bump(quarantined=1)
        return True

    # -- maintenance ------------------------------------------------------------

    def ls(self) -> "list[StoreEntry]":
        """Every complete entry, most recently used first."""
        out = []
        for child in self.root.iterdir():
            meta_path = child / _META_NAME
            if child.name.startswith(".") or not meta_path.is_file():
                continue
            try:
                meta = json.loads(meta_path.read_text())
                key = DesignKey.from_json(json.dumps(meta["key"]))
                used = (child / _USED_NAME).stat().st_mtime if (child / _USED_NAME).exists() else meta_path.stat().st_mtime
                out.append(StoreEntry(key=key, digest=child.name, nbytes=int(meta["nbytes"]), last_used=used, path=child))
            except (OSError, ValueError, KeyError, TypeError):
                continue  # partial/corrupt entries are invisible (and gc'able)
        return sorted(out, key=lambda e: e.last_used, reverse=True)

    def reap_residue(self, *, grace_s: float = RESIDUE_GRACE_S) -> int:
        """Remove crash leftovers older than ``grace_s`` seconds.

        Three shapes of residue accumulate only when a process dies at the
        wrong moment: ``.tmp-*`` publication dirs (publisher crashed
        between write and rename), ``.stats-*`` counter files (a
        compaction crashed between setting ``stats.log`` aside and
        unlinking it, or between writing the new ``stats.json`` and its
        ``os.replace``) and ``.quarantine/`` holdings
        (corrupt entries set aside for post-mortem).  Anything younger
        than the grace period is left — a slow but live publisher must
        never lose its tmp dir out from under its own rename.  Returns
        the number of items removed.
        """
        cutoff = time.time() - max(0.0, float(grace_s))
        reaped = 0
        try:
            residue = [c for c in self.root.iterdir() if c.name.startswith((".tmp-", ".stats-"))]
            if self._quarantine_dir.is_dir():
                residue += list(self._quarantine_dir.iterdir())
        except OSError:
            return 0
        for item in residue:
            try:
                if item.stat().st_mtime > cutoff:
                    continue
                reaped += _remove(item)
            except OSError:
                continue  # raced with the owner finishing; leave it
        return reaped

    def gc(self, max_bytes: "int | None" = None, *, residue_grace_s: float = RESIDUE_GRACE_S) -> "list[StoreEntry]":
        """Evict least-recently-used entries until the store fits the budget.

        Crash residue past ``residue_grace_s`` is reaped first (see
        :meth:`reap_residue`) — even with no byte budget, so an unbounded
        store still self-cleans.  Entries whose shared read lock is held
        (mmap-attached in any process) are skipped, as is the single most
        recently used entry — a store under byte pressure still serves
        its hottest design.  Returns the evicted entries.
        """
        self.reap_residue(grace_s=residue_grace_s)
        budget = self.max_bytes if max_bytes is None else int(max_bytes)
        if budget is None:
            return []
        entries = self.ls()  # most recent first
        total = sum(e.nbytes for e in entries)
        evicted: "list[StoreEntry]" = []
        # entries[0] (the MRU entry) is never a candidate — not even when
        # every older entry is pinned by a reader lock: a store under byte
        # pressure must still serve its hottest design.
        for entry in reversed(entries[1:]):  # oldest first
            if total <= budget:
                break
            if self._discard(entry.path):
                total -= entry.nbytes
                evicted.append(entry)
        if evicted:
            self._evictions += len(evicted)
            self._bump(evictions=len(evicted))
        return evicted

    def clear(self) -> None:
        """Drop every evictable entry (counters are kept)."""
        for entry in self.ls():
            if self._discard(entry.path):
                self._evictions += 1
                self._bump(evictions=1)

    def fsck(self) -> FsckReport:
        """Audit every entry's integrity manifest; quarantine failures.

        Verification reads metadata and streams file hashes, taking the
        entry range from the ``entries.npy`` bytes it hashes; the arrays
        are mapped for their headers only, so auditing a large store never
        perturbs reader page caches.  The entry then passes the attach's
        design checks (entry range, ``indptr`` shape, packed block shape),
        so ``fsck`` and :meth:`get` agree on every entry.  Entries failing any check are
        quarantined exactly as a corrupt attach would be; stale-format
        entries are dropped (the next lookup recompiles them).  Exposed as
        ``design store fsck`` on the CLI.
        """
        ok: "list[str]" = []
        bad: "list[str]" = []
        for entry in self.ls():
            try:
                meta = json.loads((entry.path / _META_NAME).read_text())
                if meta.get("format_version") != STORE_FORMAT_VERSION:
                    raise _StaleEntry(f"unsupported format {meta.get('format_version')!r}")
                loaded = {name: np.load(entry.path / f"{name}.npy", mmap_mode="r") for name in ("entries", "indptr")}
                entry_range = self._verify_manifest(entry.path, meta, entries=loaded["entries"])
                design = _design_from_maps(entry.key.n, loaded["entries"], loaded["indptr"], entry_range)
                if meta.get("block"):
                    packed = np.load(entry.path / "block.npy", mmap_mode="r")
                    _check_packed_block(packed, design.m, design.n)
            except _StaleEntry:
                self._discard(entry.path)  # stale, not corrupt: the next lookup recompiles
                continue
            except (OSError, ValueError):
                if self._quarantine(entry.path):
                    bad.append(entry.digest)
                continue
            ok.append(entry.digest)
        residue = sum(
            1
            for child in self.root.iterdir()
            if child.name.startswith(".tmp-") or child.name.startswith(".stats-")
        )
        held = len(list(self._quarantine_dir.iterdir())) if self._quarantine_dir.is_dir() else 0
        return FsckReport(
            checked=len(ok) + len(bad),
            ok=tuple(ok),
            quarantined=tuple(bad),
            residue=residue,
            quarantine_held=held,
        )

    # -- telemetry --------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Total persisted bytes across complete entries."""
        return sum(e.nbytes for e in self.ls())

    def __len__(self) -> int:
        return len(self.ls())

    @property
    def stats(self) -> StoreStats:
        """This instance's counters plus the directory's current footprint."""
        entries = self.ls()
        return StoreStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            publishes=self._publishes,
            entries=len(entries),
            nbytes=sum(e.nbytes for e in entries),
            quarantined=self._quarantined,
        )

    def persistent_stats(self) -> "dict[str, int]":
        """Cumulative counters across every process that used this root.

        The ``stats.json`` base plus every parseable delta line of
        ``stats.log``, read together under the stats lock so a concurrent
        compaction is never seen half-done.
        """
        with _flocked(self._locks / "stats.lock", exclusive=False):
            return self._read_counters(self.root / _STATS_LOG_NAME)

    def _read_counters(self, log: Path) -> "dict[str, int]":
        """The ``stats.json`` base plus the sum of ``log``'s delta lines."""
        counters = {k: 0 for k in _STAT_KEYS}
        try:
            base = json.loads((self.root / _STATS_NAME).read_text())
            counters = {k: int(base.get(k, 0)) for k in _STAT_KEYS}
        except (OSError, ValueError, TypeError, AttributeError):
            pass
        try:
            lines = log.read_bytes().split(b"\n")
        except OSError:
            lines = []
        for line in lines:
            try:
                deltas = json.loads(line)
                parsed = {k: int(deltas.get(k, 0)) for k in _STAT_KEYS}
            except (ValueError, TypeError, AttributeError):
                continue  # blank, or a torn record from a crashed writer
            for k, delta in parsed.items():
                counters[k] += delta
        return counters

    def _bump(self, **deltas: int) -> None:
        """Record counter deltas in the shared ``stats.log``.

        Runs on every lookup, so it must stay cheap: one ``O_APPEND``
        write of a JSON delta line under the stats flock, and no rename.
        (Rewriting ``stats.json`` through ``os.replace`` on every lookup
        cost 60–76 ms per call on ext4 — a rename over an existing file
        flushes its data — against ~0.01 ms for an in-place write.)  A
        writer that finds the log ending mid-line (a crashed writer's torn
        record) starts a fresh line, so the torn record alone is skipped.

        Once the log passes :data:`_STATS_COMPACT_BYTES`, this call folds
        it into ``stats.json``: set the log aside under a ``.stats-*``
        name, write the summed base through tmp + ``os.replace``, then
        unlink the set-aside log.  A crash in between can lose that log's
        deltas but never count them twice; the leftover file is
        :meth:`reap_residue` residue.
        """
        record = json.dumps(deltas, sort_keys=True, separators=(",", ":"))
        log = self.root / _STATS_LOG_NAME
        with _flocked(self._locks / "stats.lock"):
            fd = os.open(log, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                end = os.lseek(fd, 0, os.SEEK_END)
                torn = end > 0 and os.pread(fd, 1, end - 1) != b"\n"
                size = end + os.write(fd, ("\n" if torn else "").encode() + record.encode() + b"\n")
            finally:
                os.close(fd)
            if size > _STATS_COMPACT_BYTES:
                self._compact_stats(log)

    def _compact_stats(self, log: Path) -> None:
        """Fold ``stats.log`` into ``stats.json`` (caller holds the stats lock)."""
        stem = f".stats-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        aside = self.root / f"{stem}.log"
        os.rename(log, aside)
        counters = self._read_counters(aside)
        tmp = self.root / f"{stem}.json"
        tmp.write_text(json.dumps(counters, sort_keys=True))
        os.replace(tmp, self.root / _STATS_NAME)
        aside.unlink()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats
        return (
            f"DesignStore(root={str(self.root)!r}, entries={s.entries}, nbytes={s.nbytes}, "
            f"hits={s.hits}, misses={s.misses}, publishes={s.publishes}, evictions={s.evictions})"
        )


_default_stores: "dict[tuple[str, int | None], DesignStore]" = {}


def default_design_store(root: "str | Path", max_bytes: "int | None" = None) -> DesignStore:
    """The process-wide store for ``root`` (one instance per configuration)."""
    spec = (str(Path(root)), max_bytes)
    store = _default_stores.get(spec)
    if store is None:
        store = _default_stores[spec] = DesignStore(root, max_bytes=max_bytes)
    return store


def resolve_design_store(store: "DesignStore | None" = None) -> "DesignStore | None":
    """Resolve a ``store=`` argument against the ambient configuration.

    An explicit store wins; otherwise ``REPRO_DESIGN_STORE`` (a directory
    path) opts the process into a shared ambient store, optionally
    budgeted by ``REPRO_DESIGN_STORE_BYTES``.  Unset means ``None`` — all
    paths bit-identical to the store never existing.  A budget that is
    not a positive integer raises :class:`ValueError` naming the variable.
    """
    if store is not None:
        return store
    root = os.environ.get(DESIGN_STORE_ENV, "").strip()
    if not root:
        return None
    raw_bytes = os.environ.get(DESIGN_STORE_BYTES_ENV, "").strip()
    max_bytes = None
    if raw_bytes:
        try:
            max_bytes = int(raw_bytes)
        except ValueError:
            max_bytes = 0
        if max_bytes <= 0:
            raise ValueError(f"{DESIGN_STORE_BYTES_ENV}={raw_bytes!r} is not a positive integer byte budget")
    return default_design_store(root, max_bytes=max_bytes)


def reset_default_design_store() -> None:
    """Drop the memoised ambient stores (tests re-keying the environment)."""
    _default_stores.clear()
