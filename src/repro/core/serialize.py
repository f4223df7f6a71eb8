"""On-disk serialization of k-reach indexes.

§4.1.3: "the constructed index is then stored on disk."  This module
holds the one index file format and the two artifacts built on it:

* **The v6 index file** (:func:`save_mmap` / :func:`load_mmap`) stores
  a :class:`~repro.core.kreach.KReachIndex` — the graph's own dual CSR,
  so a load is self-contained, the cover-id table, and the index in one
  of two layouts.  Inside the memory gate (the distinct views of
  :func:`~repro.core.kreach.level_specs` fit the index's
  ``bitset_matrix_bytes``) the file holds the **level planes** — the
  nested ≤k-2 / ≤k-1 / ≤k cover-position bit matrices (one presence
  plane for n-reach) that Algorithm 2 probes — whatever built the
  index.  Past the gate it holds the §4.3 **CSR**: offsets, targets and
  the packed weight words.  It is one flat, uncompressed file: a fixed
  prologue, a JSON header with a section table, and every array at a
  64-byte-aligned offset in its exact in-memory dtype.
  :func:`load_mmap` maps the file once and installs each array as a
  zero-copy view: open time is O(header), not O(index), the first
  query faults in only the pages it touches, and the OS page cache
  shares the clean bytes across every process serving the same file
  (the substrate :mod:`repro.core.serve` builds its worker pool on).
  Mapped planes *are* the level stack, so N workers share one copy of
  it and ``prepare_batch()`` builds no view.  Nothing else derived is
  stored: a plane file's CSR, and a CSR file's level views and keyed
  arrays, are built on first use, as for a freshly built index.  Arrays
  arrive read-only (``mode='r'``); the whole query path is
  copy-on-build on top of them.  A file without a ``layout`` header
  field is a CSR file (every file written before the plane layout).
* **The op log** (:class:`OpLog`) journals a dynamic index's updates.  A
  :class:`~repro.core.dynamic.DynamicKReachIndex` persists as its base
  snapshot in a v6 file plus that journal, and :func:`recover_dynamic`
  replays the journal over the validated base.
* **The shard manifest** (:func:`save_sharded` / :func:`load_sharded`)
  is a directory of per-shard v6 files plus the routing array and the
  two global portal tables of a
  :class:`~repro.core.partition.ShardedKReach`.  The boundary set and
  every shard's vertex map are derived from the routing array.

Retired layouts are not read: the v2/v3 compressed ``.npz`` dumps, the
v4/v5 index files, which also stored the derived key / weight arrays,
v6 files whose header carries a ``storage`` field (the retired
``'wah'`` row storage, which added WAH copies of the rows), and v1
shard manifests, which also stored the boundary, the vertex maps and
per-shard portal tables.  Rebuild such an index and save it with
:func:`save_mmap` (or :func:`save_sharded` after
:func:`~repro.core.partition.partition_kreach`).

No Python-level edge loop runs in any direction on the array payloads.

Durability & integrity
----------------------
Every saver in this module is **atomic**: the payload is written to a
temp file in the destination directory, flushed and ``fsync``-ed, then
``os.replace``-d over the target (and the directory entry synced) — a
crash mid-save leaves the previous snapshot byte-identical, never a torn
file under the expected name (chaos-tested through the
``serialize.v4_write_mid`` failpoint in :mod:`repro.faults`).

The prologue carries a CRC32 of the JSON header, verified on every open
(O(header), so the zero-copy open cost is unchanged), and the section
table carries a CRC32 per array payload, verified by the opt-in
``verify=True`` full scan and by ``kreach-bench verify``.  Integrity
failures raise :class:`IndexCorruptionError` — a :class:`ValueError`
subclass carrying the offending section and byte offset.

Each :class:`OpLog` record carries its own CRC32.  A crash mid-append
(the ``serialize.v3_log_tail`` failpoint) leaves a torn tail that the
next open silently truncates — acknowledged records replay exactly,
garbage never does.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import faults
from repro.bitsets.ops import DEFAULT_MATRIX_BYTES
from repro.bitsets.packed import PackedIntArray
from repro.core.dynamic import DynamicKReachIndex
from repro.core.index_graph import IndexGraph
from repro.core.kreach import KReachIndex, level_specs
from repro.core.partition import _vertex_map
from repro.graph.digraph import DiGraph

__all__ = [
    "IndexCorruptionError",
    "save_mmap",
    "load_mmap",
    "OpLog",
    "read_oplog",
    "recover_oplog",
    "recover_dynamic",
    "save_sharded",
    "load_sharded",
    "ShardManifest",
    "verify_file",
]

#: Stored sentinel for the unbounded (n-reach) mode.
_K_UNBOUNDED = -1

#: Version 6 of the index file: v5's layout without its two derived
#: sections (the sorted ``u * n + v`` keys and the int64 weights).
_MMAP_FORMAT_VERSION = 6

#: File magic (8 bytes, ``KREACH<version>\0``), followed by a
#: little-endian uint64 header length and a little-endian uint32 CRC32
#: of the JSON header.
_MMAP_MAGIC = b"KREACH%d\x00" % _MMAP_FORMAT_VERSION
_MMAP_PROLOGUE = 20

#: Every section starts at a multiple of this (cache-line alignment;
#: any multiple of the widest itemsize would do for the views).
_MMAP_ALIGN = 64

#: The section tables: name -> dtype each array is stored (and mapped)
#: in, per index layout.  Dtypes match the in-memory representation
#: exactly so every view is zero-copy (`graph_*_indices` are the
#: DiGraph's int32 id dtype).  ``level_planes`` holds the distinct
#: level planes back to back, each ``|S| x ceil(|S| / 64)`` words.
_GRAPH_SECTIONS = {
    "graph_out_indptr": np.dtype("<i8"),
    "graph_out_indices": np.dtype("<i4"),
    "graph_in_indptr": np.dtype("<i8"),
    "graph_in_indices": np.dtype("<i4"),
    "cover_ids": np.dtype("<i8"),
}
_LAYOUTS = {
    "csr": {
        **_GRAPH_SECTIONS,
        "index_indptr": np.dtype("<i8"),
        "index_targets": np.dtype("<i8"),
        "weight_words": np.dtype("<u8"),
    },
    "planes": {**_GRAPH_SECTIONS, "level_planes": np.dtype("<u8")},
}


def _magic_version(magic: bytes) -> int | None:
    """The version a ``KREACH<digit>\\0`` index-file magic names, or None."""
    if magic[:6] == b"KREACH" and magic[7:8] == b"\x00" and magic[6:7].isdigit():
        return int(magic[6:7])
    return None


def _other_version(version: int) -> str:
    """Why an index file of another format version is not opened."""
    return (
        f"a v{version} k-reach index file; this reader opens only "
        f"v{_MMAP_FORMAT_VERSION} — rebuild the index and save it with "
        "save_mmap"
    )


def _retired_storage(storage) -> str:
    """Why a v6 file with a ``storage`` header field is not opened."""
    return (
        f"a v{_MMAP_FORMAT_VERSION} k-reach index file with {storage!r} "
        "row storage, which this reader no longer opens — rebuild the "
        "index and save it with save_mmap"
    )


class IndexCorruptionError(ValueError):
    """A stored index failed an integrity check.

    Subclasses :class:`ValueError`, so every pre-existing caller that
    catches the generic diagnosis keeps working; the typed form carries
    the file, the failing section (or ``None`` for whole-file problems),
    and the byte offset where the damage was detected (or ``None``).
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | os.PathLike | None = None,
        section: str | None = None,
        offset: int | None = None,
    ) -> None:
        super().__init__(message)
        self.path = None if path is None else os.fspath(path)
        self.section = section
        self.offset = offset


def _fsync_dir(directory: Path) -> None:
    """fsync a directory entry so a rename survives power loss (POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platforms without directory fds (Windows): best effort
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write(path: Path, writer) -> None:
    """Write ``path`` atomically: temp file + fsync + rename + dir sync.

    ``writer(fh)`` produces the payload into the temp handle.  A crash
    (or an injected fault) at any point before the final ``os.replace``
    leaves the previous file under ``path`` byte-identical; the
    half-written temp is removed on an in-process failure and is inert
    litter (never loadable under the target name) after a hard kill.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            writer(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_dir(path.parent)


# ----------------------------------------------------------------------
# The index file
# ----------------------------------------------------------------------
def _align(offset: int) -> int:
    """Round ``offset`` up to the section alignment."""
    return (offset + _MMAP_ALIGN - 1) // _MMAP_ALIGN * _MMAP_ALIGN


def _payload_arrays(
    index: KReachIndex,
) -> tuple[str, dict[str, list[np.ndarray]]]:
    """The layout and its payload in section order, each section as the
    arrays written back to back, coerced to the on-disk dtypes.

    The level planes whenever the index answers from them (see
    :func:`~repro.core.kreach.batch_views`), the CSR otherwise.
    For an index whose arrays already live in the canonical dtypes
    (every index this package builds) the coercions are no-ops.
    """
    g = index.graph
    ig = index.index_graph
    arrays = {
        "graph_out_indptr": [g.out_indptr],
        "graph_out_indices": [g.out_indices],
        "graph_in_indptr": [g.in_indptr],
        "graph_in_indices": [g.in_indices],
        "cover_ids": [ig.cover_ids],
    }
    if index._batch_views()[0] is None:
        layout = "csr"
        arrays.update(
            index_indptr=[ig.indptr],
            index_targets=[ig.targets],
            weight_words=[ig.packed.words],
        )
    else:
        layout = "planes"
        arrays["level_planes"] = ig.link_matrices(
            list(dict.fromkeys(level_specs(index.k)))
        )
    dtypes = _LAYOUTS[layout]
    return layout, {
        name: [np.ascontiguousarray(part, dtype=dtypes[name]) for part in parts]
        for name, parts in arrays.items()
    }


def save_mmap(index: KReachIndex, path: str | os.PathLike) -> None:
    """Write ``index`` as a flat memory-mappable v6 file.

    Layout: an 8-byte magic, a little-endian uint64 header length, a
    little-endian uint32 CRC32 of the JSON header, the JSON header
    carrying the scalars (``k``, ``n``, weight encoding, the index
    ``layout``: ``'planes'`` inside the memory gate, ``'csr'`` past it)
    and the section table (relative offset, element count, dtype, and
    payload CRC32 per array), then every array's raw bytes at a
    64-byte-aligned offset.
    The payload is **uncompressed**, so :func:`load_mmap` can map it
    zero-copy and the OS page cache can share the bytes across every
    serving process.

    The write is atomic: a crash mid-save (chaos-tested through the
    ``serialize.v4_write_mid`` failpoint) leaves any previous snapshot
    at ``path`` byte-identical.
    """
    layout, arrays = _payload_arrays(index)
    sections: dict[str, dict[str, object]] = {}
    offset = 0  # relative to the aligned payload base
    payload_bytes = 0  # true (unpadded) end of the last section
    for name, parts in arrays.items():
        crc = 0
        for part in parts:
            crc = zlib.crc32(part.data, crc)
        sections[name] = {
            "offset": offset,
            "count": sum(int(part.size) for part in parts),
            "dtype": parts[0].dtype.str,
            "crc32": crc,
        }
        payload_bytes = offset + sum(part.nbytes for part in parts)
        offset = _align(payload_bytes)
    header = {
        "format_version": _MMAP_FORMAT_VERSION,
        "kind": "kreach",
        "k": None if index.k is None else int(index.k),
        "n": int(index.graph.n),
        "weight_bits": int(index.index_graph.weight_bits),
        "weight_base": int(index.index_graph.weight_base),
        "layout": layout,
        "payload_bytes": payload_bytes,
        "sections": sections,
    }
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    base = _align(_MMAP_PROLOGUE + len(blob))

    def write(fh) -> None:
        fh.write(_MMAP_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(zlib.crc32(blob).to_bytes(4, "little"))
        fh.write(blob)
        mid = len(arrays) // 2
        for i, (name, parts) in enumerate(arrays.items()):
            if i == mid and faults.ENABLED:
                # Torn-write chaos hook: everything written so far is on
                # its way to the temp file when the fault kills (or
                # aborts) the save mid-payload.
                fh.flush()
                faults.fire("serialize.v4_write_mid")
            start = base + int(sections[name]["offset"])  # type: ignore[arg-type]
            fh.write(b"\x00" * (start - fh.tell()))
            for part in parts:
                fh.write(part.data)

    _atomic_write(Path(path), write)


def load_mmap(
    path: str | os.PathLike,
    *,
    mode: str = "r",
    validate: bool = False,
    verify: bool = False,
    bitset_matrix_bytes: int = DEFAULT_MATRIX_BYTES,
) -> KReachIndex:
    """Open an index written by :func:`save_mmap`, zero-copy.

    The file is mapped once (``mode='r'``: shared read-only pages;
    ``mode='c'``: copy-on-write, private) and every array is installed as
    a view into the mapping — open cost is parsing the header plus O(1)
    bounds checks per section, independent of index size.  The JSON
    header's CRC32 is always verified (still O(header)), so a bit flip in
    the section table can never install a wrong view.  Structural
    problems the header can reveal — bad magic, a retired format version
    or row storage, corrupt JSON, a missing / misaligned / out-of-bounds
    section, disagreeing array lengths — raise :class:`ValueError`
    (:class:`IndexCorruptionError` where a section is identifiable)
    naming the offending section.

    ``verify=True`` additionally checks every section's stored CRC32
    against its payload bytes (O(index) — opt in, the default preserves
    the O(header) open); a mismatch raises :class:`IndexCorruptionError`
    with the section and byte offset.  ``validate=True`` runs the full
    structural scan (the graph's CSR invariants, and the index's: its
    CSR's, or for planes their nesting, diagonal and padding bits) for
    arrays of uncertain provenance.

    The returned :class:`KReachIndex` serves queries directly off the
    read-only pages; every cache it builds lazily (a plane file's CSR,
    a CSR file's link matrices, keyed probe arrays, scalar probe dicts,
    adjacency lists) is a private copy-on-build structure, so many
    processes can open the same file and share its clean pages.
    ``bitset_matrix_bytes`` is the index's memory gate, and it caps only
    views the process would build privately: the mapped planes of a
    plane file are the level stack at any setting, while a CSR file
    builds its level views only if they fit the gate.
    """
    path = Path(path)
    if mode not in ("r", "c"):
        raise ValueError(f"mode must be 'r' or 'c', got {mode!r}")
    try:
        file_size = path.stat().st_size
        with open(path, "rb") as fh:
            prologue = fh.read(_MMAP_PROLOGUE)
            magic_version = _magic_version(prologue)
            if magic_version not in (None, _MMAP_FORMAT_VERSION):
                raise ValueError(f"{path} is {_other_version(magic_version)}")
            if len(prologue) < _MMAP_PROLOGUE:
                raise ValueError(
                    f"corrupt header in {path}: file shorter than the "
                    f"{_MMAP_PROLOGUE}-byte prologue"
                )
            if magic_version is None:
                raise ValueError(
                    f"{path} is not a k-reach mmap dump (bad magic)"
                )
            hlen = int.from_bytes(prologue[8:16], "little")
            if hlen <= 0 or _MMAP_PROLOGUE + hlen > file_size:
                raise ValueError(
                    f"corrupt header in {path}: declared header length "
                    f"{hlen} does not fit the {file_size}-byte file"
                )
            blob = fh.read(hlen)
    except OSError as exc:
        raise ValueError(f"cannot read mmap dump {path}: {exc}") from exc
    stored_crc = int.from_bytes(prologue[16:20], "little")
    actual_crc = zlib.crc32(blob)
    if actual_crc != stored_crc:
        raise IndexCorruptionError(
            f"corrupt header in {path}: header checksum mismatch "
            f"(stored 0x{stored_crc:08x}, computed 0x{actual_crc:08x})",
            path=path,
            offset=_MMAP_PROLOGUE,
        )
    try:
        header = json.loads(blob)
    except ValueError as exc:
        raise ValueError(
            f"corrupt header in {path}: not valid JSON ({exc})"
        ) from exc
    if not isinstance(header, dict):
        raise ValueError(
            f"corrupt header in {path}: not a JSON object "
            f"(a {type(header).__name__})"
        )
    version = header.get("format_version")
    if version != _MMAP_FORMAT_VERSION:
        raise ValueError(
            f"unsupported k-reach mmap file version {version} "
            f"(expected {_MMAP_FORMAT_VERSION})"
        )
    kind = header.get("kind")
    if kind != "kreach":
        raise ValueError(f"{path} holds a {kind!r} dump, not a k-reach index")
    if "storage" in header:
        raise IndexCorruptionError(
            f"{path} is {_retired_storage(header['storage'])}", path=path
        )
    try:
        n = int(header["n"])
        k_raw = header["k"]
        weight_bits = int(header["weight_bits"])
        weight_base = int(header["weight_base"])
        sections = header["sections"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"corrupt header in {path}: missing or malformed field ({exc})"
        ) from exc
    if n < 0 or not 1 <= weight_bits <= 32:
        raise ValueError(
            f"corrupt header in {path}: n={n}, weight_bits={weight_bits}"
        )
    k = None if k_raw is None else int(k_raw)
    if not isinstance(sections, dict):
        raise ValueError(f"corrupt header in {path}: no section table")
    layout = header.get("layout", "csr")
    if layout not in _LAYOUTS:
        raise ValueError(f"corrupt header in {path}: unknown layout {layout!r}")
    table = _LAYOUTS[layout]

    base = _align(_MMAP_PROLOGUE + hlen)
    # One shared mapping for the whole payload; every section is a view
    # into it.  The raw mmap module beats np.memmap's subclass machinery
    # by ~0.2 ms per open — which matters when open is the O(header)
    # operation the serving tier spins workers on.
    import mmap as mmap_mod

    with open(path, "rb") as fh:
        mapping = mmap_mod.mmap(
            fh.fileno(),
            0,
            access=(
                mmap_mod.ACCESS_READ if mode == "r" else mmap_mod.ACCESS_COPY
            ),
        )
    buf = np.frombuffer(mapping, dtype=np.uint8)
    views: dict[str, np.ndarray] = {}
    section_starts: dict[str, int] = {}
    payload_end = 0
    for name, dtype in table.items():
        entry = sections.get(name)
        if entry is None:
            raise IndexCorruptionError(
                f"corrupt mmap dump {path}: missing section {name!r}",
                path=path,
                section=name,
            )
        try:
            rel = int(entry["offset"])
            count = int(entry["count"])
            declared = np.dtype(entry["dtype"])
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexCorruptionError(
                f"corrupt mmap dump {path}: malformed entry for section "
                f"{name!r} ({exc})",
                path=path,
                section=name,
            ) from exc
        if declared != dtype:
            raise IndexCorruptionError(
                f"corrupt mmap dump {path}: section {name!r} declares dtype "
                f"{declared}, expected {dtype}",
                path=path,
                section=name,
            )
        if count < 0 or rel < 0 or rel % _MMAP_ALIGN:
            raise IndexCorruptionError(
                f"corrupt mmap dump {path}: section {name!r} has a bad or "
                f"misaligned offset (offset={rel}, count={count})",
                path=path,
                section=name,
                offset=rel,
            )
        start = base + rel
        stop = start + count * dtype.itemsize
        if stop > file_size:
            raise IndexCorruptionError(
                f"truncated mmap dump {path}: section {name!r} ends at byte "
                f"{stop} but the file holds only {file_size}",
                path=path,
                section=name,
                offset=start,
            )
        payload_end = max(payload_end, rel + count * dtype.itemsize)
        section_starts[name] = start
        views[name] = buf[start:stop].view(dtype)
    declared_payload = header.get("payload_bytes")
    if declared_payload != payload_end:
        raise ValueError(
            f"corrupt header in {path}: payload_bytes "
            f"{declared_payload!r} disagrees with the section table end "
            f"{payload_end}"
        )
    if verify:
        for name in table:
            stored = sections[name].get("crc32")
            if not isinstance(stored, int):
                raise IndexCorruptionError(
                    f"corrupt mmap dump {path}: section {name!r} records no "
                    "checksum",
                    path=path,
                    section=name,
                )
            actual = zlib.crc32(views[name])
            if actual != stored:
                raise IndexCorruptionError(
                    f"corrupt mmap dump {path}: section {name!r} checksum "
                    f"mismatch at byte {section_starts[name]} "
                    f"(stored 0x{stored:08x}, computed 0x{actual:08x})",
                    path=path,
                    section=name,
                    offset=section_starts[name],
                )

    def bad(section: str, msg: str) -> ValueError:
        return IndexCorruptionError(
            f"corrupt mmap dump {path}: section {section!r} {msg}",
            path=path,
            section=section,
        )

    # O(1) cross-section consistency — enough to make every later array
    # access in-bounds without scanning any payload.
    if len(views["graph_out_indptr"]) != n + 1:
        raise bad("graph_out_indptr", f"must hold {n + 1} offsets")
    if len(views["graph_in_indptr"]) != n + 1:
        raise bad("graph_in_indptr", f"must hold {n + 1} offsets")
    if len(views["graph_out_indices"]) != len(views["graph_in_indices"]):
        raise bad("graph_in_indices", "disagrees with the out-direction on |E|")
    cover_ids = views["cover_ids"]
    if len(cover_ids):
        # O(|S|) — the open path already scatters over the cover, and a
        # bad id here would corrupt that scatter silently (negative ids
        # wrap) or crash it undiagnosed (ids >= n).
        if int(cover_ids.min()) < 0 or int(cover_ids.max()) >= n:
            raise bad("cover_ids", f"holds vertex ids outside [0, {n})")
        if len(cover_ids) > 1 and not bool(np.all(cover_ids[1:] > cover_ids[:-1])):
            raise bad("cover_ids", "must be strictly ascending")
    # The stored arrays go in verbatim: the checks here keep every
    # access in bounds, and validate=True adds the O(index) scan.
    if layout == "planes":
        size = len(cover_ids)
        shape = (len(set(level_specs(k))), size, (size + 63) >> 6)
        if len(views["level_planes"]) != shape[0] * shape[1] * shape[2]:
            raise bad(
                "level_planes",
                f"must hold {shape[0]} level planes of {shape[1]} x "
                f"{shape[2]} words for k={k} and |S|={size}",
            )
        ig = IndexGraph.from_levels(
            n, cover_ids, k, list(views["level_planes"].reshape(shape))
        )
    else:
        edges = len(views["index_targets"])
        if len(views["index_indptr"]) != len(cover_ids) + 1:
            raise bad("index_indptr", "must hold cover size + 1 offsets")
        if int(views["index_indptr"][-1]) != edges:
            raise bad("index_indptr", f"must end at the {edges}-edge target count")
        expected_words = (edges * weight_bits + 63) // 64 + 1
        if len(views["weight_words"]) != expected_words:
            raise bad(
                "weight_words",
                f"must hold {expected_words} words for {edges} "
                f"{weight_bits}-bit weights",
            )
        packed = PackedIntArray.from_words(
            views["weight_words"], edges, bits=weight_bits, copy=False
        )
        ig = IndexGraph(
            n,
            cover_ids,
            views["index_indptr"],
            views["index_targets"],
            packed,
            weight_base,
        )

    g = DiGraph.from_csr(
        views["graph_out_indptr"],
        views["graph_out_indices"],
        in_indptr=views["graph_in_indptr"],
        in_indices=views["graph_in_indices"],
        validate=validate,
    )
    if validate:
        ig.validate()
    return KReachIndex.from_index_graph(
        g,
        k,
        cover=frozenset(cover_ids.tolist()),
        index_graph=ig,
        bitset_matrix_bytes=bitset_matrix_bytes,
    )


# ----------------------------------------------------------------------
# Crash-safe framed op log (the durable form of the delta log)
# ----------------------------------------------------------------------
#: Op-log file magic (8 bytes).
_OPLOG_MAGIC = b"KRLOG1\x00\x00"

#: Record framing: <u4 payload length> <i8 op, i8 u, i8 v> <u4 crc32>,
#: where the CRC covers the length prefix and the payload.  Fixed-size
#: frames mean a crashed append can tear at most the trailing record.
_OPLOG_PAYLOAD = 24
_OPLOG_RECORD = 4 + _OPLOG_PAYLOAD + 4


def _oplog_frame(op: int, u: int, v: int) -> bytes:
    body = _OPLOG_PAYLOAD.to_bytes(4, "little") + struct.pack(
        "<3q", int(op), int(u), int(v)
    )
    return body + zlib.crc32(body).to_bytes(4, "little")


def _oplog_scan(data: bytes, path) -> tuple[np.ndarray, int]:
    """Decode framed records; returns ``(ops, torn_tail_bytes)``.

    A *partial* trailing frame is a torn tail — the signature of a crash
    mid-append — and is reported for truncation.  A *complete* frame
    whose CRC fails is bit corruption of an acknowledged record and
    raises :class:`IndexCorruptionError` with its byte offset: silently
    dropping it (and everything after it) would un-acknowledge durable
    writes.
    """
    if data[: len(_OPLOG_MAGIC)] != _OPLOG_MAGIC:
        raise IndexCorruptionError(
            f"{path} is not a k-reach op log (bad magic)", path=path, offset=0
        )
    size = len(data)
    off = len(_OPLOG_MAGIC)
    rows: list[tuple[int, int, int]] = []
    while off < size:
        if size - off < _OPLOG_RECORD:
            return _oplog_rows(rows), size - off  # torn tail
        frame = data[off : off + _OPLOG_RECORD]
        length = int.from_bytes(frame[:4], "little")
        stored = int.from_bytes(frame[-4:], "little")
        if length != _OPLOG_PAYLOAD or zlib.crc32(frame[:-4]) != stored:
            raise IndexCorruptionError(
                f"corrupt op log {path}: record frame at byte {off} fails "
                "its checksum",
                path=path,
                offset=off,
            )
        rows.append(struct.unpack("<3q", frame[4:-4]))
        off += _OPLOG_RECORD
    return _oplog_rows(rows), 0


def _oplog_rows(rows: list[tuple[int, int, int]]) -> np.ndarray:
    if not rows:
        return np.empty((0, 3), dtype=np.int64)
    return np.asarray(rows, dtype=np.int64)


def read_oplog(path: str | os.PathLike) -> np.ndarray:
    """Decode an :class:`OpLog` file to an ``(ops, 3)`` int64 array.

    A torn tail (crash mid-append) is ignored — only whole, checksummed
    records are returned; the file itself is left untouched (use
    :func:`recover_oplog` to also truncate the tail in place).
    """
    return _oplog_scan(Path(path).read_bytes(), path)[0]


def recover_oplog(path: str | os.PathLike) -> tuple[np.ndarray, int]:
    """Read an op log, truncating any torn tail in place.

    Returns ``(ops, truncated_bytes)``; after it, the file ends on a
    record boundary and is safe to append to again.
    """
    path = Path(path)
    data = path.read_bytes()
    ops, torn = _oplog_scan(data, path)
    if torn:
        with open(path, "r+b") as fh:
            fh.truncate(len(data) - torn)
            fh.flush()
            os.fsync(fh.fileno())
    return ops, torn


class OpLog:
    """Append-only crash-safe journal of dynamic ``(op, u, v)`` updates.

    The durable form of a dynamic index's delta log
    (:meth:`~repro.core.dynamic.DynamicKReachIndex.pending_log`): each
    record is a fixed 32-byte frame carrying a checksummed length
    prefix, so a crash mid-append — the ``serialize.v3_log_tail``
    failpoint — leaves at most one torn trailing frame, which the next
    :class:`OpLog` open (or :func:`recover_oplog`) silently truncates.
    Acknowledged records replay exactly; garbage never does.

    Attach one to a live :class:`~repro.core.dynamic.DynamicKReachIndex`
    via :meth:`~repro.core.dynamic.DynamicKReachIndex.attach_journal` so
    every accepted update is journaled, or persist a dynamic index at
    rest as ``save_mmap(dyn.base, base_path)`` plus
    ``OpLog(log_path).extend(dyn.pending_log())``; rebuild it with
    :func:`recover_dynamic`.

    ``fsync=True`` (default) syncs every append — the journal is the
    durability story, so it does not buffer acknowledged ops.  Pass
    ``fsync=False`` for tests or bulk loads where the tradeoff is
    explicit.

    If an append *raises* (injected fault, disk full), the handle must
    be considered torn: reopen the path — the constructor runs recovery
    — before appending again.
    """

    def __init__(self, path: str | os.PathLike, *, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        self.recovered_bytes = 0
        if self.path.exists() and self.path.stat().st_size > 0:
            ops, self.recovered_bytes = recover_oplog(self.path)
            self._count = len(ops)
            self._fh = open(self.path, "ab")
        else:
            self._count = 0
            self._fh = open(self.path, "wb")
            self._fh.write(_OPLOG_MAGIC)
            self._sync()

    def _sync(self) -> None:
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def append(self, op: int, u: int, v: int) -> None:
        """Durably append one record (fsync-ed unless ``fsync=False``)."""
        frame = _oplog_frame(op, u, v)
        if faults.ENABLED and faults.armed("serialize.v3_log_tail"):
            # Torn-append chaos hook: half the frame reaches the disk
            # before the fault kills (or aborts) the writer.
            cut = len(frame) // 2
            self._fh.write(frame[:cut])
            self._fh.flush()
            os.fsync(self._fh.fileno())
            faults.fire("serialize.v3_log_tail")
            self._fh.write(frame[cut:])
        else:
            self._fh.write(frame)
        self._sync()
        self._count += 1

    def extend(self, log) -> None:
        """Append every ``(op, u, v)`` row of an array or iterable."""
        for op, u, v in np.asarray(log, dtype=np.int64).reshape(-1, 3).tolist():
            self.append(op, u, v)

    @property
    def op_count(self) -> int:
        """Records known durable (recovered at open + appended since)."""
        return self._count

    def __len__(self) -> int:
        return self._count

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._sync()
            finally:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "OpLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._fh is None else "open"
        return f"OpLog({str(self.path)!r}, ops={self._count}, {state})"


def recover_dynamic(
    base_path: str | os.PathLike,
    log_path: str | os.PathLike,
    **from_base_options,
) -> DynamicKReachIndex:
    """Rebuild a dynamic index from a base snapshot plus its journal.

    ``base_path`` is a v6 index file (:func:`save_mmap`), opened
    copy-on-write so the overlay never touches the shared pages, and
    validated in full (``validate=True``): the base comes from outside
    the process, and a broken CSR row must fail here, not inside a
    later query.  The journal's torn tail, if any, is truncated (see
    :func:`recover_oplog`) and the surviving records are replayed
    through the ordinary maintenance path, which rejects an unknown op
    code or an out-of-range vertex with :class:`ValueError`.
    ``from_base_options`` (``compaction_ratio``, ``compaction_min_rows``,
    ``auto_compact``) go to
    :meth:`~repro.core.dynamic.DynamicKReachIndex.from_base`.  Attach a
    fresh (or the recovered) journal afterwards to keep journaling.
    """
    base = load_mmap(base_path, mode="c", validate=True)
    ops, _ = recover_oplog(log_path)
    dyn = DynamicKReachIndex.from_base(base, **from_base_options)
    dyn.replay(ops)
    return dyn


# ----------------------------------------------------------------------
# Checksum audit (the `kreach-bench verify` backend)
# ----------------------------------------------------------------------
def _audit_mmap(path: Path, report: dict) -> None:
    raw = path.read_bytes()
    report["format"] = f"v{_MMAP_FORMAT_VERSION} index file"
    if len(raw) < _MMAP_PROLOGUE:
        report["detail"] = "file shorter than its prologue"
        return
    hlen = int.from_bytes(raw[8:16], "little")
    if hlen <= 0 or _MMAP_PROLOGUE + hlen > len(raw):
        report["detail"] = f"declared header length {hlen} does not fit the file"
        return
    blob = raw[_MMAP_PROLOGUE : _MMAP_PROLOGUE + hlen]
    stored = int.from_bytes(raw[16:20], "little")
    computed = zlib.crc32(blob)
    report["sections"].append(
        {
            "name": "<header>",
            "bytes": hlen,
            "stored": stored,
            "computed": computed,
            "status": "ok" if stored == computed else "mismatch",
        }
    )
    try:
        header = json.loads(blob)
    except ValueError:
        header = None
    if not isinstance(header, dict) or not isinstance(header.get("sections"), dict):
        report["detail"] = "header is not a JSON object with a section table"
        return
    sections = header["sections"]
    if "storage" in header:
        report["detail"] = f"{path} is {_retired_storage(header['storage'])}"
        return
    base = _align(_MMAP_PROLOGUE + hlen)
    for name, entry in sections.items():
        try:
            start = base + int(entry["offset"])
            nbytes = int(entry["count"]) * np.dtype(entry["dtype"]).itemsize
            stored = int(entry["crc32"])
        except (KeyError, TypeError, ValueError):
            report["sections"].append({"name": name, "status": "malformed"})
            continue
        row = {"name": name, "bytes": nbytes, "offset": start}
        if start + nbytes > len(raw):
            row["status"] = "truncated"
        else:
            computed = zlib.crc32(raw[start : start + nbytes])
            row.update(
                stored=stored,
                computed=computed,
                status="ok" if stored == computed else "mismatch",
            )
        report["sections"].append(row)
    # Checksums show the bytes are the ones written, not that they make
    # an index: open it with the full structural scan as well.
    try:
        load_mmap(path, validate=True)
    except ValueError as exc:
        report["detail"] = str(exc)


def _audit_oplog(path: Path, report: dict) -> None:
    report["format"] = "framed op log"
    try:
        ops, torn = _oplog_scan(path.read_bytes(), path)
        report["sections"].append(
            {
                "name": "records",
                "bytes": len(ops) * _OPLOG_RECORD,
                "count": len(ops),
                "status": "ok",
            }
        )
        if torn:
            report["sections"].append(
                {"name": "torn tail", "bytes": torn, "status": "torn-tail"}
            )
    except IndexCorruptionError as exc:
        report["sections"].append(
            {"name": "records", "offset": exc.offset, "status": "mismatch"}
        )


def verify_file(path: str | os.PathLike) -> dict:
    """Audit the checksums of any on-disk artifact this module writes.

    Accepts a v6 index file, a framed op log, or a sharded-manifest
    directory, and returns a report dict: ``format``, a ``sections``
    list (name, size, stored/computed CRC32, per-section ``status``),
    and ``ok`` — ``True`` iff nothing is corrupt.  An index file must
    also open under ``load_mmap(validate=True)``; if it does not, the
    reason is the report's ``detail``.  Statuses: ``ok``,
    ``mismatch``, ``truncated``, ``malformed``, and ``torn-tail`` (an op
    log's recoverable crashed append — not an error).  An index file or
    shard manifest of another format version is reported by version, not
    ``ok``.  This is the backend of ``kreach-bench verify``.
    """
    path = Path(path)
    report: dict = {
        "path": str(path),
        "format": None,
        "sections": [],
        "detail": "",
        "ok": False,
    }
    if path.is_dir():  # a sharded-manifest directory
        if (path / _SHARD_MANIFEST_NAME).exists():
            _audit_sharded(path, report)
        else:
            report["detail"] = (
                f"directory without a {_SHARD_MANIFEST_NAME}"
            )
            return report
    else:
        try:
            with open(path, "rb") as fh:
                magic = fh.read(8)
        except OSError as exc:
            report["detail"] = f"unreadable: {exc}"
            return report
        magic_version = _magic_version(magic)
        if magic_version == _MMAP_FORMAT_VERSION:
            _audit_mmap(path, report)
        elif magic_version is not None:
            report["format"] = f"v{magic_version} index file"
            report["detail"] = f"{path} is {_other_version(magic_version)}"
            return report
        elif magic == _OPLOG_MAGIC:
            _audit_oplog(path, report)
        elif magic[:1] == b"{" and path.name == _SHARD_MANIFEST_NAME:
            _audit_sharded(path.parent, report)
        else:
            report["detail"] = "not a k-reach index file or op log"
            return report
    bad_statuses = {"mismatch", "truncated", "malformed"}
    report["ok"] = not report["detail"] and bool(report["sections"]) and not any(
        row["status"] in bad_statuses for row in report["sections"]
    )
    return report


# ---------------------------------------------------------------------------
# Sharded manifest (directory of per-shard index files + portal tables)
# ---------------------------------------------------------------------------

#: Sharded-manifest directory format: ``manifest.json`` + N per-shard
#: index files + ``shard_of.npy`` and the two portal tables, each
#: independently loadable and individually CRC32'd by the manifest.
#: Version 2 dropped v1's derivable files (the boundary, the vertex
#: maps, the boundary closure and the per-shard portal tables).
_SHARD_FORMAT = "kreach-shards"
_SHARD_FORMAT_VERSION = 2
_SHARD_MANIFEST_NAME = "manifest.json"


def _other_shard_version(version: int) -> str:
    """Why a shard manifest of another format version is not opened."""
    return (
        f"a v{version} shard manifest; this reader opens only "
        f"v{_SHARD_FORMAT_VERSION} — rebuild it with partition_kreach + "
        "save_sharded"
    )


def _npy_payload(arr: np.ndarray) -> bytes:
    """An array serialized in ``.npy`` v1 format, in memory (for CRCs)."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.ascontiguousarray(arr), version=(1, 0))
    return buf.getvalue()


def _file_crc32(path: Path) -> tuple[int, int]:
    """Streamed ``(crc32, size)`` of an on-disk file."""
    crc = 0
    size = 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(1 << 20)
            if not chunk:
                return crc, size
            crc = zlib.crc32(chunk, crc)
            size += len(chunk)


def _manifest_digest(payload: dict) -> int:
    """CRC32 of the manifest's canonical JSON, ``crc32`` field excluded."""
    body = {key: value for key, value in payload.items() if key != "crc32"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


def shard_index_name(shard: int) -> str:
    """File name of shard ``shard``'s index file inside a manifest dir."""
    return f"shard-{shard:03d}.kr5"


@dataclass
class ShardManifest:
    """A loaded sharded-manifest directory.

    ``indexes[i]`` is shard ``i``'s :class:`KReachIndex` (each opened
    zero-copy via :func:`load_mmap` from ``shard_paths[i]``).
    ``shard_of`` (owning shard per vertex, ``-1`` for the boundary set)
    and the ``(n, |B|)`` int32 portal tables ``entry`` and ``exit`` are
    ``.npy``-memory-mapped; the boundary and the per-shard vertex maps
    are derived from ``shard_of``.  Feed the whole object to
    :meth:`repro.core.partition.ShardedKReach.from_manifest`.
    """

    directory: Path
    k: int | None
    n: int
    num_shards: int
    shard_of: np.ndarray
    entry: np.ndarray
    exit: np.ndarray
    shard_paths: list[Path]
    indexes: list[KReachIndex]
    meta: dict = field(default_factory=dict)


def save_sharded(sharded, directory: str | os.PathLike) -> Path:
    """Persist a :class:`~repro.core.partition.ShardedKReach` to a directory.

    Layout: one ``manifest.json`` (atomic-written, carrying a CRC32 of
    its own canonical body plus per-file byte counts and CRC32s), N
    ``shard-%03d.kr5`` index files — each independently
    :func:`load_mmap`-able — and three ``.npy`` arrays: ``shard_of``,
    ``entry`` and ``exit``.  Every file is written through the same
    temp+fsync+rename discipline as :func:`save_mmap`, and the manifest
    is written **last**, so a crash mid-save never leaves a manifest
    naming files that do not match it.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files: dict[str, dict] = {}

    def put_npy(name: str, arr: np.ndarray) -> None:
        payload = _npy_payload(arr)
        _atomic_write(directory / name, lambda fh: fh.write(payload))
        files[name] = {"bytes": len(payload), "crc32": zlib.crc32(payload)}

    put_npy("shard_of.npy", np.asarray(sharded.shard_of, np.int64))
    put_npy("entry.npy", np.asarray(sharded.entry, np.int32))
    put_npy("exit.npy", np.asarray(sharded.exit, np.int32))
    for i, shard in enumerate(sharded.shards):
        index_name = shard_index_name(i)
        save_mmap(shard.index, directory / index_name)
        crc, size = _file_crc32(directory / index_name)
        files[index_name] = {"bytes": size, "crc32": crc}

    manifest = {
        "format": _SHARD_FORMAT,
        "format_version": _SHARD_FORMAT_VERSION,
        "k": _K_UNBOUNDED if sharded.k is None else int(sharded.k),
        "n": int(sharded.n),
        "num_shards": int(sharded.num_shards),
        "files": files,
    }
    manifest["crc32"] = _manifest_digest(manifest)
    blob = json.dumps(manifest, indent=1, sort_keys=True).encode("utf-8")
    _atomic_write(directory / _SHARD_MANIFEST_NAME, lambda fh: fh.write(blob))
    return directory


def _check_manifest(manifest: dict, manifest_path: Path) -> None:
    """Refuse a manifest whose fields the loader cannot trust.

    The CRC32 only shows that a writer signed these bytes, not that what
    they say is usable.  ``n``, ``num_shards`` and ``k`` must be integers
    in range (``k == -1`` is n-reach), and ``files`` must name exactly
    ``shard_of.npy``, ``entry.npy``, ``exit.npy`` and the ``num_shards``
    shard files, each as ``{"bytes": int, "crc32": int}``, so no file
    escapes the size and checksum checks.  Raises
    :class:`IndexCorruptionError` naming the field.
    """

    def bad(field: str, why: str) -> IndexCorruptionError:
        return IndexCorruptionError(
            f"malformed sharded manifest: {field} {why}",
            path=manifest_path,
            section=field,
        )

    def is_int(value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    for name, low in (("n", 0), ("num_shards", 1), ("k", _K_UNBOUNDED)):
        value = manifest.get(name)
        if not is_int(value) or value < low:
            raise bad(name, f"must be an integer >= {low}, got {value!r}")
    files = manifest.get("files")
    if not isinstance(files, dict):
        raise bad("files", f"must be a table of files, got {files!r}")
    num_shards = manifest["num_shards"]
    expected = {"shard_of.npy", "entry.npy", "exit.npy"}
    if len(files) == len(expected) + num_shards:
        expected.update(shard_index_name(i) for i in range(num_shards))
    if set(files) != expected:
        raise bad(
            "files",
            f"must name shard_of.npy, entry.npy, exit.npy and {num_shards} "
            f"shard files, got {sorted(files)}",
        )
    for name, entry in files.items():
        if not (
            isinstance(entry, dict)
            and is_int(entry.get("bytes"))
            and is_int(entry.get("crc32"))
            and entry["bytes"] >= 0
            and 0 <= entry["crc32"] < 1 << 32
        ):
            raise bad(
                f"files[{name!r}]",
                f'must be {{"bytes": int, "crc32": int}}, got {entry!r}',
            )


def _read_manifest(directory: Path) -> dict:
    manifest_path = directory / _SHARD_MANIFEST_NAME
    try:
        with open(manifest_path, "rb") as fh:
            manifest = json.loads(fh.read().decode("utf-8"))
    except OSError as exc:
        raise IndexCorruptionError(
            f"unreadable sharded manifest: {exc}", path=manifest_path
        ) from exc
    except (ValueError, UnicodeDecodeError) as exc:
        raise IndexCorruptionError(
            f"malformed sharded manifest: {exc}", path=manifest_path
        ) from exc
    if not isinstance(manifest, dict) or manifest.get("format") != _SHARD_FORMAT:
        raise IndexCorruptionError(
            f"not a {_SHARD_FORMAT} manifest", path=manifest_path
        )
    version = manifest.get("format_version")
    if version != _SHARD_FORMAT_VERSION:
        raise IndexCorruptionError(
            f"{directory} is {_other_shard_version(version)}"
            if isinstance(version, int)
            else f"unsupported manifest version {version!r}",
            path=manifest_path,
        )
    if _manifest_digest(manifest) != manifest.get("crc32"):
        raise IndexCorruptionError(
            "manifest CRC32 mismatch", path=manifest_path, section="manifest"
        )
    _check_manifest(manifest, manifest_path)
    return manifest


def _load_npy(
    directory: Path, name: str, dtype: type, shape: tuple[int, ...]
) -> np.ndarray:
    """Memory-map one manifest array, refusing a wrong dtype or shape."""
    path = directory / name
    try:
        arr = np.load(path, mmap_mode="r")
    except (OSError, ValueError) as exc:
        raise IndexCorruptionError(
            f"unreadable array file: {exc}", path=path, section=name
        ) from exc
    if arr.dtype != dtype or arr.shape != shape:
        raise IndexCorruptionError(
            f"{name} holds {arr.dtype} {arr.shape}, expected "
            f"{np.dtype(dtype)} {shape}",
            path=path,
            section=name,
        )
    return arr


def load_sharded(
    directory: str | os.PathLike,
    *,
    mode: str = "r",
    verify: bool = False,
) -> ShardManifest:
    """Open a :func:`save_sharded` directory; every shard zero-copy.

    ``verify=True`` additionally CRC32-checks every listed file against
    the manifest (O(bytes) — opt in; the default only validates the
    manifest's own checksum and each file's presence and size).  A
    missing, resized, or corrupt file raises
    :class:`IndexCorruptionError` naming it, as does anything the
    routing would trip over: a ``shard_of`` entry outside
    ``[-1, num_shards)``, portal tables of the wrong dtype or shape, or
    a shard file whose vertex count disagrees with its derived vertex
    map.  A v1 manifest is refused by version.
    """
    directory = Path(directory)
    manifest = _read_manifest(directory)
    for name, entry in manifest["files"].items():
        path = directory / name
        try:
            size = path.stat().st_size
        except OSError as exc:
            raise IndexCorruptionError(
                f"missing shard file: {exc}", path=path
            ) from exc
        if size != entry["bytes"]:
            raise IndexCorruptionError(
                f"size mismatch: manifest says {entry['bytes']} B, "
                f"found {size} B",
                path=path,
                section=name,
            )
        if verify:
            crc, _ = _file_crc32(path)
            if crc != entry["crc32"]:
                raise IndexCorruptionError(
                    "file CRC32 mismatch", path=path, section=name
                )

    n = manifest["n"]
    num_shards = manifest["num_shards"]
    shard_of = _load_npy(directory, "shard_of.npy", np.int64, (n,))
    if n and (int(shard_of.min()) < -1 or int(shard_of.max()) >= num_shards):
        raise IndexCorruptionError(
            f"shard_of.npy holds shard ids outside [-1, {num_shards})",
            path=directory / "shard_of.npy",
            section="shard_of.npy",
        )
    boundary_size = int(np.count_nonzero(shard_of < 0))
    table_shape = (n, boundary_size)
    entry_table = _load_npy(directory, "entry.npy", np.int32, table_shape)
    exit_table = _load_npy(directory, "exit.npy", np.int32, table_shape)
    shard_paths = [directory / shard_index_name(i) for i in range(num_shards)]
    indexes = [load_mmap(path, mode=mode) for path in shard_paths]
    for i, (path, index) in enumerate(zip(shard_paths, indexes)):
        size = len(_vertex_map(shard_of, i))
        if index.graph.n != size:
            raise IndexCorruptionError(
                f"{path.name} holds {index.graph.n} vertices, but shard_of.npy "
                f"maps {size} to its shard",
                path=path,
                section=path.name,
            )
    stored_k = manifest["k"]
    return ShardManifest(
        directory=directory,
        k=None if stored_k == _K_UNBOUNDED else stored_k,
        n=n,
        num_shards=num_shards,
        shard_of=shard_of,
        entry=entry_table,
        exit=exit_table,
        shard_paths=shard_paths,
        indexes=indexes,
        meta=manifest,
    )


def _audit_sharded(directory: Path, report: dict) -> None:
    """Per-file CRC audit of a sharded manifest directory."""
    report["format"] = f"{_SHARD_FORMAT}(v{_SHARD_FORMAT_VERSION})"
    manifest_path = directory / _SHARD_MANIFEST_NAME
    try:
        with open(manifest_path, "rb") as fh:
            blob = fh.read()
        manifest = json.loads(blob.decode("utf-8"))
        stored = int(manifest.get("crc32", -1))
        computed = _manifest_digest(manifest)
        version = manifest.get("format_version")
        wrong_shape = manifest.get("format") != _SHARD_FORMAT or not isinstance(
            version, int
        )
    except OSError as exc:
        report["detail"] = f"unreadable manifest: {exc}"
        return
    except (ValueError, UnicodeDecodeError, TypeError, AttributeError):
        wrong_shape = True
    if wrong_shape:
        report["sections"].append(
            {"name": "manifest.json", "bytes": len(blob), "status": "malformed"}
        )
        return
    if version != _SHARD_FORMAT_VERSION:
        report["format"] = f"{_SHARD_FORMAT}(v{version})"
        report["detail"] = f"{directory} is {_other_shard_version(version)}"
        return
    report["sections"].append(
        {
            "name": "manifest.json",
            "bytes": len(blob),
            "stored": stored,
            "computed": computed,
            "status": "ok" if stored == computed else "mismatch",
        }
    )
    try:
        _check_manifest(manifest, manifest_path)
    except IndexCorruptionError as exc:
        report["detail"] = str(exc)
        return
    for name, entry in manifest["files"].items():
        path = directory / name
        row = {"name": name, "bytes": entry["bytes"]}
        try:
            size = path.stat().st_size
        except OSError:
            row["status"] = "truncated"  # listed in the manifest, not on disk
            report["sections"].append(row)
            continue
        if size != entry["bytes"]:
            row["bytes"] = size
            row["status"] = "truncated"
            report["sections"].append(row)
            continue
        crc, _ = _file_crc32(path)
        row["stored"] = entry["crc32"]
        row["computed"] = crc
        row["status"] = "ok" if crc == entry["crc32"] else "mismatch"
        report["sections"].append(row)
