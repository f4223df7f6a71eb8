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
* **The sharded file** (:func:`save_sharded` / :func:`load_sharded`)
  is the same v6 file holding a
  :class:`~repro.core.partition.ShardedKReach`: the routing array
  ``shard_of`` and the two global portal tables ``entry`` and ``exit``,
  then every shard's index sections under an ``s<i>/`` prefix, all
  under one header and one section table.  A shard worker opens its
  own sections with ``load_mmap(path, shard=i)``.  The boundary set and
  every shard's vertex map are derived from ``shard_of``.
* **The op log** (:class:`OpLog`) journals a dynamic index's updates.  A
  :class:`~repro.core.dynamic.DynamicKReachIndex` persists as its base
  snapshot in a v6 file plus that journal, and :func:`recover_dynamic`
  replays the journal over the validated base.

Retired layouts are not read: the v2/v3 compressed ``.npz`` dumps, the
v4/v5 index files, which also stored the derived key / weight arrays,
v6 files whose header carries a ``storage`` field (the retired
``'wah'`` row storage, which added WAH copies of the rows), and
shard-manifest directories (a ``manifest.json`` beside ``.npy`` routing
arrays and one index file per shard).  Rebuild such an index and save
it with :func:`save_mmap` (or :func:`save_sharded` after
:func:`~repro.core.partition.partition_kreach`).

No Python-level edge loop runs in any direction on the array payloads.

Durability & integrity
----------------------
Every saver in this module is **atomic**: the payload is written to a
temp file in the destination directory, flushed and ``fsync``-ed, then
``os.replace``-d over the target (and the directory entry synced) — a
crash mid-save leaves the previous snapshot byte-identical, never a torn
file under the expected name (chaos-tested through the
``serialize.v4_write_mid`` failpoint in :mod:`repro.faults`).  A
sharded index is one such file, so an aborted re-save cannot mix the
routing tables of one partition with the shards of another.

The prologue carries a CRC32 of the JSON header, verified on every open
(O(header), so the zero-copy open cost is unchanged), and the section
table carries a CRC32 per array payload, verified by the opt-in
``verify=True`` full scan and by ``kreach-bench verify``.  Every header
scalar must be a JSON integer in range, and the file must end where its
last section does.  Integrity failures raise
:class:`IndexCorruptionError` — a :class:`ValueError` subclass carrying
the offending section (or header field) and byte offset.

Each :class:`OpLog` record carries its own CRC32.  A crash mid-append
(the ``serialize.v3_log_tail`` failpoint) leaves a torn tail that the
next open silently truncates — acknowledged records replay exactly,
garbage never does.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from repro import faults
from repro.bitsets.ops import DEFAULT_MATRIX_BYTES
from repro.bitsets.packed import PackedIntArray
from repro.core.dynamic import DynamicKReachIndex
from repro.core.index_graph import IndexGraph
from repro.core.kreach import KReachIndex, level_specs
from repro.core.partition import Shard, ShardedKReach, _vertex_map
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
    "verify_file",
]

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

#: The header ``kind`` of a file holding one index, and of one holding
#: a sharded index.
_PLAIN = "kreach"
_SHARDED = "kreach-shards"

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

#: A sharded file's routing sections, ahead of its shards' sections:
#: the owning shard per vertex (-1 for the boundary set) and the two
#: ``(n, |B|)`` portal tables, row-major.
_ROUTING_SECTIONS = {
    "shard_of": np.dtype("<i8"),
    "entry": np.dtype("<i4"),
    "exit": np.dtype("<i4"),
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


def _retired_directory(path: Path) -> str:
    """Why a directory (a retired shard manifest) is not opened."""
    return (
        f"{path} is a directory, not a v{_MMAP_FORMAT_VERSION} index file; "
        "shard-manifest directories are no longer read — rebuild the index "
        "with partition_kreach + save_sharded"
    )


class IndexCorruptionError(ValueError):
    """A stored index failed an integrity check.

    Subclasses :class:`ValueError`, so every pre-existing caller that
    catches the generic diagnosis keeps working; the typed form carries
    the file, the failing section or header field (or ``None`` for
    whole-file problems), and the byte offset where the damage was
    detected (or ``None``).
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


def _index_payload(
    index: KReachIndex,
) -> tuple[dict, dict[str, list[np.ndarray]]]:
    """One index's header scalars and its sections in file order, each
    section as the arrays written back to back, in the on-disk dtypes.

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
    scalars = {
        "n": int(g.n),
        "weight_bits": int(ig.weight_bits),
        "weight_base": int(ig.weight_base),
        "layout": layout,
    }
    return scalars, _coerced(arrays, _LAYOUTS[layout])


def _coerced(
    arrays: dict[str, list], dtypes: dict[str, np.dtype]
) -> dict[str, list[np.ndarray]]:
    """Every part of every section as a C-contiguous on-disk array."""
    return {
        name: [np.ascontiguousarray(part, dtype=dtypes[name]) for part in parts]
        for name, parts in arrays.items()
    }


def _write_file(
    path: str | os.PathLike, header: dict, arrays: dict[str, list[np.ndarray]]
) -> None:
    """Write one v6 file atomically: the prologue, ``header`` completed
    with the section table, then every section's arrays at a
    64-byte-aligned offset.

    The table records each section's offset (relative to the aligned
    payload base), element count, dtype and payload CRC32.  The
    ``serialize.v4_write_mid`` failpoint fires midway through the
    payload, so a chaos test can abort or kill any save there.
    """
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
        **header,
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
    scalars, arrays = _index_payload(index)
    k = None if index.k is None else int(index.k)
    _write_file(path, {"kind": _PLAIN, "k": k, **scalars}, arrays)


def save_sharded(sharded: ShardedKReach, path: str | os.PathLike) -> Path:
    """Write a :class:`~repro.core.partition.ShardedKReach` as one v6 file.

    The header carries ``k``, the global ``n`` and, in ``shards``, the
    scalars each shard's index would carry in a file of its own
    (``n``, ``layout``, ``weight_bits``, ``weight_base``).  The section
    table holds ``shard_of``, ``entry`` and ``exit``, then shard ``i``'s
    index sections named ``s<i>/<section>`` (``s0/cover_ids``, ...).
    Nothing derivable is stored: the boundary set and every shard's
    vertex map come from ``shard_of``.

    It is written through the same writer as :func:`save_mmap`, so the
    save is atomic: a crash or an aborted re-save leaves the previous
    file at ``path`` byte-identical.  Returns ``path``.
    """
    arrays = _coerced(
        {
            "shard_of": [sharded.shard_of],
            "entry": [sharded.entry],
            "exit": [sharded.exit],
        },
        _ROUTING_SECTIONS,
    )
    shards = []
    for i, shard in enumerate(sharded.shards):
        scalars, sections = _index_payload(shard.index)
        shards.append(scalars)
        arrays.update((f"s{i}/{name}", parts) for name, parts in sections.items())
    k = None if sharded.k is None else int(sharded.k)
    header = {"kind": _SHARDED, "k": k, "n": int(sharded.n), "shards": shards}
    _write_file(path, header, arrays)
    return Path(path)


def _is_int(value, low: int | None = None, high: int | None = None) -> bool:
    """``value`` is a JSON integer (not a bool) in ``[low, high]``."""
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and (low is None or value >= low)
        and (high is None or value <= high)
    )


def _corrupt(
    path: Path, section: str | None, msg: str, offset: int | None = None
) -> IndexCorruptionError:
    """The typed error for a bad ``section`` (or header field) of ``path``."""
    return IndexCorruptionError(
        f"corrupt index file {path}: {msg}", path=path, section=section, offset=offset
    )


def _section_table(header: dict, path: Path) -> dict[str, np.dtype]:
    """Check the header's scalars; return the sections they call for.

    Every scalar must be a JSON integer (not a bool, float or string) in
    range — ``n >= 0``, ``k >= 0`` or null (n-reach), ``weight_bits`` in
    ``[1, 32]`` — and ``layout`` one of the index layouts (absent means
    CSR), so a re-signed header with ``k: 1.5`` cannot open a 3-reach
    file as a 1-reach index.  A plain file carries one index's scalars at the
    top level; a sharded file carries its routing sections and, per
    entry of ``shards``, one index's scalars and sections under an
    ``s<i>/`` prefix.  Raises :class:`IndexCorruptionError` naming the
    field.
    """

    def integer(fields: dict, name: str, low=None, high=None, where="") -> None:
        value = fields.get(name)
        if not _is_int(value, low, high):
            need = (
                "an integer" if low is None
                else f"an integer >= {low}" if high is None
                else f"an integer in [{low}, {high}]"
            )
            raise _corrupt(
                path, where + name, f"header field {where}{name} must be {need}, "
                f"got {value!r}"
            )

    def index_sections(fields: dict, where: str = "") -> dict[str, np.dtype]:
        integer(fields, "n", 0, where=where)
        integer(fields, "weight_bits", 1, 32, where=where)
        integer(fields, "weight_base", where=where)
        layout = fields.get("layout", "csr")
        if not isinstance(layout, str) or layout not in _LAYOUTS:
            raise _corrupt(
                path, where + "layout", f"unknown layout {layout!r} in {where}layout"
            )
        return _LAYOUTS[layout]

    if "k" not in header or not (header["k"] is None or _is_int(header["k"], 0)):
        got = f"got {header['k']!r}" if "k" in header else "it is missing"
        raise _corrupt(
            path, "k", f"header field k must be null (n-reach) or an int >= 0, {got}"
        )
    integer(header, "n", 0)
    if header["kind"] == _PLAIN:
        return index_sections(header)
    shards = header.get("shards")
    if not (
        isinstance(shards, list)
        and shards
        and all(isinstance(fields, dict) for fields in shards)
    ):
        raise _corrupt(
            path, "shards", f"header field shards must be a non-empty list of "
            f"objects, got {shards!r}"
        )
    table = dict(_ROUTING_SECTIONS)
    for i, fields in enumerate(shards):
        sections = index_sections(fields, f"shards[{i}].")
        table.update((f"s{i}/{name}", dtype) for name, dtype in sections.items())
    return table


def _open(
    path: Path, mode: str, verify: bool
) -> tuple[dict, dict[str, np.ndarray]]:
    """Map a v6 file once; return its checked header and one view per
    section.

    Everything the header declares is checked here, in O(header): the
    magic, the header CRC32, the format version, the ``kind``, every
    scalar (:func:`_section_table`), and the section table itself — the
    exact set of sections, each entry's offset, count, dtype and CRC32,
    each section inside the file, and the file ending where its last
    section does.  ``verify=True`` adds the O(file) CRC32 scan of every
    section's payload.
    """
    if mode not in ("r", "c"):
        raise ValueError(f"mode must be 'r' or 'c', got {mode!r}")
    if path.is_dir():
        raise IndexCorruptionError(_retired_directory(path), path=path)
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
    if kind not in (_PLAIN, _SHARDED):
        raise ValueError(f"{path} holds a {kind!r} dump, not a k-reach index")
    if "storage" in header:
        raise IndexCorruptionError(
            f"{path} is {_retired_storage(header['storage'])}", path=path
        )
    table = _section_table(header, path)
    sections = header.get("sections")
    if not isinstance(sections, dict):
        raise _corrupt(path, "sections", f"sections is not a table: {sections!r}")
    for name in table:
        if name not in sections:
            raise _corrupt(path, name, f"missing section {name!r}")
    for name in sections:
        if name not in table:
            raise _corrupt(path, name, f"unexpected section {name!r}")
    base = _align(_MMAP_PROLOGUE + hlen)
    spans: dict[str, tuple[int, int]] = {}
    payload_end, last = 0, None
    for name, dtype in table.items():
        entry = sections[name]
        if not (
            isinstance(entry, dict)
            and _is_int(entry.get("offset"), 0)
            and _is_int(entry.get("count"), 0)
            and _is_int(entry.get("crc32"), 0, 0xFFFFFFFF)
        ):
            raise _corrupt(
                path, name, f"malformed entry for section {name!r}: {entry!r}"
            )
        if entry.get("dtype") != dtype.str:
            raise _corrupt(
                path, name, f"section {name!r} declares dtype "
                f"{entry.get('dtype')!r}, expected {dtype.str!r}"
            )
        start = base + entry["offset"]
        stop = start + entry["count"] * dtype.itemsize
        if entry["offset"] % _MMAP_ALIGN:
            raise _corrupt(
                path, name, f"section {name!r} has a misaligned offset", start
            )
        if stop > file_size:
            raise _corrupt(
                path, name, f"truncated: section {name!r} ends at byte {stop} "
                f"but the file holds only {file_size}", start
            )
        spans[name] = (start, stop)
        if stop - base >= payload_end:
            payload_end, last = stop - base, name
    declared = header.get("payload_bytes")
    if not _is_int(declared) or declared != payload_end:
        raise _corrupt(
            path, "payload_bytes", f"payload_bytes {declared!r} disagrees with "
            f"the section table end {payload_end}"
        )
    if base + payload_end != file_size:
        raise _corrupt(
            path, last, f"section {last!r} ends the payload at byte "
            f"{base + payload_end}, but the file runs on to byte {file_size}",
            base + payload_end,
        )

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
    views = {
        name: buf[start:stop].view(table[name])
        for name, (start, stop) in spans.items()
    }
    if verify:
        for name, view in views.items():
            stored, actual = sections[name]["crc32"], zlib.crc32(view)
            if actual != stored:
                start = spans[name][0]
                raise _corrupt(
                    path, name, f"section {name!r} checksum mismatch at byte "
                    f"{start} (stored 0x{stored:08x}, computed 0x{actual:08x})",
                    start,
                )
    return header, views


def _index_from(
    path: Path,
    views: dict[str, np.ndarray],
    prefix: str,
    k: int | None,
    scalars: dict,
    *,
    validate: bool = False,
    bitset_matrix_bytes: int = DEFAULT_MATRIX_BYTES,
) -> KReachIndex:
    """Build one :class:`KReachIndex` from the sections named ``prefix +
    <section>`` and its header ``scalars``.

    The checks here are O(1) per section (O(|S|) for the cover ids) and
    keep every later array access in bounds; ``validate=True`` adds the
    O(index) structural scan.
    """
    n = scalars["n"]
    layout = scalars.get("layout", "csr")
    view = {name: views[prefix + name] for name in _LAYOUTS[layout]}

    def bad(section: str, msg: str) -> IndexCorruptionError:
        name = prefix + section
        return _corrupt(path, name, f"section {name!r} {msg}")

    if len(view["graph_out_indptr"]) != n + 1:
        raise bad("graph_out_indptr", f"must hold {n + 1} offsets")
    if len(view["graph_in_indptr"]) != n + 1:
        raise bad("graph_in_indptr", f"must hold {n + 1} offsets")
    if len(view["graph_out_indices"]) != len(view["graph_in_indices"]):
        raise bad("graph_in_indices", "disagrees with the out-direction on |E|")
    cover_ids = view["cover_ids"]
    if len(cover_ids):
        # O(|S|) — the open path already scatters over the cover, and a
        # bad id here would corrupt that scatter silently (negative ids
        # wrap) or crash it undiagnosed (ids >= n).
        if int(cover_ids.min()) < 0 or int(cover_ids.max()) >= n:
            raise bad("cover_ids", f"holds vertex ids outside [0, {n})")
        if len(cover_ids) > 1 and not bool(np.all(cover_ids[1:] > cover_ids[:-1])):
            raise bad("cover_ids", "must be strictly ascending")
    if layout == "planes":
        size = len(cover_ids)
        shape = (len(set(level_specs(k))), size, (size + 63) >> 6)
        if len(view["level_planes"]) != shape[0] * shape[1] * shape[2]:
            raise bad(
                "level_planes",
                f"must hold {shape[0]} level planes of {shape[1]} x "
                f"{shape[2]} words for k={k} and |S|={size}",
            )
        planes = list(view["level_planes"].reshape(shape))
        ig = IndexGraph.from_levels(n, cover_ids, 0 if k is None else k - 2, planes)
    else:
        weight_bits = scalars["weight_bits"]
        edges = len(view["index_targets"])
        if len(view["index_indptr"]) != len(cover_ids) + 1:
            raise bad("index_indptr", "must hold cover size + 1 offsets")
        if int(view["index_indptr"][-1]) != edges:
            raise bad("index_indptr", f"must end at the {edges}-edge target count")
        expected_words = (edges * weight_bits + 63) // 64 + 1
        if len(view["weight_words"]) != expected_words:
            raise bad(
                "weight_words",
                f"must hold {expected_words} words for {edges} "
                f"{weight_bits}-bit weights",
            )
        packed = PackedIntArray.from_words(
            view["weight_words"], edges, bits=weight_bits, copy=False
        )
        ig = IndexGraph(
            n,
            cover_ids,
            view["index_indptr"],
            view["index_targets"],
            packed,
            scalars["weight_base"],
        )

    g = DiGraph.from_csr(
        view["graph_out_indptr"],
        view["graph_out_indices"],
        in_indptr=view["graph_in_indptr"],
        in_indices=view["graph_in_indices"],
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


def load_mmap(
    path: str | os.PathLike,
    *,
    mode: str = "r",
    validate: bool = False,
    verify: bool = False,
    bitset_matrix_bytes: int = DEFAULT_MATRIX_BYTES,
    shard: int | None = None,
) -> KReachIndex:
    """Open an index written by :func:`save_mmap`, zero-copy.

    The file is mapped once (``mode='r'``: shared read-only pages;
    ``mode='c'``: copy-on-write, private) and every array is installed as
    a view into the mapping — open cost is parsing the header plus O(1)
    bounds checks per section, independent of index size.  The JSON
    header's CRC32 is always verified (still O(header)), so a bit flip in
    the section table can never install a wrong view.  Structural
    problems the header can reveal — bad magic, a retired format version
    or row storage, corrupt JSON, a header scalar that is not an integer
    in range, a missing / extra / misaligned / out-of-bounds section,
    bytes past the last section, disagreeing array lengths — raise
    :class:`ValueError` (:class:`IndexCorruptionError` where a section or
    header field is identifiable) naming the offending section or field.

    ``shard=i`` opens shard ``i``'s index of a :func:`save_sharded` file
    (the address a shard's worker pool serves); a plain file opened with
    ``shard`` set, and a sharded file opened without it, raise
    :class:`ValueError` naming the right call.

    ``verify=True`` additionally checks every section's stored CRC32
    against its payload bytes (O(file) — opt in, the default preserves
    the O(header) open); a mismatch raises :class:`IndexCorruptionError`
    with the section and byte offset.  ``validate=True`` runs the full
    structural scan (the graph's CSR invariants, and the index's: its
    CSR's, or for planes their nesting, diagonal and padding bits) for
    arrays of uncertain provenance.

    The returned :class:`KReachIndex` serves queries directly off the
    read-only pages; every cache it builds lazily (a plane file's CSR,
    a CSR file's link matrices, keyed probe arrays, the scalar probe's
    unpacked weights, adjacency lists) is a private copy-on-build structure, so many
    processes can open the same file and share its clean pages.
    ``bitset_matrix_bytes`` is the index's memory gate, and it caps only
    views the process would build privately: the mapped planes of a
    plane file are the level stack at any setting, while a CSR file
    builds its level views only if they fit the gate.
    """
    path = Path(path)
    header, views = _open(path, mode, verify)
    shards = header["shards"] if header["kind"] == _SHARDED else None
    if (shard is None) != (shards is None):
        raise ValueError(
            f"{path} holds a sharded index: open it with load_sharded(path), "
            "or one shard with load_mmap(path, shard=i)"
            if shard is None
            else f"{path} holds one index, not a sharded one: open it with "
            "load_mmap(path), without shard="
        )
    if shard is None:
        scalars, prefix = header, ""
    elif isinstance(shard, (int, np.integer)) and 0 <= shard < len(shards):
        scalars, prefix = shards[shard], f"s{int(shard)}/"
    else:
        raise ValueError(f"shard must be an int in [0, {len(shards)}), got {shard!r}")
    return _index_from(
        path,
        views,
        prefix,
        header["k"],
        scalars,
        validate=validate,
        bitset_matrix_bytes=bitset_matrix_bytes,
    )


def load_sharded(
    path: str | os.PathLike,
    *,
    mode: str = "r",
    verify: bool = False,
) -> ShardedKReach:
    """Open a :func:`save_sharded` file as a
    :class:`~repro.core.partition.ShardedKReach`, every array zero-copy.

    The file is mapped once and checked as :func:`load_mmap` checks it
    (``verify=True`` adds the CRC32 scan of every section), and then for
    what the routing relies on: ``shard_of`` holds one shard id in
    ``[-1, num_shards)`` per vertex, ``entry`` and ``exit`` hold
    ``(n, |B|)`` int32 tables, and each shard's vertex count equals that
    of its vertex map derived from ``shard_of``.  Each failure raises
    :class:`IndexCorruptionError` naming the section.  A plain index
    file raises :class:`ValueError` pointing at :func:`load_mmap`, and a
    shard-manifest directory (the retired sharded format)
    :class:`IndexCorruptionError` naming the rebuild.
    """
    path = Path(path)
    header, views = _open(path, mode, verify)
    if header["kind"] != _SHARDED:
        raise ValueError(
            f"{path} holds one index, not a sharded one: open it with "
            "load_mmap(path), or serve it with QueryServer(path)"
        )
    n, k, shards = header["n"], header["k"], header["shards"]
    shard_of = views["shard_of"]
    if len(shard_of) != n:
        raise _corrupt(path, "shard_of", f"section 'shard_of' must hold {n} shard ids")
    if n and (int(shard_of.min()) < -1 or int(shard_of.max()) >= len(shards)):
        raise _corrupt(
            path,
            "shard_of",
            f"section 'shard_of' holds shard ids outside [-1, {len(shards)})",
        )
    shape = (n, int(np.count_nonzero(shard_of < 0)))
    for name in ("entry", "exit"):
        if len(views[name]) != shape[0] * shape[1]:
            raise _corrupt(
                path, name, f"section {name!r} must hold a {shape[0]}x{shape[1]} table"
            )
    parts = []
    for i, scalars in enumerate(shards):
        vertex_map = _vertex_map(shard_of, i)
        name = f"s{i}/graph_out_indptr"
        if len(views[name]) != len(vertex_map) + 1:
            raise _corrupt(
                path,
                name,
                f"section {name!r} holds {len(views[name]) - 1} vertices, but "
                f"shard_of maps {len(vertex_map)} to shard {i}",
            )
        index = _index_from(path, views, f"s{i}/", k, scalars)
        parts.append(Shard(index=index, vertex_map=vertex_map))
    return ShardedKReach(
        n=n,
        k=k,
        shard_of=shard_of,
        entry=views["entry"].reshape(shape),
        exit=views["exit"].reshape(shape),
        shards=parts,
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

    def __len__(self) -> int:
        """Records known durable (recovered at open + appended since)."""
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
    if not isinstance(header, dict):
        header = {}
    sections = header.get("sections")
    base = _align(_MMAP_PROLOGUE + hlen)
    for name, entry in sections.items() if isinstance(sections, dict) else ():
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
    # an index: open it (every shard of a sharded file, after its
    # routing checks) with the full structural scan as well.  The
    # loader's diagnosis of a bad header or section table is the detail.
    try:
        if header.get("kind") == _SHARDED:
            for i in range(load_sharded(path).num_shards):
                load_mmap(path, shard=i, validate=True)
        else:
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

    Accepts a v6 index file (one index or a sharded one) or a framed op
    log, and returns a report dict: ``format``, a ``sections`` list
    (name, size, stored/computed CRC32, per-section ``status``), and
    ``ok`` — ``True`` iff nothing is corrupt.  An index file must also
    open under ``load_mmap(validate=True)`` (a sharded file under
    :func:`load_sharded`, then every shard under ``load_mmap(path,
    shard=i, validate=True)``); if it does not, the reason is the
    report's ``detail``.  Statuses: ``ok``, ``mismatch``, ``truncated``,
    ``malformed``, and ``torn-tail`` (an op log's recoverable crashed
    append — not an error).  An index file of another format version is
    reported by version, and a directory (a retired shard manifest) with
    the rebuild, neither ``ok``.  This is the backend of ``kreach-bench
    verify``.
    """
    path = Path(path)
    report: dict = {
        "path": str(path),
        "format": None,
        "sections": [],
        "detail": "",
        "ok": False,
    }
    if path.is_dir():
        report["format"] = "directory"
        report["detail"] = _retired_directory(path)
        return report
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
    else:
        report["detail"] = "not a k-reach index file or op log"
        return report
    bad_statuses = {"mismatch", "truncated", "malformed"}
    report["ok"] = not report["detail"] and bool(report["sections"]) and not any(
        row["status"] in bad_statuses for row in report["sections"]
    )
    return report


