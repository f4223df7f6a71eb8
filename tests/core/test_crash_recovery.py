"""Crash-safe persistence suite: atomic saves, checksums, journal recovery.

Drives the ``serialize.*`` failpoints and hand-corrupted files through
the durability layer and pins the acceptance contract: a crash mid-save
never damages the previous snapshot, a crash mid-append is recovered by
truncating the torn tail (acknowledged records replay exactly — garbage
never does), and every detected corruption surfaces as a typed
:class:`~repro.core.serialize.IndexCorruptionError` with offset/section
detail.
"""

import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.cli import main as cli_main
from repro.core.dynamic import DynamicKReachIndex
from repro.core.serialize import (
    _MMAP_PROLOGUE,
    IndexCorruptionError,
    OpLog,
    load_mmap,
    read_oplog,
    recover_dynamic,
    recover_oplog,
    save_mmap,
    verify_file,
)
from repro.graph.generators import gnp_digraph
from repro.workloads import random_pairs
from tests.conftest import assert_every_case, split_index


@pytest.fixture(autouse=True)
def disarm_after():
    yield
    faults.reset()


@pytest.fixture(scope="module")
def graph():
    return gnp_digraph(50, 0.09, seed=17)


@pytest.fixture(scope="module")
def index(graph, pairs):
    """The saved base, on the §4.3 cover so pairs reach Cases 1-4 (and
    a dynamic tier over it can grow its cover)."""
    index = split_index(graph, 3)
    assert_every_case(index, pairs)
    return index


@pytest.fixture(scope="module")
def pairs(graph):
    return random_pairs(graph.n, 2500, rng=np.random.default_rng(9))


class TestAtomicSave:
    def test_failed_save_preserves_previous_snapshot(
        self, tmp_path, index, pairs
    ):
        path = tmp_path / "index.kr4"
        save_mmap(index, path)
        before = path.read_bytes()
        with faults.inject("serialize.v4_write_mid", "error"):
            with pytest.raises(faults.FaultInjected):
                save_mmap(index, path)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob(".*.tmp.*")), "temp litter left behind"
        reloaded = load_mmap(path, verify=True)
        assert np.array_equal(
            reloaded.query_batch(pairs), index.query_batch(pairs)
        )

    def test_first_save_failure_leaves_nothing(self, tmp_path, index):
        path = tmp_path / "fresh.kr4"
        with faults.inject("serialize.v4_write_mid", "error"):
            with pytest.raises(faults.FaultInjected):
                save_mmap(index, path)
        assert not path.exists()
        assert not list(tmp_path.glob(".*.tmp.*"))

    def test_npz_saves_are_atomic_too(self, tmp_path, index):
        """Every saver writes through one helper; a writer dying midway
        (any format, no failpoint needed) leaves the previous file."""
        path = tmp_path / "index.kr6"
        save_mmap(index, path)
        before = path.read_bytes()
        from repro.core.serialize import _atomic_write

        with pytest.raises(RuntimeError, match="disk on fire"):

            def bad_writer(fh):
                fh.write(b"partial")
                raise RuntimeError("disk on fire")

            _atomic_write(path, bad_writer)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob(".*.tmp.*"))

    def test_kill9_mid_save_subprocess(self, tmp_path, index, pairs):
        """A process killed inside the v4_write_mid failpoint (os._exit,
        the in-process stand-in for kill -9) must leave the old snapshot
        byte-identical and reloadable."""
        path = tmp_path / "index.kr4"
        save_mmap(index, path)
        before = path.read_bytes()
        script = (
            "from repro.core.kreach import KReachIndex\n"
            "from repro.core.serialize import save_mmap\n"
            "from repro.graph.generators import gnp_digraph\n"
            f"save_mmap(KReachIndex(gnp_digraph(50, 0.09, seed=17), 3), {str(path)!r})\n"
            "raise SystemExit('save should have died mid-write')\n"
        )
        env = dict(os.environ)
        env["KREACH_FAULTS"] = "serialize.v4_write_mid:exit"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[2] / "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == faults.EXIT_CODE, proc.stderr
        assert path.read_bytes() == before
        reloaded = load_mmap(path, verify=True)
        assert np.array_equal(
            reloaded.query_batch(pairs), index.query_batch(pairs)
        )


class TestChecksums:
    @pytest.fixture()
    def path(self, tmp_path, index):
        path = tmp_path / "index.kr4"
        save_mmap(index, path)
        return path

    def test_header_crc_catches_bit_flip(self, tmp_path, path):
        raw = bytearray(path.read_bytes())
        raw[_MMAP_PROLOGUE + 5] ^= 0x40
        bad = tmp_path / "hdr.kr4"
        bad.write_bytes(bytes(raw))
        with pytest.raises(IndexCorruptionError, match="header checksum"):
            load_mmap(bad)

    def test_section_crc_catches_payload_flip(self, tmp_path, path):
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0x01  # deep in the last section's payload
        bad = tmp_path / "payload.kr4"
        bad.write_bytes(bytes(raw))
        with pytest.raises(IndexCorruptionError) as exc:
            load_mmap(bad, verify=True)
        assert exc.value.section is not None
        assert exc.value.offset is not None

    def test_default_open_skips_section_crcs(self, tmp_path, path, index):
        # O(header) open contract: without verify=True a payload flip is
        # not scanned for (the O(1) structural checks still run).
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0x01
        bad = tmp_path / "payload.kr4"
        bad.write_bytes(bytes(raw))
        load_mmap(bad)  # opens; integrity is opt-in by design

    def test_corruption_error_is_valueerror(self, tmp_path, path):
        raw = bytearray(path.read_bytes())
        raw[_MMAP_PROLOGUE + 5] ^= 0x40
        bad = tmp_path / "hdr.kr4"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError):  # subclass contract
            load_mmap(bad)

    def test_verify_roundtrip_clean(self, path, index, pairs):
        loaded = load_mmap(path, verify=True)
        assert np.array_equal(
            loaded.query_batch(pairs), index.query_batch(pairs)
        )


class TestOpLog:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ops.krlog"
        with OpLog(path, fsync=False) as log:
            log.append(0, 1, 2)
            log.append(1, 3, 4)
            log.extend([(0, 5, 6)])
            assert log.op_count == 3
        assert read_oplog(path).tolist() == [[0, 1, 2], [1, 3, 4], [0, 5, 6]]

    def test_empty_log(self, tmp_path):
        path = tmp_path / "ops.krlog"
        OpLog(path, fsync=False).close()
        assert read_oplog(path).shape == (0, 3)

    def test_torn_tail_truncated(self, tmp_path):
        path = tmp_path / "ops.krlog"
        with OpLog(path, fsync=False) as log:
            log.append(0, 1, 2)
            log.append(0, 3, 4)
        good_size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\x18\x00\x00\x00torn-partial-frame")
        ops, torn = recover_oplog(path)
        assert ops.tolist() == [[0, 1, 2], [0, 3, 4]]
        assert torn == 22
        assert path.stat().st_size == good_size
        # Idempotent once clean.
        assert recover_oplog(path)[1] == 0

    def test_reopen_recovers_and_appends(self, tmp_path):
        path = tmp_path / "ops.krlog"
        with OpLog(path, fsync=False) as log:
            log.append(0, 1, 2)
        with open(path, "ab") as fh:
            fh.write(b"\xff" * 10)  # torn tail from a crash
        with OpLog(path, fsync=False) as log:
            assert log.recovered_bytes == 10
            assert log.op_count == 1
            log.append(1, 7, 8)
        assert read_oplog(path).tolist() == [[0, 1, 2], [1, 7, 8]]

    def test_midfile_corruption_raises_with_offset(self, tmp_path):
        path = tmp_path / "ops.krlog"
        with OpLog(path, fsync=False) as log:
            log.append(0, 1, 2)
            log.append(0, 3, 4)
        raw = bytearray(path.read_bytes())
        raw[8 + 6] ^= 0xFF  # payload of the FIRST record: not a torn tail
        path.write_bytes(bytes(raw))
        with pytest.raises(IndexCorruptionError) as exc:
            read_oplog(path)
        assert exc.value.offset == 8
        with pytest.raises(IndexCorruptionError):
            recover_oplog(path)  # never silently truncates acked records

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "ops.krlog"
        path.write_bytes(b"NOTALOG!" + b"\x00" * 32)
        with pytest.raises(IndexCorruptionError, match="magic"):
            read_oplog(path)

    def test_torn_append_failpoint_recovers(self, tmp_path):
        path = tmp_path / "ops.krlog"
        with OpLog(path, fsync=False) as log:
            log.append(0, 1, 2)
        with faults.inject("serialize.v3_log_tail", "error"):
            log = OpLog(path, fsync=False)
            with pytest.raises(faults.FaultInjected):
                log.append(0, 9, 9)  # half the frame reaches the disk
            log.close()
        ops, torn = recover_oplog(path)
        assert ops.tolist() == [[0, 1, 2]]  # the torn record never acked
        assert torn == 16


class TestRecoverDynamic:
    def _churn(self, dyn, n, ops=40, seed=2):
        rng = np.random.default_rng(seed)
        for _ in range(ops):
            u, v = (int(x) for x in rng.integers(0, n, 2))
            if rng.random() < 0.7:
                dyn.insert_edge(u, v)
            else:
                dyn.delete_edge(u, v)

    @pytest.mark.parametrize("base_format", ["mmap"])
    def test_journal_replay_matches_live_index(
        self, tmp_path, graph, index, pairs, base_format
    ):
        base_path = tmp_path / "base.kr6"
        save_mmap(index, base_path)
        log_path = tmp_path / "updates.krlog"
        dyn = DynamicKReachIndex.from_base(split_index(graph, 3))
        dyn.attach_journal(OpLog(log_path, fsync=False))
        self._churn(dyn, graph.n)
        dyn._journal.close()
        recovered = recover_dynamic(base_path, log_path)
        assert np.array_equal(
            recovered.query_batch(pairs), dyn.query_batch(pairs)
        )

    def test_recovery_after_torn_append(self, tmp_path, graph, index, pairs):
        base_path = tmp_path / "base.kr6"
        save_mmap(index, base_path)
        log_path = tmp_path / "updates.krlog"
        dyn = DynamicKReachIndex.from_base(split_index(graph, 3))
        dyn.attach_journal(OpLog(log_path, fsync=False))
        self._churn(dyn, graph.n)
        # The next update tears mid-append (writer "crashes"): the live
        # index saw the op, the journal did not finish acknowledging it.
        with faults.inject("serialize.v3_log_tail", "error"):
            with pytest.raises(faults.FaultInjected):
                dyn.insert_edge(0, 1)
        dyn._journal.close()
        recovered = recover_dynamic(base_path, log_path)
        # Re-apply the unacknowledged op (what a real writer would do on
        # restart): states must then re-converge exactly.
        recovered.insert_edge(0, 1)
        assert np.array_equal(
            recovered.query_batch(pairs), dyn.query_batch(pairs)
        )

    def test_no_op_writes_not_journaled(self, tmp_path, graph):
        log_path = tmp_path / "updates.krlog"
        dyn = DynamicKReachIndex.from_base(split_index(graph, 3))
        dyn.attach_journal(OpLog(log_path, fsync=False))
        dyn.insert_edge(0, 1)
        dyn.insert_edge(0, 1)  # duplicate: no-op, not journaled
        dyn.insert_edge(2, 2)  # self-loop: no-op
        dyn.delete_edge(5, 6)  # absent: no-op
        dyn._journal.close()
        assert len(read_oplog(log_path)) == 1


class TestVerifyAudit:
    def test_clean_artifacts_report_ok(self, tmp_path, graph, index):
        mmap_path = tmp_path / "index.kr6"
        log_path = tmp_path / "ops.krlog"
        save_mmap(index, mmap_path)
        with OpLog(log_path, fsync=False) as log:
            log.append(0, 1, 2)
        for path in (mmap_path, log_path):
            report = verify_file(path)
            assert report["ok"], report
            assert report["sections"]

    def test_flip_flagged_with_section_detail(self, tmp_path, index):
        path = tmp_path / "index.kr4"
        save_mmap(index, path)
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0x01
        path.write_bytes(bytes(raw))
        report = verify_file(path)
        assert not report["ok"]
        bad = [r for r in report["sections"] if r["status"] == "mismatch"]
        assert len(bad) == 1 and bad[0]["stored"] != bad[0]["computed"]

    def test_unrecognized_file(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"not an artifact, definitely")
        report = verify_file(path)
        assert not report["ok"] and "not a k-reach" in report["detail"]

    def test_cli_verify_exit_codes(self, tmp_path, index, capsys):
        clean = tmp_path / "clean.kr4"
        save_mmap(index, clean)
        assert cli_main(["verify", str(clean)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "crc32" in out

        raw = bytearray(clean.read_bytes())
        raw[-5] ^= 0x01
        dirty = tmp_path / "dirty.kr4"
        dirty.write_bytes(bytes(raw))
        assert cli_main(["verify", str(clean), str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out and "mismatch" in out

    def test_cli_verify_json(self, tmp_path, index, capsys):
        clean = tmp_path / "clean.kr4"
        save_mmap(index, clean)
        assert cli_main(["verify", "--json", str(clean)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["ok"] is True

    def test_zlib_crc_definition_pinned(self, tmp_path, index):
        # The on-disk CRC is plain zlib.crc32 over the raw section bytes
        # — pin that so an implementation swap cannot silently change
        # the format.
        path = tmp_path / "index.kr4"
        save_mmap(index, path)
        report = verify_file(path)
        raw = path.read_bytes()
        for row in report["sections"]:
            if row["name"] == "<header>" or "offset" not in row:
                continue
            start, nbytes = row["offset"], row["bytes"]
            assert row["stored"] == zlib.crc32(raw[start : start + nbytes])
