"""Shared journal primitives (DESIGN §16): checksums, quarantine,
torn-tail scanning, and the advisory file lock."""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.errors import StoreLockTimeout
from repro.fi.journal import (
    CRC_FIELD,
    FileLock,
    QuarantineLog,
    append_doc,
    canonical_crc,
    scan_jsonl,
    seal_doc,
)


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


class TestChecksums:
    def test_crc_is_key_order_independent(self):
        a = {"ev": "row", "x": 1, "y": [2, 3]}
        b = {"y": [2, 3], "x": 1, "ev": "row"}
        assert canonical_crc(a) == canonical_crc(b)

    def test_crc_ignores_existing_crc_field(self):
        doc = {"ev": "row", "x": 1}
        assert canonical_crc(seal_doc(doc)) == canonical_crc(doc)

    def test_seal_appends_crc_last(self):
        sealed = seal_doc({"ev": "row", "x": 1})
        assert list(sealed)[-1] == CRC_FIELD
        # the greppable prefix survives serialization
        assert json.dumps(sealed).startswith('{"ev": "row"')

    def test_append_doc_line_roundtrips(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            append_doc(fh, {"ev": "row", "x": 1})
        doc = json.loads(open(path).read())
        assert doc.pop(CRC_FIELD) == canonical_crc(doc)


class TestScan:
    def test_valid_lines_delivered_in_order(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for i in range(3):
                append_doc(fh, {"i": i})
        seen = []
        stats = scan_jsonl(path, seen.append)
        assert [d.doc()["i"] for d in seen] == [0, 1, 2]
        assert stats.docs == 3
        assert stats.crc_checked == 3
        assert stats.corrupt == 0
        assert not stats.torn_tail
        assert stats.offset == os.path.getsize(path)

    def test_torn_tail_discarded_silently(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        _write_lines(path, [
            json.dumps(seal_doc({"i": 0})) + "\n",
            '{"i": 1, "tor',               # killed mid-write
        ])
        seen = []
        stats = scan_jsonl(path, seen.append)
        assert [d.doc()["i"] for d in seen] == [0]
        assert stats.torn_tail
        assert stats.corrupt == 0
        # the resume offset points at the torn line, not past it
        assert stats.offset == len(json.dumps(seal_doc({"i": 0})) + "\n")

    def test_complete_corrupt_line_is_quarantined_not_fatal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        good = json.dumps(seal_doc({"i": 0})) + "\n"
        _write_lines(path, [
            good,
            "this is not json\n",
            json.dumps(seal_doc({"i": 2})) + "\n",
        ])
        seen = []
        q = QuarantineLog(path)
        stats = scan_jsonl(path, seen.append, quarantine=q)
        # the corrupt line did NOT shadow the valid line after it
        assert [d.doc()["i"] for d in seen] == [0, 2]
        assert stats.corrupt == 1
        entries = [json.loads(ln) for ln in open(q.path)]
        assert len(entries) == 1
        assert entries[0]["offset"] == len(good)
        assert "not json" in entries[0]["line"]

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        bad = seal_doc({"i": 0})
        bad["i"] = 1                       # bitrot after sealing
        _write_lines(path, [
            json.dumps(bad) + "\n",
            json.dumps(seal_doc({"i": 2})) + "\n",
        ])
        seen = []
        stats = scan_jsonl(path, seen.append, quarantine=QuarantineLog(path))
        assert [d.doc()["i"] for d in seen] == [2]
        assert stats.corrupt == 1

    def test_legacy_lines_without_crc_accepted(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        _write_lines(path, [json.dumps({"i": 0}) + "\n"])
        seen = []
        stats = scan_jsonl(path, seen.append)
        assert [d.doc()["i"] for d in seen] == [0]
        assert stats.crc_missing == 1
        assert stats.corrupt == 0

    def test_incremental_tail_rescan_from_offset(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            append_doc(fh, {"i": 0})
        first = scan_jsonl(path, lambda d: None)
        with open(path, "a", encoding="utf-8") as fh:
            append_doc(fh, {"i": 1})
        seen = []
        second = scan_jsonl(path, seen.append, start=first.offset)
        assert [d.doc()["i"] for d in seen] == [1]
        assert second.offset == os.path.getsize(path)

    def test_crc_field_stripped_before_delivery(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            append_doc(fh, {"i": 0})
        seen = []
        scan_jsonl(path, seen.append)
        assert CRC_FIELD not in seen[0].doc()

    def test_quarantine_write_failure_never_raises(self, tmp_path):
        q = QuarantineLog(str(tmp_path))   # sidecar path is unwritable
        q.path = str(tmp_path)             # a directory: open() fails
        q.record(offset=0, line=b"x", reason="r")   # must not raise


class TestFileLock:
    def test_exclusive_blocks_second_holder(self, tmp_path):
        path = str(tmp_path / "s.lock")
        a = FileLock(path)
        b = FileLock(path, timeout=0.15)
        a.acquire()
        t0 = time.monotonic()
        with pytest.raises(StoreLockTimeout, match="exclusive"):
            b.acquire()
        assert time.monotonic() - t0 >= 0.1
        assert b.contended == 0 and b.acquisitions == 0
        a.release()
        b.acquire()                        # free now
        assert b.held
        b.release()

    def test_shared_holders_coexist(self, tmp_path):
        path = str(tmp_path / "s.lock")
        a, b = FileLock(path), FileLock(path, timeout=0.5)
        a.acquire(shared=True)
        b.acquire(shared=True)
        assert a.held and b.held
        a.release()
        b.release()

    def test_shared_excludes_exclusive(self, tmp_path):
        path = str(tmp_path / "s.lock")
        a, b = FileLock(path), FileLock(path, timeout=0.1)
        a.acquire(shared=True)
        with pytest.raises(StoreLockTimeout):
            b.acquire()
        a.release()

    def test_timeout_error_names_path_and_budget(self, tmp_path):
        path = str(tmp_path / "s.lock")
        a, b = FileLock(path), FileLock(path, timeout=0.1)
        a.acquire()
        with pytest.raises(StoreLockTimeout) as exc:
            b.acquire()
        msg = str(exc.value)
        assert path in msg
        assert "0.1" in msg
        assert "REPRO_STORE_LOCK_TIMEOUT" in msg
        a.release()

    def test_non_reentrant(self, tmp_path):
        a = FileLock(str(tmp_path / "s.lock"))
        a.acquire()
        with pytest.raises(StoreLockTimeout, match="non-reentrant"):
            a.acquire()
        a.release()

    def test_contention_counted_after_wait(self, tmp_path):
        path = str(tmp_path / "s.lock")
        a, b = FileLock(path), FileLock(path, timeout=5.0)
        a.acquire()
        release = threading.Timer(0.05, a.release)
        release.start()
        try:
            b.acquire()                    # waits ~50ms, then succeeds
        finally:
            release.join()
        assert b.held
        assert b.contended == 1
        assert b.acquisitions == 1
        b.release()

    def test_context_managers(self, tmp_path):
        path = str(tmp_path / "s.lock")
        lock = FileLock(path)
        with lock.exclusive():
            assert lock.held
        assert not lock.held
        with lock.shared():
            assert lock.held
        assert not lock.held

    def test_env_timeout_must_be_positive(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_LOCK_TIMEOUT", "-3")
        with pytest.raises(StoreLockTimeout, match="positive"):
            FileLock(str(tmp_path / "s.lock"))
        monkeypatch.setenv("REPRO_STORE_LOCK_TIMEOUT", "nope")
        with pytest.raises(StoreLockTimeout, match="number"):
            FileLock(str(tmp_path / "s.lock"))
        monkeypatch.setenv("REPRO_STORE_LOCK_TIMEOUT", "7.5")
        assert FileLock(str(tmp_path / "s.lock")).timeout == 7.5


class TestRowSchemaV3:
    """Journal rows end with (fault_model, pruned) since v3; the loader
    pads 9-field v1 rows and 10-field v2 rows back to the full shape."""

    def test_row_fields_shape(self):
        from repro.fi.resilience import JOURNAL_VERSION, ROW_FIELDS

        assert JOURNAL_VERSION == 3
        assert len(ROW_FIELDS) == 11
        assert ROW_FIELDS[-2:] == ("fault_model", "pruned")

    def test_record_from_row_pads_v1_and_v2(self):
        from repro.fi.outcomes import Outcome
        from repro.fi.resilience import record_from_row

        v1 = (3, 17, "ok", "42\n", 7, None, None, None, None)
        v2 = v1 + ("seu",)
        v3 = v2 + (0,)
        for row in (v1, v2, v3):
            outcome, rec = record_from_row(row, "42\n")
            assert outcome is Outcome.BENIGN
            assert rec.fault_model == "seu"

    def test_pruned_row_shapes(self):
        from repro.fi.outcomes import Outcome
        from repro.fi.resilience import ROW_FIELDS, pruned_row, record_from_row

        ir = pruned_row("ir", 3, 9, "out\n", 41, "seu")
        asm = pruned_row("asm", 4, 8, "out\n", 12, "set",
                         asm_role="compute", asm_opcode="ADD_RR", iid=41)
        for row in (ir, asm):
            assert len(row) == len(ROW_FIELDS)
            assert row[-1] == 1
            outcome, rec = record_from_row(row, "out\n")
            assert outcome is Outcome.PRUNE_BENIGN
        assert ir[4] == 41 and ir[5] is None
        assert asm[5] == 12 and asm[6] == "compute" and asm[4] == 41

    def test_pruned_row_classifies_without_golden_match(self):
        """A pruned row short-circuits on the flag, not on the output
        comparison — replay never re-runs the liveness analysis."""
        from repro.fi.outcomes import Outcome
        from repro.fi.resilience import pruned_row, record_from_row

        row = pruned_row("ir", 0, 0, "recorded\n", 1, "seu")
        outcome, _ = record_from_row(row, "recorded\n")
        assert outcome is Outcome.PRUNE_BENIGN

    def test_config_doc_omits_default_prune_switches(self):
        from repro.fi.campaign import CampaignConfig
        from repro.fi.resilience import _config_doc

        plain = _config_doc(CampaignConfig(n_campaigns=5, seed=1))
        assert "prune" not in plain and "stratify" not in plain
        on = _config_doc(CampaignConfig(n_campaigns=5, seed=1,
                                        prune=True, stratify=True))
        assert on["prune"] is True and on["stratify"] is True
