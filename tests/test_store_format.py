"""The on-disk line format of journals and stores (DESIGN §16.1).

Writers emit each line as the canonical encoding its checksum is
defined over, so a reader verifies it with one CRC over the raw bytes
and decodes it only when read.  These tests pin down that the format
stays readable in both directions (older lines load here, new lines
satisfy the older reader's check), that corruption is still caught at
open, and that opening a canonical store neither re-serializes nor
decodes what nobody reads.
"""

from __future__ import annotations

import json
import zlib

import pytest

from repro.errors import CampaignError
from repro.fi import journal as journal_mod
from repro.fi.campaign import CampaignConfig
from repro.fi.compose import (
    SectionProfileStore,
    compact_store,
    run_incremental_campaign,
    verify_store,
)
from repro.fi.journal import (
    JournalLine,
    QuarantineLog,
    append_doc,
    canonical_crc,
    scan_jsonl,
    seal_doc,
)
from repro.fi.parallel import WorkSpec, run_parallel_campaign
from repro.fi.resilience import InjectionJournal
from repro.pipeline import build_from_source
from tests.helpers import drop_events, line_event, store_state

SRC = """
int twice(int x) {
    int acc = x;
    for (int i = 0; i < 2; i++) {
        acc = acc + x;
    }
    return acc;
}

int main() {
    int total = 0;
    for (int i = 0; i < 4; i++) {
        total = total + twice(i);
    }
    print(total);
    return 0;
}
"""

CFG = CampaignConfig(n_campaigns=30, seed=11)

DOCS = [
    {"ev": "header", "version": 2, "schema": "section-profile/1"},
    {"ev": "row", "k": "k1", "n": 3, "i": 0,
     "row": [1, 2, "ok", "7\n", 4, None, None, None, None, "seu", 0]},
    {"ev": "profile", "k": "k1", "kd": {"z": [1, 2.5], "a": "é"},
     "profile": {"name": "main", "n": 3, "counts": {"benign": 3}}},
    {"ev": "claim", "k": "k2", "n": 9, "owner": "h:1:t", "ts": 1.25,
     "ttl": 30.0},
    {"ev": "release", "k": "k2", "owner": "h:1:t"},
]


def _parent_line(doc):
    """A line exactly as the previous writer spelled it."""
    return json.dumps(seal_doc(doc)) + "\n"


def _to_parent_format(path, *, every=1):
    """Rewrite every ``every``-th line of ``path`` in the old spelling."""
    lines = open(path).read().splitlines(keepends=True)
    out = [_parent_line(json.loads(ln)) if i % every == 0 else ln
           for i, ln in enumerate(lines)]
    assert out != lines
    with open(path, "w") as fh:
        fh.writelines(out)


def _snapshot(store):
    return tuple(store_state(store))


def _counts(res):
    return ({o.value: c for o, c in res.counts.items() if c},
            res.simulated, res.replayed, res.cache_hits)


@pytest.fixture(scope="module")
def built():
    return build_from_source(SRC, name="store-format")


def _forbid_reserialization(monkeypatch):
    """Make the slow decode-and-re-serialize check unusable."""
    def boom(*_a, **_k):
        raise AssertionError("canonical line was re-serialized")
    monkeypatch.setattr(journal_mod, "canonical_crc", boom)


@pytest.fixture
def forbid_reserialization(monkeypatch):
    _forbid_reserialization(monkeypatch)


@pytest.fixture
def decoded_events(monkeypatch):
    """Every document decoded through :class:`JournalLine`, by kind."""
    seen = []
    original = JournalLine.doc

    def counting(self):
        doc = original(self)
        seen.append(doc.get("ev"))
        return doc

    monkeypatch.setattr(JournalLine, "doc", counting)
    return seen


# -- journal level ---------------------------------------------------------


class TestCanonicalLines:
    def test_new_lines_pass_the_parent_readers_check(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for doc in DOCS:
                append_doc(fh, doc)
        for line, doc in zip(open(path, encoding="utf-8"), DOCS):
            decoded = json.loads(line)
            assert decoded.pop("c") == canonical_crc(decoded)
            assert decoded == doc
            canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
            assert line == f'{canon[:-1]},"c":{canonical_crc(doc)}}}\n'

    def test_canonical_lines_are_checked_without_decoding(
            self, tmp_path, forbid_reserialization):
        path = str(tmp_path / "j.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for doc in DOCS:
                append_doc(fh, doc)
        lines = []
        stats = scan_jsonl(path, lines.append)
        assert stats.crc_checked == stats.docs == len(DOCS)
        assert all(line.parsed is None for line in lines)
        assert [line.doc() for line in lines] == DOCS

    @pytest.mark.parametrize("every", [1, 2])
    def test_parent_and_mixed_files_deliver_identical_docs(
            self, tmp_path, every):
        new = str(tmp_path / "new.jsonl")
        with open(new, "a", encoding="utf-8") as fh:
            for doc in DOCS:
                append_doc(fh, doc)
        old = str(tmp_path / "old.jsonl")
        with open(old, "w", encoding="utf-8") as fh:
            fh.writelines(_parent_line(doc) if i % every == 0 else
                          open(new).readlines()[i]
                          for i, doc in enumerate(DOCS))
        a, b = [], []
        sa = scan_jsonl(new, a.append)
        sb = scan_jsonl(old, b.append)
        assert [x.doc() for x in a] == [x.doc() for x in b] == DOCS
        assert sa.crc_checked == sb.crc_checked == len(DOCS)
        assert sb.corrupt == 0

    def test_lines_split_across_reads_scan_identically(
            self, tmp_path, monkeypatch):
        path = str(tmp_path / "j.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for doc in DOCS:
                append_doc(fh, doc)
            fh.write('{"ev":"row","k":"torn')
        whole, pieces = [], []
        expect = scan_jsonl(path, whole.append)
        monkeypatch.setattr(journal_mod, "_SCAN_CHUNK", 7)
        got = scan_jsonl(path, pieces.append)
        assert got == expect and got.torn_tail
        assert [x.raw for x in pieces] == [x.raw for x in whole]
        assert [x.doc() for x in pieces] == DOCS

    def test_flipped_key_or_body_byte_is_quarantined(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            append_doc(fh, DOCS[1])
        line = open(path, "rb").read()
        # every byte of the row's key and body lies before the checksum
        for pos in range(line.rindex(b',"c":')):
            flipped = bytearray(line)
            flipped[pos] ^= 0x01
            with open(path, "wb") as fh:
                fh.write(bytes(flipped))
            seen = []
            stats = scan_jsonl(path, seen.append)
            assert stats.corrupt == 1 and not seen, (pos, bytes(flipped))

    def test_forged_line_is_absent_at_open_and_fails_verify(
            self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        SectionProfileStore(path).close()
        # matches its raw checksum, yet is not a JSON document
        body = b'{"ev":"row","i":0,"k":"x","n":}'
        forged = body[:-1] + b',"c":%d}\n' % zlib.crc32(body)
        with open(path, "ab") as fh:
            fh.write(forged)
        with SectionProfileStore(path) as store:
            assert store.partial_rows("x", 1) == {}
            assert store.scan_corrupt == 0
        report = verify_store(path)
        assert report["corrupt"] == 1 and not report["ok"]


# -- store level -----------------------------------------------------------


class TestStoreCompatibility:
    def _store(self, tmp_path, built, name="store.jsonl"):
        path = str(tmp_path / name)
        with SectionProfileStore(path) as store:
            run_incremental_campaign(built, "ir", CFG, store)
        return path

    @pytest.mark.parametrize("every", [1, 2])
    def test_parent_format_store_loads_and_serves_identically(
            self, tmp_path, built, every):
        path = self._store(tmp_path, built)
        old = str(tmp_path / "old.jsonl")
        with open(old, "w") as fh:
            fh.write(open(path).read())
        _to_parent_format(old, every=every)
        with SectionProfileStore(path) as a, SectionProfileStore(old) as b:
            assert b.scan_corrupt == 0
            assert _snapshot(a) == _snapshot(b)
            assert store_state(a).profiles
            warm_a = run_incremental_campaign(built, "ir", CFG, a)
            warm_b = run_incremental_campaign(built, "ir", CFG, b)
        assert _counts(warm_a) == _counts(warm_b)
        assert warm_b.simulated == 0

    @pytest.mark.parametrize("every", [1, 2])
    def test_parent_format_partial_store_resumes_identically(
            self, tmp_path, built, every):
        path = self._store(tmp_path, built)
        drop_events(path, "profile")
        old = str(tmp_path / "old.jsonl")
        with open(old, "w") as fh:
            fh.write(open(path).read())
        _to_parent_format(old, every=every)
        with SectionProfileStore(path) as a, SectionProfileStore(old) as b:
            assert _snapshot(a) == _snapshot(b)
            assert store_state(a).partial
            res_a = run_incremental_campaign(built, "ir", CFG, a)
            res_b = run_incremental_campaign(built, "ir", CFG, b)
        assert _counts(res_a) == _counts(res_b)
        assert res_b.replayed > 0

    def test_every_store_line_passes_the_parent_readers_check(
            self, tmp_path, built):
        path = self._store(tmp_path, built)
        lines = open(path).read().splitlines()
        assert {line_event(ln) for ln in lines} >= {"header", "row", "profile"}
        for line in lines:
            doc = json.loads(line)
            assert doc.pop("c") == canonical_crc(doc)

    def test_parent_format_journal_resumes_identically(self, tmp_path):
        spec = WorkSpec(source=SRC, layer="asm")
        cfg = CampaignConfig(n_campaigns=12, seed=5)
        clean = run_parallel_campaign(spec, cfg, workers=1)
        full = tmp_path / "full.jsonl"
        run_parallel_campaign(spec, cfg, workers=1, journal_path=str(full))
        lines = full.read_text().splitlines(keepends=True)
        for line in lines:
            doc = json.loads(line)
            assert doc.pop("c") == canonical_crc(doc)
        old = tmp_path / "old.jsonl"
        old.write_text("".join(_parent_line(json.loads(ln))
                               for ln in lines[:7]))
        new = tmp_path / "new.jsonl"
        new.write_text("".join(lines[:7]))
        assert InjectionJournal._read(str(old)) == \
            InjectionJournal._read(str(new))
        resumed = run_parallel_campaign(spec, cfg, workers=1,
                                        journal_path=str(old))
        assert resumed.counts == clean.counts
        assert [(r.dyn_index, r.bit, r.outcome) for r in resumed.records] \
            == [(r.dyn_index, r.bit, r.outcome) for r in clean.records]


class TestForeignFiles:
    """Only a store header opens as a store: a header that names no
    schema, or a campaign journal, is refused by every entry point."""

    def _journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        run_parallel_campaign(WorkSpec(source=SRC, layer="asm"),
                              CampaignConfig(n_campaigns=4, seed=5),
                              workers=1, journal_path=str(path))
        assert {line_event(ln) for ln in path.read_text().splitlines()} \
            == {"header", "row"}
        return str(path)

    def _schemaless(self, tmp_path, schema):
        path = tmp_path / "store.jsonl"
        header = {"ev": "header", "version": 2}
        if schema is not _ABSENT:
            header["schema"] = schema
        with open(path, "w", encoding="utf-8") as fh:
            append_doc(fh, header)
        return str(path)

    @pytest.fixture(params=["journal", "no-schema", "null-schema"])
    def foreign(self, request, tmp_path):
        if request.param == "journal":
            return self._journal(tmp_path)
        return self._schemaless(
            tmp_path, _ABSENT if request.param == "no-schema" else None)

    def test_open_refuses(self, foreign):
        before = open(foreign, "rb").read()
        with pytest.raises(CampaignError, match="schema"):
            SectionProfileStore(foreign)
        assert open(foreign, "rb").read() == before

    def test_verify_reports_it(self, foreign):
        report = verify_store(foreign)
        assert not report["schema_ok"] and not report["ok"]

    def test_compact_refuses(self, foreign):
        before = open(foreign, "rb").read()
        with pytest.raises(CampaignError, match="refusing to compact"):
            compact_store(foreign)
        assert open(foreign, "rb").read() == before


_ABSENT = object()


class TestStoreSemantics:
    def test_malformed_latest_profile_keeps_the_earlier_one(
            self, tmp_path, built):
        path = str(tmp_path / "store.jsonl")
        with SectionProfileStore(path) as store:
            run_incremental_campaign(built, "ir", CFG, store)
            before = store_state(store).profiles
        key = next(iter(before))
        row = [0, 0, "ok", "", None, None, None, None, None, "seu", 0]
        with open(path, "a", encoding="utf-8") as fh:
            append_doc(fh, {"ev": "row", "k": key, "n": 99, "i": 0,
                            "row": row})
            append_doc(fh, {"ev": "claim", "k": key, "n": 99,
                            "owner": "otherhost:1:aa", "ts": 1e12,
                            "ttl": 30.0})
            # checksummed, but not a profile: treated as absent
            append_doc(fh, {"ev": "profile", "k": key, "profile": 5})
            append_doc(fh, {"ev": "profile", "k": key,
                            "profile": {"name": "only-a-name"}})
        with SectionProfileStore(path) as store:
            assert store.scan_corrupt == 0
            assert store.get(key) == before[key]
            # the malformed commits did not clear what came before them
            assert store.partial_rows(key, 99) == {0: tuple(row)}
            assert store.claim_of(key)["owner"] == "otherhost:1:aa"
            assert store_state(store).profiles == before
        assert verify_store(path)["ok"]

    def test_compaction_rewrites_legacy_lines_canonically(
            self, tmp_path, built, monkeypatch):
        path = str(tmp_path / "store.jsonl")
        with SectionProfileStore(path) as store:
            run_incremental_campaign(built, "ir", CFG, store)
            before = _snapshot(store)
        _to_parent_format(path)
        compact_store(path)
        report = verify_store(path)
        assert report["ok"] and report["crc_checked"] == report["docs"]
        _forbid_reserialization(monkeypatch)
        with SectionProfileStore(path) as store:
            assert _snapshot(store) == before


class TestOpenCost:
    def test_open_never_reserializes_a_canonical_store(
            self, tmp_path, built, forbid_reserialization):
        path = str(tmp_path / "store.jsonl")
        with SectionProfileStore(path) as store:
            cold = run_incremental_campaign(built, "ir", CFG, store)
        with SectionProfileStore(path) as store:
            assert store.scan_crc_checked > 0
            warm = run_incremental_campaign(built, "ir", CFG, store)
        assert warm.simulated == 0
        assert warm.counts == cold.counts

    def test_committed_store_decodes_no_rows(
            self, tmp_path, built, decoded_events):
        path = str(tmp_path / "store.jsonl")
        with SectionProfileStore(path) as store:
            run_incremental_campaign(built, "ir", CFG, store)
        with open(path) as fh:
            assert sum(line_event(ln) == "row" for ln in fh) > 0
        decoded_events.clear()
        with SectionProfileStore(path) as store:
            # commits are decoded as they are filed and release what
            # came before them: no row waits undecoded either
            assert set(decoded_events) == {"header", "profile"}
            assert not any(slot.pending
                           for slot in store._index.slots.values())
            decoded_events.clear()
            warm = run_incremental_campaign(built, "ir", CFG, store)
        assert warm.simulated == 0
        assert warm.cache_hits == len(warm.sections)
        # a cache hit decodes nothing
        assert decoded_events == []

    def test_quarantine_still_happens_at_open(self, tmp_path, built):
        path = str(tmp_path / "store.jsonl")
        with SectionProfileStore(path) as store:
            run_incremental_campaign(built, "ir", CFG, store)
        lines = open(path).read().splitlines(keepends=True)
        idx = next(i for i, ln in enumerate(lines) if line_event(ln) == "row")
        doc = json.loads(lines[idx])
        doc["row"][1] ^= 1                 # keeps the row's old checksum
        lines[idx] = json.dumps(doc, separators=(",", ":")) + "\n"
        with open(path, "w") as fh:
            fh.writelines(lines)
        with SectionProfileStore(path) as store:
            assert store.scan_corrupt == 1
        entries = open(QuarantineLog(path).path).read().splitlines()
        assert len(entries) == 1
        assert "checksum mismatch" in json.loads(entries[0])["reason"]
