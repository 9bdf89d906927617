from __future__ import annotations

import json
import re
import sys
import tracemalloc
from pathlib import Path

import pytest

from datamentions import corpus, records
from datamentions.cli import main
from datamentions.corpus import (
    CorpusStore,
    MetadataClient,
    convert_pdf_to_pages,
    fetch_pdf,
    search_paper_by_title,
)
from datamentions.errors import (
    ConverterFailed,
    EmptyOutput,
    InvalidRecord,
    MalformedResponse,
    NetworkError,
    NoPdfUrl,
    NonPdfContent,
    StoreWriteError,
)
from datamentions.gate import KeywordGate, filter_pages
from datamentions.records import DocumentRecord, PageRecord, read_rows
from datamentions.retries import RetryPolicy

from stubserver import StubServer

DOC = "e" * 40
PAPER_ID = "b71b859da04440fe5f61613da6b223db9a74cf9c"


def _client(url: str) -> MetadataClient:
    return MetadataClient(
        base_url=url,
        api_key_env="TEST_METADATA_KEY",
        retry_policy=RetryPolicy(attempts=2, base_delay=0.01),
        sleep=lambda _: None,
    )


def _match_body(**overrides) -> dict:
    entry = {
        "paperId": PAPER_ID,
        "title": "Irrigation and Climate Resilience",
        "year": 2020,
        "citationCount": 12,
        "isOpenAccess": True,
        "openAccessPdf": {"url": "https://example.org/paper.pdf"},
    }
    entry.update(overrides)
    return {"data": [entry]}


# ---------------------------------------------------------------------------
# metadata lookup


def test_title_match_builds_a_document(monkeypatch) -> None:
    monkeypatch.delenv("TEST_METADATA_KEY", raising=False)
    with StubServer([{"body": _match_body()}]) as server:
        doc = search_paper_by_title("Irrigation and Climate Resilience", _client(server.url))
        sent = server.requests[0]
    assert doc == DocumentRecord(
        doc_id=PAPER_ID,
        title="Irrigation and Climate Resilience",
        source_corpus="other",
        year=2020,
        is_open_access=True,
        pdf_url="https://example.org/paper.pdf",
        citation_count=12,
    )
    assert sent["path"].startswith("/paper/search/match?")
    assert "query=Irrigation" in sent["path"]
    assert "fields=" in sent["path"]
    assert "x-api-key" not in sent["headers"]


def test_title_match_sends_api_key_when_configured(monkeypatch) -> None:
    monkeypatch.setenv("TEST_METADATA_KEY", "meta-key")
    with StubServer([{"body": _match_body()}]) as server:
        search_paper_by_title("Some Title", _client(server.url))
        sent = server.requests[0]
    assert sent["headers"]["x-api-key"] == "meta-key"


@pytest.mark.parametrize(
    "response",
    [
        {"status": 404, "body": {"error": "Title match not found"}},
        {"body": {"error": "Title match not found"}},
        {"body": {"data": []}},
    ],
)
def test_title_match_absence_forms(monkeypatch, response) -> None:
    monkeypatch.delenv("TEST_METADATA_KEY", raising=False)
    with StubServer([response]) as server:
        assert search_paper_by_title("Unknown Paper", _client(server.url)) is None


def test_title_match_rejects_empty_title() -> None:
    with pytest.raises(ValueError):
        search_paper_by_title("  ", _client("http://127.0.0.1:9"))


def test_title_match_malformed_bodies(monkeypatch) -> None:
    monkeypatch.delenv("TEST_METADATA_KEY", raising=False)
    with StubServer([{"body": "not json"}]) as server:
        with pytest.raises(MalformedResponse):
            search_paper_by_title("T", _client(server.url))
    with StubServer([{"body": {"unexpected": 1}}]) as server:
        with pytest.raises(MalformedResponse):
            search_paper_by_title("T", _client(server.url))
    # a "data" object is not a list of matches
    with StubServer([{"body": {"data": {"paperId": PAPER_ID}}}]) as server:
        with pytest.raises(MalformedResponse):
            search_paper_by_title("T", _client(server.url))
    # a match whose paperId is not a doc_id cannot become a document
    with StubServer([{"body": _match_body(paperId="not-hex")}]) as server:
        with pytest.raises(MalformedResponse):
            search_paper_by_title("T", _client(server.url))


@pytest.mark.parametrize("overrides", [
    {"title": {"a": 1}},
    {"title": ["Irrigation"]},
    {"openAccessPdf": "https://example.org/paper.pdf"},
    {"isOpenAccess": "maybe"},
    {"year": 2020.5},
    {"citationCount": -1},
    {"paperId": None},
], ids=["object title", "array title", "link as text", "unknown flag", "fractional year",
        "negative citations", "no paperId"])
def test_a_match_that_breaks_a_field_rule_is_a_malformed_response(monkeypatch, overrides) -> None:
    monkeypatch.delenv("TEST_METADATA_KEY", raising=False)
    with StubServer([{"body": _match_body(**overrides)}]) as server:
        with pytest.raises(MalformedResponse):
            search_paper_by_title("T", _client(server.url))


def test_a_match_is_read_by_the_document_field_rules(monkeypatch) -> None:
    monkeypatch.delenv("TEST_METADATA_KEY", raising=False)
    bodies = [_match_body(isOpenAccess="false", year="2019", citationCount=None, title=None,
                          openAccessPdf=None),
              _match_body(isOpenAccess=None, openAccessPdf={"url": "null"})]
    with StubServer([{"body": body} for body in bodies]) as server:
        first = search_paper_by_title(" Looked-up Title ", _client(server.url))
        second = search_paper_by_title("T", _client(server.url))
    assert first == DocumentRecord(doc_id=PAPER_ID, title="Looked-up Title", year=2019,
                                   is_open_access=False)
    assert (second.is_open_access, second.pdf_url) == (False, None)


def test_title_match_http_error(monkeypatch) -> None:
    monkeypatch.delenv("TEST_METADATA_KEY", raising=False)
    with StubServer([{"status": 403}]) as server:
        with pytest.raises(NetworkError):
            search_paper_by_title("T", _client(server.url))


# ---------------------------------------------------------------------------
# store


def test_store_round_trips_documents_and_pages(tmp_path) -> None:
    store = CorpusStore(tmp_path / "corpus")
    assert list(store.iter_pages()) == []  # no page file yet
    summary = store.ingest_pages(
        [
            PageRecord(doc_id=DOC, page_number=2, text="two"),
            PageRecord(doc_id=DOC, page_number=1, text="one"),
            PageRecord(doc_id=DOC, page_number=1, text="one again"),
        ]
    )
    assert (summary.added, summary.skipped) == (2, 1)
    assert [p.page_number for p in store.iter_pages()] == [1, 2]


def test_store_index_survives_reopen(tmp_path) -> None:
    root = tmp_path / "corpus"
    CorpusStore(root).ingest_pages([PageRecord(doc_id=DOC, page_number=1, text="x")])
    reopened = CorpusStore(root)
    summary = reopened.ingest_pages([PageRecord(doc_id=DOC, page_number=1, text="x")])
    assert (summary.added, summary.skipped) == (0, 1)


def test_opening_a_store_and_listing_its_pages_reads_them_once(tmp_path, monkeypatch) -> None:
    root = tmp_path / "corpus"
    CorpusStore(root).ingest_pages([PageRecord(doc_id=DOC, page_number=1, text="x")])
    reads: list[str] = []
    lines = records._lines

    def counted(path, *args):
        reads.append(Path(path).name)
        return lines(path, *args)

    # the listing and read_rows, which builds the index, read the file through _lines
    monkeypatch.setattr(corpus, "_lines", counted)
    monkeypatch.setattr(records, "_lines", counted)
    store = CorpusStore(root)
    assert [p.text for p in store.iter_pages()] == ["x"]
    assert reads == ["pages.jsonl"]
    summary = store.ingest_pages([PageRecord(doc_id=DOC, page_number=1, text="x"),
                                  PageRecord(doc_id=DOC, page_number=2, text="y")])
    assert (summary.added, summary.skipped) == (1, 1)
    assert reads == ["pages.jsonl"] * 2  # the index, built by the first ingest


def test_ingest_keeps_first_occurrence_and_offer_order(tmp_path) -> None:
    root = tmp_path / "corpus"
    store = CorpusStore(root)
    store.ingest_pages([PageRecord(doc_id=DOC, page_number=5, text="stored")])
    summary = store.ingest_pages(
        [
            PageRecord(doc_id=DOC, page_number=3, text="three"),
            PageRecord(doc_id=DOC, page_number=5, text="already stored"),
            PageRecord(doc_id=DOC, page_number=1, text="one"),
            PageRecord(doc_id=DOC, page_number=3, text="three again"),
            PageRecord(doc_id=DOC, page_number=2, text="two"),
        ]
    )
    assert (summary.added, summary.skipped) == (3, 2)
    lines = (root / "pages.jsonl").read_text(encoding="utf-8").splitlines()
    assert [PageRecord.from_dict(json.loads(line)).text for line in lines] == [
        "stored", "three", "one", "two",
    ]
    assert {p.page_number: p.text for p in CorpusStore(root).iter_pages()} == {
        1: "one", 2: "two", 3: "three", 5: "stored",
    }


@pytest.mark.parametrize(
    "tail, kept",
    [
        (b'{"doc_id": "' + DOC.encode() + b'", "page_number": 1, "text": "one"}', True),
        (b'{"doc_id": "' + DOC.encode() + b'", "page_nu', False),
        (b'{"doc_id": "' + DOC.encode() + b'", "page_number": 1, "text": "caf\xc3', False),
    ],
    ids=["unterminated", "torn", "torn-mid-character"],
)
def test_store_mends_a_last_line_without_its_newline(tmp_path, caplog, tail, kept) -> None:
    root = tmp_path / "corpus"
    root.mkdir()
    first = '{"doc_id": "' + DOC + '", "page_number": 2, "text": "two"}\n'
    (root / "pages.jsonl").write_bytes(first.encode() + tail)
    stored = [2, 1] if kept else [2]
    assert [p.page_number for p in CorpusStore(root).iter_pages()] == sorted(stored)
    assert kept or "torn last line" in caplog.text

    summary = CorpusStore(root).ingest_pages(
        [PageRecord(doc_id=DOC, page_number=n, text="new") for n in (1, 3)]
    )
    assert (summary.added, summary.skipped) == ((1, 1) if kept else (2, 0))
    lines = (root / "pages.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[0] == first
    assert [json.loads(line)["page_number"] for line in lines] == [2, 1, 3]
    assert all(line.endswith("\n") for line in lines)
    assert {p.page_number for p in CorpusStore(root).iter_pages()} == {1, 2, 3}


@pytest.mark.parametrize("head", [b"", b"a\n", b"b" * records._CHUNK + b"\n"],
                         ids=["one-line", "short-head", "long-head"])
@pytest.mark.parametrize("tail_size", [1, records._CHUNK - 1, records._CHUNK, records._CHUNK + 1,
                                       2 * records._CHUNK + 3])
def test_the_last_line_without_its_newline_is_found_reading_backwards(tmp_path, head,
                                                                      tail_size) -> None:
    path = tmp_path / "pages.jsonl"
    path.write_bytes(head + b"t" * tail_size)
    assert corpus._unterminated_tail(path) == (len(head), b"t" * tail_size)
    path.write_bytes(head + b"t" * tail_size + b"\n")
    assert corpus._unterminated_tail(path) is None
    path.write_bytes(b"")
    assert corpus._unterminated_tail(path) is None
    assert corpus._unterminated_tail(tmp_path / "missing.jsonl") is None


def test_ingest_writes_the_same_bytes_without_orjson(tmp_path, monkeypatch) -> None:
    texts = ["Enquête\u2028 \x7f\x00 \"quoted\" \\ / \U0001d11e\n\t", "plain", ""]
    pages = [PageRecord(doc_id=DOC, page_number=n, text=t) for n, t in enumerate(texts, 1)]
    CorpusStore(tmp_path / "fast").ingest_pages(pages)
    monkeypatch.setattr(records, "orjson", None)
    CorpusStore(tmp_path / "plain").ingest_pages(pages)
    fast = (tmp_path / "fast" / "pages.jsonl").read_bytes()
    assert fast == (tmp_path / "plain" / "pages.jsonl").read_bytes()
    assert fast == "".join(json.dumps(p.to_dict(), ensure_ascii=False, separators=(", ", ": "))
                           + "\n" for p in pages).encode("utf-8")


def _numbered_pages(count: int, start: int = 1) -> list[PageRecord]:
    return [PageRecord(doc_id=DOC, page_number=n, text=f"page {n} \u00e9t\u00e9 " * 20)
            for n in range(start, start + count)]


def _stored_keys(path: Path) -> list[tuple[str, int]]:
    return [(row["doc_id"], row["page_number"])
            for row in map(json.loads, path.read_bytes().splitlines())]


@pytest.mark.parametrize("cut", ["after-a-batch", "mid-line", "before-a-newline"])
def test_an_interrupted_ingest_run_again_ends_with_the_uninterrupted_bytes(tmp_path, cut) -> None:
    offered = _numbered_pages(150) + _numbered_pages(20, start=141)  # ten repeat a key
    CorpusStore(tmp_path / "whole").ingest_pages(offered)
    whole = (tmp_path / "whole" / "pages.jsonl").read_bytes()
    ends = [i + 1 for i, byte in enumerate(whole) if byte == ord("\n")]
    assert len(ends) == 160 and records._LINE_BATCH == 64
    # what a kill leaves: whole batches, then at most part of the next
    size = {"after-a-batch": ends[63], "mid-line": (ends[63] + ends[64]) // 2,
            "before-a-newline": ends[100] - 1}[cut]
    root = tmp_path / "killed"
    root.mkdir()
    (root / "pages.jsonl").write_bytes(whole[:size])

    summary = CorpusStore(root).ingest_pages(offered)
    assert (root / "pages.jsonl").read_bytes() == whole
    stored = 101 if cut == "before-a-newline" else 64  # a last line that decodes is a page
    assert (summary.added, summary.skipped) == (160 - stored, 170 - 160 + stored)
    assert len(set(_stored_keys(root / "pages.jsonl"))) == 160


def test_ingest_appends_batch_by_batch_as_the_pages_come(tmp_path, monkeypatch) -> None:
    total = 10 * records._LINE_BATCH + 5
    pulled = 0
    writes: list[tuple[int, int]] = []  # (pages pulled so far, lines written)

    def offered():
        nonlocal pulled
        for page in _numbered_pages(total):
            pulled += 1
            yield page

    def write_all(write, data):
        writes.append((pulled, data.count(b"\n")))
        return records._write_all(write, data)

    monkeypatch.setattr(corpus, "_write_all", write_all)
    summary = CorpusStore(tmp_path).ingest_pages(offered())
    assert summary.added == total
    assert writes[0] == (records._LINE_BATCH, records._LINE_BATCH)
    assert max(lines for _, lines in writes) == records._LINE_BATCH
    assert sum(lines for _, lines in writes) == total and len(writes) == 11
    assert _stored_keys(tmp_path / "pages.jsonl") == [(DOC, n) for n in range(1, total + 1)]


@pytest.mark.parametrize("tail", [b"", b'{"doc_id": "x", "page_number": 7, "text": "kept"}',
                                  b'{"doc_id": "x", "page_nu'],
                         ids=["whole", "unterminated", "torn"])
@pytest.mark.parametrize("fault", ["surrogate", "input", "interrupt", "disk"])
def test_an_ingest_that_raises_leaves_the_store_and_its_index_as_they_were(
        tmp_path, monkeypatch, fault, tail) -> None:
    store = CorpusStore(tmp_path)
    first = b'{"doc_id": "x", "page_number": 1, "text": "one"}\n'
    store.pages_path.write_bytes(first + tail)
    store.ingest_pages([])  # builds the index, writes nothing
    before, index = store.pages_path.read_bytes(), set(store._page_index)
    assert before == first + tail

    good = _numbered_pages(99)
    batches = 0

    def offered():
        yield from good
        if fault == "surrogate":
            yield PageRecord(doc_id=DOC, page_number=100, text="lone \ud800 half")
        elif fault == "input":
            raise InvalidRecord("pages.jsonl: line 100 is not JSON")
        elif fault == "interrupt":
            raise KeyboardInterrupt
        yield from _numbered_pages(100, start=100)

    def write_all(write, data):
        nonlocal batches
        if data.count(b"\n") > 1:  # not the newline that mends an unterminated line
            batches += 1
            if fault == "disk" and batches == 2:
                raise OSError(28, "No space left on device")
        return records._write_all(write, data)

    monkeypatch.setattr(corpus, "_write_all", write_all)
    error = {"surrogate": InvalidRecord, "input": InvalidRecord, "interrupt": KeyboardInterrupt,
             "disk": StoreWriteError}[fault]
    with pytest.raises(error) as excinfo:
        store.ingest_pages(offered())
    assert batches >= 1  # a batch was appended before the fault
    if fault == "surrogate":
        assert f"page 100 of document {DOC} holds a lone surrogate" in str(excinfo.value)
    assert store.pages_path.read_bytes() == before
    assert store._page_index == index

    # the same store object takes the good pages once, and then no page twice
    assert store.ingest_pages(good).added == 99
    assert store.ingest_pages(good + _numbered_pages(1)).added == 0
    keys = _stored_keys(store.pages_path)
    assert len(keys) == len(set(keys)) == len(index) + 99


# ---------------------------------------------------------------------------
# the listing


def _page_line(number: int | str, text: str = "t", doc_id: object = DOC, **extra) -> bytes:
    row = {"doc_id": doc_id, "page_number": number, "text": text, **extra}
    return (json.dumps(row, ensure_ascii=False) + "\n").encode()


class _CountingGate:
    def __init__(self) -> None:
        self.calls = 0

    def score_page(self, text: str) -> float:
        self.calls += 1
        return 1.0


def test_listing_and_gating_rejected_pages_holds_one_page_at_a_time(tmp_path) -> None:
    text = "plain prose " * (16384 // 12)  # 16 KiB, with no trigger word
    root = tmp_path / "corpus"
    CorpusStore(root).ingest_pages(PageRecord(DOC, n, text) for n in range(1, 301))
    line_bytes = (root / "pages.jsonl").stat().st_size // 300
    gate = KeywordGate()
    warm = CorpusStore(tmp_path / "warm")
    warm.ingest_pages([PageRecord(DOC, 1, text)])
    filter_pages(warm.iter_pages(), gate)  # imports and compiles what the first page needs
    tracemalloc.start()
    try:
        listing = CorpusStore(root).iter_pages()
        listed = tracemalloc.get_traced_memory()[0]  # the keys and line spans
        passed, decisions = filter_pages(listing, gate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (passed, len(decisions)) == ([], 300)
    # the decisions take about 100 bytes a page; every page's text held at
    # once would take 300 times line_bytes
    assert listed < 200 * 300
    assert peak < listed + 100 * 300 + 8 * line_bytes, (peak, listed, line_bytes)


_DAMAGED = {
    "not-json": b"{not json\n",
    "not-utf8": b'{"doc_id": "' + DOC.encode() + b'", "page_number": 2, "text": "caf\xe9"}\n',
    "lone-surrogate": _page_line(2).replace(b'"t"', b'"\\ud800"'),
    "wrong-type": _page_line(2, text={"a": 1}),
    "missing-key": b'{"doc_id": "' + DOC.encode() + b'", "page_number": 2}\n',
    "not-an-object": b"[2]\n",
    "refused-page": _page_line(0),
}


@pytest.mark.parametrize("damage", sorted(_DAMAGED))
def test_listing_a_store_with_a_damaged_line_raises_before_any_page_is_scored(
        tmp_path, damage) -> None:
    root = tmp_path / "corpus"
    root.mkdir()
    path = root / "pages.jsonl"
    path.write_bytes(_page_line(1) + _DAMAGED[damage] + _page_line(3))
    with pytest.raises(InvalidRecord) as expected:
        list(read_rows(path, PageRecord.from_dict))
    gate = _CountingGate()
    with pytest.raises(InvalidRecord) as raised:
        filter_pages(CorpusStore(root).iter_pages(), gate)
    assert str(raised.value) == str(expected.value)
    assert str(raised.value).startswith(f"{path}: line 2")
    assert gate.calls == 0


def _rewrite_second_line(path: Path, how: str) -> None:
    data = path.read_bytes()
    start = data.index(b"\n") + 1
    end = data.index(b"\n", start)
    if how == "other-key":
        line = data[start:end].replace(b'"page_number": 2', b'"page_number": 9')
    elif how == "not-json":
        line = b"x" * (end - start)
    else:  # cut short in the middle of the line
        path.write_bytes(data[:start + 5])
        return
    path.write_bytes(data[:start] + line + data[end:])


@pytest.mark.parametrize("how, fault", [("other-key", f"no longer holds page 2 of document {DOC}"),
                                        ("not-json", "is not JSON"),
                                        ("cut-short", "is not JSON")])
def test_a_line_rewritten_after_listing_raises_naming_the_file_and_the_line(
        tmp_path, how, fault) -> None:
    store = CorpusStore(tmp_path / "corpus")
    store.ingest_pages(_numbered_pages(3))
    listing = store.iter_pages()
    _rewrite_second_line(store.pages_path, how)
    pages = iter(listing)
    assert next(pages).page_number == 1
    with pytest.raises(InvalidRecord, match=re.escape(f"{store.pages_path}: line 2 {fault}")):
        next(pages)


_TORN = b'{"doc_id": "' + DOC.encode() + b'", "page_nu'

_STORED = {
    "missing": (None, []),
    "empty": (b"", []),
    "torn-tail": (_page_line(2) + _page_line(1) + _TORN, [(DOC, 1, "t"), (DOC, 2, "t")]),
    "unterminated": (_page_line(2) + _page_line(1)[:-1], [(DOC, 1, "t"), (DOC, 2, "t")]),
    # lines orjson refuses or decodes to other types than a page's, which
    # the json path and PageRecord.from_dict read; a repeated key keeps file order
    "read-by-json": (b"\n" + _page_line("3", "three") + _page_line(1, "big", big=2**70)
                     + b"  \n" + _page_line(2, "nan", nan=float("nan"))
                     + _page_line(1, "again") + _page_line(4, 4.5)
                     + _page_line(1, "number id", doc_id=12),
                     [("12", 1, "number id"), (DOC, 1, "big"), (DOC, 1, "again"),
                      (DOC, 2, "nan"), (DOC, 3, "three"), (DOC, 4, "4.5")]),
}


@pytest.mark.parametrize("fast", [True, False], ids=["orjson", "json"])
@pytest.mark.parametrize("stored", sorted(_STORED))
def test_the_listing_reads_a_store_as_read_rows_does_and_iterates_again(
        tmp_path, monkeypatch, caplog, stored, fast) -> None:
    if not fast:
        monkeypatch.setattr(records, "orjson", None)
    root = tmp_path / "corpus"
    root.mkdir()
    data, expected = _STORED[stored]
    if data is not None:
        (root / "pages.jsonl").write_bytes(data)
    listing = CorpusStore(root).iter_pages()
    assert ("skipping a torn last line" in caplog.text) == (stored == "torn-tail")
    expected = [PageRecord(*page) for page in expected]
    assert len(listing) == len(expected)
    assert list(listing) == expected
    assert list(listing) == expected


def _middle(line: bytes) -> bytes:
    """A store whose second line is ``line``, between pages 1 and 3."""
    return _page_line(1, "first") + line + _page_line(3, "last")


_D = DOC.encode()
# a store's second line, and the pages listed in key order or the fault of that line
_SECOND_LINE = {
    "extra-float": (_page_line(2, "f", score=0.5), [(DOC, 2, "f")]),
    "extra-nan": (_page_line(2, "n", score=float("nan")), [(DOC, 2, "n")]),
    "extra-deep": (_page_line(2, "deep", deep=json.loads("[" * 70 + "]" * 70)),
                   [(DOC, 2, "deep")]),
    "wide-number": (_page_line(2**70, "wide"), [(DOC, 2**70, "wide")]),
    "digit-string-number": (_page_line(" 2", "digits"), [(DOC, 2, "digits")]),
    "duplicate-keys": (b'{"doc_id": "x", "page_number": 9, "text": "first", "doc_id": "'
                       + _D + b'", "text": "last", "page_number": 2}\n', [(DOC, 2, "last")]),
    "duplicate-key-from-float": (b'{"doc_id": "' + _D + b'", "page_number": 2.5, "text": "t", '
                                 b'"page_number": 2}\n', [(DOC, 2, "t")]),
    "surrogate-pair-escape": (_page_line(2, "X").replace(b'"X"', b'"\\ud834\\udd1e"'),
                              [(DOC, 2, "\U0001d11e")]),
    "duplicate-key-to-float": (b'{"doc_id": "' + _D + b'", "page_number": 2, "text": "t", '
                               b'"page_number": 2.0}\n',
                               "line 2: the row has a field of the wrong type or value"),
    "boolean-number": (_page_line(True), "line 2: the row has a field of the wrong type"),
    "surrogate-escape": (_page_line(2, "X").replace(b'"X"', b'"\\ud800"'),
                         "line 2 holds a lone surrogate"),
    "not-utf8": (b'{"doc_id": "' + _D + b'", "page_number": 2, "text": "caf\xe9"}\n',
                 "line 2 is not UTF-8"),
    "damaged": (b'{"doc_id": "' + _D + b'", "page_number": [2, "text": "t"}\n',
                "line 2 is not JSON"),
}


@pytest.mark.parametrize("fast", [True, False], ids=["orjson", "json"])
@pytest.mark.parametrize("case", sorted(_SECOND_LINE))
def test_a_stored_line_is_listed_and_iterated_as_read_rows_reads_it(
        tmp_path, monkeypatch, case, fast) -> None:
    if not fast:
        monkeypatch.setattr(records, "orjson", None)
    root = tmp_path / "corpus"
    root.mkdir()
    path = root / "pages.jsonl"
    line, expected = _SECOND_LINE[case]
    path.write_bytes(_middle(line))
    try:
        read = sorted(read_rows(path, PageRecord.from_dict),
                      key=lambda page: (page.doc_id, page.page_number))
    except InvalidRecord as exc:
        read = exc
    if isinstance(expected, str):
        assert str(read).startswith(f"{path}: {expected}")
        with pytest.raises(InvalidRecord) as raised:
            CorpusStore(root).iter_pages()
        assert str(raised.value) == str(read)
        return
    (middle,) = expected
    expected = sorted([PageRecord(DOC, 1, "first"), PageRecord(*middle),
                       PageRecord(DOC, 3, "last")], key=lambda page: (page.doc_id, page.page_number))
    assert read == expected
    listing = CorpusStore(root).iter_pages()
    assert list(listing) == expected
    # the line put in place of page 2's, of the same length, after the listing
    # is read by the same rule as it is iterated
    pad = len(line) - len(_page_line(2, ""))
    assert pad >= 0
    path.write_bytes(_middle(_page_line(2, "p" * pad)))
    listing = CorpusStore(root).iter_pages()
    path.write_bytes(_middle(line))
    if middle[1] == 2:
        assert list(listing) == expected
    else:
        with pytest.raises(InvalidRecord,
                           match=re.escape(f"{path}: line 2 no longer holds page 2 of")):
            list(listing)


@pytest.mark.parametrize("fast", [True, False], ids=["orjson", "json"])
@pytest.mark.parametrize("field", ["doc_id", "text"])
def test_a_page_holding_a_lone_surrogate_fails_ingest_with_the_same_error(
        tmp_path, monkeypatch, field, fast) -> None:
    if not fast:
        monkeypatch.setattr(records, "orjson", None)
    store = CorpusStore(tmp_path)
    store.ingest_pages([PageRecord(DOC, 1, "kept")])
    before = store.pages_path.read_bytes()
    page = PageRecord(**{"doc_id": DOC, "page_number": 2, "text": "t", field: "LSMS\ud800"})
    with pytest.raises(InvalidRecord) as raised:
        store.ingest_pages([PageRecord(DOC, 3, "three"), page])
    assert str(raised.value) == (f"page 2 of document {page.doc_id} holds a lone surrogate, "
                                 "which UTF-8 cannot store")
    assert store.pages_path.read_bytes() == before
    assert store.ingest_pages([PageRecord(DOC, 3, "three")]).added == 1



@pytest.mark.parametrize("damage", sorted(_DAMAGED))
def test_ingest_into_a_store_with_a_damaged_line_is_refused_as_the_listing_refuses_it(
        tmp_path, capsys, damage) -> None:
    root = tmp_path / "corpus"
    root.mkdir()
    path = root / "pages.jsonl"
    path.write_bytes(_page_line(1) + _DAMAGED[damage] + _page_line(3))
    before = path.read_bytes()
    with pytest.raises(InvalidRecord) as listed:
        CorpusStore(root).iter_pages()
    with pytest.raises(InvalidRecord) as raised:
        CorpusStore(root).ingest_pages([PageRecord(DOC, 2, "two"), PageRecord(DOC, 4, "four")])
    assert str(raised.value) == str(listed.value)
    assert str(raised.value).startswith(f"{path}: line 2")
    assert path.read_bytes() == before

    pages = tmp_path / "new.jsonl"
    pages.write_bytes(_page_line(2, "two") + _page_line(4, "four"))
    capsys.readouterr()
    assert main(["--corpus-dir", str(root), "ingest", "--pages", str(pages)]) == 3
    assert f"input error: {path}: line 2" in capsys.readouterr().err
    assert path.read_bytes() == before


def test_ingest_of_a_page_row_nested_too_deeply_exits_3_naming_the_line(tmp_path,
                                                                         capsys) -> None:
    pages = tmp_path / "pages.jsonl"
    line = _page_line(1).replace(b"}\n", b', "x": ' + b"[" * 1000 + b"]" * 1000 + b"}\n")
    pages.write_bytes(_page_line(2) + line)
    root = tmp_path / "corpus"
    assert main(["--corpus-dir", str(root), "ingest", "--pages", str(pages)]) == 3
    assert f"input error: {pages}: line 2 is nested too deeply" in capsys.readouterr().err
    assert not (root / "pages.jsonl").exists()


def test_a_torn_tail_nested_too_deeply_is_skipped_and_then_cut_off(tmp_path, caplog,
                                                                   capsys) -> None:
    root = tmp_path / "corpus"
    store = CorpusStore(root)
    store.ingest_pages([PageRecord(DOC, 1, "A census underpins it.")])
    whole = store.pages_path.read_bytes()
    with open(store.pages_path, "ab") as fh:
        fh.write(b'{"doc_id": "x", "page_number": 2, "text": "t", "y": ' + b"[" * 100_000)
    pages = tmp_path / "new.jsonl"
    pages.write_bytes(_page_line(1) + _page_line(2, "two"))
    config = tmp_path / "keyword.json"
    config.write_text('{"gate": {"kind": "keyword"}}', encoding="utf-8")

    gate = ["--config", str(config), "--corpus-dir", str(root), "gate",
            "--out", str(tmp_path / "decisions.jsonl")]
    assert main(gate) == 0
    assert "gate passed 1 of 1 pages" in capsys.readouterr().out
    assert "skipping a torn last line of 100052 bytes" in caplog.text
    assert main(["--corpus-dir", str(root), "ingest", "--pages", str(pages)]) == 0
    assert "ingested 1 pages, skipped 1 duplicates" in capsys.readouterr().out
    assert "cutting off a torn last line of 100052 bytes" in caplog.text
    assert store.pages_path.read_bytes() == whole + PageRecord(DOC, 2, "two").to_line()


# ---------------------------------------------------------------------------
# PDF download and conversion


def test_fetch_pdf_stores_by_doc_id(tmp_path) -> None:
    pdf_bytes = b"%PDF-1.7 fake body"
    with StubServer([{"body": pdf_bytes, "headers": {"Content-Type": "application/pdf"}}]) as server:
        doc = DocumentRecord(doc_id=DOC, title="T", pdf_url=server.url + "/p.pdf")
        report = fetch_pdf(doc, tmp_path, retry_policy=RetryPolicy(attempts=1))
    assert report.path == tmp_path / f"{DOC}.pdf"
    assert report.path.read_bytes() == pdf_bytes
    assert report.size_bytes == len(pdf_bytes)


def test_fetch_pdf_requires_a_link(tmp_path) -> None:
    doc = DocumentRecord(doc_id=DOC, title="T")
    with pytest.raises(NoPdfUrl):
        fetch_pdf(doc, tmp_path)


def test_fetch_pdf_rejects_html(tmp_path) -> None:
    with StubServer([{"body": "<html>login</html>", "headers": {"Content-Type": "text/html"}}]) as server:
        doc = DocumentRecord(doc_id=DOC, title="T", pdf_url=server.url + "/p.pdf")
        with pytest.raises(NonPdfContent):
            fetch_pdf(doc, tmp_path, retry_policy=RetryPolicy(attempts=1))


def _fake_converter(tmp_path, body: str) -> list[str]:
    """A tiny script standing in for a PDF-to-text command."""
    script = tmp_path / "fake_pdftotext.py"
    script.write_text(body, encoding="utf-8")
    return [sys.executable, str(script), "{pdf}"]


def test_convert_splits_on_form_feeds(tmp_path) -> None:
    pdf = tmp_path / "in.pdf"
    pdf.write_bytes(b"%PDF fake")
    argv = _fake_converter(
        tmp_path,
        "import sys\n"
        "assert sys.argv[1].endswith('in.pdf')\n"
        "sys.stdout.write('page one\\x0cpage two\\x0c')\n",
    )
    pages = list(convert_pdf_to_pages(DOC, pdf, argv))
    assert [(p.page_number, p.text) for p in pages] == [(1, "page one"), (2, "page two")]


def test_convert_reads_line_ends_as_a_text_pipe_does(tmp_path) -> None:
    pdf = tmp_path / "in.pdf"
    pdf.write_bytes(b"%PDF fake")
    argv = _fake_converter(tmp_path, "import sys\n"
                           "sys.stdout.buffer.write('one\\r\\ntwo\\rr\u00e9sum\u00e9\\x0c'.encode())\n")
    assert [p.text for p in convert_pdf_to_pages(DOC, pdf, argv)] == ["one\ntwo\nr\u00e9sum\u00e9"]


def test_convert_refuses_output_that_is_not_utf8(tmp_path) -> None:
    pdf = tmp_path / "in.pdf"
    pdf.write_bytes(b"%PDF fake")
    argv = _fake_converter(tmp_path, "import sys\nsys.stdout.buffer.write(b'caf\\xe9\\x0c')\n")
    with pytest.raises(ConverterFailed, match=f"not UTF-8 for {re.escape(str(pdf))}: ") as excinfo:
        list(convert_pdf_to_pages(DOC, pdf, argv))
    assert "at byte 3" in str(excinfo.value)


def test_convert_requires_existing_pdf(tmp_path) -> None:
    with pytest.raises(ConverterFailed):
        list(convert_pdf_to_pages(DOC, tmp_path / "missing.pdf", ["true", "{pdf}"]))


def test_convert_surfaces_command_failure(tmp_path) -> None:
    pdf = tmp_path / "in.pdf"
    pdf.write_bytes(b"%PDF fake")
    argv = _fake_converter(tmp_path, "import sys\nsys.stderr.write('broken xref')\nsys.exit(3)\n")
    with pytest.raises(ConverterFailed) as excinfo:
        list(convert_pdf_to_pages(DOC, pdf, argv))
    assert excinfo.value.returncode == 3
    assert "broken xref" in excinfo.value.stderr


def test_convert_rejects_empty_output(tmp_path) -> None:
    pdf = tmp_path / "in.pdf"
    pdf.write_bytes(b"%PDF fake")
    argv = _fake_converter(tmp_path, "pass\n")
    with pytest.raises(EmptyOutput):
        list(convert_pdf_to_pages(DOC, pdf, argv))
