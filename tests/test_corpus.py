from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from datamentions import corpus, records
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
    MalformedResponse,
    NetworkError,
    NoPdfUrl,
    NonPdfContent,
)
from datamentions.records import DocumentRecord, PageRecord
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
    # a match whose paperId is not a doc_id cannot become a document
    with StubServer([{"body": _match_body(paperId="not-hex")}]) as server:
        with pytest.raises(MalformedResponse):
            search_paper_by_title("T", _client(server.url))


def test_title_match_http_error(monkeypatch) -> None:
    monkeypatch.delenv("TEST_METADATA_KEY", raising=False)
    with StubServer([{"status": 403}]) as server:
        with pytest.raises(NetworkError):
            search_paper_by_title("T", _client(server.url))


# ---------------------------------------------------------------------------
# store


def test_store_round_trips_documents_and_pages(tmp_path) -> None:
    store = CorpusStore(tmp_path / "corpus")
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
    read = corpus.read_jsonl

    def counted(path):
        reads.append(Path(path).name)
        return read(path)

    monkeypatch.setattr(corpus, "read_jsonl", counted)
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
