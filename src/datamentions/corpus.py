"""Corpus acquisition and storage.

Documents are located by title through a scholarly metadata index (a
title-match HTTP endpoint), their open-access PDFs downloaded, converted to
page-delimited text by a user-configured external command, and their pages
ingested into an append-only store of line-delimited page records with a
(doc_id, page) uniqueness index.

Ingest streams: fresh pages are appended in batches as they are offered,
so its memory is one batch, not the page file. An ingest that raises
leaves the store as it was. One that is killed leaves whole pages and at
most a torn last line; running it again skips the pages stored, cuts off
the torn line and ends with the bytes an uninterrupted ingest writes.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Collection, Iterable, Iterator, Sequence

from .errors import (
    ConverterFailed,
    EmptyOutput,
    InvalidRecord,
    MalformedResponse,
    MissingField,
    NetworkError,
    NoPdfUrl,
    NonPdfContent,
    StoreWriteError,
)
# perfbench/tracing.py patches read_jsonl and dumps_line by these names: neither is
# called here, since pages are encoded by PageRecord.to_line, and both are kept for it
from .records import (  # noqa: F401
    _BLANK,
    _CHUNK,
    _LINE_BATCH,
    DocumentRecord,
    PageRecord,
    _first_given,
    _lines,
    _page_fields,
    _write_all,
    dumps_line,
    frozen_record,
    read_jsonl,
)
from .retries import RetryPolicy, send_with_retries

if TYPE_CHECKING:
    import requests

log = logging.getLogger(__name__)

SEARCH_FIELDS = "title,year,abstract,citationCount,isOpenAccess,openAccessPdf"
PAGE_DELIMITER = "\f"

__all__ = [
    "CorpusStore",
    "IngestSummary",
    "MetadataClient",
    "StoredFileReport",
    "convert_pdf_to_pages",
    "fetch_pdf",
    "search_paper_by_title",
]


@frozen_record
class IngestSummary:
    """Pages added to the store by one ingest, and pages skipped as already stored."""

    added: int
    skipped: int


@frozen_record
class StoredFileReport:
    """A downloaded PDF: the document it belongs to, where it was saved and its size."""

    doc_id: str
    path: Path
    size_bytes: int


@dataclass
class MetadataClient:
    """Client for a title-match metadata endpoint.

    ``GET {base_url}/paper/search/match`` with the title as ``query`` and a
    ``fields`` selection; answers either one best match or a "no match"
    body. An API key, when present in the environment, rides along as the
    conventional ``x-api-key`` header.
    """

    base_url: str = "https://api.semanticscholar.org/graph/v1"
    api_key_env: str = "S2_API_KEY"
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    timeout: float = 30.0
    session: requests.Session | None = None
    sleep: Callable[[float], None] = time.sleep

    def match_title(self, title: str) -> dict | None:
        """Return the best-match payload for ``title``, or None on no match."""
        import requests  # loaded by the first call, not when the module is

        url = self.base_url.rstrip("/") + "/paper/search/match"
        params = {"query": title, "fields": SEARCH_FIELDS}
        headers = {}
        key = os.environ.get(self.api_key_env, "")
        if key:
            headers["x-api-key"] = key
        http = self.session or requests
        response, _ = send_with_retries(
            lambda: http.get(url, params=params, headers=headers, timeout=self.timeout),
            self.retry_policy,
            sleep=self.sleep,
        )
        if response.status_code == 404:
            # the index reports "title match not found" as a 404 with an error body
            return None
        if response.status_code != 200:
            raise NetworkError(f"metadata endpoint answered HTTP {response.status_code}")
        try:
            body = response.json()
        except ValueError as exc:
            raise MalformedResponse(f"metadata endpoint sent non-JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise MalformedResponse("metadata endpoint sent a non-object body")
        matches = body.get("data")
        if matches is None:
            if "error" in body:
                return None
            raise MalformedResponse("metadata body carries neither 'data' nor 'error'")
        if not isinstance(matches, list):
            raise MalformedResponse("metadata 'data' is not a list of matches")
        if not matches:
            return None
        if not isinstance(matches[0], dict):
            raise MalformedResponse("metadata match entry is not an object")
        return matches[0]


def search_paper_by_title(
    title: str,
    client: MetadataClient,
    source_corpus: str = "other",
) -> DocumentRecord | None:
    """Look up one title; return a DocumentRecord or None when unmatched.

    The match is read by :meth:`DocumentRecord.from_dict`, one rule per
    field; a match that breaks one, or whose ``openAccessPdf`` is neither
    an object nor null, raises :class:`MalformedResponse`. A match without
    a title keeps the title looked up.
    """
    if not title or not title.strip():
        raise ValueError("title must be non-empty")
    match = client.match_title(title.strip())
    if match is None:
        return None
    open_access_pdf = match.get("openAccessPdf") or {}
    if not isinstance(open_access_pdf, dict):
        raise MalformedResponse(
            f"metadata match's openAccessPdf is not an object: {open_access_pdf!r}")
    try:
        return DocumentRecord.from_dict({
            "doc_id": match.get("paperId"),
            "title": _first_given(match.get("title"), title.strip()),
            "source_corpus": source_corpus,
            "year": match.get("year"),
            "is_open_access": match.get("isOpenAccess"),
            "pdf_url": open_access_pdf.get("url"),
            "citation_count": match.get("citationCount"),
        })
    except (InvalidRecord, MissingField) as exc:
        raise MalformedResponse(f"metadata match is not a usable document: {exc}") from exc


def _unterminated_tail(path: Path) -> tuple[int, bytes] | None:
    """The size of ``path`` before its last line, and that line, when it has no newline.

    None when the file is missing, empty or ends with a newline, which
    costs one read of one byte. Only the rare other case reads more: the
    file backwards, a chunk at a time, to the newline before the last line.
    """
    try:
        with open(path, "rb") as fh:
            end = fh.seek(0, os.SEEK_END)
            if end == 0:
                return None
            fh.seek(end - 1)
            if fh.read(1) == b"\n":
                return None
            start = end
            while start > 0:
                step = min(start, _CHUNK)
                fh.seek(start - step)
                newline = fh.read(step).rfind(b"\n")
                if newline >= 0:
                    start += newline + 1 - step
                    break
                start -= step
            fh.seek(start)
            return start, fh.read()
    except FileNotFoundError:
        return None


def _decodes(line: bytes) -> bool:
    try:
        json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError):  # bytes or JSON that json cannot read, or too deep
        return False
    return True


class _PageAppend:
    """Appends batches of lines to a page file, all or nothing.

    The file is opened by the first batch, so an ingest that adds nothing
    opens nothing for writing. A last line without its newline that decodes
    gets its newline first; the torn tail of an ingest cut short is cut off.
    If the ``with`` block raises, the file is cut back to its size before
    the first batch and a torn tail cut off is put back: it holds the bytes
    it held before.
    """

    def __init__(self, path: Path):
        self.path = path
        self._file: BinaryIO | None = None
        self._start = 0
        self._torn = b""

    def __enter__(self) -> "_PageAppend":
        return self

    def __exit__(self, exc_type: type[BaseException] | None, *exc_info: object) -> None:
        if self._file is None:
            return
        with self._file:
            if exc_type is not None:
                self._file.truncate(self._start)
                _write_all(self._file.write, self._torn)

    def write(self, data: bytes) -> None:
        try:
            if self._file is None:
                self._open()
            _write_all(self._file.write, data)
        except OSError as exc:
            raise StoreWriteError(f"cannot append to {self.path}: {exc}") from exc

    def _open(self) -> None:
        self._file = file = open(self.path, "ab", buffering=0)
        self._start = os.fstat(file.fileno()).st_size
        tail = _unterminated_tail(self.path)
        if tail is None:
            return
        head, last = tail
        if _decodes(last):
            _write_all(file.write, b"\n")
        else:
            log.warning("%s: cutting off a torn last line of %d bytes", self.path, len(last))
            file.truncate(head)
            self._start, self._torn = head, last


class _PageListing:
    """A store's pages in (doc_id, page) order, each read from its line as it is iterated.

    It holds each page's key and its line's number, byte offset and length,
    never its text. Each iteration reads a page's line, decodes it and
    builds its :class:`PageRecord` one page at a time, so a caller that
    keeps only some pages holds only those. A line listed as a page's that
    no longer decodes to that page's key raises :class:`InvalidRecord`
    naming the file and the line.
    """

    __slots__ = ("path", "_entries")

    def __init__(self, path: Path, entries: list[tuple[str, int, int, int, int]]):
        self.path = path
        self._entries = entries  # (doc_id, page_number, line number, offset, length)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[PageRecord]:
        if not self._entries:
            return
        with open(self.path, "rb", buffering=0) as fh:
            fd = fh.fileno()
            for doc_id, page_number, number, offset, length in self._entries:
                page = _page_fields(self.path, number, os.pread(fd, length, offset))
                if page is _BLANK or page[:2] != (doc_id, page_number):
                    raise InvalidRecord(f"{self.path}: line {number} no longer holds page "
                                        f"{page_number} of document {doc_id}")
                yield PageRecord(doc_id, page_number, page[2])


class CorpusStore:
    """Append-only page store with a (doc_id, page) uniqueness index.

    Layout under ``root``: ``pages.jsonl``, one page a line. A page's line
    is what :func:`records.dumps_line` writes for its ``to_dict()``: ingest
    writes it with :meth:`PageRecord.to_line`, and the listing and its
    iteration read it back with :func:`records._page_fields`, by the rules
    of :func:`read_rows` with :meth:`PageRecord.from_dict`. Both take a
    shorter path for a page whose fields hold exactly a str, an int and a
    str, as every line ingest writes does. :meth:`iter_pages` lists the
    pages sorted by doc_id then page number, so two stores with the same
    content behave identically. The listing holds each page's key and the
    byte span of its line, not its text: it reads the file once and checks
    every line as a page, so a damaged line is reported when the pages are
    listed, before any is used, and each page is read again and built as
    the listing is iterated. The index is the keys of that same scan, made
    the first time :meth:`ingest_pages` needs it.

    :meth:`ingest_pages` streams: it appends the fresh pages in batches of
    64 lines as they come, so an ingest's memory is one batch, and it is
    all or nothing: one that raises leaves ``pages.jsonl`` and the index as
    they were. A killed ingest leaves whole pages and at most a torn last
    line. A last line without its newline that decodes is a whole page: the
    next append writes the newline first. One that does not decode is the
    torn tail of an ingest cut short: reads skip it with a warning, and the
    next append cuts it off, so the same ingest run again skips the pages
    stored and ends with the bytes an uninterrupted one writes.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.pages_path = self.root / "pages.jsonl"
        self._page_index: set[tuple[str, int]] | None = None

    def _readable_size(self) -> int | None:
        """How much of ``pages.jsonl`` to read: all of it (None), or the bytes before a
        torn last line, which is skipped with a warning."""
        tail = _unterminated_tail(self.pages_path)
        if tail is None or _decodes(tail[1]):
            return None
        log.warning("%s: skipping a torn last line of %d bytes", self.pages_path, len(tail[1]))
        return tail[0]

    def _scan(self) -> Iterator[tuple[str, int, int, int, int]]:
        """Each stored page's (doc_id, page_number, line number, offset, length), in file
        order: each line read by :func:`records._page_fields`, less a torn last line."""
        if not self.pages_path.exists():
            return
        doc_ids: dict[str, str] = {}  # one string per document, shared by its pages
        end = 0
        for number, line in enumerate(_lines(self.pages_path, self._readable_size()), 1):
            offset, end = end, end + len(line)
            page = _page_fields(self.pages_path, number, line)
            if page is not _BLANK:
                yield doc_ids.setdefault(page[0], page[0]), page[1], number, offset, len(line)

    def _index(self) -> set[tuple[str, int]]:
        """The (doc_id, page) keys stored, scanned from the file the first time."""
        if self._page_index is None:
            self._page_index = {entry[:2] for entry in self._scan()}
        return self._page_index

    def ingest_pages(self, pages: Iterable[PageRecord]) -> IngestSummary:
        """Append fresh pages; duplicates are skipped and counted.

        Each fresh page is encoded once to a UTF-8 line by
        :meth:`PageRecord.to_line`, and the lines are appended
        ``records._LINE_BATCH`` at a time through :class:`_PageAppend` as
        the pages come. A page whose doc_id or text holds a lone surrogate,
        which UTF-8 cannot store, raises :class:`InvalidRecord`; like any
        other error, it leaves the store and its index as they were.
        """
        index = self._index()
        fresh: set[tuple[str, int]] = set()
        skipped = 0
        batch: list[bytes] = []
        with _PageAppend(self.pages_path) as out:
            for page in pages:
                key = (page.doc_id, page.page_number)
                if key in index or key in fresh:
                    skipped += 1
                    continue
                try:
                    batch.append(page.to_line())
                except UnicodeEncodeError:
                    raise InvalidRecord(
                        f"page {page.page_number} of document {page.doc_id} holds a lone "
                        "surrogate, which UTF-8 cannot store") from None
                fresh.add(key)
                if len(batch) == _LINE_BATCH:
                    out.write(b"".join(batch))
                    batch = []
            if batch:
                out.write(b"".join(batch))
        index.update(fresh)
        return IngestSummary(added=len(fresh), skipped=skipped)

    def iter_pages(self) -> Collection[PageRecord]:
        """The stored pages in (doc_id, page) order, as a sized, re-iterable listing.

        The file is read once, each line by :func:`records._page_fields`,
        which reads it as :func:`read_rows` does with
        :meth:`PageRecord.from_dict`, less a torn last line: a line that is
        not a page raises :class:`InvalidRecord` here. The listing keeps
        each page's key and line span; iterating it reads and builds one
        page at a time.
        """
        return _PageListing(self.pages_path, sorted(self._scan()))  # a repeated key in line order


def fetch_pdf(
    doc: DocumentRecord,
    dest: str | Path,
    *,
    retry_policy: RetryPolicy | None = None,
    session: requests.Session | None = None,
    timeout: float = 120.0,
    sleep: Callable[[float], None] = time.sleep,
) -> StoredFileReport:
    """Download the document's PDF into ``dest`` named by its doc_id."""
    import requests  # loaded by the first call, not when the module is

    if not doc.pdf_url:
        raise NoPdfUrl(f"document {doc.doc_id} has no PDF link")
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    http = session or requests
    response, _ = send_with_retries(
        lambda: http.get(doc.pdf_url, timeout=timeout),
        retry_policy or RetryPolicy(),
        sleep=sleep,
    )
    if response.status_code != 200:
        raise NetworkError(f"PDF fetch answered HTTP {response.status_code}")
    content_type = response.headers.get("Content-Type", "")
    if "pdf" not in content_type.lower() and not response.content.startswith(b"%PDF"):
        raise NonPdfContent(
            f"{doc.pdf_url} served {content_type or 'unknown content'}, not a PDF"
        )
    path = dest / f"{doc.doc_id}.pdf"
    path.write_bytes(response.content)
    return StoredFileReport(doc_id=doc.doc_id, path=path, size_bytes=len(response.content))


def convert_pdf_to_pages(
    doc_id: str,
    pdf_path: str | Path,
    converter: Sequence[str],
) -> Iterator[PageRecord]:
    """Run the external PDF-to-text command and yield one record per page.

    ``converter`` is an argv template; every occurrence of ``{pdf}`` is
    replaced with the PDF path. The command must print page text to stdout
    with pages separated by :data:`PAGE_DELIMITER` (form feed, the common
    convention for text extractors), in UTF-8: other bytes raise
    :class:`ConverterFailed` naming the PDF. Line ends ``\r\n`` and ``\r``
    read as ``\n``.
    """
    import subprocess  # loaded by the first conversion, not when the module is

    pdf_path = Path(pdf_path)
    if not pdf_path.exists():
        raise ConverterFailed(f"PDF file {pdf_path} does not exist")
    argv = [part.replace("{pdf}", str(pdf_path)) for part in converter]
    try:
        proc = subprocess.run(argv, capture_output=True, check=False)
    except OSError as exc:
        raise ConverterFailed(f"cannot run converter {argv[0]!r}: {exc}") from exc
    if proc.returncode != 0:
        raise ConverterFailed(
            f"converter exited with status {proc.returncode}",
            returncode=proc.returncode,
            stderr=proc.stderr.decode("utf-8", "replace")[-2000:],
        )
    try:
        text = proc.stdout.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConverterFailed(f"converter printed bytes that are not UTF-8 for {pdf_path}: "
                              f"{exc.reason} at byte {exc.start}") from None
    # line ends read as a text-mode pipe reads them
    chunks = text.replace("\r\n", "\n").replace("\r", "\n").split(PAGE_DELIMITER)
    if chunks and chunks[-1].strip() == "":
        chunks.pop()  # extractors commonly emit a trailing delimiter
    if not chunks or all(not c.strip() for c in chunks):
        raise EmptyOutput(f"converter produced no page text for {pdf_path}")
    for number, chunk in enumerate(chunks, start=1):
        yield PageRecord(doc_id=doc_id, page_number=number, text=chunk)
