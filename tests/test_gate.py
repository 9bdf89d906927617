from __future__ import annotations

import logging
import re
import string
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from datamentions.errors import InvalidRecord, MalformedScore, MissingLabel, NetworkError
from datamentions.gate import (
    _GATE_WIDTH,
    AlwaysPassGate,
    GateDecision,
    KeywordGate,
    RemoteGate,
    _FOLD_ONLY,
    default_triggers,
    evaluate_gate,
    filter_pages,
    load_triggers,
)
from datamentions.records import PageRecord

from stubserver import StubServer

DOC = "d" * 40


def _page(number: int, text: str) -> PageRecord:
    return PageRecord(doc_id=DOC, page_number=number, text=text)


# ---------------------------------------------------------------------------
# decisions


def test_decision_enforces_passed_consistency() -> None:
    with pytest.raises(InvalidRecord):
        GateDecision(doc_id=DOC, page_number=1, score=0.9, threshold=0.5, passed=False)
    decision = GateDecision(doc_id=DOC, page_number=1, score=0.5, threshold=0.5, passed=True)
    assert GateDecision.from_dict(decision.to_dict()) == decision


# ---------------------------------------------------------------------------
# gate kinds


def test_always_pass_gate() -> None:
    gate = AlwaysPassGate()
    assert gate.score_page("") == 1.0
    assert gate.score_page("anything at all") == 1.0


def test_keyword_gate_whole_words_case_insensitive() -> None:
    gate = KeywordGate(["survey", "census"])
    assert gate.score_page("The Census of 2010 shows...") == 1.0
    assert gate.score_page("we use surveys") == 0.0  # 'survey' only as whole word
    assert gate.score_page("nothing relevant here") == 0.0


def test_keyword_gate_multiword_trigger() -> None:
    gate = KeywordGate(["time series"])
    assert gate.score_page("a long time series of prices") == 1.0
    assert gate.score_page("a long time, series of events") == 0.0


def test_keyword_gate_default_triggers_fire_on_obvious_text() -> None:
    triggers = default_triggers()
    assert "dataset" in triggers
    gate = KeywordGate()
    assert gate.score_page("We analyze a new dataset of firms.") == 1.0
    assert gate.score_page("Nothing about structured resources.") == 0.0


def test_keyword_gate_from_file(tmp_path) -> None:
    path = tmp_path / "triggers.txt"
    path.write_text("# comment\n\nregistry\n  # indented comment\n \t\nimagery\n", encoding="utf-8")
    assert load_triggers(path) == ["registry", "imagery"]
    gate = KeywordGate.from_file(path)
    assert gate.score_page("satellite imagery of fields") == 1.0


def test_default_triggers_use_the_same_line_rule(tmp_path, monkeypatch) -> None:
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "gate_triggers.txt").write_text(
        "# header\n  # indented comment\n  census  \n\t\nregistry\n", encoding="utf-8"
    )
    monkeypatch.setattr("datamentions.gate.resources.files", lambda package: tmp_path)
    assert default_triggers() == ["census", "registry"]


def test_keyword_gate_rejects_empty_trigger_list() -> None:
    with pytest.raises(InvalidRecord):
        KeywordGate([])


@pytest.mark.parametrize("blank", ["", "   ", "\t"])
def test_keyword_gate_rejects_blank_trigger_terms(blank) -> None:
    with pytest.raises(InvalidRecord):
        KeywordGate(["survey", blank])


# ---------------------------------------------------------------------------
# keyword gate exactness: the literal prefilter never changes a decision


def _reference(triggers: list[str]):
    """The keyword rule by definition: one IGNORECASE regex over the page."""
    pattern = re.compile(r"\b(?:" + "|".join(map(re.escape, triggers)) + r")\b", re.I)
    return lambda text: 1.0 if pattern.search(text) else 0.0


TERMS = [
    "data", "dataset", "Datasets",  # prefix family
    "x", "index",                   # an inner substring
    "time series",                  # multi-word
    "u.s. census", "c++",           # punctuation
]
# Any of these turns the prefilter off for the whole gate; the last two fold
# beyond str.lower() under re.IGNORECASE.
NON_ASCII_TERMS = ["enquête", "ſurvey", "λογος"]
TEXT_ALPHABET = (
    string.ascii_letters + string.digits + "_ .,;:-()+'"
    + "\u00e9\u00df\u212a\u0130\u0131\u017f\u0307"  # é ß Kelvin K İ ı ſ, combining dot
)
# Characters re.IGNORECASE equates with an ASCII letter besides its two cases.
FOLDS = {"i": "\u0130\u0131", "k": "\u212a", "s": "\u017f"}


def _spellings(word: str):
    """``word`` with each character in either case, or also a fold equivalent."""
    cased = [[c.lower(), c.upper()] for c in word]
    folded = [options + list(FOLDS.get(c.lower(), "")) for c, options in zip(word, cased)]
    return st.sampled_from([cased, folded]).flatmap(
        lambda choices: st.tuples(*map(st.sampled_from, choices))
    ).map("".join)


@st.composite
def _gate_case(draw) -> tuple[list[str], str]:
    chosen = draw(st.lists(st.booleans(), min_size=len(TERMS), max_size=len(TERMS)))
    triggers = [term for term, keep in zip(TERMS, chosen) if keep]
    triggers += draw(st.lists(st.sampled_from(NON_ASCII_TERMS), max_size=1))
    triggers += draw(
        st.lists(
            st.text(string.ascii_letters + " -.", min_size=1, max_size=4).filter(str.strip),
            min_size=0 if triggers else 1,
            max_size=2,
        )
    )
    word = st.sampled_from(TERMS + NON_ASCII_TERMS + triggers).flatmap(_spellings)
    chunk = st.one_of(word, st.text(TEXT_ALPHABET, max_size=4))
    chunks = draw(st.lists(chunk, min_size=1, max_size=5))
    gaps = draw(
        st.lists(st.sampled_from(["", " ", " ", "-"]), min_size=len(chunks), max_size=len(chunks))
    )
    return triggers, "".join(gap + part for gap, part in zip(gaps, chunks))


@settings(max_examples=400, deadline=None)
@given(_gate_case())
def test_keyword_gate_matches_reference_regex(case) -> None:
    triggers, text = case
    gate, reference = KeywordGate(triggers), _reference(triggers)
    # every substring, so each word is also checked as a page's only match
    for piece in {text[i:j] for i in range(len(text) + 1) for j in range(i, len(text) + 1)}:
        assert gate.score_page(piece) == reference(piece), piece


@pytest.mark.parametrize(
    "triggers, text, expected",
    [
        (["survey"], "ſurvey", 1.0),
        (["index"], "İndex", 1.0),
        (["dataset"], "DATAſET", 1.0),
        (["x", "index"], "index", 1.0),
        (["data", "dataset"], "a DataSet here", 1.0),
        (["data", "dataset"], "dataframes only", 0.0),
        (["survey"], "\u212aeep surveying, \u0131s it", 0.0),
        (["enquête"], "ENQUÊTE nationale", 1.0),
        (["ſurvey"], "SURVEY", 1.0),
        (["λογος"], "ΛΟΓΟΣ λογοσ", 1.0),
        # each needle's occurrences are tried in turn, and the first one the
        # regex confirms decides; \b at an occurrence looks at the text before it
        (["data", "survey"], "metadata and a survey", 1.0),
        (["data", "survey"], "surveyed metadata", 0.0),
        (["x", "index"], "indexes x", 1.0),
        (["data"], "metadata data", 1.0),
    ],
)
def test_keyword_gate_fold_cases(triggers, text, expected) -> None:
    assert _reference(triggers)(text) == expected
    assert KeywordGate(triggers).score_page(text) == expected


def test_fold_table_is_complete() -> None:
    """Every non-ASCII code point that re.IGNORECASE equates with an ASCII
    character either lowercases to that character or is in the fold table,
    and only table characters change length under lower()."""
    every = "".join(chr(c) for c in range(sys.maxunicode + 1) if not 0xD800 <= c <= 0xDFFF)
    ascii_chars = [chr(c) for c in range(128)]
    folding = {ch for ch in re.findall(r"[\x00-\x7f]", every, re.I) if not ch.isascii()}
    for ch in folding - set(_FOLD_ONLY):
        equals = [a for a in ascii_chars if re.fullmatch(re.escape(a), ch, re.I)]
        assert equals and all(ch.lower() == a.lower() for a in equals), ch
    assert {ch for ch in every if len(ch.lower()) != 1} <= set(_FOLD_ONLY)


# ---------------------------------------------------------------------------
# remote gate


def test_remote_gate_bare_and_wrapped_scores() -> None:
    with StubServer([{"body": "0.73"}]) as server:
        assert RemoteGate(endpoint=server.url).score_page("text") == 0.73
    with StubServer([{"body": {"score": 0.2}}]) as server:
        assert RemoteGate(endpoint=server.url).score_page("text") == 0.2


def test_remote_gate_sends_plain_text() -> None:
    text = "Enquête page"
    with StubServer([{"body": "1.0"}]) as server:
        RemoteGate(endpoint=server.url).score_page(text)
        sent = server.requests[0]
    assert sent["method"] == "POST"
    assert sent["body"].decode("utf-8") == text
    assert sent["headers"]["Content-Type"].startswith("text/plain")


def test_remote_gate_rejects_out_of_range_and_garbage() -> None:
    with StubServer([{"body": "1.7"}]) as server:
        with pytest.raises(MalformedScore):
            RemoteGate(endpoint=server.url).score_page("text")
    with StubServer([{"body": "not a number"}]) as server:
        with pytest.raises(MalformedScore):
            RemoteGate(endpoint=server.url).score_page("text")


@pytest.mark.parametrize("body", ["{}", "[0.5]", '{"score": "x"}', "not json"])
def test_remote_gate_fails_open_on_a_malformed_score(body) -> None:
    with StubServer([{"body": body}]) as server:
        passed, decisions = filter_pages(
            [_page(1, "text")], RemoteGate(endpoint=server.url), threshold=0.9
        )
    assert [p.page_number for p in passed] == [1]
    assert [(d.score, d.passed) for d in decisions] == [(1.0, True)]


def test_remote_gate_lets_a_bug_in_the_response_propagate() -> None:
    class BrokenResponse:
        status_code = 200
        text = '{"score": 0.5}'

        def json(self) -> object:
            raise RuntimeError("bug in the response object")

    class Session:
        def post(self, *args: object, **kwargs: object) -> BrokenResponse:
            return BrokenResponse()

    gate = RemoteGate(endpoint="http://gate.invalid", session=Session())
    with pytest.raises(RuntimeError, match="bug in the response object"):
        filter_pages([_page(1, "text")], gate, threshold=0.5)


def test_remote_gate_http_error_is_network_error() -> None:
    with StubServer([{"status": 500}]) as server:
        with pytest.raises(NetworkError):
            RemoteGate(endpoint=server.url).score_page("text")


# ---------------------------------------------------------------------------
# filtering


def test_filter_pages_partitions_by_threshold() -> None:
    pages = [_page(1, "census here"), _page(2, "no triggers"), _page(3, "more census")]
    passed, decisions = filter_pages(pages, KeywordGate(["census"]), threshold=0.5)
    assert [p.page_number for p in passed] == [1, 3]
    assert [d.passed for d in decisions] == [True, False, True]
    assert all(d.threshold == 0.5 for d in decisions)


def test_filter_pages_fails_open_on_gate_errors() -> None:
    class BrokenGate:
        def score_page(self, text: str) -> float:
            raise NetworkError("boom") if text == "offline" else MalformedScore("1.7")

    pages = [_page(1, "offline"), _page(2, "garbage")]
    passed, decisions = filter_pages(pages, BrokenGate(), threshold=0.9)
    assert passed == pages
    assert [d.score for d in decisions] == [1.0, 1.0]
    assert all(d.passed for d in decisions)


def test_filter_pages_propagates_programming_errors() -> None:
    class BuggyGate:
        def score_page(self, text: str) -> float:
            raise TypeError("bug")

    with pytest.raises(TypeError):
        filter_pages([_page(1, "whatever")], BuggyGate(), threshold=0.9)


def test_filter_pages_validates_threshold() -> None:
    with pytest.raises(InvalidRecord):
        filter_pages([], AlwaysPassGate(), threshold=1.5)


def test_threshold_zero_passes_everything() -> None:
    pages = [_page(1, "abc"), _page(2, "")]
    passed, _ = filter_pages(pages, KeywordGate(["qqq"]), threshold=0.0)
    assert passed == pages


class _IndexedGate:
    """A user gate over pages whose text is their number: ``delay(n)`` seconds,
    then ``n / 100``, or the error ``fail(n)`` returns. Counts calls and the
    peak number running at once."""

    def __init__(self, delay=lambda n: 0.0, fail=lambda n: None):
        self.delay, self.fail = delay, fail
        self.calls = self.running = self.peak = 0
        self._lock = threading.Lock()

    def score_page(self, text: str) -> float:
        n = int(text)
        with self._lock:
            self.calls += 1
            self.running += 1
            self.peak = max(self.peak, self.running)
        try:
            time.sleep(self.delay(n))
            error = self.fail(n)
            if error is not None:
                raise error
            return n / 100
        finally:
            with self._lock:
                self.running -= 1


def _numbered(count: int) -> list[PageRecord]:
    return [_page(n, str(n)) for n in range(1, count + 1)]


def test_filter_pages_keeps_page_order_when_later_pages_finish_first() -> None:
    pages = _numbered(40)
    gate = _IndexedGate(delay=lambda n: (41 - n) * 0.0005)
    passed, decisions = filter_pages(iter(pages), gate, threshold=0.25)
    reference = [
        GateDecision(DOC, p.page_number, p.page_number / 100, 0.25, p.page_number >= 25)
        for p in pages
    ]
    assert decisions == reference
    assert passed == pages[24:]


def test_a_waiting_gate_scores_several_pages_at_once_and_never_more_than_the_width() -> None:
    gate = _IndexedGate(delay=lambda n: 0.005)
    filter_pages(_numbered(60), gate)
    assert gate.calls == 60
    assert 1 < gate.peak <= _GATE_WIDTH


def test_fail_open_warnings_follow_page_order(caplog) -> None:
    failing = {3: NetworkError("down"), 7: MalformedScore("1.7"), 12: NetworkError("reset")}
    gate = _IndexedGate(delay=lambda n: (20 - n) * 0.001, fail=failing.get)
    with caplog.at_level(logging.WARNING, logger="datamentions.gate"):
        passed, decisions = filter_pages(_numbered(20), gate, threshold=0.5)
    assert [d.page_number for d in decisions] == list(range(1, 21))
    assert [(d.page_number, d.score) for d in decisions if d.page_number in failing] == [
        (3, 1.0), (7, 1.0), (12, 1.0)
    ]
    assert all(d.passed for d in decisions if d.page_number in failing)
    assert {p.page_number for p in passed} == set(failing)
    assert [record.args[1] for record in caplog.records] == [3, 7, 12]


def test_the_first_gate_bug_in_page_order_propagates_and_stops_scoring() -> None:
    bugs = {3: TypeError("bug on page 3"), 5: TypeError("bug on page 5")}
    gate = _IndexedGate(delay=lambda n: 0.02 if n == 3 else 0.002, fail=bugs.get)
    with pytest.raises(TypeError, match="page 3"):
        filter_pages(_numbered(100), gate)
    assert gate.calls <= 3 + 2 * _GATE_WIDTH  # the pages submitted ahead of page 3
    assert gate.running == 0


@pytest.mark.parametrize("gate", [KeywordGate(["census"]), AlwaysPassGate()],
                         ids=["keyword", "always_pass"])
def test_local_gates_score_in_the_callers_thread(gate) -> None:
    threads: set[int] = set()
    score_page = gate.score_page

    def recorded(text: str) -> float:
        threads.add(threading.get_ident())
        return score_page(text)

    gate.score_page = recorded
    _, decisions = filter_pages(_numbered(30), gate)
    assert len(decisions) == 30
    assert threads == {threading.get_ident()}


def test_remote_gate_scores_every_page_once_and_decides_in_order() -> None:
    pages = [_page(n, f"page {n} text") for n in range(1, 21)]
    with StubServer([{"body": "0.7"}]) as server:
        passed, decisions = filter_pages(pages, RemoteGate(endpoint=server.url), threshold=0.5)
        bodies = sorted(r["body"].decode("utf-8") for r in server.requests)
    assert bodies == sorted(p.text for p in pages)
    assert [(d.page_number, d.score) for d in decisions] == [(n, 0.7) for n in range(1, 21)]
    assert passed == pages


# ---------------------------------------------------------------------------
# gate evaluation


def test_evaluate_gate_counts_confusion_matrix() -> None:
    decisions = [
        GateDecision(doc_id=DOC, page_number=1, score=1.0, threshold=0.5, passed=True),
        GateDecision(doc_id=DOC, page_number=2, score=1.0, threshold=0.5, passed=True),
        GateDecision(doc_id=DOC, page_number=3, score=0.0, threshold=0.5, passed=False),
        GateDecision(doc_id=DOC, page_number=4, score=0.0, threshold=0.5, passed=False),
    ]
    labels = {(DOC, 1): True, (DOC, 2): False, (DOC, 3): True, (DOC, 4): False}
    report = evaluate_gate(decisions, labels)
    assert (report.tp, report.fp, report.fn, report.tn) == (1, 1, 1, 1)
    assert report.precision == 0.5
    assert report.recall == 0.5
    assert report.f1 == 0.5


def test_evaluate_gate_requires_labels_for_every_page() -> None:
    decisions = [
        GateDecision(doc_id=DOC, page_number=9, score=1.0, threshold=0.5, passed=True)
    ]
    with pytest.raises(MissingLabel):
        evaluate_gate(decisions, {})
