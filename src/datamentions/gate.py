"""Page-level mention-presence gating before extraction.

A gate scores a page in [0, 1]; pages at or above the threshold pass on to
the (expensive) extraction stage. Implementations share one contract:
``always_pass`` scores everything 1.0, ``keyword`` fires on configurable
trigger terms, and ``remote`` asks an external classifier endpoint. Remote
gate errors (:class:`NetworkError`, :class:`MalformedScore`) fail open — a
page the gate cannot score still passes, because a page dropped here is
unrecoverable downstream. Any other exception is a bug and propagates.

:func:`filter_pages` scores the library's local gates, :class:`KeywordGate`
and :class:`AlwaysPassGate`, one page at a time in the caller's thread.
Any other gate, :class:`RemoteGate` or one of the caller's own (a subclass
of a local gate included), is taken to wait on a service: eight of its
pages are scored at a time on worker threads, with at most sixteen
submitted ahead of the page being decided. So such a gate's
``score_page``, and a ``session`` given to :class:`RemoteGate`, must be
safe to call from several threads at once. Decisions, and fail-open
warnings, still come out in page order.

The keyword rule: a page matches when some trigger occurs as a whole word,
delimited by ``\b``, compared case-insensitively exactly as Python's
``re.IGNORECASE`` does, so ``ſurvey`` and ``İndex`` match ``survey`` and
``index``. Per page this costs one ``str.lower()`` pass plus substring
scans for the needles, and stops at the first confirmed trigger: the regex
runs anchored at each place a needle occurs, and its first match decides.
"""

from __future__ import annotations

import logging
import re
from contextlib import closing
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Protocol, Sequence

from .errors import InvalidRecord, MalformedScore, MissingLabel, NetworkError
from .evalkit import fbeta, precision_recall
from .records import PageRecord, _coerce_bool, _coerce_int, frozen_record
from .window import windowed_map

if TYPE_CHECKING:
    import requests

log = logging.getLogger(__name__)

__all__ = [
    "AlwaysPassGate",
    "GateDecision",
    "GateEvalReport",
    "KeywordGate",
    "PageGate",
    "RemoteGate",
    "default_triggers",
    "evaluate_gate",
    "filter_pages",
    "load_triggers",
]


@frozen_record
class GateDecision:
    """A page's gate score against the threshold, and whether the page passed."""

    doc_id: str
    page_number: int
    score: float
    threshold: float
    passed: bool

    def __post_init__(self) -> None:
        if self.passed != (self.score >= self.threshold):
            raise InvalidRecord("gate decision: passed must equal (score >= threshold)")

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "page_number": self.page_number,
            "score": self.score,
            "threshold": self.threshold,
            "passed": self.passed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "GateDecision":
        return cls(
            doc_id=payload["doc_id"],
            page_number=_coerce_int(payload["page_number"], "page_number", "gate decision"),
            score=float(payload["score"]),
            threshold=float(payload["threshold"]),
            passed=_coerce_bool(payload["passed"], "passed", "gate decision"),
        )


class PageGate(Protocol):
    """Scores a page in [0, 1].

    :func:`filter_pages` calls ``score_page`` of a gate other than
    :class:`KeywordGate` and :class:`AlwaysPassGate` from up to
    eight threads at once, so it must be thread-safe.
    """

    def score_page(self, text: str) -> float: ...


class AlwaysPassGate:
    """Scores every page 1.0; the no-filtering baseline."""

    def score_page(self, text: str) -> float:
        return 1.0


def _parse_triggers(text: str) -> list[str]:
    """One term per line, stripped; blank lines and ``#`` comments skipped."""
    terms = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            terms.append(line)
    return terms


def load_triggers(path: str | Path) -> list[str]:
    """Read trigger terms, one per line; blank lines and ``#`` comments skipped."""
    return _parse_triggers(Path(path).read_text(encoding="utf-8"))


def default_triggers() -> list[str]:
    """The trigger list shipped with the package."""
    return _parse_triggers(
        (resources.files("datamentions") / "data" / "gate_triggers.txt").read_text(
            encoding="utf-8"
        )
    )


# The only code points that re.IGNORECASE equates with an ASCII character
# while str.lower() maps them elsewhere (U+0130 İ also changes length under
# lower()). A page holding one of them skips the literal prefilter.
_FOLD_ONLY = ("\u0130", "\u0131", "\u017f")


def _needles(terms: Sequence[str]) -> tuple[str, ...]:
    """Lowercased terms, minus any term that another needle is a prefix of."""
    needles: list[str] = []
    for term in sorted({t.lower() for t in terms}):
        if not any(term.startswith(kept) for kept in needles):
            needles.append(term)
    return tuple(needles)


class KeywordGate:
    """Scores 1.0 when any trigger term occurs as a whole word, else 0.0.

    A match is ``\\b(?:t1|t2|...)\\b`` under ``re.IGNORECASE``: whole words,
    case folded as Python's ``re`` folds it, so ``ſurvey`` matches
    ``survey`` and ``İndex`` matches ``index``. Scoring lowercases the page
    once and walks the occurrences of each needle (a lowercased trigger not
    covered by a shorter one it starts with) by substring search, matching
    the regex anchored at each; it stops at the first confirmed trigger, and
    a page where none is confirmed scores 0.0. Pages holding ``İ``, ``ı`` or
    ``ſ``, and gates with a non-ASCII trigger, run the regex over the whole
    page.
    """

    def __init__(self, triggers: Sequence[str] | None = None):
        terms = list(triggers) if triggers is not None else default_triggers()
        if not terms:
            raise InvalidRecord("keyword gate needs at least one trigger term")
        if any(not t.strip() for t in terms):
            raise InvalidRecord("keyword gate trigger terms must not be blank")
        self.triggers = terms
        joined = "|".join(re.escape(t) for t in terms)
        self._pattern = re.compile(rf"\b(?:{joined})\b", re.IGNORECASE)
        self._needles = _needles(terms) if all(t.isascii() for t in terms) else None

    @classmethod
    def from_file(cls, path: str | Path) -> "KeywordGate":
        return cls(load_triggers(path))

    def score_page(self, text: str) -> float:
        if self._needles is None or (
            not text.isascii() and any(ch in text for ch in _FOLD_ONLY)
        ):
            return 1.0 if self._pattern.search(text) else 0.0
        # Every match starts where some needle occurs in the folded page, and
        # lower() keeps indices here, so an anchored match at each occurrence
        # decides the page; \b at pos still looks at text[pos - 1].
        folded = text.lower()
        match = self._pattern.match
        for needle in self._needles:
            i = folded.find(needle)
            while i >= 0:
                if match(text, i):
                    return 1.0
                i = folded.find(needle, i + 1)
        return 0.0


@dataclass
class RemoteGate:
    """Asks an external classifier: POST the page text, read one probability.

    Accepts either a bare numeric body or a JSON object carrying a single
    ``score`` field. Scores outside [0, 1] raise :class:`MalformedScore`.
    """

    endpoint: str
    timeout: float = 30.0
    session: requests.Session | None = None

    def score_page(self, text: str) -> float:
        import requests  # loaded by the first call, not when the module is

        http = self.session or requests
        try:
            response = http.post(
                self.endpoint,
                data=text.encode("utf-8"),
                headers={"Content-Type": "text/plain; charset=utf-8"},
                timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise NetworkError(f"gate endpoint unreachable: {exc}") from exc
        if response.status_code != 200:
            raise NetworkError(f"gate endpoint answered HTTP {response.status_code}")
        body = response.text.strip()
        try:
            score = float(body)
        except ValueError:
            try:
                score = float(response.json()["score"])
            except (ValueError, KeyError, TypeError) as exc:  # not JSON, no score, not a number
                raise MalformedScore(f"gate response is not a score: {body[:80]!r}") from exc
        if not 0.0 <= score <= 1.0:
            raise MalformedScore(f"gate score {score} outside [0, 1]")
        return score


# Pages a gate that waits on a service scores at once. Fixed, not an
# option: it caps the load on the classifier, and waiting threads need no
# cores.
_GATE_WIDTH = 8

_LOCAL_GATES = (KeywordGate, AlwaysPassGate)


def filter_pages(
    pages: Iterable[PageRecord],
    gate: PageGate,
    threshold: float = 0.5,
) -> tuple[list[PageRecord], list[GateDecision]]:
    """Score every page; return (pages that passed, all decisions), in page order.

    A remote gate error (:class:`NetworkError` or :class:`MalformedScore`)
    quarantines the page on the passing side (fail-open) with score 1.0 and
    a logged warning; the first other exception, in page order, propagates.
    A local gate scores in the caller's thread; any other gate scores
    eight pages at a time (see the module docstring). ``pages`` may be a
    one-shot iterable.
    """
    if not 0.0 <= threshold <= 1.0:
        raise InvalidRecord(f"threshold must be in [0, 1], got {threshold}")

    def score_or_error(page: PageRecord) -> tuple[PageRecord, float | Exception]:
        try:
            return page, gate.score_page(page.text)
        except (NetworkError, MalformedScore) as exc:
            return page, exc

    width = 1 if type(gate) in _LOCAL_GATES else _GATE_WIDTH
    passed: list[PageRecord] = []
    decisions: list[GateDecision] = []
    with closing(windowed_map(score_or_error, pages, width)) as scored:
        for page, score in scored:
            if isinstance(score, Exception):
                log.warning(
                    "gate failed on %s p%d (%s); passing the page through",
                    page.doc_id, page.page_number, score,
                )
                score = 1.0
            decision = GateDecision(
                doc_id=page.doc_id,
                page_number=page.page_number,
                score=score,
                threshold=threshold,
                passed=score >= threshold,
            )
            decisions.append(decision)
            if decision.passed:
                passed.append(page)
    return passed, decisions


@frozen_record
class GateEvalReport:
    """Gate precision, recall and F1 on the has-mention class, with the confusion counts."""

    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int


def evaluate_gate(
    decisions: Iterable[GateDecision],
    gold_labels: Mapping[tuple[str, int], bool],
) -> GateEvalReport:
    """Binary precision/recall/F1 of gate decisions on the has-mention class."""
    tp = fp = fn = tn = 0
    for decision in decisions:
        key = (decision.doc_id, decision.page_number)
        if key not in gold_labels:
            raise MissingLabel(f"no gold label for page {key}")
        actual = gold_labels[key]
        if decision.passed and actual:
            tp += 1
        elif decision.passed and not actual:
            fp += 1
        elif not decision.passed and actual:
            fn += 1
        else:
            tn += 1
    precision, recall = precision_recall(tp, fp, fn)
    return GateEvalReport(
        precision=precision,
        recall=recall,
        f1=fbeta(precision, recall, beta=1.0),
        tp=tp, fp=fp, fn=fn, tn=tn,
    )
