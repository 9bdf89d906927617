"""Token-overlap evaluation: Jaccard matching and precision/recall/Fβ.

Predicted and gold dataset names are compared as sets of unique normalized
tokens. The matcher tokenizes each name once per page and scores only the
pairs that share a token, found through a token index of the predictions;
every other pair has Jaccard 0 and can never match. A prediction matches a
gold name when their Jaccard overlap is strictly greater than the
configured threshold (default 0.5). Pairs are accepted greedily in
descending Jaccard order; counts are micro-aggregated across pages into
precision, recall, and Fβ (default β = 0.5, which weights precision twice
as heavily as recall).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

from .errors import InvalidRecord, UnknownAdapter
from .records import (
    GroundTruthRecord,
    PredictionRecord,
    _coerce_int,
    _require,
    frozen_record,
    read_rows,
)
from .textnorm import normalize_tokens

__all__ = [
    "MatchConfig",
    "MatchResult",
    "ScoreReport",
    "fbeta",
    "import_predictions",
    "jaccard",
    "match_mentions",
    "normalize_tokens",
    "precision_recall",
    "render_report",
    "score",
    "score_records",
]


@dataclass(frozen=True)
class MatchConfig:
    """Matching and scoring parameters.

    The threshold comparison is strict: a pair with Jaccard exactly equal to
    the threshold is not a match.
    """

    jaccard_threshold: float = 0.5
    beta: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.jaccard_threshold <= 1.0:
            raise InvalidRecord(f"jaccard_threshold must be in [0,1], got {self.jaccard_threshold}")
        if self.beta <= 0:
            raise InvalidRecord(f"beta must be positive, got {self.beta}")


@frozen_record
class MatchResult:
    """Matching outcome for one page: counts plus the accepted pairs.

    ``pairs`` holds (gold index, prediction index, jaccard value) triples;
    each index appears at most once.
    """

    tp: int
    fp: int
    fn: int
    pairs: tuple[tuple[int, int, float], ...] = ()


@dataclass(frozen=True)
class ScoreReport:
    """Aggregated precision/recall/Fβ (fractions in [0, 1]) plus totals."""

    precision: float
    recall: float
    f_beta: float
    beta: float
    tp: int
    fp: int
    fn: int
    macro: bool = False


def _token_jaccard(w1: frozenset[str], w2: frozenset[str]) -> float:
    """Jaccard similarity of two token sets; 0 when both are empty."""
    shared = len(w1 & w2)
    union = len(w1) + len(w2) - shared
    if union == 0:
        return 0.0
    return shared / union


def jaccard(s1: str, s2: str) -> float:
    """Jaccard similarity of the unique-token sets of two strings.

    Defined as 0 when both token sets are empty: a content-free string
    never matches anything.
    """
    return _token_jaccard(normalize_tokens(s1), normalize_tokens(s2))


def match_mentions(
    predicted: Sequence[str],
    gold: Sequence[str],
    cfg: MatchConfig = MatchConfig(),
) -> MatchResult:
    """Greedily pair predictions with gold names by descending Jaccard.

    All cross pairs above the threshold are candidates; ties break by
    (gold index, prediction index) ascending; each side is used at most once.
    Each name is tokenized once, not once per pair, and only pairs that
    share a token are scored: the predictions are indexed by token, and a
    gold name counts its shared tokens per prediction by walking the index
    (ScanCount). A pair sharing no token has Jaccard 0, which no threshold
    in [0, 1] lets through.
    """
    by_token: dict[str, list[int]] = {}
    predicted_sizes: list[int] = []
    for pi, p in enumerate(predicted):
        p_tokens = normalize_tokens(p)
        predicted_sizes.append(len(p_tokens))
        for token in p_tokens:
            by_token.setdefault(token, []).append(pi)
    threshold = cfg.jaccard_threshold
    candidates: list[tuple[float, int, int]] = []
    for gi, g in enumerate(gold):
        gold_tokens = normalize_tokens(g)
        shared: dict[int, int] = {}
        for token in gold_tokens:
            for pi in by_token.get(token, ()):
                shared[pi] = shared.get(pi, 0) + 1
        gold_size = len(gold_tokens)
        for pi, n in shared.items():
            # the integer expression of _token_jaccard, so the float is the same
            j = n / (predicted_sizes[pi] + gold_size - n)
            if j > threshold:
                candidates.append((j, gi, pi))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))

    used_gold: set[int] = set()
    used_pred: set[int] = set()
    pairs: list[tuple[int, int, float]] = []
    for j, gi, pi in candidates:
        if gi in used_gold or pi in used_pred:
            continue
        used_gold.add(gi)
        used_pred.add(pi)
        pairs.append((gi, pi, j))

    tp = len(pairs)
    return MatchResult(tp=tp, fp=len(predicted) - tp, fn=len(gold) - tp, pairs=tuple(pairs))


def precision_recall(tp: int, fp: int, fn: int) -> tuple[float, float]:
    """Precision and recall with total (degenerate-safe) definitions.

    With no predictions, precision is 1.0 when there was nothing to find
    and 0.0 otherwise; recall is defined symmetrically.
    """
    if tp + fp == 0:
        precision = 1.0 if fn == 0 else 0.0
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall = 1.0 if fp == 0 else 0.0
    else:
        recall = tp / (tp + fn)
    return precision, recall


def fbeta(precision: float, recall: float, beta: float = 0.5) -> float:
    """Fβ = (1+β²)·P·R / (β²·P + R); 0.0 when P + R is 0."""
    if precision + recall == 0:
        return 0.0
    b2 = beta * beta
    return (1 + b2) * precision * recall / (b2 * precision + recall)


def score(
    results: Iterable[MatchResult],
    beta: float = 0.5,
    *,
    macro: bool = False,
) -> ScoreReport:
    """Aggregate match results into a score report.

    Micro mode (default) sums tp/fp/fn over all results before computing the
    metrics. Macro mode averages per-result precision, recall, and Fβ
    instead; totals are reported either way.
    """
    results = list(results)
    tp = sum(r.tp for r in results)
    fp = sum(r.fp for r in results)
    fn = sum(r.fn for r in results)
    if macro:
        if results:
            per = [precision_recall(r.tp, r.fp, r.fn) for r in results]
            precision = sum(p for p, _ in per) / len(per)
            recall = sum(r for _, r in per) / len(per)
            f = sum(fbeta(p, r, beta) for p, r in per) / len(per)
        else:
            precision, recall, f = 1.0, 1.0, 1.0
    else:
        precision, recall = precision_recall(tp, fp, fn)
        f = fbeta(precision, recall, beta)
    return ScoreReport(
        precision=precision, recall=recall, f_beta=f, beta=beta,
        tp=tp, fp=fp, fn=fn, macro=macro,
    )


def score_records(
    predictions: Iterable[PredictionRecord],
    gold: Iterable[GroundTruthRecord],
    cfg: MatchConfig = MatchConfig(),
    *,
    macro: bool = False,
) -> tuple[ScoreReport, dict[tuple[str, int], MatchResult]]:
    """Match predictions against gold page by page and aggregate.

    Pages present on only one side are scored against an empty counterpart,
    so unmatched predictions count as false positives and unreached gold
    names as false negatives.
    """
    pred_by_page: dict[tuple[str, int], Sequence[str]] = {}
    for p in predictions:
        key = (p.doc_id, p.page_number)
        if key in pred_by_page:
            raise InvalidRecord(f"duplicate prediction record for page {key}")
        pred_by_page[key] = p.predicted_names
    gold_by_page: dict[tuple[str, int], Sequence[str]] = {}
    for g in gold:
        key = (g.doc_id, g.page_number)
        if key in gold_by_page:
            raise InvalidRecord(f"duplicate ground truth record for page {key}")
        gold_by_page[key] = g.gold_names

    results: dict[tuple[str, int], MatchResult] = {}
    for key in sorted(set(pred_by_page) | set(gold_by_page)):
        results[key] = match_mentions(
            pred_by_page.get(key, ()), gold_by_page.get(key, ()), cfg
        )
    return score(results.values(), cfg.beta, macro=macro), results


# ---------------------------------------------------------------------------
# prediction-file adapters


def _from_nuextract(row: dict[str, Any]) -> PredictionRecord:
    """Flatten a sliding-template payload: data_mentions[].datasets[].raw_name."""
    mentions = _require(row, "data_mentions", "prediction line")
    page = next(p for p in (row.get("page_number"), row.get("page"), 1) if p is not None)
    return PredictionRecord(
        doc_id=str(row.get("doc_id") or row.get("source") or ""),
        page_number=_coerce_int(page, "page_number", "prediction line"),
        predicted_names=tuple(str(dataset["raw_name"]) for block in mentions
                              for dataset in block.get("datasets", []) if dataset.get("raw_name")),
    )


_ADAPTERS = {
    "canonical": PredictionRecord.from_dict,
    "nuextract_template": _from_nuextract,
}


def import_predictions(path: str | Path, adapter: str = "canonical") -> list[PredictionRecord]:
    """Load a prediction file through the named format adapter, one record per row."""
    try:
        parse = _ADAPTERS[adapter]
    except KeyError:
        raise UnknownAdapter(
            f"unknown adapter {adapter!r}; expected one of {sorted(_ADAPTERS)}"
        ) from None
    return list(read_rows(path, parse))


# ---------------------------------------------------------------------------
# report rendering


def render_report(report: ScoreReport, fmt: str = "text") -> str:
    """Render a score report on the conventional 0–100 scale, 2 decimals."""
    scaled = {
        "precision": round(report.precision * 100, 2),
        "recall": round(report.recall * 100, 2),
        "f_beta": round(report.f_beta * 100, 2),
    }
    if fmt == "json":
        payload: dict[str, Any] = dict(scaled)
        payload.update(
            beta=report.beta, tp=report.tp, fp=report.fp, fn=report.fn,
            aggregation="macro" if report.macro else "micro",
        )
        return json.dumps(payload, ensure_ascii=False, indent=2)
    if fmt != "text":
        raise InvalidRecord(f"unknown report format {fmt!r}")
    lines = [
        f"{'metric':<12}{'value':>8}",
        f"{'precision':<12}{scaled['precision']:>8.2f}",
        f"{'recall':<12}{scaled['recall']:>8.2f}",
        f"{'f_beta':<12}{scaled['f_beta']:>8.2f}",
        "",
        f"beta={report.beta:g}  tp={report.tp}  fp={report.fp}  fn={report.fn}"
        f"  aggregation={'macro' if report.macro else 'micro'}",
    ]
    return "\n".join(lines)
