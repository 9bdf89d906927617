"""Annotation sampling, deterministic splitting, and ground-truth import.

Sampling and splitting draw all randomness from an explicit seed and keep a
stable output order, so identical inputs always produce byte-identical
partitions. Splits support explicit counts (with any remainder reported as
a leftover pool, never dropped silently) or ratios resolved by
largest-remainder rounding.
"""

from __future__ import annotations

import logging
import random
from math import floor, isfinite
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterable, Sequence, TypeVar

from .errors import InvalidSpec, MissingField, PopulationTooSmall, UnknownFormat
from .records import (
    CONTEXT_VALUES,
    SPECIFICITY_VALUES,
    GroundTruthRecord,
    PageRecord,
    _coerce_int,
    _first_given,
    _names,
    _require,
    _text,
    frozen_record,
    read_rows,
)
from .textnorm import normalize_tokens

log = logging.getLogger(__name__)

T = TypeVar("T")

__all__ = [
    "SplitResult",
    "SplitSpec",
    "import_annotations",
    "sample_pages",
    "split",
]


@frozen_record
class SplitSpec:
    """Partition sizes as explicit counts or ratios, plus the shuffle seed.

    Exactly one of ``counts``/``ratios`` must be present; ratios must be
    finite, non-negative and sum to at most 1, and resolve to counts by
    largest-remainder rounding.
    """

    seed: int
    counts: tuple[int, int, int] | None = None
    ratios: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        if (self.counts is None) == (self.ratios is None):
            raise InvalidSpec("exactly one of counts/ratios must be supplied")
        if self.counts is not None:
            if len(self.counts) != 3 or any(c < 0 for c in self.counts):
                raise InvalidSpec(f"counts must be three non-negative integers, got {self.counts}")
        if self.ratios is not None:
            if len(self.ratios) != 3 or not all(isfinite(r) and r >= 0 for r in self.ratios):
                raise InvalidSpec(f"ratios must be three finite non-negative numbers, got {self.ratios}")
            if sum(self.ratios) > 1 + 1e-9:
                raise InvalidSpec(f"ratios must sum to at most 1, got {sum(self.ratios)}")

    @classmethod
    def from_counts(cls, train: int, val: int, test: int, seed: int) -> "SplitSpec":
        return cls(seed=seed, counts=(train, val, test))

    @classmethod
    def from_ratios(cls, train: float, val: float, test: float, seed: int) -> "SplitSpec":
        return cls(seed=seed, ratios=(train, val, test))

    def resolve_counts(self, population: int) -> tuple[int, int, int]:
        """Concrete partition sizes for a population of the given size."""
        if self.counts is not None:
            if sum(self.counts) > population:
                raise InvalidSpec(
                    f"counts {self.counts} exceed population of {population}"
                )
            return self.counts
        assert self.ratios is not None
        quotas = [r * population for r in self.ratios]
        base = [floor(q) for q in quotas]
        target = round(sum(quotas))
        remainders = sorted(
            range(3), key=lambda i: (-(quotas[i] - base[i]), i)
        )
        for i in remainders[: target - sum(base)]:
            base[i] += 1
        return base[0], base[1], base[2]


@frozen_record
class SplitResult:
    """The three partitions plus whatever the counts did not cover."""

    train: tuple[Any, ...]
    val: tuple[Any, ...]
    test: tuple[Any, ...]
    leftover: tuple[Any, ...]


def sample_pages(
    pages: Iterable[PageRecord],
    n: int,
    seed: int,
) -> list[PageRecord]:
    """Uniform sample of ``n`` pages without replacement, stable order.

    The population is canonicalized (sorted by doc_id, page number) before
    drawing, so the same store content and seed always select the same
    pages; the sample itself keeps that sorted order.
    """
    population = sorted(pages, key=attrgetter("doc_id", "page_number"))
    if n < 0:
        raise InvalidSpec(f"sample size must be non-negative, got {n}")
    if n > len(population):
        raise PopulationTooSmall(
            f"cannot sample {n} pages from a population of {len(population)}"
        )
    rng = random.Random(seed)
    chosen = rng.sample(range(len(population)), n)
    return [population[i] for i in sorted(chosen)]


def split(records: Sequence[T], spec: SplitSpec) -> SplitResult:
    """Partition ``records`` into seeded train/val/test plus leftover.

    Membership is decided by a seeded shuffle; within each partition the
    records keep their input order.
    """
    records = list(records)
    train_n, val_n, test_n = spec.resolve_counts(len(records))
    indices = list(range(len(records)))
    random.Random(spec.seed).shuffle(indices)

    cuts = (train_n, train_n + val_n, train_n + val_n + test_n)
    buckets = (
        indices[: cuts[0]],
        indices[cuts[0] : cuts[1]],
        indices[cuts[1] : cuts[2]],
        indices[cuts[2] :],
    )
    train, val, test, leftover = (
        tuple(records[i] for i in sorted(bucket)) for bucket in buckets
    )
    return SplitResult(train=train, val=val, test=test, leftover=leftover)


# ---------------------------------------------------------------------------
# annotation import


def _gold_from_row(
    doc_id: str,
    page_number: int,
    names: Iterable[str],
    labels: Any,
    warnings: list[str],
) -> GroundTruthRecord:
    unique: list[str] = []
    seen: set[frozenset[str]] = set()
    for name in names:
        tokens = normalize_tokens(name)
        if tokens in seen:
            warnings.append(
                f"{doc_id} p{page_number}: gold name {name!r} duplicates another "
                "after normalization; collapsed"
            )
            continue
        seen.add(tokens)
        unique.append(name)
    return GroundTruthRecord(
        doc_id=doc_id,
        page_number=page_number,
        gold_names=tuple(unique),
        # an empty object means no labels; any other non-object is the record's to refuse
        labels=(labels or None) if isinstance(labels, dict) else labels,
    )


def _gold_from_canonical(row: dict, warnings: list[str]) -> GroundTruthRecord:
    where = "ground truth record"
    return _gold_from_row(
        _text(_require(row, "doc_id", where), "doc_id"),
        _coerce_int(_require(row, "page_number", where), "page_number", where),
        _names(row, "gold_names", where),
        row.get("labels"),
        warnings,
    )


def _gold_from_doccano(row: dict, warnings: list[str]) -> GroundTruthRecord:
    """Map a span-annotation export row to gold names.

    The row carries the page text and labeled character spans
    ``[start, end, label]``; the spanned substrings become gold names.
    A span label matching a known context or specificity value is recorded
    as that per-name label; other labels are ignored with a warning.
    The page is the row's ``doc_id`` and ``page_number``, each read from
    the row's ``meta`` when the row lacks it; a row with no ``doc_id`` in
    either raises :class:`MissingField`, and its page number defaults to 1.
    """
    text = _require(row, "text", "annotation record")
    meta = row.get("meta") or {}
    doc_id = _first_given(row.get("doc_id"), meta.get("doc_id"), None)
    if doc_id is None:
        raise MissingField("doc_id", "annotation record")
    doc_id = _text(doc_id, "doc_id")
    page = next(p for p in (row.get("page_number"), meta.get("page_number"), 1) if p is not None)
    page_number = _coerce_int(page, "page_number", "annotation record")
    names: list[str] = []
    labels: dict[str, dict[str, str]] = {}
    for span in row.get("label", []):
        start, end, span_label = int(span[0]), int(span[1]), str(span[2])
        name = text[start:end]
        if not name.strip():
            warnings.append(f"{doc_id} p{page_number}: empty span {start}:{end} skipped")
            continue
        names.append(name)
        if span_label in CONTEXT_VALUES:
            labels.setdefault(name, {})["context"] = span_label
        elif span_label in SPECIFICITY_VALUES:
            labels.setdefault(name, {})["specificity"] = span_label
        elif span_label:
            warnings.append(
                f"{doc_id} p{page_number}: span label {span_label!r} is not a "
                "context/specificity value; ignored"
            )
    return _gold_from_row(doc_id, page_number, names, labels, warnings)


_FORMATS = {
    "canonical": _gold_from_canonical,
    "doccano_export": _gold_from_doccano,
}


def import_annotations(
    path: str | Path,
    fmt: str = "canonical",
) -> tuple[list[GroundTruthRecord], list[str]]:
    """Load ground truth through the named format; returns (records, warnings)."""
    try:
        parse = _FORMATS[fmt]
    except KeyError:
        raise UnknownFormat(
            f"unknown annotation format {fmt!r}; expected one of {sorted(_FORMATS)}"
        ) from None
    warnings: list[str] = []
    records = list(read_rows(path, lambda row: parse(row, warnings)))
    for warning in warnings:
        log.warning("%s", warning)
    return records, warnings
