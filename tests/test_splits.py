from __future__ import annotations

import json

import pytest

from datamentions.cli import main
from datamentions.errors import InvalidRecord, InvalidSpec, PopulationTooSmall, UnknownFormat
from datamentions.records import PageRecord
from datamentions.splits import SplitSpec, import_annotations, sample_pages, split

DOC = "9" * 40


def _pages(n: int) -> list[PageRecord]:
    return [PageRecord(doc_id=DOC, page_number=i + 1, text=f"page {i + 1}") for i in range(n)]


# ---------------------------------------------------------------------------
# specs


def test_spec_requires_exactly_one_of_counts_or_ratios() -> None:
    with pytest.raises(InvalidSpec):
        SplitSpec(seed=1)
    with pytest.raises(InvalidSpec):
        SplitSpec(seed=1, counts=(1, 1, 1), ratios=(0.8, 0.1, 0.1))


def test_spec_rejects_negative_counts_and_bad_ratios() -> None:
    with pytest.raises(InvalidSpec):
        SplitSpec.from_counts(-1, 0, 0, seed=1)
    with pytest.raises(InvalidSpec):
        SplitSpec.from_ratios(0.9, 0.2, 0.1, seed=1)  # sums past 1


def test_counts_must_fit_population() -> None:
    with pytest.raises(InvalidSpec):
        SplitSpec.from_counts(10, 5, 5, seed=1).resolve_counts(19)


def test_ratio_resolution_largest_remainder() -> None:
    spec = SplitSpec.from_ratios(0.8, 0.1, 0.1, seed=1)
    assert spec.resolve_counts(10) == (8, 1, 1)
    # 0.8*25=20, 0.1*25=2.5 twice: one leftover unit goes to the first tie
    assert spec.resolve_counts(25) == (20, 3, 2)
    assert SplitSpec.from_ratios(1 / 3, 1 / 3, 1 / 3, seed=1).resolve_counts(10) == (4, 3, 3)


# ---------------------------------------------------------------------------
# sampling


def test_sample_is_deterministic_and_order_stable() -> None:
    pages = _pages(50)
    first = sample_pages(pages, 10, seed=13)
    second = sample_pages(list(reversed(pages)), 10, seed=13)
    assert first == second  # input order never matters
    numbers = [p.page_number for p in first]
    assert numbers == sorted(numbers)
    assert len(set(numbers)) == 10


def test_sample_different_seeds_differ() -> None:
    pages = _pages(50)
    assert sample_pages(pages, 10, seed=1) != sample_pages(pages, 10, seed=2)


def test_sample_bounds() -> None:
    pages = _pages(3)
    assert sample_pages(pages, 0, seed=1) == []
    assert sample_pages(pages, 3, seed=1) == pages
    with pytest.raises(PopulationTooSmall):
        sample_pages(pages, 4, seed=1)
    with pytest.raises(InvalidSpec):
        sample_pages(pages, -1, seed=1)


# ---------------------------------------------------------------------------
# splitting


def test_split_sizes_disjointness_and_determinism() -> None:
    records = [f"r{i:03d}" for i in range(100)]
    spec = SplitSpec.from_counts(70, 20, 5, seed=42)
    first = split(records, spec)
    second = split(records, spec)
    assert first == second
    assert (len(first.train), len(first.val), len(first.test)) == (70, 20, 5)
    assert len(first.leftover) == 5
    combined = first.train + first.val + first.test + first.leftover
    assert sorted(combined) == records  # a partition: nothing lost, nothing doubled


def test_split_partitions_keep_input_order() -> None:
    records = [f"r{i:03d}" for i in range(30)]
    result = split(records, SplitSpec.from_counts(10, 10, 10, seed=7))
    for part in (result.train, result.val, result.test):
        assert list(part) == sorted(part)


def test_split_seed_changes_membership() -> None:
    records = [f"r{i:03d}" for i in range(30)]
    a = split(records, SplitSpec.from_counts(10, 10, 5, seed=1))
    b = split(records, SplitSpec.from_counts(10, 10, 5, seed=2))
    assert a != b


def test_split_with_ratios_covers_everything() -> None:
    records = list(range(37))
    result = split(records, SplitSpec.from_ratios(0.8, 0.1, 0.1, seed=3))
    sizes = (len(result.train), len(result.val), len(result.test))
    assert sum(sizes) == 37
    assert result.leftover == ()


# ---------------------------------------------------------------------------
# annotation import


def test_import_canonical_collapses_duplicates_with_warning(tmp_path) -> None:
    path = tmp_path / "gold.jsonl"
    path.write_text(
        json.dumps(
            {
                "doc_id": DOC,
                "page_number": 1,
                "gold_names": ["Census Data", "census data!", "Survey"],
            }
        )
        + "\n",
        encoding="utf-8",
    )
    records, warnings = import_annotations(path)
    assert records[0].gold_names == ("Census Data", "Survey")
    assert len(warnings) == 1 and "duplicates" in warnings[0]


def test_import_doccano_spans_and_labels(tmp_path) -> None:
    text = "We use the LSMS and the 2010 Census here."
    row = {
        "text": text,
        "label": [
            [11, 15, "properly_named"],
            [24, 35, "primary"],
            [0, 2, "mystery_label"],
        ],
        "meta": {"doc_id": DOC, "page_number": 4},
    }
    path = tmp_path / "annot.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    records, warnings = import_annotations(path, "doccano_export")
    record = records[0]
    assert record.doc_id == DOC and record.page_number == 4
    assert record.gold_names == ("LSMS", "2010 Census", "We")
    assert record.labels["LSMS"] == {"specificity": "properly_named"}
    assert record.labels["2010 Census"] == {"context": "primary"}
    assert any("mystery_label" in w for w in warnings)


@pytest.mark.parametrize("where", [{}, {"doc_id": None}, {"doc_id": "", "meta": {"doc_id": ""}},
                                   {"meta": {"page_number": 2}}],
                         ids=["absent", "null", "empty", "absent from meta"])
def test_a_doccano_row_with_no_doc_id_is_refused_naming_the_file_and_line(
        tmp_path, capsys, where) -> None:
    rows = [{"text": "We use the LSMS.", "label": [[11, 15, "primary"]], "meta": {"doc_id": DOC}},
            {"text": "We use the DHS.", "label": [[11, 14, "primary"]], **where}]
    path = tmp_path / "annot.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    message = f"{path}: line 2: annotation record lacks 'doc_id'"
    with pytest.raises(InvalidRecord) as raised:
        import_annotations(path, "doccano_export")
    assert str(raised.value) == message
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text(json.dumps({"doc_id": DOC, "page_number": 1,
                                       "predicted_names": ["LSMS"]}) + "\n", encoding="utf-8")
    argv = ["score", "--predictions", str(predictions), "--gold", str(path),
            "--gold-format", "doccano_export"]
    assert main(argv) == 3
    assert message in capsys.readouterr().err


def test_import_unknown_format(tmp_path) -> None:
    path = tmp_path / "x.jsonl"
    path.write_text("{}\n", encoding="utf-8")
    with pytest.raises(UnknownFormat):
        import_annotations(path, "csv")
