from __future__ import annotations

import pytest

from datamentions.errors import BadEnum, InvalidRecord, MissingField, ValidityCouplingViolation
from datamentions.records import (
    AgentAssessment,
    DatasetMention,
    DocumentRecord,
    GroundTruthRecord,
    JudgeVerdict,
    MentionBlock,
    PageRecord,
    clean_optional,
    dumps_line,
    is_doc_id,
    parse_mention_block,
    read_jsonl,
    validate_mention,
    write_jsonl,
)

DOC = "a" * 40


def _mention(**overrides) -> DatasetMention:
    base = {"raw_name": "Census 2010", "mentioned_in": "We use Census 2010 data."}
    base.update(overrides)
    return DatasetMention(**base)


# ---------------------------------------------------------------------------
# helpers


def test_is_doc_id() -> None:
    assert is_doc_id("b71b859da04440fe5f61613da6b223db9a74cf9c")
    assert not is_doc_id("B71B859DA04440FE5F61613DA6B223DB9A74CF9C")
    assert not is_doc_id("abc")
    assert not is_doc_id(1234)


@pytest.mark.parametrize("raw", [None, "None", "null", "NULL", "", "  "])
def test_clean_optional_absent_values(raw) -> None:
    assert clean_optional(raw) is None


def test_clean_optional_keeps_text_and_coerces() -> None:
    assert clean_optional("2020") == "2020"
    assert clean_optional(2020) == "2020"
    assert clean_optional("Nonexistent") == "Nonexistent"


# ---------------------------------------------------------------------------
# documents and pages


def test_document_record_rejects_bad_doc_id() -> None:
    with pytest.raises(InvalidRecord):
        DocumentRecord(doc_id="xyz", title="A Paper")


def test_document_record_rejects_unknown_corpus() -> None:
    with pytest.raises(BadEnum):
        DocumentRecord(doc_id=DOC, title="A Paper", source_corpus="weird")


def test_document_record_round_trip() -> None:
    doc = DocumentRecord(
        doc_id=DOC, title="A Paper", source_corpus="prwp",
        year=2021, is_open_access=True, pdf_url="https://x/y.pdf", citation_count=3,
    )
    assert DocumentRecord.from_dict(doc.to_dict()) == doc


def test_page_record_rejects_page_zero() -> None:
    with pytest.raises(InvalidRecord):
        PageRecord(doc_id=DOC, page_number=0, text="hello")


def test_page_record_round_trip_preserves_empty_text() -> None:
    page = PageRecord(doc_id=DOC, page_number=3, text="")
    assert PageRecord.from_dict(page.to_dict()) == page


# ---------------------------------------------------------------------------
# mentions


def test_mention_constructor_accepts_out_of_range_labels() -> None:
    # representable-before-judged: the constructor never rejects label values
    m = _mention(context="sideways", specificity="kinda", relevance="meh")
    assert validate_mention(m) == [
        "unknown context value 'sideways'",
        "unknown specificity value 'kinda'",
        "unknown relevance value 'meh'",
    ]


def test_validate_mention_flags_empty_required_text() -> None:
    assert validate_mention(_mention(raw_name="  ")) == ["raw_name empty"]
    assert validate_mention(_mention(mentioned_in="")) == ["mentioned_in empty"]


def test_validate_mention_clean() -> None:
    assert validate_mention(_mention(context="primary", specificity="properly_named")) == []


def test_mention_to_dict_omits_absent_fields() -> None:
    d = _mention().to_dict()
    assert set(d) == {"raw_name", "mentioned_in"}


def test_mention_from_dict_normalizes_none_strings() -> None:
    m = DatasetMention.from_dict(
        {"raw_name": "X", "mentioned_in": "X is used.", "year": "None", "acronym": "null"}
    )
    assert m.year is None and m.acronym is None


def test_parse_mention_block_requires_fields() -> None:
    with pytest.raises(MissingField):
        parse_mention_block({"datasets": [], "source": DOC, "page": 1})
    with pytest.raises(MissingField):
        parse_mention_block({"mentioned_in": "s", "source": DOC, "page": 1})


def test_parse_mention_block_rejects_bad_enum() -> None:
    with pytest.raises(BadEnum):
        parse_mention_block(
            {
                "mentioned_in": "We use X.",
                "datasets": [{"raw_name": "X", "context": "bogus"}],
                "source": DOC,
                "page": 1,
            }
        )


def test_parse_mention_block_warns_on_unknown_fields() -> None:
    block, warnings = parse_mention_block(
        {
            "mentioned_in": "We use X.",
            "datasets": [{"raw_name": "X", "confidence": 0.9}],
            "source": DOC,
            "page": 2,
            "extra": True,
        }
    )
    assert block.datasets[0].raw_name == "X"
    assert block.datasets[0].mentioned_in == "We use X."
    assert any("confidence" in w for w in warnings)
    assert any("extra" in w for w in warnings)


def test_mention_block_round_trip() -> None:
    block = MentionBlock(
        mentioned_in="We use X and Y.",
        datasets=(_mention(raw_name="X", mentioned_in="We use X and Y."),
                  _mention(raw_name="Y", mentioned_in="We use X and Y.")),
        source=DOC,
        page=7,
    )
    assert MentionBlock.from_dict(block.to_dict()) == block


# ---------------------------------------------------------------------------
# verdicts and assessments


def test_judge_verdict_requires_reason() -> None:
    with pytest.raises(InvalidRecord):
        JudgeVerdict(raw_name="X", valid=True, reason="   ")


def test_judge_verdict_round_trip() -> None:
    v = JudgeVerdict(raw_name="X", valid=False, reason="not a dataset", inferred_year="2019")
    assert JudgeVerdict.from_dict(v.to_dict()) == v


def test_assessment_valid_requires_both_labels() -> None:
    with pytest.raises(ValidityCouplingViolation):
        AgentAssessment(mention=_mention(), valid=True, specificity="properly_named")


def test_assessment_invalid_requires_reason_and_null_labels() -> None:
    with pytest.raises(ValidityCouplingViolation):
        AgentAssessment(mention=_mention(), valid=False)
    with pytest.raises(ValidityCouplingViolation):
        AgentAssessment(
            mention=_mention(), valid=False, invalid_reason="r", context="primary"
        )


def test_assessment_rejects_unknown_labels() -> None:
    with pytest.raises(BadEnum):
        AgentAssessment(
            mention=_mention(), valid=True, specificity="bogus", context="primary"
        )


def test_assessment_serializes_null_labels_explicitly() -> None:
    a = AgentAssessment(mention=_mention(), valid=False, invalid_reason="a report title")
    d = a.to_dict()
    assert d["valid"] is False
    assert d["specificity"] is None and d["context"] is None
    assert d["invalid_reason"] == "a report title"
    assert AgentAssessment.from_dict(d) == a


def test_assessment_valid_round_trip() -> None:
    a = AgentAssessment(
        mention=_mention(), valid=True, specificity="properly_named", context="primary"
    )
    d = a.to_dict()
    assert "invalid_reason" not in d
    assert AgentAssessment.from_dict(d) == a


# ---------------------------------------------------------------------------
# evaluation records


def test_ground_truth_rejects_normalized_duplicates() -> None:
    with pytest.raises(InvalidRecord):
        GroundTruthRecord(
            doc_id=DOC, page_number=1, gold_names=("Census Data", "census   data!")
        )


def test_ground_truth_allows_distinct_names() -> None:
    rec = GroundTruthRecord(doc_id=DOC, page_number=1, gold_names=("Census", "Survey"))
    assert GroundTruthRecord.from_dict(rec.to_dict()) == rec


# ---------------------------------------------------------------------------
# line-delimited I/O


def test_jsonl_round_trip(tmp_path) -> None:
    rows = [{"a": 1}, {"b": "two", "nested": {"c": [1, 2]}}]
    path = tmp_path / "rows.jsonl"
    assert write_jsonl(path, rows) == 2
    assert list(read_jsonl(path)) == rows


def test_dumps_line_is_single_line_utf8() -> None:
    line = dumps_line({"name": "Enquête", "n": 1})
    assert "\n" not in line
    assert "Enquête" in line
