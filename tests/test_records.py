from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from datamentions import records
from datamentions.errors import BadEnum, InvalidRecord, MissingField, ValidityCouplingViolation
from datamentions.records import (
    AgentAssessment,
    DatasetMention,
    DocumentRecord,
    GroundTruthRecord,
    JudgeVerdict,
    MentionBlock,
    PageRecord,
    canonical_json,
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


def test_read_jsonl_names_the_line_that_is_not_utf8(tmp_path) -> None:
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": 1}\n\n{"b": "caf\xe9"}\n{"c": 3}\n')
    with pytest.raises(InvalidRecord, match=re.escape(f"{path}: line 3 is not UTF-8")):
        list(read_jsonl(path))


@pytest.mark.parametrize("line, complaint", [
    (b'{"b": tru}', "is not JSON: Expecting value (column 7)"),
    (b'{"b": "LSMS\\ud800"}', "holds a lone surrogate"),
    (b'{"b": ["x", {"\\udfff": 1}]}', "holds a lone surrogate"),
], ids=["not JSON", "lone high surrogate", "lone low surrogate in a key"])
def test_read_jsonl_names_a_line_it_cannot_decode(tmp_path, line, complaint) -> None:
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": "\\ud83d\\ude00 \\u00e9"}\n\n' + line + b'\n{"c": 3}\n')
    rows = read_jsonl(path)
    assert next(rows) == {"a": "\U0001f600 \u00e9"}  # a surrogate pair is one character
    with pytest.raises(InvalidRecord, match=re.escape(f"{path}: line 3 {complaint}")):
        next(rows)


# ---------------------------------------------------------------------------
# prompt and line encoding

# Text with the characters the two encoders could disagree on: non-BMP
# text, control characters, DEL, U+2028 and lone surrogates.
_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=())),
    st.text(st.sampled_from(["a", "é", "\U0001d11e", "\x00", "\x1f", "\x7f", " ",
                             "\ud800", "\udfff", '"', "\\", "\n", "\t", "/"])),
)
# ints at and beyond the 64-bit edges, which orjson refuses
_INTEGERS = st.one_of(
    st.integers(),
    st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**100,
                     -(2**63), -(2**63) - 1, -(2**100)]),
)
_NUMBERS = st.one_of(
    _INTEGERS,
    st.floats(),
    st.sampled_from([1e16, 5e-05, 0.1, -0.0, 1.0, 1e300]),
)
# flat records, which dumps_line hands to orjson unless a value is a float
_FLAT = st.dictionaries(_TEXT, st.one_of(st.none(), st.booleans(), _NUMBERS, _TEXT),
                        max_size=5)
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), _NUMBERS, _TEXT),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.one_of(_TEXT, st.integers()), children, max_size=4),
    ),
    max_leaves=20,
)
_BLOCKS = st.fixed_dictionaries(
    {
        "mentioned_in": _TEXT,
        "datasets": st.lists(
            st.fixed_dictionaries(
                {"raw_name": _TEXT, "mentioned_in": _TEXT},
                optional={key: _TEXT for key in ("harmonized_name", "acronym", "producer",
                                                  "year", "data_type")},
            ),
            max_size=4,
        ),
        "source": _TEXT,
        "page": st.integers(min_value=1),
    }
)


@pytest.mark.parametrize("fast", [True, False], ids=["orjson", "json"])
def test_canonical_json_matches_json_dumps(monkeypatch, fast) -> None:
    if fast and records.orjson is None:
        pytest.skip("orjson is not installed")
    if not fast:
        monkeypatch.setattr(records, "orjson", None)

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(_JSON_VALUES, _BLOCKS))
    def check(value) -> None:
        assert canonical_json(value) == json.dumps(value, ensure_ascii=False, indent=2)

    check()


@pytest.mark.parametrize("fast", [True, False], ids=["orjson", "json"])
def test_dumps_line_matches_json_dumps(monkeypatch, fast) -> None:
    if fast and records.orjson is None:
        pytest.skip("orjson is not installed")
    if not fast:
        monkeypatch.setattr(records, "orjson", None)

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(_FLAT, _JSON_VALUES, _BLOCKS))
    def check(value) -> None:
        assert dumps_line(value) == json.dumps(value, ensure_ascii=False, separators=(", ", ": "))

    check()


def test_dumps_line_writes_flat_records_with_orjson(monkeypatch) -> None:
    if records.orjson is None:
        pytest.skip("orjson is not installed")
    real = records.orjson
    encoded: list[object] = []

    def dumps(value):
        encoded.append(value)
        return real.dumps(value)

    monkeypatch.setattr(records, "orjson", SimpleNamespace(dumps=dumps))
    page = {"doc_id": DOC, "page_number": 3, "text": "Enquête\u2028\x7f\x1f\"\\", "ok": True,
            "note": None}
    assert dumps_line(page) == json.dumps(page, ensure_ascii=False, separators=(", ", ": "))
    assert encoded == [part for item in page.items() for part in item]
    encoded.clear()
    for value in ({**page, "score": 0.5}, {**page, "names": ["LSMS"]}, {1: "x"}, ["x"],
                  {"text": "\ud800"}, {"n": 2**64}):
        assert dumps_line(value) == json.dumps(value, ensure_ascii=False, separators=(", ", ": "))
    assert encoded == ["text", "\ud800", "n", 2**64]  # refused by orjson, then written by json


_GATE_SCORE = """
import json, sys
from pathlib import Path
from datamentions import corpus, evalkit, gate, records

doc = "c" * 40
root = Path(sys.argv[1])
with open(root / "pages.jsonl", "w", encoding="utf-8") as fh:
    for n in range(1, 4):
        fh.write(json.dumps({"doc_id": doc, "page_number": n, "text": f"We use survey data {n}."}))
        fh.write("\\n")
passed, decisions = gate.filter_pages(corpus.CorpusStore(root).iter_pages(), gate.KeywordGate())
records.write_jsonl(root / "decisions.jsonl", (d.to_dict() for d in decisions))
report, _ = evalkit.score_records(
    [records.PredictionRecord(doc_id=doc, page_number=1, predicted_names=("survey data",))],
    [records.GroundTruthRecord(doc_id=doc, page_number=1, gold_names=("the survey data",))],
)
print(len(passed), report.tp, sys.modules.get("orjson") is not None)
"""


def test_gate_and_scoring_leave_orjson_unimported(tmp_path) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", _GATE_SCORE, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "3 1 False\n"


def test_canonical_json_encodes_plain_blocks_with_orjson(monkeypatch) -> None:
    if records.orjson is None:
        pytest.skip("orjson is not installed")
    real = records.orjson
    encoded: list[object] = []

    def dumps(value, option):
        encoded.append(value)
        return real.dumps(value, option=option)

    monkeypatch.setattr(records, "orjson", SimpleNamespace(dumps=dumps,
                                                           OPT_INDENT_2=real.OPT_INDENT_2))
    block = {"mentioned_in": "We use the LSMS.", "source": DOC, "page": 3,
             "datasets": [{"raw_name": "LSMS", "mentioned_in": "We use the LSMS."}]}
    assert canonical_json(block) == json.dumps(block, ensure_ascii=False, indent=2)
    assert encoded == [block]
    canonical_json({**block, "page": 3.0})  # a float takes the json path
    assert encoded == [block]
