from __future__ import annotations

import json
import os
import pkgutil
import re
import subprocess
import sys
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import datamentions
from datamentions import records
from datamentions.cli import main
from datamentions.errors import (
    BadEnum,
    InvalidRecord,
    MissingField,
    ParseError,
    ValidityCouplingViolation,
)
from datamentions.llm import extract_json_payload
from datamentions.records import (
    AgentAssessment,
    DatasetMention,
    DocumentRecord,
    GroundTruthRecord,
    JudgeVerdict,
    MentionBlock,
    PageRecord,
    PredictionRecord,
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
    assert clean_optional(True) == "True" and clean_optional(1.5) == "1.5"
    # a page's doc_id and text by the same rule, as gold and prediction doc ids are read
    page = PageRecord.from_dict({"doc_id": 5, "page_number": 1, "text": 7})
    assert page == PageRecord("5", 1, "7")
    # a page number may be a string of decimal digits; a superscript two is not one
    page = PageRecord.from_dict({"doc_id": "d", "page_number": " 12 ", "text": "t"})
    assert page.page_number == 12
    with pytest.raises(InvalidRecord, match="^page record: page_number is not an integer: '²'$"):
        PageRecord.from_dict({"doc_id": "d", "page_number": "²", "text": "t"})


@pytest.mark.parametrize("value, kind", [({"a": 1}, "an object"), ([[1]], "an array"),
                                         ({}, "an object"), ([], "an array")])
def test_clean_optional_refuses_an_object_or_an_array_naming_the_field(value, kind) -> None:
    with pytest.raises(InvalidRecord, match=f"^year is {kind}, not text$"):
        clean_optional(value, "year")
    block = {"mentioned_in": "s", "source": "f" * 40, "page": 1, "datasets": [{"raw_name": "X"}]}
    for key, payload in [
        ("producer", {**block, "datasets": [{"raw_name": "X", "producer": value}]}),
        ("raw_name", {**block, "datasets": [{"raw_name": value}]}),
        ("mentioned_in", {**block, "mentioned_in": value}),
        ("mentioned_in", {**block, "datasets": [{"raw_name": "X", "mentioned_in": value}]}),
        ("source", {**block, "source": value}),
    ]:
        with pytest.raises(InvalidRecord, match=f"^{key} is {kind}, not text$"):
            parse_mention_block(payload)
    verdict = {"raw_name": "X", "valid": True, "reason": "named"}
    for key in ("raw_name", "reason"):
        with pytest.raises(InvalidRecord, match=f"^{key} is {kind}, not text$"):
            JudgeVerdict.from_dict({**verdict, key: value})
    page = {"doc_id": "d", "page_number": 1, "text": "t"}
    for key in ("doc_id", "text"):
        with pytest.raises(InvalidRecord, match=f"^{key} is {kind}, not text$"):
            PageRecord.from_dict({**page, key: value})
    for record, names in ((GroundTruthRecord, "gold_names"), (PredictionRecord, "predicted_names")):
        with pytest.raises(InvalidRecord, match=f"^doc_id is {kind}, not text$"):
            record.from_dict({"doc_id": value, "page_number": 1, names: []})


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


@pytest.mark.parametrize("key", ["context", "specificity", "relevance"])
def test_a_stored_block_with_an_unknown_label_is_refused_like_a_reply(key) -> None:
    stored = MentionBlock("We use X.", (_mention(raw_name="X", mentioned_in="We use X."),),
                          DOC, 1).to_dict()
    stored["datasets"][0][key] = "bogus"
    with pytest.raises(BadEnum) as excinfo:
        MentionBlock.from_dict(stored)
    assert (excinfo.value.field, excinfo.value.value) == (key, "bogus")
    with pytest.raises(BadEnum):
        DatasetMention.from_dict(stored["datasets"][0])


def test_a_stored_mention_needs_its_own_sentence() -> None:
    with pytest.raises(MissingField, match="mentioned_in"):
        DatasetMention.from_dict({"raw_name": "X"})
    block = MentionBlock.from_dict(
        {"mentioned_in": "We use X.", "datasets": [{"raw_name": "X"}], "source": DOC, "page": 1})
    assert block.datasets[0].mentioned_in == "We use X."
    # only a null or empty sentence of its own falls back to the block's; 0 is read as text
    for own, read in ((None, "We use X."), ("", "We use X."), (0, "0")):
        block = MentionBlock.from_dict({"mentioned_in": "We use X.", "source": DOC, "page": 1,
                                        "datasets": [{"raw_name": "X", "mentioned_in": own}]})
        assert block.datasets[0].mentioned_in == read


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


@pytest.mark.parametrize("cls, key", [(GroundTruthRecord, "gold_names"),
                                      (PredictionRecord, "predicted_names")])
@pytest.mark.parametrize("page_number, names", [
    (1, "DHS survey"), (1, None), (1, {"DHS": 1}), (1, ["DHS", None]), (1, ["DHS", 5]),
    (1.9, ["DHS"]), (True, ["DHS"]),
])
def test_a_name_record_of_the_wrong_shape_is_refused(cls, key, page_number, names) -> None:
    with pytest.raises(InvalidRecord):
        cls.from_dict({"doc_id": DOC, "page_number": page_number, key: names})
    with pytest.raises(MissingField, match=key):
        cls.from_dict({"doc_id": DOC, "page_number": 1})


def test_ground_truth_labels_must_be_an_object() -> None:
    with pytest.raises(InvalidRecord, match="labels"):
        GroundTruthRecord.from_dict(
            {"doc_id": DOC, "page_number": 1, "gold_names": ["DHS"], "labels": ["DHS"]})


# ---------------------------------------------------------------------------
# line-delimited I/O


def test_jsonl_round_trip(tmp_path) -> None:
    rows = [{"a": 1}, {"b": "two", "nested": {"c": [1, 2]}}]
    path = tmp_path / "rows.jsonl"
    assert write_jsonl(path, rows) == 2
    assert list(read_jsonl(path)) == rows


@pytest.mark.parametrize("fast", [True, False], ids=["orjson", "json"])
def test_write_jsonl_writes_the_json_dumps_lines_a_batch_at_a_time(tmp_path, monkeypatch,
                                                                   fast) -> None:
    if fast and records.orjson is None:
        pytest.skip("orjson is not installed")
    if not fast:
        monkeypatch.setattr(records, "orjson", None)
    rows = [{"doc_id": "d", "page_number": n, "text": "Enqu\u00eate\u2028 \"q\" \U0001d11e"}
            if n % 2 else {"n": n, "nested": {"score": 0.5, "names": ["LSMS"]}}
            for n in range(150)]
    write_all, writes = records._write_all, []

    def counting(write, data):
        writes.append(data.count(b"\n"))
        write_all(write, data)

    monkeypatch.setattr(records, "_write_all", counting)
    path = tmp_path / "rows.jsonl"
    assert write_jsonl(path, iter(rows)) == 150
    assert path.read_bytes() == "".join(
        json.dumps(row, ensure_ascii=False, separators=(", ", ": ")) + "\n" for row in rows
    ).encode("utf-8")
    assert writes == [64, 64, 22]
    assert write_jsonl(path, []) == 0 and path.read_bytes() == b""


def test_dumps_line_is_single_line_utf8() -> None:
    line = dumps_line({"name": "Enquête", "n": 1})
    assert line.endswith(b"\n") and b"\n" not in line[:-1]
    assert "Enquête".encode("utf-8") in line


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
        assert _encoded(dumps_line, value) == _encoded(_json_line, value)

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
    assert dumps_line(page) == _json_line(page)
    assert encoded == [part for item in page.items() for part in item]
    encoded.clear()
    for value in ({**page, "score": 0.5}, {**page, "names": ["LSMS"]}, {1: "x"}, ["x"],
                  {"text": "\ud800"}, {"n": 2**64}):
        assert _encoded(dumps_line, value) == _encoded(_json_line, value)
    assert encoded == ["text", "\ud800", "n", 2**64]  # refused by orjson, then written by json


class _Str(str):
    pass


class _Int(int):
    pass


_LEAVES = st.one_of(
    st.none(), st.booleans(), _TEXT, _TEXT.map(_Str), _INTEGERS, _INTEGERS.map(_Int),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 5e-324]),
    st.just(b"bytes"),  # not JSON: both raise TypeError
)
_KEYS = st.one_of(_TEXT, _TEXT.map(_Str), _INTEGERS, st.floats(), st.booleans(), st.none(),
                  st.just(("a", "tuple")))  # not a JSON key: both raise TypeError
_NESTED = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_KEYS, children, max_size=3),
    ),
    max_leaves=12,
)


@st.composite
def _deep(draw) -> object:
    """A value wrapped in 1 to 80 lists, tuples and one-key dicts."""
    value = draw(_NESTED)
    for kind in draw(st.lists(st.sampled_from(["list", "tuple", "dict"]),
                              min_size=1, max_size=80)):
        value = [value] if kind == "list" else (value,) if kind == "tuple" else {"k": value}
    return value


def _encoded(encode, value) -> tuple:
    """``("ok", line)`` or ``("raised", error class)``."""
    try:
        return "ok", encode(value)
    except Exception as exc:
        return "raised", type(exc)


def _json_line(value) -> bytes:
    """The line ``json.dumps`` gives, with its newline, in UTF-8; a lone surrogate raises."""
    return (json.dumps(value, ensure_ascii=False, separators=(", ", ": ")) + "\n").encode()


@pytest.mark.parametrize("mode", ["orjson", "json", "no-accelerator"])
def test_dumps_line_gives_json_dumps_text_or_error(monkeypatch, mode) -> None:
    if mode == "orjson" and records.orjson is None:
        pytest.skip("orjson is not installed")
    if mode != "orjson":
        monkeypatch.setattr(records, "orjson", None)
    if mode == "no-accelerator":
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        monkeypatch.setattr(records, "_ENCODE_LINE", records._line_encoder())
        assert records._ENCODE_LINE is None

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(_NESTED, _deep()))
    def check(value) -> None:
        assert _encoded(dumps_line, value) == _encoded(_json_line, value)

    check()
    # a lone surrogate has no UTF-8 form, in a flat record or any other value
    for value in ({"text": "LSMS\ud800"}, ["\udfff"], {"block": {"\ud83d": 1}}):
        with pytest.raises(UnicodeEncodeError):
            dumps_line(value)


def test_threads_sharing_the_line_encoder_get_the_same_text() -> None:
    values = [{"page": n, "blocks": [{"name": f"LSMS {n}", "score": n / 7, "ids": (n, -n)}],
               "note": None if n % 2 else "Enquête \U0001d11e"} for n in range(300)]
    expected = [_json_line(value) for value in values]
    barrier = threading.Barrier(4)
    results: list[list[bytes]] = []

    def encode() -> None:
        barrier.wait(timeout=30)
        results.append([dumps_line(value) for _ in range(5) for value in values])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=encode) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected * 5] * 4


def test_dumps_line_raises_recursion_error_on_a_list_holding_itself(monkeypatch) -> None:
    looped: list = []
    looped.append(looped)
    with pytest.raises(RecursionError):
        dumps_line(looped)
    # without the C accelerator, json.dumps finds the cycle itself
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    monkeypatch.setattr(records, "_ENCODE_LINE", records._line_encoder())
    with pytest.raises(ValueError, match="Circular reference"):
        dumps_line(looped)


# pages whose text holds what a JSON encoder escapes or writes raw, and, for
# the fallback, fields that are not exactly a str, an int and a str
_PAGE_TEXT = st.one_of(
    _TEXT,
    st.text(st.sampled_from(["a", "\u2028", "\u2029", "\x85", "\x00", "\x1f", "\x7f", '"',
                             "\\", "/", "\n", "é", "\U0001d11e", "\ud800"])),
)
_PAGES = st.builds(
    PageRecord,
    st.one_of(_TEXT, _TEXT.map(_Str), st.integers(), st.none(), st.booleans()),
    st.one_of(st.integers(min_value=1), st.sampled_from([2**63 - 1, 2**63, 2**64, 2**100]),
              st.integers(min_value=1).map(_Int), st.just(True)),
    st.one_of(_PAGE_TEXT, _PAGE_TEXT.map(_Str), st.integers()),
)


@pytest.mark.parametrize("fast", [True, False], ids=["orjson", "json"])
def test_a_page_line_is_the_line_dumps_line_writes_for_the_page(monkeypatch, fast) -> None:
    if fast and records.orjson is None:
        pytest.skip("orjson is not installed")
    if not fast:
        monkeypatch.setattr(records, "orjson", None)

    @settings(max_examples=600, deadline=None)
    @given(_PAGES)
    def check(page) -> None:
        line = _encoded(PageRecord.to_line, page)
        assert line == _encoded(dumps_line, page.to_dict())
        assert line == _encoded(_json_line, page.to_dict())

    check()


def _page_by_the_field_helpers(payload) -> PageRecord:
    """What :meth:`PageRecord.from_dict` made of every row before it took exact rows as
    they are: each field read by the helpers."""
    where = "page record"
    return PageRecord(
        doc_id=records._text(records._require(payload, "doc_id", where), "doc_id"),
        page_number=records._coerce_int(records._require(payload, "page_number", where),
                                        "page_number", where),
        text=records._text(records._require(payload, "text", where), "text"),
    )


def _built(build, payload) -> tuple:
    """``("ok", record, field types)`` or ``("raised", error class, message)``."""
    try:
        record = build(payload)
    except Exception as exc:  # noqa: BLE001 -- the error itself is compared
        return "raised", type(exc), str(exc)
    return "ok", record, tuple(type(getattr(record, name)) for name in record.__slots__)


# every kind of value a page row's field may hold, exact types and the rest
_PAGE_FIELD = st.one_of(
    _TEXT, _TEXT.map(_Str), st.integers(min_value=-3), st.integers(min_value=1).map(_Int),
    st.sampled_from([0, -1, _Int(0)]), st.booleans(), st.sampled_from(["7", " 12 ", "0", "-2",
                                                                       "1.5", "x", ""]),
    st.floats(allow_nan=False), st.none(), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_PAGE_ROWS = st.fixed_dictionaries(
    {}, optional={"doc_id": _PAGE_FIELD, "page_number": _PAGE_FIELD, "text": _PAGE_FIELD,
                  "extra": _PAGE_FIELD},
)


def test_from_dict_builds_the_record_or_raises_the_error_the_field_helpers_do() -> None:
    exact = {"doc_id": DOC, "page_number": 3, "text": "Page text.", "note": None}
    assert _built(PageRecord.from_dict, exact) == _built(_page_by_the_field_helpers, exact)

    @settings(max_examples=800, deadline=None)
    @given(_PAGE_ROWS)
    def check(row) -> None:
        assert _built(PageRecord.from_dict, row) == _built(_page_by_the_field_helpers, row)

    check()


def test_a_plain_page_line_is_filled_in_without_dumps_line(monkeypatch) -> None:
    if records.orjson is None:
        pytest.skip("orjson is not installed")
    page = PageRecord(DOC, 2**70, "Enquête\u2028\x85 \"q\" \\ \U0001d11e")
    expected = _json_line(page.to_dict())

    def refused(value):
        raise AssertionError(f"dumps_line({value!r})")

    monkeypatch.setattr(records, "dumps_line", refused)
    assert page.to_line() == expected
    for page in (PageRecord(12, 1, "x"), PageRecord(DOC, 1, "\ud800")):
        with pytest.raises(AssertionError, match="dumps_line"):
            page.to_line()


_IMPORT_ALL = """
import importlib, pkgutil, sys
import datamentions
from datamentions.gate import KeywordGate

names = [m.name for m in pkgutil.walk_packages(datamentions.__path__, "datamentions.")]
for name in names:
    importlib.import_module(name)
KeywordGate()
print(len(names), "orjson" in sys.modules, "subprocess" in sys.modules)
"""


def test_importing_leaves_orjson_unloaded_and_gate_and_score_match_without_it(
        tmp_path, monkeypatch, capsys) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    modules = list(pkgutil.walk_packages(datamentions.__path__, "datamentions."))
    assert len(modules) >= 13
    assert proc.stdout == f"{len(modules)} False False\n"

    pages = tmp_path / "pages.jsonl"
    write_jsonl(pages, [{"doc_id": DOC, "page_number": n, "text": text} for n, text in
                        enumerate(["We use survey data.", "Enquête \U0001d11e data", "No."], 1)])
    gold, predictions = tmp_path / "gold.jsonl", tmp_path / "predictions.jsonl"
    write_jsonl(gold, [{"doc_id": DOC, "page_number": 1, "gold_names": ["the survey data"]}])
    write_jsonl(predictions, [{"doc_id": DOC, "page_number": 1,
                               "predicted_names": ["survey data", "Enquête"]}])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gate": {"kind": "keyword"}}), encoding="utf-8")

    decisions = tmp_path / "decisions.jsonl"

    def outputs() -> tuple[bytes, str]:
        assert main(["--config", str(config), "gate", "--pages", str(pages),
                     "--out", str(decisions)]) == 0
        assert main(["score", "--predictions", str(predictions), "--gold", str(gold),
                     "--format", "json"]) == 0
        return decisions.read_bytes(), capsys.readouterr().out

    fast = outputs()
    monkeypatch.setattr(records, "orjson", None)
    assert outputs() == fast


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


# ---------------------------------------------------------------------------
# decoding with and without orjson


def _nested(depth: int) -> str:
    return '{"a": ' * depth + "1" + "}" * depth


# texts that the two decoders read differently, that orjson refuses, or that
# a check after decoding refuses
_ODD_TEXTS = st.sampled_from([
    "NaN", '{"x": NaN}', '{"x": Infinity}', '{"x": -Infinity}', '{"x": 1e400}', '{"x": 1.5}',
    '{"x": -0.0}', '{"x": -0}', '{"x": 5e-324}', '{"x": 1E2}',
    '{"x": 9223372036854775807}', '{"x": 9223372036854775808}', '{"x": -9223372036854775808}',
    '{"x": -9223372036854775809}', '{"x": 18446744073709551615}', '{"x": 18446744073709551616}',
    '{"x": 1267650600228229401496703205376}', '{"x": -1267650600228229401496703205376}',
    '﻿{"x": 1}', '{"x": "\\ud800"}', '{"\\udfff": 1}', '{"x": "\\ude00\\ud83d"}',
    '{"x": "\\ud83d\\ude00"}', '{"x": "\\ud800\\u0041"}', '{"x": "\udc80"}',
    '{"x": "a\x01b"}', '{"x": "\x7f \\u0000"}', '\x0c{"x": 1}', '{"x": 1}\x1f',
    '{"x": 1,}', '[1, 2,]', '{"x": 01}', '{"x": 1}x', '{"x": 1, "x": 2}', "[1, 2]", "null",
    "3", '"x"', "true", "", "  ", "\t",
    _nested(10), _nested(64), _nested(65), _nested(200), _nested(5000),
])
_OBJECTS = st.dictionaries(_TEXT, _JSON_VALUES, max_size=3)
_LINES = st.one_of(
    _ODD_TEXTS.map(lambda text: text.encode("utf-8", "surrogatepass")),
    # a lone surrogate becomes an escape, or with ensure_ascii off, bytes that are not UTF-8
    st.one_of(_OBJECTS, _JSON_VALUES).map(lambda value: json.dumps(value).encode()),
    _OBJECTS.map(lambda value: json.dumps(value, ensure_ascii=False)
                 .encode("utf-8", "surrogatepass")),
    st.sampled_from([b'{"x": "caf\xe9"}', b"\xff", b'{"x": "\xed\xa0\x80"}']),
)
# payloads, some with trailing commas for the repair pass to strip
_PAYLOADS = st.one_of(
    _ODD_TEXTS,
    _JSON_VALUES.map(json.dumps),
    _JSON_VALUES.map(lambda value: json.dumps(value, ensure_ascii=False)),
    _JSON_VALUES.map(lambda value: re.sub(r"(\n *[}\]])", r",\1", json.dumps(value, indent=1))),
)


def _with_and_without_orjson(outcome):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(records, "orjson", None)
        slow = outcome()
    return outcome(), slow


def test_read_jsonl_reads_the_same_rows_with_and_without_orjson(tmp_path) -> None:
    if records.orjson is None:
        pytest.skip("orjson is not installed")
    loads = records._loads_exact
    assert loads('{"a": [1, "é", {"b": null}], "c": 18446744073709551615}') == {
        "a": [1, "é", {"b": None}], "c": 2**64 - 1}
    assert json.loads(_nested(64)) == loads(_nested(64))
    for text in ('{"a": 1.5}', '{"a": 18446744073709551616}', _nested(65), '{"a": NaN}',
                 '"\\ud800"', "﻿{}", "null"):
        assert loads(text) is None
    path = tmp_path / "rows.jsonl"

    def rows(size):
        try:
            return repr(list(read_jsonl(path, size)))
        except InvalidRecord as exc:
            return f"InvalidRecord: {exc}"
        except RecursionError:
            return "RecursionError"

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_LINES, max_size=6), st.booleans(), st.data())
    def check(lines, newline_at_end, data) -> None:
        content = b"\n".join(lines) + (b"\n" if newline_at_end else b"")
        path.write_bytes(content)
        size = data.draw(st.one_of(st.none(), st.integers(0, len(content))))
        fast, slow = _with_and_without_orjson(lambda: rows(size))
        assert fast == slow

    check()


def test_extract_json_payload_parses_the_same_with_and_without_orjson() -> None:
    if records.orjson is None:
        pytest.skip("orjson is not installed")

    def parsed(text, mode):
        try:
            return repr(extract_json_payload(text, mode))
        except datamentions.errors.DataMentionsError as exc:
            return f"{type(exc).__name__}: {exc} (offset {getattr(exc, 'offset', None)})"
        except RecursionError:
            return "RecursionError"

    @settings(max_examples=400, deadline=None)
    @given(_PAYLOADS, st.sampled_from(["bare", "fenced", "tagged"]))
    def check(payload, mode) -> None:
        text = {"bare": payload, "fenced": f"Here:\n```json\n{payload}\n```",
                "tagged": f"<OUTPUTDATA>\n{payload}\n</OUTPUTDATA> done"}[mode]
        fast, slow = _with_and_without_orjson(lambda: parsed(text, mode))
        assert fast == slow

    check()
    with pytest.raises(ParseError, match=re.escape("Expecting value (byte offset 6)")):
        extract_json_payload('{"a": NaX}')
    assert extract_json_payload('{"a": [1, 2,],}') == {"a": [1, 2]}
