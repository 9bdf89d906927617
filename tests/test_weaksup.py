from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import shutil
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from datamentions import cli, ledger, weaksup
from datamentions import (
    MockChatBackend,
    extract_mentions,
    judge_mentions,
    plan_pipeline,
    reason_mentions,
    run_pipeline,
)
from datamentions.errors import (
    ArityMismatch,
    BadEnum,
    ConfigError,
    DataMentionsError,
    InvalidRecord,
    MissingField,
    NoPayloadFound,
    ParseError,
    PipelineInterrupted,
    RetriesExhausted,
    UnscriptedInput,
    ValidityCouplingViolation,
)
from datamentions.llm import (
    DEFAULT_MODEL,
    ChatRequest,
    ChatResponse,
    PromptTemplate,
    StageCall,
    extract_json_payload,
    load_templates,
    request_digest,
)
from datamentions.records import (
    CONTEXT_VALUES,
    RELEVANCE_VALUES,
    SPECIFICITY_VALUES,
    MentionBlock,
    PageRecord,
    canonical_json,
    parse_mention_block,
    read_jsonl,
    write_jsonl,
)
from datamentions.weaksup import (
    STAGES,
    StageCheckpoint,
    StagePlan,
    compute_stats,
    export_finetune_records,
)
from pipeline_fixtures import (
    block_for as _block_for,
    judge_response as _judge_response,
    pipeline_script as _pipeline_script,
    reason_response as _reason_response,
    stage_file_bytes as _read_bytes,
    write_script_file,
)

DOC = "f" * 40
DOC2 = "0" * 39 + "1"


def _page(number: int, text: str, doc_id: str = DOC) -> PageRecord:
    return PageRecord(doc_id=doc_id, page_number=number, text=text)


# ---------------------------------------------------------------------------
# extraction stage


def test_extract_empty_page_skips_the_backend() -> None:
    backend = MockChatBackend({})
    assert extract_mentions(_page(1, "   \n "), backend) == []
    assert backend.calls == []


def test_extract_groups_flat_mentions_by_sentence() -> None:
    page = _page(1, "We use the Census and the LSMS. The DHS appears later.")
    response = json.dumps(
        [
            {"raw_name": "Census", "mentioned_in": "We use the Census and the LSMS."},
            {"raw_name": "LSMS", "mentioned_in": "We use the Census and the LSMS."},
            {"raw_name": "DHS", "mentioned_in": "The DHS appears later."},
        ]
    )
    backend = MockChatBackend(
        {("extractor", request_digest("extractor", page.text)): response}
    )
    blocks = extract_mentions(page, backend)
    assert [len(b.datasets) for b in blocks] == [2, 1]
    assert blocks[0].source == DOC and blocks[0].page == 1
    assert blocks[0].datasets[0].mentioned_in == "We use the Census and the LSMS."


def test_extract_accepts_wrapper_object_and_block_shapes() -> None:
    page = _page(2, "Block-shaped reply.")
    response = json.dumps(
        {
            "data_mentions": [
                {
                    "mentioned_in": "Block-shaped reply.",
                    "datasets": [{"raw_name": "A"}, {"raw_name": "B"}],
                }
            ]
        }
    )
    backend = MockChatBackend(
        {("extractor", request_digest("extractor", page.text)): response}
    )
    blocks = extract_mentions(page, backend)
    assert [m.raw_name for m in blocks[0].datasets] == ["A", "B"]


def test_extract_drops_invalid_and_collapses_duplicates() -> None:
    page = _page(3, "Some text.")
    response = json.dumps(
        [
            {"raw_name": "Keep", "mentioned_in": "s"},
            {"raw_name": "Keep", "mentioned_in": "s"},
            {"raw_name": "  ", "mentioned_in": "s"},
        ]
    )
    backend = MockChatBackend(
        {("extractor", request_digest("extractor", page.text)): response}
    )
    blocks = extract_mentions(page, backend)
    assert [m.raw_name for m in blocks[0].datasets] == ["Keep"]


def test_extract_requires_a_sentence_for_flat_entries() -> None:
    page = _page(4, "whatever")
    backend = MockChatBackend(
        {
            ("extractor", request_digest("extractor", page.text)): json.dumps(
                [{"raw_name": "X"}]
            )
        }
    )
    with pytest.raises(MissingField):
        extract_mentions(page, backend)


def test_extract_parses_fenced_reply_as_fallback() -> None:
    page = _page(5, "Fenced reply page.")
    response = 'Here are the mentions:\n```json\n[{"raw_name": "X", "mentioned_in": "s"}]\n```'
    backend = MockChatBackend(
        {("extractor", request_digest("extractor", page.text)): response}
    )
    blocks = extract_mentions(page, backend)
    assert blocks[0].datasets[0].raw_name == "X"


def _bare_then_fenced(text: str):
    """The reply parse as it was before prose-first replies tried the fence first."""
    if "<OUTPUTDATA>" in text:
        return extract_json_payload(text, "tagged")
    try:
        return extract_json_payload(text, "bare")
    except (ParseError, NoPayloadFound) as bare_error:
        try:
            return extract_json_payload(text, "fenced")
        except NoPayloadFound:
            raise bare_error from None


def _outcome(parse, text: str) -> tuple:
    """The value parsed (by repr, so NaN equals NaN), or the error class and message."""
    try:
        return "value", repr(parse(text))
    except DataMentionsError as exc:
        return "error", type(exc), str(exc)


_REPLY_CASES = [
    'Here are the mentions:\n```json\n[{"raw_name": "X"}]\n```',
    "Sure.\n```json\n[1, 2,]\n```\nDone.",
    "Prose first:\n```json\n{not json\n```",
    "Prose and no fence at all.",
    "Prose then a ```python\nfence\n``` only.",
    '[{"raw_name": "X", "mentioned_in": "s"}]',
    '  {"a": [1, 2,]}  ',
    "NaN", "Infinity", "-Infinity", "[NaN, -Infinity]",
    '\xa0\u3000 {"a": 1}', "\ufeff[1]", "\ufeff```json\n[1]\n```", "\ufeff",
    "```json```", "```json\n```", "Two fences:\n```json\n[1]\n```\nthen\n```json\n[2]\n```",
    '"```json\\n[1]\\n```"', 'A string holds a fence: "```json\n[1]\n```"',
    "", " \n\t", "\xa0",
]


@pytest.mark.parametrize("text", _REPLY_CASES)
def test_a_stage_reply_parses_as_the_bare_then_fenced_order_does(text) -> None:
    assert _outcome(weaksup._parse_stage_payload, text) == _outcome(_bare_then_fenced, text)


def test_stage_reply_parsing_matches_the_bare_then_fenced_order() -> None:
    pieces = st.sampled_from([
        " ", "\n", "\t", "\xa0", "\ufeff", "\u3000", "Here:", "ok ", "```json\n", "```json```",
        "```", "\n```", '{"a": 1}', "[1, 2,]", "NaN", "Infinity", "-Infinity", "-", "1e5",
        "true", "nul", '"', '"```json\\n[1]\\n```"', "{", "]", ",", "x", "é", "<OUTPUTDATA>",
        "</OUTPUTDATA>",
    ])

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.lists(pieces, max_size=8).map("".join), st.text(max_size=12)))
    def check(text) -> None:
        assert _outcome(weaksup._parse_stage_payload, text) == _outcome(_bare_then_fenced, text)

    check()


def test_a_prose_first_fenced_reply_is_parsed_once(monkeypatch) -> None:
    modes = []

    def counted(text, mode="bare"):
        modes.append(mode)
        return extract_json_payload(text, mode)

    monkeypatch.setattr(weaksup, "extract_json_payload", counted)
    assert weaksup._parse_stage_payload('Here:\n```json\n[1]\n```') == [1]
    assert weaksup._parse_stage_payload(' [2]') == [2]
    assert modes == ["fenced", "bare"]


# ---------------------------------------------------------------------------
# judge stage


def _judged(block: MentionBlock, response: str):
    backend = MockChatBackend(
        {("judge", request_digest("judge", canonical_json(block.to_dict()))): response}
    )
    return judge_mentions(block, backend)


def test_judge_aligns_verdicts_positionally() -> None:
    block = _block_for(_page(1, "We use A and B."), ["A", "B"])
    verdicts = _judged(block, _judge_response(block, [True, False]))
    assert [v.valid for v in verdicts] == [True, False]
    assert [v.raw_name for v in verdicts] == ["A", "B"]


def test_judge_accepts_bare_list_and_string_booleans() -> None:
    block = _block_for(_page(1, "We use A."), ["A"])
    response = json.dumps([{"valid": "true", "explanation": "fine"}])
    verdicts = _judged(block, response)
    assert verdicts[0].valid is True
    assert verdicts[0].reason == "fine"
    # a reason of 0 is given, read as text, and an empty one falls back to the explanation
    for reason, read in ((0, "0"), (False, "False"), ("", "fine")):
        response = json.dumps([{"valid": True, "reason": reason, "explanation": "fine"}])
        assert _judged(block, response)[0].reason == read


def test_judge_collects_inferred_metadata_aliases() -> None:
    block = _block_for(_page(1, "We use A."), ["A"])
    response = json.dumps(
        [{"valid": True, "reason": "ok", "year": "2019", "producer": "FAO"}]
    )
    verdicts = _judged(block, response)
    assert verdicts[0].inferred_year == "2019"
    assert verdicts[0].inferred_producer == "FAO"


def test_judge_arity_mismatch() -> None:
    block = _block_for(_page(1, "We use A and B."), ["A", "B"])
    response = json.dumps([{"valid": True, "reason": "ok"}])
    with pytest.raises(ArityMismatch):
        _judged(block, response)
    with pytest.raises(InvalidRecord, match="^judge stage requires a block with at least one "
                                            "dataset$"):
        judge_mentions(replace(block, datasets=()), MockChatBackend({}))


def test_judge_requires_reason() -> None:
    block = _block_for(_page(1, "We use A."), ["A"])
    with pytest.raises(MissingField):
        _judged(block, json.dumps([{"valid": True}]))


# ---------------------------------------------------------------------------
# reasoning stage


def _reasoned(block: MentionBlock, response: str):
    backend = MockChatBackend(
        {
            (
                "reasoner",
                request_digest("reasoner", canonical_json(block.to_dict())),
            ): response
        }
    )
    return reason_mentions(block, backend)


def test_reason_parses_the_recorded_agent_response(data_dir) -> None:
    payload = json.loads((data_dir / "report_review_block.json").read_text(encoding="utf-8"))
    block, _ = parse_mention_block(payload)
    response = (data_dir / "report_review_response.txt").read_text(encoding="utf-8")
    assessments = _reasoned(block, response)
    assert len(assessments) == 1
    ruling = assessments[0]
    assert ruling.valid is False
    assert ruling.specificity is None
    assert ruling.context is None
    assert (
        ruling.invalid_reason
        == "The raw_name is a report title and does not represent a dataset."
    )
    # input identity fields survive the round trip byte-for-byte
    assert ruling.mention.raw_name == block.datasets[0].raw_name
    assert ruling.mention.mentioned_in == block.datasets[0].mentioned_in


def test_reason_valid_ruling_carries_labels() -> None:
    block = _block_for(_page(1, "We use the LSMS survey."), ["LSMS"])
    assessments = _reasoned(block, _reason_response(block, [True]))
    assert assessments[0].valid is True
    assert assessments[0].specificity == "properly_named"
    assert assessments[0].context == "primary"
    assert assessments[0].invalid_reason is None
    entries = json.dumps([{"valid": True, "specificity": "properly_named", "context": "primary"}])
    assert _reasoned(block, f"<OUTPUTDATA>{entries}</OUTPUTDATA>") == assessments  # a bare list


def test_reason_repairs_invalid_with_labels() -> None:
    block = _block_for(_page(1, "We use X."), ["X"])
    entry = {
        "raw_name": "X",
        "valid": False,
        "invalid_reason": "actually a report",
        "specificity": "properly_named",
        "context": "primary",
    }
    response = f'<OUTPUTDATA>{json.dumps({"datasets": [entry]})}</OUTPUTDATA>'
    assessments = _reasoned(block, response)
    assert assessments[0].valid is False
    assert assessments[0].specificity is None
    assert assessments[0].context is None


def test_reason_invalid_without_reason_is_rejected() -> None:
    block = _block_for(_page(1, "We use X."), ["X"])
    entry = {"raw_name": "X", "valid": False}
    response = f'<OUTPUTDATA>{json.dumps({"datasets": [entry]})}</OUTPUTDATA>'
    message = "^agent marked 'X' invalid without a reason$"
    with pytest.raises(ValidityCouplingViolation, match=message):
        _reasoned(block, response)


def test_reason_valid_without_labels_is_rejected() -> None:
    block = _block_for(_page(1, "We use X."), ["X"])
    entry = {"raw_name": "X", "valid": True}
    response = f'<OUTPUTDATA>{json.dumps({"datasets": [entry]})}</OUTPUTDATA>'
    message = "^agent kept 'X' valid without both labels$"
    with pytest.raises(ValidityCouplingViolation, match=message):
        _reasoned(block, response)


@pytest.mark.parametrize("key, value", [("specificity", "kinda"), ("context", "sideways")])
def test_reason_refuses_an_unknown_label_naming_field_and_value(key, value) -> None:
    block = _block_for(_page(1, "We use X."), ["X"])
    entry = {"raw_name": "X", "valid": True, "specificity": "properly_named",
             "context": "primary", key: value}
    response = f'<OUTPUTDATA>{json.dumps({"datasets": [entry]})}</OUTPUTDATA>'
    with pytest.raises(BadEnum) as excinfo:
        _reasoned(block, response)
    assert str(excinfo.value) == f"field {key!r} has unknown value {value!r}"
    assert (excinfo.value.field, excinfo.value.value) == (key, value)


@pytest.mark.parametrize("stage", ["judge", "reason"])
@pytest.mark.parametrize("flag, error", [
    ("maybe", InvalidRecord), (1, InvalidRecord), (None, MissingField),
])
def test_a_valid_flag_that_is_not_a_boolean_is_refused(stage, flag, error) -> None:
    block = _block_for(_page(1, "We use A."), ["A"])
    entry = {"raw_name": "A", "valid": flag, "reason": "r", "invalid_reason": "r"}
    with pytest.raises(error, match="valid"):
        if stage == "judge":
            _judged(block, json.dumps([entry]))
        else:
            _reasoned(block, f'<OUTPUTDATA>{json.dumps({"datasets": [entry]})}</OUTPUTDATA>')


def test_reason_arity_mismatch() -> None:
    block = _block_for(_page(1, "We use X and Y."), ["X", "Y"])
    entry = {"raw_name": "X", "valid": False, "invalid_reason": "r"}
    response = f'<OUTPUTDATA>{json.dumps({"datasets": [entry]})}</OUTPUTDATA>'
    with pytest.raises(ArityMismatch):
        _reasoned(block, response)
    with pytest.raises(InvalidRecord, match="^reason stage requires a block with at least one "
                                            "dataset$"):
        reason_mentions(replace(block, datasets=()), MockChatBackend({}))


def test_reason_keeps_harmonized_name_only_when_in_sentence() -> None:
    block = _block_for(
        _page(1, "We use the Living Standards\nMeasurement Study here."), ["LSMS"]
    )
    kept = {
        "raw_name": "LSMS",
        "valid": True,
        "specificity": "properly_named",
        "context": "primary",
        # line-wrapped in the sentence; comparison collapses whitespace
        "harmonized_name": "Living Standards Measurement Study",
    }
    response = f'<OUTPUTDATA>{json.dumps({"datasets": [kept]})}</OUTPUTDATA>'
    assessments = _reasoned(block, response)
    assert assessments[0].mention.harmonized_name == "Living Standards Measurement Study"

    invented = dict(kept, harmonized_name="World Bank LSMS Panel")
    response = f'<OUTPUTDATA>{json.dumps({"datasets": [invented]})}</OUTPUTDATA>'
    assessments = _reasoned(block, response)
    assert assessments[0].mention.harmonized_name is None


def test_reason_updates_enrichment_fields_only_when_present() -> None:
    block = _block_for(_page(1, "We use X from FAO."), ["X"])
    entry = {
        "raw_name": "X",
        "valid": True,
        "specificity": "properly_named",
        "context": "primary",
        "producer": "FAO",
        "year": "None",
    }
    response = f'<OUTPUTDATA>{json.dumps({"datasets": [entry]})}</OUTPUTDATA>'
    assessments = _reasoned(block, response)
    assert assessments[0].mention.producer == "FAO"
    assert assessments[0].mention.year is None


# ---------------------------------------------------------------------------
# pipeline orchestration


def _standard_cases() -> list[tuple[PageRecord, list[str], list[bool], list[bool]]]:
    return [
        (_page(1, "Page about the Census and a Report."), ["Census", "Report"], [True, False], [True]),
        (_page(2, "Page about the LSMS."), ["LSMS"], [True], [False]),
        (_page(3, "Nothing to see here."), [], [], []),  # mention-free text
        (_page(4, "   \n"), [], [], []),  # blank text: no backend call at all
        (_page(1, "Another document page with DHS.", DOC2), ["DHS"], [True], [True]),
    ]


def test_run_pipeline_end_to_end(tmp_path) -> None:
    cases = _standard_cases()
    backend = MockChatBackend(_pipeline_script(cases))
    stats = run_pipeline(
        [case[0] for case in cases], backend, output_dir=tmp_path / "out"
    )
    assert stats.pages_processed == 5
    assert stats.blocks_extracted == 3
    assert stats.mentions_extracted == 4
    assert stats.mentions_judged_valid == 3
    assert stats.mentions_agent_valid == 2
    assert stats.retention_after_agent == pytest.approx(2 / 3)
    assert stats == compute_stats(tmp_path / "out")

    extracted = list(read_jsonl(tmp_path / "out" / "extracted.jsonl"))
    assert len(extracted) == 5  # one row per page, in (doc_id, page) order
    assert extracted[0]["doc_id"] == DOC2  # "000...1" sorts before "fff..."
    empty_rows = [row for row in extracted if not row["blocks"]]
    assert len(empty_rows) == 2

    assessed = list(read_jsonl(tmp_path / "out" / "assessed.jsonl"))
    rulings = [a for row in assessed for a in row["assessments"]]
    assert sum(1 for ruling in rulings if ruling["valid"]) == 2
    assert (tmp_path / "out" / "stats.json").exists()
    assert (tmp_path / "out" / "deadletter.jsonl").read_bytes() == b""


def test_rerun_is_idempotent_and_call_free(tmp_path) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    out = tmp_path / "out"

    first = MockChatBackend(script)
    run_pipeline(pages, first, output_dir=out)
    snapshot = _read_bytes(out)
    baseline_calls = len(first.calls)
    assert baseline_calls > 0

    second = MockChatBackend(script)
    run_pipeline(pages, second, output_dir=out)
    assert second.calls == []
    assert _read_bytes(out) == snapshot


class _FailsAfter:
    """Delegates to a mock backend, then raises once the budget is spent."""

    def __init__(self, inner, budget: int):
        self.inner = inner
        self.budget = budget

    def complete(self, request: ChatRequest):
        if self.budget <= 0:
            raise RetriesExhausted("injected outage")
        self.budget -= 1
        return self.inner.complete(request)


def test_interrupted_run_resumes_byte_identically(tmp_path) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]

    uninterrupted = tmp_path / "full"
    run_pipeline(pages, MockChatBackend(script), output_dir=uninterrupted)

    interrupted = tmp_path / "partial"
    flaky = _FailsAfter(MockChatBackend(script), budget=2)
    with pytest.raises(PipelineInterrupted) as excinfo:
        run_pipeline(pages, flaky, output_dir=interrupted)
    assert excinfo.value.progressed

    resumed = MockChatBackend(script)
    run_pipeline(pages, resumed, output_dir=interrupted)
    assert _read_bytes(interrupted) == _read_bytes(uninterrupted)

    # no request from the first attempt was repeated on resume
    first_calls = set(flaky.inner.calls)
    assert first_calls.isdisjoint(resumed.calls)
    assert len(flaky.inner.calls) + len(resumed.calls) == len(
        set(flaky.inner.calls) | set(resumed.calls)
    )


def test_outage_before_any_progress_is_not_resumable(tmp_path) -> None:
    cases = _standard_cases()
    pages = [case[0] for case in cases]
    dead_on_arrival = _FailsAfter(MockChatBackend({}), budget=0)
    with pytest.raises(PipelineInterrupted) as excinfo:
        run_pipeline(pages, dead_on_arrival, output_dir=tmp_path / "out")
    assert not excinfo.value.progressed


def test_malformed_item_is_quarantined_not_fatal(tmp_path) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    poisoned_page = _page(9, "This page draws a broken reply.")
    script[("extractor", request_digest("extractor", poisoned_page.text))] = "{not json"
    pages = [case[0] for case in cases] + [poisoned_page]

    backend = MockChatBackend(script)
    stats = run_pipeline(pages, backend, output_dir=tmp_path / "out", item_attempts=3)
    assert stats.pages_processed == 5  # the poisoned page never yields a row
    assert stats == compute_stats(tmp_path / "out")

    dead = list(read_jsonl(tmp_path / "out" / "deadletter.jsonl"))
    assert len(dead) == 1
    assert dead[0]["stage"] == "extract"
    assert dead[0]["doc_id"] == DOC and dead[0]["page_number"] == 9
    assert dead[0]["error"] == "ParseError"
    # the item burned its whole per-item retry budget
    poisoned_digest = request_digest("extractor", poisoned_page.text)
    assert sum(1 for _, d in backend.calls if d == poisoned_digest) == 3


def test_a_reply_holding_a_lone_surrogate_is_dead_lettered(tmp_path) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    page = _page(9, "This page draws a reply no UTF-8 file can hold.")
    script[("extractor", request_digest("extractor", page.text))] = (
        '[{"raw_name": "LSMS\\ud800", "mentioned_in": "%s"}]' % page.text)
    pages = [case[0] for case in cases] + [page]
    out = tmp_path / "out"

    backend = MockChatBackend(script)
    stats = run_pipeline(pages, backend, output_dir=out)
    assert stats == compute_stats(out)
    (dead,) = read_jsonl(out / "deadletter.jsonl")
    assert (dead["page_number"], dead["error"]) == (9, "ParseError")
    assert "lone surrogate" in dead["detail"] and "\ud800" not in dead["detail"]
    assert sum(1 for _, d in backend.calls
               if d == request_digest("extractor", page.text)) == 3  # retried, then quarantined
    rerun = MockChatBackend(script)
    run_pipeline(pages, rerun, output_dir=out)
    assert rerun.calls == []


@pytest.mark.parametrize("name", ["LSMS\ud800", "LSMS\\ud800"], ids=["character", "escape"])
def test_a_run_whose_ledger_holds_a_lone_surrogate_replays_from_it(tmp_path, name) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    page = _page(9, "This page draws a reply no UTF-8 file can hold.")
    script[("extractor", request_digest("extractor", page.text))] = (
        '[{"raw_name": "%s", "mentioned_in": "%s"}]' % (name, page.text))
    pages = [case[0] for case in cases] + [page]
    run_pipeline(pages, MockChatBackend(script), output_dir=tmp_path / "run")
    replies = (tmp_path / "run" / "replies.jsonl").read_text(encoding="utf-8")
    assert "\\ud800" in replies

    replay = MockChatBackend.from_script_file(tmp_path / "run" / "replies.jsonl")
    run_pipeline(pages, replay, output_dir=tmp_path / "replay")
    assert len(replay.calls) == len(replies.splitlines())
    for name in ("extracted.jsonl", "judged.jsonl", "assessed.jsonl", "deadletter.jsonl",
                 "stats.json"):
        assert (tmp_path / "replay" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()
    (dead,) = read_jsonl(tmp_path / "replay" / "deadletter.jsonl")
    assert (dead["page_number"], dead["error"]) == (9, "ParseError")


def test_a_reply_holding_half_a_surrogate_pair_is_read_back_from_the_ledger(tmp_path,
                                                                           caplog) -> None:
    page = _page(1, "This page draws a reply holding half a surrogate pair.")
    text = '[{"raw_name": "LSMS\ud800", "mentioned_in": "%s"}]' % page.text
    script = {("extractor", request_digest("extractor", page.text)): text}
    out = tmp_path / "out"
    with pytest.raises(PipelineInterrupted):  # attempt 0 is recorded, attempt 1 meets an outage
        run_pipeline([page], _FailsAfter(MockChatBackend(script), 1), output_dir=out)
    resumed = MockChatBackend(script)
    run_pipeline([page], resumed, output_dir=out)
    assert len(resumed.calls) == 2  # attempts 1 and 2; attempt 0's reply is in the ledger
    assert "damaged" not in caplog.text
    (dead,) = read_jsonl(out / "deadletter.jsonl")
    assert (dead["page_number"], dead["error"]) == (1, "ParseError")
    replies = ledger.ReplyLedger.load(out / "replies.jsonl")
    assert [replies.reply(*attempt) for attempt in sorted(replies.index)] == [text] * 3


def test_stage_barriers_require_prior_outputs(tmp_path) -> None:
    from datamentions.errors import InvalidRecord

    with pytest.raises(InvalidRecord):
        run_pipeline([], MockChatBackend({}), output_dir=tmp_path / "out", stages=("judge",))
    assert plan_pipeline([], output_dir=tmp_path / "out", stages=("judge",)) == [
        StagePlan(stage="judge", pending=None, backend_calls=None)]  # its input is missing


def test_a_stage_subset_refuses_an_input_its_writer_would_redo(tmp_path) -> None:
    cases = _standard_cases()[:3]
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    out = tmp_path / "out"
    run_pipeline(pages, MockChatBackend(script), output_dir=out, stages=("extract",))
    extracted = out / "extracted.jsonl"
    extracted.write_bytes(extracted.read_bytes()[: extracted.stat().st_size // 2])
    before = _tree(out)

    backend = MockChatBackend(script)
    with pytest.raises(InvalidRecord, match="extract"):
        run_pipeline(pages, backend, output_dir=out, stages=("judge",))
    assert backend.calls == []
    assert _tree(out) == before  # a refused run changes no byte

    # selecting the writer as well redoes it and then runs the judge
    run_pipeline(pages, MockChatBackend(script), output_dir=out, stages=("extract", "judge"))
    run_pipeline(pages, MockChatBackend(script), output_dir=tmp_path / "full",
                 stages=("extract", "judge"))
    assert _tree(out) == _tree(tmp_path / "full")


def test_missing_output_file_restarts_the_stage(tmp_path) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    out = tmp_path / "out"
    run_pipeline(pages, MockChatBackend(script), output_dir=out, stages=("extract",))
    snapshot = (out / "extracted.jsonl").read_bytes()

    (out / "extracted.jsonl").unlink()
    redone = MockChatBackend(script)
    run_pipeline(pages, redone, output_dir=out, stages=("extract",))
    assert (out / "extracted.jsonl").read_bytes() == snapshot
    assert redone.calls == []  # the ledger holds every reply the stage was given


def test_missing_output_file_without_its_ledger_asks_every_page_again(tmp_path) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    out = tmp_path / "out"
    run_pipeline(pages, MockChatBackend(script), output_dir=out, stages=("extract",))
    snapshot = (out / "extracted.jsonl").read_bytes()

    (out / "extracted.jsonl").unlink()
    (out / "replies.jsonl").unlink()
    redone = MockChatBackend(script)
    run_pipeline(pages, redone, output_dir=out, stages=("extract",))
    assert (out / "extracted.jsonl").read_bytes() == snapshot
    assert len(redone.calls) == 4  # one per page with text; the blank page is free


def test_plan_pipeline_counts_pending_calls(tmp_path) -> None:
    cases = _standard_cases()
    pages = [case[0] for case in cases]
    out = tmp_path / "out"

    plans = plan_pipeline(pages, output_dir=out)
    assert [p.stage for p in plans] == list(STAGES)
    assert plans[0].pending == 5
    assert plans[0].backend_calls == 4  # the blank page needs no call
    assert plans[1].pending is None  # no extraction output yet

    run_pipeline(pages, MockChatBackend(_pipeline_script(cases)), output_dir=out)
    plans = plan_pipeline(pages, output_dir=out)
    assert all(p.pending == 0 and p.backend_calls == 0 for p in plans)


def test_plan_leaves_a_stage_unknown_while_an_earlier_stage_will_extend_its_input(
    tmp_path,
) -> None:
    cases = [(_page(n, f"Page {n} relies on the LSMS."), ["LSMS"], [True], [True])
             for n in (1, 2, 3, 4)]
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    out = tmp_path / "out"
    run_pipeline(pages[:2], MockChatBackend(script), output_dir=out)

    plans = plan_pipeline(pages, output_dir=out)
    assert [(p.stage, p.pending, p.backend_calls) for p in plans] == [
        ("extract", 2, 2), ("judge", None, None), ("reason", None, None)]
    backend = MockChatBackend(script)
    run_pipeline(pages, backend, output_dir=out)
    assert len(backend.calls) == 6  # the two new pages through all three stages


def test_unknown_stage_names_are_rejected_by_run_and_plan(tmp_path) -> None:
    with pytest.raises(InvalidRecord):
        plan_pipeline([], output_dir=tmp_path / "out", stages=("bogus",))
    with pytest.raises(InvalidRecord):
        run_pipeline([], MockChatBackend({}), output_dir=tmp_path / "out", stages=("bogus",))


def test_plan_counts_the_calls_a_resumed_run_issues(tmp_path) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    full = MockChatBackend(script)
    run_pipeline(pages, full, output_dir=tmp_path / "full")
    template_of = {"extract": "extractor", "judge": "judge", "reason": "reasoner"}

    for budget in range(len(full.calls)):
        out = tmp_path / f"budget{budget}"
        with pytest.raises(PipelineInterrupted):
            run_pipeline(pages, _FailsAfter(MockChatBackend(script), budget), output_dir=out)
        # later stages read inputs the resumed run has yet to finish writing
        plan = next(p for p in plan_pipeline(pages, output_dir=out) if p.pending)
        resumed = MockChatBackend(script)
        run_pipeline(pages, resumed, output_dir=out)
        issued = [t for t, _ in resumed.calls if t == template_of[plan.stage]]
        assert plan.backend_calls == len(issued), (budget, plan)


def _outputs(directory) -> dict[str, bytes]:
    names = ["stats.json", *(f"checkpoints/{stage}.ckpt" for stage in STAGES)]
    return {**_read_bytes(directory), **{n: (directory / n).read_bytes() for n in names}}


def test_threaded_run_matches_serial_run_byte_for_byte(tmp_path) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    poisoned_page = _page(9, "This page draws a broken reply.")
    script[("extractor", request_digest("extractor", poisoned_page.text))] = "{not json"
    pages = [case[0] for case in cases] + [poisoned_page]

    for workers in (1, 4):
        run_pipeline(pages, MockChatBackend(script), output_dir=tmp_path / f"w{workers}",
                     workers=workers)
    assert _outputs(tmp_path / "w4") == _outputs(tmp_path / "w1")
    assert len(list(read_jsonl(tmp_path / "w4" / "deadletter.jsonl"))) == 1


def _many_pages(count: int) -> tuple[list[PageRecord], dict[tuple[str, str], str]]:
    """``count`` mention-free pages, in key order, and their extractor script."""
    pages = [_page(n, f"Page {n} has nothing to extract.") for n in range(1, count + 1)]
    return pages, _pipeline_script([(page, [], [], []) for page in pages])


def test_a_failed_commit_stops_the_stage_within_the_window(tmp_path, monkeypatch) -> None:
    pages, script = _many_pages(200)
    commit, commits = weaksup._StageWriter.commit, []

    def full_disk(self, key, *args):
        commits.append(key)
        if len(commits) == 3:
            raise OSError(28, "No space left on device")
        commit(self, key, *args)

    monkeypatch.setattr(weaksup._StageWriter, "commit", full_disk)
    workers = 4
    backend = MockChatBackend(script)
    with pytest.raises(OSError):
        run_pipeline(pages, backend, output_dir=tmp_path / "out", stages=("extract",),
                     workers=workers)
    assert len(backend.calls) <= 3 + 2 * workers  # one submitted per commit, past the window
    assert len(list(read_jsonl(tmp_path / "out" / "extracted.jsonl"))) == 2


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
def test_a_backend_outage_stops_the_stage_within_the_window(tmp_path, workers) -> None:
    pages, script = _many_pages(200)
    down = pages[23]  # the 24th item in key order

    class OutageAt:
        def __init__(self, inner):
            self.inner = inner

        def complete(self, request: ChatRequest):
            if request.user_content == down.text:
                self.inner.calls.append(("extractor", "outage"))
                raise RetriesExhausted("injected outage")
            return self.inner.complete(request)

    backend = OutageAt(MockChatBackend(script))
    out = tmp_path / "out"
    with pytest.raises(PipelineInterrupted):
        run_pipeline(pages, backend, output_dir=out, stages=("extract",), workers=workers)
    assert len(backend.inner.calls) <= 24 + 2 * workers
    committed = [(row["doc_id"], row["page_number"]) for row in read_jsonl(out / "extracted.jsonl")]
    assert committed == [(p.doc_id, p.page_number) for p in pages[:23]]


def test_a_repeated_page_runs_and_commits_twice_at_any_worker_count(tmp_path) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    pages.insert(2, pages[0])  # same (doc_id, page_number, text), so the same key

    for workers in (1, 2, 4):
        run_pipeline(pages, MockChatBackend(script), output_dir=tmp_path / f"w{workers}",
                     workers=workers)
    extracted = [(row["doc_id"], row["page_number"])
                 for row in read_jsonl(tmp_path / "w1" / "extracted.jsonl")]
    assert extracted.count((DOC, 1)) == 2
    ckpt_keys = [json.loads(line)["key"] for line in
                 (tmp_path / "w1" / "checkpoints" / "extract.ckpt").read_text().splitlines()]
    assert len(ckpt_keys) == len(pages) and len(set(ckpt_keys)) == len(pages) - 1
    assert _outputs(tmp_path / "w2") == _outputs(tmp_path / "w1")
    assert _outputs(tmp_path / "w4") == _outputs(tmp_path / "w1")


def test_torn_checkpoint_tail_is_redone_on_resume(tmp_path) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    uninterrupted = tmp_path / "full"
    run_pipeline(pages, MockChatBackend(script), output_dir=uninterrupted)

    out = tmp_path / "torn"
    run_pipeline(pages, MockChatBackend(script), output_dir=out)
    ckpt = out / "checkpoints" / "judge.ckpt"
    committed = ckpt.read_bytes()
    ckpt.write_bytes(committed[:-7])  # a kill in the middle of the last commit
    torn_key = json.loads(committed.splitlines()[-1])["key"]

    resumed = MockChatBackend(script)
    run_pipeline(pages, resumed, output_dir=out)
    assert resumed.calls == []  # the torn item's reply is in the ledger
    assert _outputs(out) == _outputs(uninterrupted)

    # a complete line that is not JSON is damage, not a torn tail
    ckpt.write_bytes(committed + b'{"key": \n')
    with pytest.raises(InvalidRecord, match="judge.ckpt"):
        run_pipeline(pages, MockChatBackend(script), output_dir=out)


def test_torn_checkpoint_tail_without_the_ledger_asks_its_item_again(tmp_path) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    uninterrupted = tmp_path / "full"
    run_pipeline(pages, MockChatBackend(script), output_dir=uninterrupted)

    out = tmp_path / "torn"
    run_pipeline(pages, MockChatBackend(script), output_dir=out)
    ckpt = out / "checkpoints" / "judge.ckpt"
    committed = ckpt.read_bytes()
    ckpt.write_bytes(committed[:-7])  # a kill in the middle of the last commit
    torn_key = json.loads(committed.splitlines()[-1])["key"]
    (out / "replies.jsonl").unlink()

    resumed = MockChatBackend(script)
    run_pipeline(pages, resumed, output_dir=out)
    assert resumed.calls == [("judge", torn_key.rsplit(":", 1)[1])]
    assert _outputs(out) == _outputs(uninterrupted)


def test_each_judge_and_reason_body_is_encoded_once(tmp_path, monkeypatch) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    broken = _block_for(cases[1][0], cases[1][1])  # its judge item burns every attempt
    script[("judge", request_digest("judge", canonical_json(broken.to_dict())))] = "{not json"
    encoded: list[object] = []

    def counted(value):
        encoded.append(value)
        return canonical_json(value)

    monkeypatch.setattr(weaksup, "canonical_json", counted)
    made: list[MentionBlock] = []
    to_dict = MentionBlock.to_dict

    def counted_to_dict(self):
        made.append(self)
        return to_dict(self)

    monkeypatch.setattr(MentionBlock, "to_dict", counted_to_dict)
    out = tmp_path / "out"
    backend = MockChatBackend(script)
    stats = run_pipeline([case[0] for case in cases], backend, output_dir=out, item_attempts=3)
    items = sum(len((out / f"checkpoints/{s}.ckpt").read_bytes().splitlines())
                for s in ("judge", "reason"))
    assert items == 5  # three judge items, two reason items
    assert len(backend.calls) == 4 + (2 + 3) + 2  # the broken judge item is asked three times
    assert len(encoded) == items
    # each extracted block becomes a dict for its output line, each judge and
    # reason block once, for its body and its output line alike
    assert len(made) == stats.blocks_extracted + items
    assert stats == compute_stats(out)


def test_given_user_content_sends_the_same_request() -> None:
    block = _block_for(_page(1, "We use A and B."), ["A", "B"])
    body = canonical_json(block.to_dict())
    script = {
        ("judge", request_digest("judge", body)): _judge_response(block, [True, True]),
        ("reasoner", request_digest("reasoner", body)): _reason_response(block, [True, False]),
    }
    for stage_fn in (judge_mentions, reason_mentions):
        made, given = MockChatBackend(script), MockChatBackend(script)
        assert stage_fn(block, given, user_content=body) == stage_fn(block, made)
        assert given.calls == made.calls and len(made.calls) == 1


class _Recording:
    """A backend that keeps each request and answers every one with ``text``."""

    def __init__(self, text: str):
        self.text = text
        self.requests: list[ChatRequest] = []

    def complete(self, request: ChatRequest) -> ChatResponse:
        self.requests.append(request)
        return ChatResponse(text=self.text)


@pytest.mark.parametrize("stage", STAGES)
def test_a_stage_call_is_the_request_the_backend_gets(stage) -> None:
    page = _page(1, "We use A.")
    block = _block_for(page, ["A"])
    block_body = canonical_json(block.to_dict())
    stage_fn, subject, reply, template_id, body = {
        "extract": (extract_mentions, page, "[]", "extractor", page.text),
        "judge": (judge_mentions, block, _judge_response(block, [True]), "judge", block_body),
        "reason": (reason_mentions, block, _reason_response(block, [True]), "reasoner",
                   block_body),
    }[stage]
    backend = _Recording(reply)
    stage_fn(subject, backend, call=StageCall(PromptTemplate(template_id, "Our own prompt."),
                                              "another-model", 0.7, 321))
    stage_fn(subject, backend)  # the packaged prompt and the default settings
    assert backend.requests == [
        ChatRequest("another-model", "Our own prompt.", body, 0.7, 321),
        ChatRequest(DEFAULT_MODEL, load_templates()[template_id].body, body, 0.0, 4096)]


def test_the_pipeline_sends_each_stage_its_prompt_and_settings(tmp_path) -> None:
    cases = _standard_cases()
    templates = {template_id: PromptTemplate(template_id, f"Our own {template_id} prompt.")
                 for template_id in ("extractor", "judge", "reasoner")}
    mock = MockChatBackend(_pipeline_script(cases), templates=templates)
    requests: list[ChatRequest] = []

    class Kept:
        def complete(self, request: ChatRequest) -> ChatResponse:
            requests.append(request)
            return mock.complete(request)

    run_pipeline([case[0] for case in cases], Kept(), output_dir=tmp_path / "out",
                 templates=templates, model_name="another-model", temperature=0.7,
                 max_output_tokens=321)
    assert {(r.system_prompt, r.model_name, r.temperature, r.max_output_tokens)
            for r in requests} == {(t.body, "another-model", 0.7, 321) for t in templates.values()}


# ---------------------------------------------------------------------------
# seals


def _count_enumerations(monkeypatch) -> list[str]:
    """Patch ``_keyed_items`` to record the name of each stage it enumerates."""
    enumerated: list[str] = []
    keyed_items = weaksup._keyed_items

    def counted(spec, source):
        enumerated.append(spec.name)
        return keyed_items(spec, source)

    monkeypatch.setattr(weaksup, "_keyed_items", counted)
    return enumerated


def _seals(directory) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((directory / "checkpoints").glob("*.seal"))}


def _without_seals(directory, copy):
    shutil.copytree(directory, copy)
    for seal in (copy / "checkpoints").glob("*.seal"):
        seal.unlink()
    return copy


def test_a_sealed_rerun_reads_no_stage_input_and_issues_no_call(tmp_path, monkeypatch) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    out = tmp_path / "out"
    run_pipeline(pages, MockChatBackend(script), output_dir=out)
    assert sorted(_seals(out)) == [f"{stage}.seal" for stage in sorted(STAGES)]
    assert all(len(seal) == 65 and seal.endswith(b"\n") for seal in _seals(out).values())
    before = _tree(out)
    old = 10**18  # 2001: any write would move a file's mtime to now
    for path in out.rglob("*"):
        os.utime(path, ns=(old, old))
    last_lines = [(out / "checkpoints" / f"{stage}.ckpt").read_text(encoding="utf-8")
                  .splitlines()[-1] for stage in STAGES]
    templates = load_templates()

    enumerated = _count_enumerations(monkeypatch)
    stats_calls: list[Path] = []
    reads: list[str] = []
    hashed: list[str] = []
    decoded: list[str] = []
    read, sha256, loads = weaksup.read_rows, weaksup._sha256, weaksup.json.loads

    def counted_read(path, *args):  # a read starts at the first ``next``
        reads.append(Path(path).name)
        yield from read(path, *args)

    def counted_sha256(path, *args):
        hashed.append(Path(path).name)
        return sha256(path, *args)

    def counted_loads(text, *args, **kwargs):
        decoded.append(text.decode("utf-8") if isinstance(text, bytes) else text)
        return loads(text, *args, **kwargs)

    writers: list[str] = []

    class CountedWriter(weaksup._StageWriter):
        def __init__(self, checkpoint, output_dir, spec):
            writers.append(spec.name)
            super().__init__(checkpoint, output_dir, spec)

    monkeypatch.setattr(weaksup, "compute_stats", stats_calls.append)
    monkeypatch.setattr(weaksup, "read_rows", counted_read)
    monkeypatch.setattr(weaksup, "_sha256", counted_sha256)
    monkeypatch.setattr(weaksup, "_StageWriter", CountedWriter)
    monkeypatch.setattr(weaksup.json, "loads", counted_loads)
    rerun = MockChatBackend(script)
    stats = run_pipeline(pages, rerun, output_dir=out, templates=templates)
    monkeypatch.undo()
    assert rerun.calls == []
    assert enumerated == []
    assert reads == [] and stats_calls == []
    assert sorted(hashed) == ["extracted.jsonl", "judged.jsonl"]  # for seals, not assessed.jsonl
    assert writers == []  # no stage opened its three files
    # the last line of each checkpoint, for its offsets and counters
    assert sorted(decoded) == sorted(last_lines)
    assert stats == compute_stats(out)
    assert _tree(out) == before
    assert all(path.stat().st_mtime_ns == old for path in out.rglob("*"))


@pytest.mark.parametrize("deleted", [
    "judged.jsonl", "assessed.jsonl", "deadletter.jsonl",
    "checkpoints/judge.ckpt", "checkpoints/reason.ckpt",
])
def test_a_sealed_stage_creates_its_deleted_empty_file_again(tmp_path, monkeypatch,
                                                            deleted) -> None:
    cases = [(_page(1, "Nothing to see here."), [], [], [])]  # judge and reason get no item
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    out = tmp_path / "out"
    run_pipeline(pages, MockChatBackend(script), output_dir=out)
    before = _tree(out)
    assert before[deleted] == b""
    (out / deleted).unlink()

    enumerated = _count_enumerations(monkeypatch)
    rerun = MockChatBackend(script)
    run_pipeline(pages, rerun, output_dir=out)
    assert rerun.calls == [] and enumerated == []
    assert _tree(out) == before


def _lenient(script):
    """A mock that also answers blocks nobody scripted: the judge and the agent keep them all."""

    class Lenient(MockChatBackend):
        def complete(self, request):
            try:
                return super().complete(request)
            except UnscriptedInput:
                stage = self._prompt_to_template[request.system_prompt]
                block = MentionBlock.from_dict(json.loads(request.user_content))
                keep = [True] * len(block.datasets)
                answer = _judge_response if stage == "judge" else _reason_response
                return ChatResponse(text=answer(block, keep), latency=0.0)

    return Lenient(script)


@pytest.mark.parametrize("change, enumerated_stages", [
    ("edited extract line", ["judge", "reason"]),
    ("changed page", ["extract", "judge", "reason"]),
    ("added page", ["extract", "judge", "reason"]),
])
def test_a_changed_input_breaks_its_seal_and_those_below(tmp_path, monkeypatch, change,
                                                         enumerated_stages) -> None:
    cases = _standard_cases()
    pages = [case[0] for case in cases]
    out = tmp_path / "out"
    run_pipeline(pages, MockChatBackend(_pipeline_script(cases)), output_dir=out)
    seals = _seals(out)
    if change == "edited extract line":  # same length, one byte, in a committed line
        extracted = out / "extracted.jsonl"
        data = extracted.read_bytes()
        assert data.count(b'"raw_name": "LSMS"') == 1
        extracted.write_bytes(data.replace(b'"raw_name": "LSMS"', b'"raw_name": "LSMX"'))
    elif change == "changed page":
        pages[1] = _page(2, "Page about the LSMX.")  # the same length
        cases.append((pages[1], ["LSMX"], [True], [True]))
    else:
        pages.append(_page(5, "A new page on the DHS.", DOC2))
        cases.append((pages[-1], ["DHS"], [True], [False]))
    bare = _without_seals(out, tmp_path / "bare")

    enumerated = _count_enumerations(monkeypatch)
    sealed_calls = _lenient(_pipeline_script(cases))
    run_pipeline(pages, sealed_calls, output_dir=out)
    assert enumerated == enumerated_stages
    assert sealed_calls.calls  # the change left work to do
    bare_calls = _lenient(_pipeline_script(cases))
    run_pipeline(pages, bare_calls, output_dir=bare)
    assert sealed_calls.calls == bare_calls.calls
    assert _tree(out) == _tree(bare)
    for stage in STAGES:  # the stages whose inputs changed are sealed anew
        changed = _seals(out)[f"{stage}.seal"] != seals[f"{stage}.seal"]
        assert changed == (stage in enumerated_stages), stage


def test_an_interrupted_run_resumes_alike_with_seals_kept_or_deleted(tmp_path, monkeypatch) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    full = MockChatBackend(script)
    run_pipeline(pages, full, output_dir=tmp_path / "full")
    extract_calls = sum(1 for template, _ in full.calls if template == "extractor")
    enumerated = _count_enumerations(monkeypatch)

    for budget in range(len(full.calls)):
        out = tmp_path / f"budget{budget}"
        with pytest.raises(PipelineInterrupted):
            run_pipeline(pages, _FailsAfter(MockChatBackend(script), budget), output_dir=out)
        bare = _without_seals(out, tmp_path / f"bare{budget}")
        enumerated.clear()
        kept = MockChatBackend(script)
        run_pipeline(pages, kept, output_dir=out)
        # the extract stage finished, and was sealed, within the budget
        assert ("extract" not in enumerated) == (budget >= extract_calls), budget
        deleted = MockChatBackend(script)
        run_pipeline(pages, deleted, output_dir=bare)
        assert kept.calls == deleted.calls, budget
        assert _tree(out) == _tree(bare), budget
        assert _outputs(out) == _outputs(tmp_path / "full"), budget
        assert _seals(out) == _seals(tmp_path / "full"), budget


@pytest.mark.parametrize("damage", ["garbage", "truncated", "stale", "deleted"])
def test_a_damaged_seal_is_ignored_and_rewritten(tmp_path, monkeypatch, damage) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    out = tmp_path / "out"
    run_pipeline(pages, MockChatBackend(script), output_dir=out)
    before = _tree(out)
    judge_seal = out / "checkpoints" / "judge.seal"
    if damage == "garbage":
        judge_seal.write_bytes(b"\xff not a seal \x00")
    elif damage == "truncated":
        judge_seal.write_bytes(judge_seal.read_bytes()[:30])
    elif damage == "stale":  # a well-formed seal of another stage
        judge_seal.write_bytes((out / "checkpoints" / "extract.seal").read_bytes())
    else:
        judge_seal.unlink()

    enumerated = _count_enumerations(monkeypatch)
    rerun = MockChatBackend(script)
    run_pipeline(pages, rerun, output_dir=out)
    assert enumerated == ["judge"]
    assert rerun.calls == []
    assert _tree(out) == before


@pytest.mark.parametrize("damage", [
    "stats deleted", "stats edited", "stats truncated", "assessed edited", "extract only",
])
def test_stats_are_recomputed_unless_their_fingerprint_matches(tmp_path, monkeypatch,
                                                               damage) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    out = tmp_path / "out"
    run_pipeline(pages, MockChatBackend(script), output_dir=out)
    stats_path = out / "stats.json"
    written = stats_path.read_bytes()
    assert not (out / "checkpoints" / "stats.sha256").exists()
    committed = tmp_path / "committed"
    shutil.copytree(out, committed)
    stages = STAGES
    if damage == "stats deleted":
        stats_path.unlink()
    elif damage == "stats edited":  # the same length, one digit
        stats_path.write_bytes(stats_path.read_bytes().replace(b'"pages_processed": 5',
                                                               b'"pages_processed": 6'))
    elif damage == "stats truncated":
        stats_path.write_bytes(stats_path.read_bytes()[:40])
    elif damage == "assessed edited":  # the same length, in a committed line no seal covers
        assessed = out / "assessed.jsonl"
        data = assessed.read_bytes()
        assert b'"valid": true' in data
        assessed.write_bytes(data.replace(b'"valid": true', b'"valid": null', 1))
    else:
        stages = ("extract",)
    bare = tmp_path / "bare"
    shutil.copytree(out, bare)

    computed: list[Path] = []
    stats_of = weaksup.compute_stats

    def counted_stats(directory):
        computed.append(Path(directory))
        return stats_of(directory)

    monkeypatch.setattr(weaksup, "compute_stats", counted_stats)
    rerun = MockChatBackend(script)
    stats = run_pipeline(pages, rerun, output_dir=out, stages=stages)
    assert rerun.calls == []
    assert stats == run_pipeline(pages, MockChatBackend(script), output_dir=bare, stages=stages)
    assert computed == []  # the counters in the checkpoints give the statistics
    assert stats_path.read_bytes() == written
    # the statistics are those of what the pipeline committed
    assert stats == compute_stats(committed)
    if damage == "assessed edited":  # not those of a hand edit of its output
        assert compute_stats(out) == replace(stats, mentions_agent_valid=1,
                                             retention_after_agent=1 / 3)
    else:
        assert stats == compute_stats(out)
    assert _tree(out) == _tree(bare)


def test_a_prefix_read_equals_an_eager_parse_of_its_complete_lines(tmp_path) -> None:
    path = tmp_path / "checkpoints" / "extract.ckpt"
    path.parent.mkdir()
    key = st.text(st.characters(blacklist_categories=("Cs",)))  # non-ASCII text included
    blank = st.text(st.sampled_from(" \t\r"), max_size=3)

    def eager(data: bytes) -> list:
        """The complete lines of ``data``, parsed one by one."""
        lines = (line.decode("utf-8").strip() for line in data.split(b"\n")[:-1])
        return [json.loads(line) for line in lines if line]

    @settings(max_examples=80, deadline=None)
    @given(entries=st.lists(st.one_of(st.tuples(key, st.booleans()), blank), max_size=8),
           tail=st.binary(max_size=12), data=st.data())
    def check(entries, tail, data):
        lines = [json.dumps({"key": e[0], "out": 7 * i, "dead": i}, ensure_ascii=e[1])
                 if isinstance(e, tuple) else e for i, e in enumerate(entries, 1)]
        committed = "".join(line + "\n" for line in lines).encode("utf-8")
        written = committed + tail.replace(b"\n", b"")  # the tail of a line cut short by a kill
        path.write_bytes(written)

        size = data.draw(st.integers(0, len(written)), label="size")  # mid-line, mid-character
        assert list(read_jsonl(path, size)) == eager(written[:size])

        rows = eager(committed)
        ckpt = StageCheckpoint.load(path)
        assert ckpt.size == len(committed)
        assert ckpt.digest == hashlib.sha256(committed).hexdigest()
        assert (ckpt.output_offset, ckpt.deadletter_offset) == (
            (rows[-1]["out"], rows[-1]["dead"]) if rows else (0, 0))
        assert weaksup._committed_keys(tmp_path, {"extract": ckpt}, {"extract"}) == {
            "extract": frozenset(row["key"] for row in rows)}

    check()


def test_a_commit_writes_the_checkpoint_line_json_dumps_would(tmp_path) -> None:
    (tmp_path / "checkpoints").mkdir()
    spec = weaksup._STAGE_SPECS[0]
    path = tmp_path / spec.checkpoint_file
    key = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f é\U0001d11e')))
    counts = st.lists(st.integers(min_value=0, max_value=2**70), min_size=3, max_size=3)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(key, st.text(max_size=5), st.one_of(st.none(), counts)),
                    min_size=1, max_size=4), counts)
    def check(commits, start) -> None:
        for name in (spec.output_file, "deadletter.jsonl", spec.checkpoint_file):
            (tmp_path / name).unlink(missing_ok=True)
        ckpt = StageCheckpoint(counts=start)
        expected = []
        with weaksup._StageWriter(ckpt, tmp_path, spec) as writer:
            for item_key, line, added in commits:
                writer.commit(item_key, (line + "\n").encode("utf-8"), added)
                expected.append(json.dumps({"key": item_key, "out": ckpt.output_offset,
                                            "dead": ckpt.deadletter_offset,
                                            "n": ckpt.counts}) + "\n")
        assert path.read_bytes() == "".join(expected).encode("utf-8")

    check()


def test_commit_offsets_are_the_file_sizes_across_a_resume(tmp_path) -> None:
    (tmp_path / "checkpoints").mkdir()
    spec = weaksup._STAGE_SPECS[1]  # judge: the dead letters may open with extract's lines
    out, dead = tmp_path / spec.output_file, tmp_path / "deadletter.jsonl"
    ckpt_path = tmp_path / spec.checkpoint_file
    text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
    commits = st.lists(st.tuples(text, text, st.booleans()), max_size=4)

    def run(ckpt: StageCheckpoint, items) -> None:
        with weaksup._StageWriter(ckpt, tmp_path, spec) as writer:
            for key, line, kept in items:
                sizes = (out.stat().st_size, dead.stat().st_size, ckpt_path.stat().st_size)
                writer.commit(key, (line + "\n").encode("utf-8"), [1] if kept else None)
                assert (out.stat().st_size, dead.stat().st_size,
                        ckpt_path.stat().st_size) == sizes  # held until the flush
                writer.flush()
                assert (ckpt.output_offset, ckpt.deadletter_offset) == (
                    out.stat().st_size, dead.stat().st_size)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(text, max_size=3), commits, st.binary(max_size=6), commits)
    def check(earlier, first, torn, second) -> None:
        for path in (out, dead, ckpt_path):
            path.unlink(missing_ok=True)
        earlier = "".join(line + "\n" for line in earlier).encode("utf-8")
        dead.write_bytes(earlier)
        run(StageCheckpoint(counts=[0]), first)
        for path in (out, dead, ckpt_path):  # what a kill halfway through a commit leaves
            with open(path, "ab") as fh:
                fh.write(torn.replace(b"\n", b""))
        ckpt = StageCheckpoint.load(ckpt_path)
        ckpt.counts = ckpt.counts or [0]
        # cut back as run_pipeline does, where extract's checkpoint covers its dead letters
        weaksup._truncate(out, ckpt.output_offset)
        weaksup._truncate(dead, max(ckpt.deadletter_offset, len(earlier)))
        weaksup._truncate(ckpt_path, ckpt.size)
        run(ckpt, second)

    check()


def test_a_writer_that_fails_to_open_closes_the_files_it_opened(tmp_path) -> None:
    spec = weaksup._STAGE_SPECS[0]
    (tmp_path / spec.checkpoint_file).mkdir(parents=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            weaksup._StageWriter(StageCheckpoint(), tmp_path, spec)
        except IsADirectoryError:
            pass
        else:
            pytest.fail("a directory opened as the checkpoint file")
        gc.collect()
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert (tmp_path / spec.output_file).exists() and (tmp_path / "deadletter.jsonl").exists()


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("new_page", [False, True])
def test_an_undecodable_checkpoint_line_raises_before_any_call(tmp_path, stage, new_page) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    out = tmp_path / "out"
    run_pipeline(pages, MockChatBackend(script), output_dir=out)
    ckpt = out / "checkpoints" / f"{stage}.ckpt"
    lines = ckpt.read_bytes().splitlines(keepends=True)
    assert len(lines) >= 3
    lines[1] = b"\xff" + lines[1][1:]  # a middle line; the last, with the offsets, intact
    ckpt.write_bytes(b"".join(lines))
    if new_page:  # extract has a call to make before the later stages read their checkpoints
        pages.append(_page(5, "A new page on the DHS.", DOC2))
        cases.append((pages[-1], ["DHS"], [True], [False]))
        script = _pipeline_script(cases)
    before = _tree(out)

    backend = MockChatBackend(script)
    with pytest.raises(InvalidRecord, match=f"{stage}.ckpt"):
        run_pipeline(pages, backend, output_dir=out)
    assert backend.calls == []
    with pytest.raises(InvalidRecord, match=f"{stage}.ckpt"):
        plan_pipeline(pages, output_dir=out)
    assert _tree(out) == before


@pytest.mark.parametrize("lines", [
    b'{"key": "a"}\n',
    b'[1, 2]\n',
    b'{"key": "a", "out": "x", "dead": 0}\n',
    b'{"key": "a", "out": 0, "dead": 0, "n": 5}\n',
    b'{"key": "a", "out": 0, "dead": 0, "n": [1]}\n',  # extract keeps three counters
    b'[1, 2]\n{"key": "b", "out": 0, "dead": 0, "n": [0, 0, 0]}\n',  # a middle line
], ids=["no offsets", "not an object", "offset not a number", "counters not a list",
        "counters of another stage", "middle line"])
def test_a_checkpoint_line_of_the_wrong_shape_stops_the_run_before_any_call(tmp_path,
                                                                             lines) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    out = tmp_path / "out"
    (out / "checkpoints").mkdir(parents=True)
    (out / "checkpoints" / "extract.ckpt").write_bytes(lines)
    before = _tree(out)
    backend = MockChatBackend(script)
    with pytest.raises(InvalidRecord, match="extract.ckpt"):
        run_pipeline(pages, backend, output_dir=out)
    assert backend.calls == []
    with pytest.raises(InvalidRecord, match="extract.ckpt"):
        plan_pipeline(pages, output_dir=out)
    assert _tree(out) == before

    calls = tmp_path / "calls.jsonl"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "backend": {"kind": "mock", "script": str(write_script_file(tmp_path / "script.jsonl",
                                                                    script)),
                    "call_log": str(calls)},
        "paths": {"output": str(out)},
    }), encoding="utf-8")
    pages_path = tmp_path / "pages.jsonl"
    write_jsonl(pages_path, (page.to_dict() for page in pages))
    assert cli.main(["--config", str(config), "generate", "--pages", str(pages_path)]) == 3
    assert not calls.exists() or calls.read_bytes() == b""
    assert _tree(out) == before


# Each edit breaks one field of the one checkpoint-line rule, or nests the line too
# deeply for json to read
_DAMAGED_CHECKPOINT_FIELDS = {
    "negative out": (rb'"out": \d+', b'"out": -4'),
    "fractional out": (rb'"out": \d+', b'"out": 12.5'),
    "out as text": (rb'"out": \d+', b'"out": "12"'),
    "dead true": (rb'"dead": \d+', b'"dead": true'),
    "numeric key": (rb'"key": "[^"]+"', b'"key": 7'),
    "counter as text": (rb'"n": \[\d+', b'"n": [1, "2"'),
    "negative counter": (rb'"n": \[\d+', b'"n": [-5'),
    "one counter too many": (rb'"n": \[', b'"n": [1, '),
    "nested too deeply": (rb'"n": ', b'"x": ' + b"[" * 1000 + b"]" * 1000 + b', "n": '),
}


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("where", ["middle", "last"])
@pytest.mark.parametrize("damage", sorted(_DAMAGED_CHECKPOINT_FIELDS))
def test_a_checkpoint_line_that_breaks_the_row_rule_is_refused_naming_its_line(
        tmp_path, capsys, stage, where, damage) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    out = tmp_path / "out"
    run_pipeline(pages, MockChatBackend(script), output_dir=out)
    ckpt = out / "checkpoints" / f"{stage}.ckpt"
    lines = ckpt.read_bytes().splitlines(keepends=True)
    number = 2 if where == "middle" else len(lines)
    assert len(lines) >= 3
    pattern, replacement = _DAMAGED_CHECKPOINT_FIELDS[damage]
    lines[number - 1], edits = re.subn(pattern, replacement, lines[number - 1], count=1)
    assert edits == 1
    ckpt.write_bytes(b"".join(lines))
    before = _tree(out)
    named = re.escape(f"{ckpt}: line {number}") + r"\b"

    backend = MockChatBackend(script)
    with pytest.raises(InvalidRecord, match=named):
        run_pipeline(pages, backend, output_dir=out)
    assert backend.calls == []
    with pytest.raises(InvalidRecord, match=named):
        plan_pipeline(pages, output_dir=out)
    assert _tree(out) == before

    calls = tmp_path / "calls.jsonl"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "backend": {"kind": "mock", "script": str(write_script_file(tmp_path / "script.jsonl",
                                                                    script)),
                    "call_log": str(calls)},
        "paths": {"output": str(out)},
    }), encoding="utf-8")
    pages_path = tmp_path / "pages.jsonl"
    write_jsonl(pages_path, (page.to_dict() for page in pages))
    capsys.readouterr()
    for dry_run in ([], ["--dry-run"]):
        argv = ["--config", str(config), "generate", "--pages", str(pages_path), *dry_run]
        assert cli.main(argv) == 3
        assert re.search(named, capsys.readouterr().err), dry_run
    assert not calls.exists() or calls.read_bytes() == b""
    assert _tree(out) == before


def _strip_counters_and_reseal(out, pages) -> None:
    """Rewrite ``out`` as a version without checkpoint counters left it, seals included."""
    for path in (out / "checkpoints").glob("*.ckpt"):
        rows = [json.loads(line) for line in path.read_bytes().splitlines()]
        path.write_text("".join(json.dumps({k: row[k] for k in ("key", "out", "dead")}) + "\n"
                                for row in rows), encoding="utf-8")
    checkpoints, _ = weaksup._resume_checkpoints(out)
    for spec in weaksup._STAGE_SPECS:
        assert StageCheckpoint.load(out / spec.checkpoint_file).counts is None
        assert len(checkpoints[spec.name].counts) == len(spec.counters)  # recounted
        seal = out / spec.seal_file
        if seal.exists():
            _, input_digest = weaksup._stage_source(spec, pages, out, checkpoints)
            seal.write_bytes(weaksup._seal(spec, input_digest, checkpoints[spec.name]))


def test_checkpoints_without_counters_resume_and_give_the_same_stats(tmp_path,
                                                                      monkeypatch) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    poisoned_page = _page(9, "This page draws a broken reply.")  # one extract dead letter
    script[("extractor", request_digest("extractor", poisoned_page.text))] = "{not json"
    pages = [case[0] for case in cases] + [poisoned_page]
    full = MockChatBackend(script)
    fresh = tmp_path / "fresh"
    stats = run_pipeline(pages, full, output_dir=fresh)
    assert stats == compute_stats(fresh)
    extract_calls = sum(1 for template, _ in full.calls if template == "extractor")

    finished = tmp_path / "finished"
    run_pipeline(pages, MockChatBackend(script), output_dir=finished)
    _strip_counters_and_reseal(finished, pages)
    (finished / "stats.json").unlink()
    killed = tmp_path / "killed"  # one judge item committed
    with pytest.raises(PipelineInterrupted):
        run_pipeline(pages, _FailsAfter(MockChatBackend(script), extract_calls + 1),
                     output_dir=killed)
    assert len((killed / "checkpoints" / "judge.ckpt").read_bytes().splitlines()) == 1
    _strip_counters_and_reseal(killed, pages)

    enumerated = _count_enumerations(monkeypatch)
    computed: list[Path] = []
    stats_of = weaksup.compute_stats
    monkeypatch.setattr(weaksup, "compute_stats",
                        lambda directory: computed.append(directory) or stats_of(directory))
    finished_rerun = MockChatBackend(script)
    assert run_pipeline(pages, finished_rerun, output_dir=finished) == stats
    assert finished_rerun.calls == [] and enumerated == []  # the seals still hold
    killed_rerun = MockChatBackend(script)
    assert run_pipeline(pages, killed_rerun, output_dir=killed) == stats
    assert killed_rerun.calls == full.calls[extract_calls + 1:]
    assert computed == []  # the recounted checkpoints give the statistics
    for out in (finished, killed):
        assert _read_bytes(out) == _read_bytes(fresh)
        assert (out / "stats.json").read_bytes() == (fresh / "stats.json").read_bytes()
    # the judge stage counted its old line once, then carried the counters on
    ckpts = [{stage: (out / "checkpoints" / f"{stage}.ckpt").read_bytes().splitlines()
              for stage in ("judge", "reason")} for out in (killed, fresh)]
    assert ckpts[0]["judge"][1:] == ckpts[1]["judge"][1:]
    assert ckpts[0]["reason"] == ckpts[1]["reason"]


def test_a_damaged_row_in_an_output_without_counters_stops_the_run_before_any_byte_changes(
        tmp_path) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    out = tmp_path / "out"
    run_pipeline(pages, MockChatBackend(script), output_dir=out)
    _strip_counters_and_reseal(out, pages)
    judged = out / "judged.jsonl"
    data = judged.read_bytes()
    line = data[: data.index(b'"valid": true')].count(b"\n") + 1
    # an edit of the same length in a committed row, and a tail no checkpoint commits
    judged.write_bytes(data.replace(b'"valid": true', b'"valid": "no"', 1) + b'{"block": ')
    before = _tree(out)
    backend = MockChatBackend(script)
    for attempt in (lambda: run_pipeline(pages, backend, output_dir=out),
                    lambda: plan_pipeline(pages, output_dir=out)):
        with pytest.raises(InvalidRecord) as excinfo:
            attempt()
        assert str(excinfo.value).startswith(f"{judged}: line {line}: ")
        assert str(excinfo.value).endswith("valid is not a boolean: 'no'")
    assert backend.calls == []
    assert _tree(out) == before


def test_plan_counts_a_sealed_stage_as_done_and_writes_nothing(tmp_path, monkeypatch) -> None:
    cases = _standard_cases()
    pages = [case[0] for case in cases]
    out = tmp_path / "out"
    run_pipeline(pages, MockChatBackend(_pipeline_script(cases)), output_dir=out)
    before = _tree(out)
    enumerated = _count_enumerations(monkeypatch)

    plans = plan_pipeline(pages, output_dir=out)
    assert [(p.pending, p.backend_calls) for p in plans] == [(0, 0)] * len(STAGES)
    assert enumerated == []
    assert _tree(out) == before

    bare = _without_seals(out, tmp_path / "bare")
    bare_before = _tree(bare)
    assert plan_pipeline(pages, output_dir=bare) == plans
    assert enumerated == list(STAGES)
    assert _tree(bare) == bare_before  # planning writes no seal


# ---------------------------------------------------------------------------
# damaged outputs and checkpoint reads


_SHORT_FILES = pytest.mark.parametrize(
    "damaged, keep, redone",
    [
        ("extracted.jsonl", None, ("extractor", "judge", "reasoner")),  # None: deleted
        ("judged.jsonl", 0.5, ("judge", "reasoner")),
        ("deadletter.jsonl", 0.5, ("extractor", "judge", "reasoner")),
    ],
)


def _resume_a_short_file(tmp_path, damaged, keep, *, ledger: bool):
    """The calls of a full run, and of a resume after ``damaged`` is cut short (or, with
    ``ledger`` false, after the ledger is deleted too), with the resumed directory."""
    cases = _standard_cases()
    script = _pipeline_script(cases)
    poisoned_page = _page(9, "This page draws a broken reply.")  # one extract dead letter
    script[("extractor", request_digest("extractor", poisoned_page.text))] = "{not json"
    pages = [case[0] for case in cases] + [poisoned_page]
    full = MockChatBackend(script)
    run_pipeline(pages, full, output_dir=tmp_path / "full")

    out = tmp_path / "damaged"
    run_pipeline(pages, MockChatBackend(script), output_dir=out)
    path = out / damaged
    if keep is None:
        path.unlink()
    else:
        path.write_bytes(path.read_bytes()[: int(path.stat().st_size * keep)])
    if not ledger:
        (out / "replies.jsonl").unlink()

    resumed = MockChatBackend(script)
    run_pipeline(pages, resumed, output_dir=out)
    assert _outputs(out) == _outputs(tmp_path / "full")
    return full.calls, resumed.calls, out


@_SHORT_FILES
def test_short_file_redoes_its_stage_and_every_later_one(tmp_path, damaged, keep, redone) -> None:
    _, resumed, out = _resume_a_short_file(tmp_path, damaged, keep, ledger=True)
    assert resumed == []  # every redone item's replies are in the ledger
    assert all(b"\0" not in data for data in _outputs(out).values())


@_SHORT_FILES
def test_short_file_without_the_ledger_asks_its_stage_and_every_later_one_again(
    tmp_path, damaged, keep, redone
) -> None:
    full, resumed, _ = _resume_a_short_file(tmp_path, damaged, keep, ledger=False)
    assert resumed == [call for call in full if call[0] in redone]


def _tree(directory) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


# ROADMAP item 1 (a run manifest): item keys and seals cover neither the prompt
# body nor the decoding settings, so today each of these reruns issues no call
# and is accepted; the change that lands the manifest removes the marker
@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("change", ["judge prompt", "temperature", "model"])
def test_a_rerun_under_changed_settings_is_refused_before_any_call(tmp_path, change) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    out = tmp_path / "out"
    run_pipeline(pages, MockChatBackend(script), output_dir=out)
    before = _tree(out)
    templates = load_templates()
    settings = {}
    if change == "judge prompt":  # one byte more
        templates["judge"] = PromptTemplate("judge", templates["judge"].body + "\n")
    elif change == "temperature":
        settings["temperature"] = 0.7
    else:
        settings["model_name"] = "another-model"

    backend = MockChatBackend(script, templates=templates)
    with pytest.raises(ConfigError):
        run_pipeline(pages, backend, output_dir=out, templates=templates, **settings)
    assert backend.calls == []
    assert _tree(out) == before


def test_plan_after_a_deleted_output_counts_the_redone_stages(tmp_path) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    full = tmp_path / "full"
    run_pipeline(pages, MockChatBackend(script), output_dir=full)
    items = {s: len((full / f"checkpoints/{s}.ckpt").read_bytes().splitlines()) for s in STAGES}

    for deleted, expected in (
        ("judged.jsonl", {"extract": 0, "judge": items["judge"], "reason": None}),
        ("extracted.jsonl", {"extract": items["extract"], "judge": None, "reason": None}),
    ):
        out = tmp_path / deleted
        run_pipeline(pages, MockChatBackend(script), output_dir=out)
        (out / deleted).unlink()
        before = _tree(out)
        plans = plan_pipeline(pages, output_dir=out)
        assert {p.stage: p.pending for p in plans} == expected, deleted
        assert _tree(out) == before  # planning writes nothing


@pytest.mark.parametrize("torn", [True, False])
def test_plan_reads_inputs_only_up_to_their_last_commit(tmp_path, torn) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    full = MockChatBackend(script)
    run_pipeline(pages, full, output_dir=tmp_path / "full")
    # a line past the last commit: cut short by a kill, or written whole
    # by a kill between the output write and the checkpoint write
    tails = {}
    for name in ("extracted.jsonl", "judged.jsonl"):
        line = max((tmp_path / "full" / name).read_bytes().splitlines(keepends=True), key=len)
        tails[name] = line[: len(line) // 2] if torn else line

    for budget in range(len(full.calls)):
        out = tmp_path / f"budget{budget}"
        with pytest.raises(PipelineInterrupted):
            run_pipeline(pages, _FailsAfter(MockChatBackend(script), budget), output_dir=out)
        expected = plan_pipeline(pages, output_dir=out)
        for name, tail in tails.items():
            if (out / name).exists():
                with open(out / name, "ab") as fh:
                    fh.write(tail)
        assert plan_pipeline(pages, output_dir=out) == expected, budget
        run_pipeline(pages, MockChatBackend(script), output_dir=out)
        assert _outputs(out) == _outputs(tmp_path / "full"), budget


def test_each_checkpoint_is_read_once_per_call(tmp_path, monkeypatch) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    loads: list[str] = []
    load = StageCheckpoint.load.__func__

    def counted(cls, path):
        loads.append(path.name)
        return load(cls, path)

    monkeypatch.setattr(StageCheckpoint, "load", classmethod(counted))
    once_each = ["extract.ckpt", "judge.ckpt", "reason.ckpt"]

    run_pipeline(pages, MockChatBackend(script), output_dir=tmp_path / "done")
    loads.clear()
    run_pipeline(pages, MockChatBackend(script), output_dir=tmp_path / "done")  # no-op rerun
    assert sorted(loads) == once_each

    loads.clear()
    with pytest.raises(PipelineInterrupted):
        run_pipeline(pages, _FailsAfter(MockChatBackend(script), 3),
                     output_dir=tmp_path / "interrupted")
    assert sorted(loads) == once_each

    loads.clear()
    plan_pipeline(pages, output_dir=tmp_path / "interrupted")
    assert sorted(loads) == once_each


# ---------------------------------------------------------------------------
# group commit and the reply ledger


def _lines(path: Path) -> int:
    return len(path.read_bytes().splitlines())


def test_a_writer_flushes_every_batch_and_on_every_exit(tmp_path) -> None:
    (tmp_path / "checkpoints").mkdir()
    spec = weaksup._STAGE_SPECS[0]
    out, ckpt_path = tmp_path / spec.output_file, tmp_path / spec.checkpoint_file
    batch = weaksup._ENUMERATION_BATCH
    with weaksup._StageWriter(StageCheckpoint(counts=[0, 0, 0]), tmp_path, spec) as writer:
        for i in range(batch + 2):
            writer.commit(f"k{i}", f'"{i}"\n'.encode(), [1, 0, 0])
            flushed = (i + 1) // batch * batch
            assert (_lines(out), _lines(ckpt_path)) == (flushed, flushed)
    assert (_lines(out), _lines(ckpt_path)) == (batch + 2, batch + 2)

    # an error on the way out: what was committed before it is written
    with pytest.raises(RuntimeError, match="stop"):
        with weaksup._StageWriter(StageCheckpoint.load(ckpt_path), tmp_path, spec) as writer:
            writer.commit("last", b'"last"\n', [1, 0, 0])
            raise RuntimeError("stop")
    assert all(fh.closed for fh in (writer._out, writer._dead, writer._ckpt))
    assert (_lines(out), _lines(ckpt_path)) == (batch + 3, batch + 3)

    # a flush that fails: the outputs went first, no checkpoint commits them,
    # and the files are closed all the same
    class FullDisk:
        def write(self, data):
            raise OSError(28, "No space left on device")

    size, ckpt_size = out.stat().st_size, ckpt_path.stat().st_size
    with pytest.raises(OSError):
        with weaksup._StageWriter(StageCheckpoint.load(ckpt_path), tmp_path, spec) as writer:
            ckpt_file, writer._ckpt = writer._ckpt, FullDisk()
            writer.commit("lost", b'"lost"\n', [1, 0, 0])
    assert ckpt_file.closed and writer._out.closed and writer._dead.closed
    assert out.stat().st_size > size and ckpt_path.stat().st_size == ckpt_size
    assert StageCheckpoint.load(ckpt_path).output_offset == size


def _ledger(directory: Path) -> list[dict]:
    return list(read_jsonl(directory / "replies.jsonl"))


def test_the_ledger_records_each_reply_as_its_attempt_ends(tmp_path) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    poisoned_page = _page(9, "This page draws a broken reply.")
    poisoned = request_digest("extractor", poisoned_page.text)
    script[("extractor", poisoned)] = "{not json"
    pages = [case[0] for case in cases] + [poisoned_page]
    backend = MockChatBackend(script)
    run_pipeline(pages, backend, output_dir=tmp_path / "out")

    lines = _ledger(tmp_path / "out")
    assert [(line["stage"], line["digest"]) for line in lines] == backend.calls  # a blank page none
    fields = ["config", "key", "n", "stage", "digest", "response", "latency_s", "retries",
              "usage", "outcome"]
    assert all(list(line) == fields for line in lines)
    assert [(line["n"], line["outcome"]) for line in lines if line["digest"] == poisoned] == [
        (0, "ParseError"), (1, "ParseError"), (2, "ParseError")]
    assert all((line["n"], line["outcome"]) == (0, "ok")
               for line in lines if line["digest"] != poisoned)
    assert all(line["key"].endswith(":" + line["digest"])
               and line["response"] == script[(line["stage"], line["digest"])] for line in lines)
    templates = load_templates()
    for template_id in ("extractor", "judge", "reasoner"):
        assert {line["config"] for line in lines if line["stage"] == template_id} == {
            StageCall(templates[template_id], DEFAULT_MODEL, 0.0, 4096).digest()}

    # a backend error brings no reply and writes nothing
    out = tmp_path / "stopped"
    with pytest.raises(PipelineInterrupted):
        run_pipeline(pages, _FailsAfter(MockChatBackend(script), budget=2), output_dir=out)
    assert [line["digest"] for line in _ledger(out)] == [d for _, d in backend.calls[:2]]


def _with_ledger_of(source: Path, directory: Path, data: bytes | None = None) -> Path:
    """``directory``, made to hold ``data``, or the ledger of ``source``, and nothing else."""
    directory.mkdir()
    (directory / "replies.jsonl").write_bytes(
        (source / "replies.jsonl").read_bytes() if data is None else data)
    return directory


def test_a_reply_nested_past_the_recursion_limit_is_dead_lettered(tmp_path) -> None:
    page = _page(1, "This page draws a deeply nested reply.")
    script = {("extractor", request_digest("extractor", page.text)): "[" * 5000 + "]" * 5000}
    backend = MockChatBackend(script)
    out = tmp_path / "out"
    stats = run_pipeline([page], backend, output_dir=out, item_attempts=2)
    assert len(backend.calls) == 2 and stats.pages_processed == 0
    assert [(line["n"], line["outcome"]) for line in _ledger(out)] == [
        (0, "ParseError"), (1, "ParseError")]
    assert [(row["stage"], row["error"]) for row in read_jsonl(out / "deadletter.jsonl")] == [
        ("extract", "ParseError")]

    # the paid replies are kept: a run on the ledger alone makes no call
    again = MockChatBackend(script)
    run_pipeline([page], again, output_dir=_with_ledger_of(out, tmp_path / "again"),
                 item_attempts=2)
    assert again.calls == []
    assert _outputs(tmp_path / "again") == _outputs(out)


_GOOD_EXTRACTION = '[{"mentioned_in": "deep page", "raw_name": "X"}]'
_GOOD_VERDICT = '[{"valid": true, "reason": "names a survey"}]'
_REFUSED_REPLIES = [  # the stage's reply and those before it (None: not reached), the dead letter
    ('[{"mentioned_in": "deep page", "raw_name": "X", "producer": [[1]], "year": {"a": 1}}]',
     None, None, "InvalidRecord", "producer is an array, not text"),
    ('[{"mentioned_in": "deep page", "raw_name": {"a": 1}}]', None, None,
     "InvalidRecord", "raw_name is an object, not text"),
    ('[{"mentioned_in": ["uses LSMS"], "raw_name": "LSMS"}]', None, None,
     "InvalidRecord", "mentioned_in is an array, not text"),
    ('[{"mentioned_in": {}, "raw_name": "LSMS"}]', None, None,
     "InvalidRecord", "mentioned_in is an object, not text"),
    ('{"mentioned_in": "deep page", "datasets": [{"raw_name": "X", "mentioned_in": [[1]]}]}',
     None, None, "InvalidRecord", "mentioned_in is an array, not text"),
    ('{"mentioned_in": "deep page", "datasets": [{"raw_name": "X", "mentioned_in": {}}]}',
     None, None, "InvalidRecord", "mentioned_in is an object, not text"),
    ('"X"', None, None, "InvalidRecord", "extractor reply is neither an object nor an array"),
    ("[1]", None, None, "InvalidRecord", "extractor reply entries must be objects"),
    (_GOOD_EXTRACTION, '[{"valid": true, "reason": {"why": 1}}]', None,
     "InvalidRecord", "reason is an object, not text"),
    (_GOOD_EXTRACTION, '[{"valid": true, "reason": ["why"]}]', None,
     "InvalidRecord", "reason is an array, not text"),
    (_GOOD_EXTRACTION, '[{"valid": true, "reason": {}, "explanation": "why"}]', None,
     "InvalidRecord", "reason is an object, not text"),
    (_GOOD_EXTRACTION, '{"valid": true}', None, "InvalidRecord",
     "judge reply carries no verdict list"),
    (_GOOD_EXTRACTION, '"no"', None, "InvalidRecord", "judge reply is not a verdict list"),
    (_GOOD_EXTRACTION, "[1]", None, "InvalidRecord", "judge verdict entries must be objects"),
    (_GOOD_EXTRACTION, _GOOD_VERDICT, '<OUTPUTDATA>{"verdicts": []}</OUTPUTDATA>',
     "MissingField", "required field 'datasets' missing from agent reply"),
    (_GOOD_EXTRACTION, _GOOD_VERDICT, '<OUTPUTDATA>{"datasets": 5}</OUTPUTDATA>',
     "InvalidRecord", "agent reply carries no dataset list"),
    (_GOOD_EXTRACTION, _GOOD_VERDICT, "<OUTPUTDATA>[1]</OUTPUTDATA>",  # a bare list
     "InvalidRecord", "agent dataset entries must be objects"),
]


def test_a_reply_whose_label_is_an_object_or_an_array_is_dead_lettered(tmp_path) -> None:
    """And every other reply of the wrong shape, with the error and detail it leaves."""
    page = _page(1, "deep page")
    block = canonical_json(_block_for(page, ["X"]).to_dict())
    for case, (extractor, judge, reasoner, error, detail) in enumerate(_REFUSED_REPLIES):
        script = {key: reply for key, reply in [
            (("extractor", request_digest("extractor", page.text)), extractor),
            (("judge", request_digest("judge", block)), judge),
            (("reasoner", request_digest("reasoner", block)), reasoner)] if reply is not None}
        reached = 1 + (judge is not None) + (reasoner is not None)
        spec = weaksup._STAGE_SPECS[reached - 1]
        backend = MockChatBackend(script)
        out = tmp_path / str(case)
        stats = run_pipeline([page], backend, output_dir=out, item_attempts=3)
        assert [call[0] for call in backend.calls].count(spec.template_id) == 3
        assert stats.pages_processed == (reached > 1)
        assert (out / spec.output_file).read_bytes() == b""
        assert [(line["stage"], line["n"], line["outcome"]) for line in _ledger(out)][-3:] == [
            (spec.template_id, n, error) for n in range(3)]
        (dead,) = read_jsonl(out / "deadletter.jsonl")
        assert (dead["stage"], dead["error"], dead["detail"]) == (spec.name, error, detail)
        again = MockChatBackend(script)
        run_pipeline([page], again, output_dir=out, item_attempts=3)
        assert again.calls == []


@pytest.mark.parametrize("change", ["prompt", "temperature", "model", "max_output_tokens"])
def test_a_changed_setting_misses_the_ledger(tmp_path, change) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    full = MockChatBackend(script)
    run_pipeline(pages, full, output_dir=tmp_path / "full")
    templates = load_templates()
    settings: dict = {"templates": templates}
    if change == "prompt":  # one byte more in the judge's prompt
        judge = PromptTemplate("judge", templates["judge"].body + " ")
        settings["templates"] = {**templates, "judge": judge}
    elif change == "temperature":
        settings["temperature"] = 0.7
    elif change == "model":
        settings["model_name"] = "another-model"
    else:
        settings["max_output_tokens"] = 4095

    same = MockChatBackend(script)
    run_pipeline(pages, same, output_dir=_with_ledger_of(tmp_path / "full", tmp_path / "same"))
    assert same.calls == []

    out = _with_ledger_of(tmp_path / "full", tmp_path / "changed")
    changed = MockChatBackend(script, templates=settings["templates"])
    run_pipeline(pages, changed, output_dir=out, **settings)
    missed = ("judge",) if change == "prompt" else ("extractor", "judge", "reasoner")
    assert changed.calls == [call for call in full.calls if call[0] in missed]
    assert _read_bytes(out) == _read_bytes(tmp_path / "full")


def test_a_torn_last_ledger_line_is_cut_off_and_its_call_asked_again(tmp_path) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    full = tmp_path / "full"
    run_pipeline(pages, MockChatBackend(script), output_dir=full)
    replies = (full / "replies.jsonl").read_bytes()
    last = json.loads(replies.splitlines()[-1])

    # a kill halfway through the last append
    out = _with_ledger_of(full, tmp_path / "torn", replies[: -len(replies.splitlines()[-1]) // 2])
    resumed = MockChatBackend(script)
    run_pipeline(pages, resumed, output_dir=out)
    assert resumed.calls == [(last["stage"], last["digest"])]
    assert (out / "replies.jsonl").read_bytes() == replies  # the fragment cut off, the line whole
    assert _outputs(out) == _outputs(full)


def test_a_damaged_ledger_line_costs_only_its_call(tmp_path, caplog) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    full = tmp_path / "full"
    run_pipeline(pages, MockChatBackend(script), output_dir=full)
    lines = (full / "replies.jsonl").read_bytes().splitlines(keepends=True)
    damaged = json.loads(lines[1])
    lines[1] = lines[1].replace(b'"response":', b'"response":0,"_":', 1)  # no longer text

    out = _with_ledger_of(full, tmp_path / "damaged", b"".join(lines))
    resumed = MockChatBackend(script)
    run_pipeline(pages, resumed, output_dir=out)
    assert resumed.calls == [(damaged["stage"], damaged["digest"])]
    assert "1 damaged lines left out" in caplog.text
    assert _outputs(out) == _outputs(full)


def test_a_ledger_run_gives_the_same_bytes_at_any_worker_count(tmp_path) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    poisoned_page = _page(9, "This page draws a broken reply.")
    script[("extractor", request_digest("extractor", poisoned_page.text))] = "{not json"
    pages = [case[0] for case in cases] + [poisoned_page]
    full = tmp_path / "full"
    run_pipeline(pages, MockChatBackend(script), output_dir=full)
    replies = (full / "replies.jsonl").read_bytes()

    for workers in (1, 2):
        fresh = tmp_path / f"fresh{workers}"
        run_pipeline(pages, MockChatBackend(script), output_dir=fresh, workers=workers)
        assert _outputs(fresh) == _outputs(full)
        assert sorted((fresh / "replies.jsonl").read_bytes().splitlines()) == sorted(
            replies.splitlines())  # the same lines, in the order they arrived

        out = _with_ledger_of(full, tmp_path / f"w{workers}")
        replayed = MockChatBackend(script)
        run_pipeline(pages, replayed, output_dir=out, workers=workers)
        assert replayed.calls == []
        assert _outputs(out) == _outputs(full)
        assert (out / "replies.jsonl").read_bytes() == replies


def test_replies_from_many_threads_each_reach_the_ledger_whole(tmp_path) -> None:
    pages, script = _many_pages(300)
    backend = MockChatBackend(script)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_pipeline(pages, backend, output_dir=tmp_path / "out", stages=("extract",), workers=8)
    finally:
        sys.setswitchinterval(interval)
    lines = _ledger(tmp_path / "out")  # every line decodes: no two appends interleaved
    assert sorted((line["stage"], line["digest"]) for line in lines) == sorted(backend.calls)
    assert len({line["key"] for line in lines}) == len(pages)


def test_a_sealed_rerun_never_opens_the_ledger(tmp_path, monkeypatch) -> None:
    cases = _standard_cases()
    script = _pipeline_script(cases)
    pages = [case[0] for case in cases]
    out = tmp_path / "out"
    run_pipeline(pages, MockChatBackend(script), output_dir=out)
    before = _tree(out)
    loaded: list[Path] = []
    load = ledger.ReplyLedger.load.__func__

    def counted(cls, path):
        loaded.append(path)
        return load(cls, path)

    monkeypatch.setattr(ledger.ReplyLedger, "load", classmethod(counted))
    run_pipeline(pages, MockChatBackend(script), output_dir=out)
    plan_pipeline(pages, output_dir=out)
    assert loaded == []
    assert _tree(out) == before


# ---------------------------------------------------------------------------
# handoff between stages


_TEXT = st.text(max_size=8)
_OPTIONAL_TEXT = st.one_of(
    st.none(), _TEXT, st.sampled_from(["None", " null ", "NULL", "", "  "]),
    st.integers(-2**70, 2**70), st.floats(), st.booleans(),
)
_MENTION_ENTRY = st.fixed_dictionaries(
    {"raw_name": st.one_of(_TEXT, st.integers())},
    optional={
        "mentioned_in": st.one_of(st.none(), st.sampled_from(["s", "The LSMS."]), _TEXT),
        **{key: _OPTIONAL_TEXT for key in ("harmonized_name", "acronym", "producer", "year",
                                           "data_type")},
        "context": st.sampled_from([None, "None", *CONTEXT_VALUES]),
        "specificity": st.sampled_from([None, *SPECIFICITY_VALUES]),
        "relevance": st.sampled_from([None, *RELEVANCE_VALUES]),
        "note": _TEXT,
    },
)
_SENTENCE = st.one_of(st.sampled_from(["s", "The LSMS."]), _TEXT)
_EXTRACTOR_PAYLOAD = st.one_of(
    st.lists(_MENTION_ENTRY, max_size=4),  # flat, each entry with its own sentence
    _MENTION_ENTRY,  # a single mention
    st.lists(st.fixed_dictionaries({"mentioned_in": _SENTENCE,  # block-shaped
                                    "datasets": st.lists(_MENTION_ENTRY, max_size=3)}),
             max_size=3),
).flatmap(lambda payload: st.one_of(  # bare, or inside a wrapper object
    st.just(payload),
    st.sampled_from(["data_mentions", "mentions", "blocks", "extractions"]).map(
        lambda key: {key: payload} if isinstance(payload, list) else payload),
))
_VERDICT_ENTRY = st.fixed_dictionaries(
    {"valid": st.one_of(st.booleans(), st.sampled_from(["true", " FALSE ", "True"])),
     "reason": st.one_of(_TEXT, st.integers())},
    optional={
        "explanation": _TEXT,
        "raw_name": _TEXT,
        **{key: _OPTIONAL_TEXT for key in ("inferred_year", "year", "inferred_producer",
                                           "producer", "inferred_data_type", "data_type")},
    },
)


def _reply(payload, wrapping: str) -> str:
    body = json.dumps(payload)
    if wrapping == "fenced":
        return f"Here they are:\n```json\n{body}\n```"
    return f"<OUTPUTDATA>{body}</OUTPUTDATA>" if wrapping == "tagged" else body


def _committed_value(path: Path, writer, reader, subject, user_content, reply):
    """What the ``writer`` stage hands over for its line, and the ``reader`` stage's
    ``parse`` of that line as read back; None when the reply makes the item a poison
    item, which commits no line."""
    call = StageCall(load_templates()[writer.template_id])
    try:
        row, value = writer.produce(subject, user_content, _Recording(reply), call)
    except weaksup._POISON_ERRORS:
        return None
    path.write_bytes(weaksup.dumps_line(row))
    (parsed,) = weaksup.read_rows(path, reader.parse)
    return value, parsed


def test_the_value_handed_over_is_the_parse_of_the_committed_line(tmp_path) -> None:
    extract, judge, reason = weaksup._STAGE_SPECS
    wrappings = st.sampled_from(["bare", "fenced", "tagged"])
    committed = {"extract": 0, "judge": 0}

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), payload=_EXTRACTOR_PAYLOAD, wrapping=wrappings,
           page_number=st.integers(1, 2**70))
    def check(data, payload, wrapping, page_number) -> None:
        page = _page(page_number, "a page")
        pair = _committed_value(tmp_path / "extracted.jsonl", extract, judge, page, page.text,
                                _reply(payload, wrapping))
        if pair is None:
            return
        blocks, parsed = pair
        assert blocks == parsed
        committed["extract"] += 1
        for block in blocks:
            body = block.to_dict()
            verdicts = data.draw(st.lists(_VERDICT_ENTRY, min_size=len(block.datasets),
                                          max_size=len(block.datasets)))
            verdicts = data.draw(st.sampled_from([
                verdicts, *({key: verdicts} for key in weaksup._VERDICT_LIST_KEYS)]))
            pair = _committed_value(tmp_path / "judged.jsonl", judge, reason, (block, body),
                                    canonical_json(body),
                                    _reply(verdicts, data.draw(wrappings)))
            if pair is not None:
                assert pair[0] == pair[1]
                committed["judge"] += 1

    check()
    assert committed["extract"] > 30 and committed["judge"] > 30  # not only poison items


def _handoff_cases():
    """The standard cases, a page whose extraction and one whose judgment is dead-lettered."""
    cases = _standard_cases() + [(_page(5, "Page on the GHS and the MICS."), ["GHS", "MICS"],
                                  [True, True], [True, False]),
                                 (_page(6, "Page on the LFS."), ["LFS"], [True], [True])]
    script = _pipeline_script(cases)
    broken = _page(9, "This page draws a broken reply.")
    script[("extractor", request_digest("extractor", broken.text))] = "{not json"
    lfs = _block_for(cases[-1][0], ["LFS"])
    script[("judge", request_digest("judge", canonical_json(lfs.to_dict())))] = "{not json"
    return [case[0] for case in cases] + [broken], script


def _every_output(directory: Path) -> dict[str, bytes]:
    return {**_outputs(directory), **_seals(directory)}


def _count_decoded_rows(monkeypatch) -> dict[str, int]:
    """Patch the stages' row reader to count the rows it decodes, by file name."""
    decoded: dict[str, int] = {}
    read = weaksup.read_rows

    def counted(path, parse, *args):
        def parse_counted(row):
            decoded[Path(path).name] = decoded.get(Path(path).name, 0) + 1
            return parse(row)

        return read(path, parse_counted, *args)

    monkeypatch.setattr(weaksup, "read_rows", counted)
    return decoded


def _run_by_path(path: str, out: Path, pages, script, workers: int, extract_calls: int,
                 monkeypatch) -> None:
    """Leave ``out`` as ``path`` has it before its last, full run."""
    if path == "extract first":
        run_pipeline(pages, MockChatBackend(script), output_dir=out, stages=("extract",),
                     workers=workers)
    elif path == "cap below the first row":
        monkeypatch.setattr(weaksup, "_HANDOFF_CAP", 0)
    elif path == "interrupted mid-judge":
        with pytest.raises(PipelineInterrupted):
            run_pipeline(pages, _FailsAfter(MockChatBackend(script), extract_calls + 1),
                         output_dir=out, workers=workers)
        assert _lines(out / "judged.jsonl") == 1 and not (out / "checkpoints/judge.seal").exists()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("path", ["full", "extract first", "cap below the first row",
                                  "interrupted mid-judge"])
def test_every_path_between_stages_writes_the_same_bytes(tmp_path, monkeypatch, path,
                                                         workers) -> None:
    pages, script = _handoff_cases()
    reference = tmp_path / "reference"  # each stage alone reads all of its input back
    backends = {stage: MockChatBackend(script) for stage in STAGES}
    for stage in STAGES:
        run_pipeline(pages, backends[stage], output_dir=reference, stages=(stage,))
    assert _lines(reference / "deadletter.jsonl") == 2

    out = tmp_path / "out"
    _run_by_path(path, out, pages, script, workers, len(backends["extract"].calls), monkeypatch)
    run_pipeline(pages, MockChatBackend(script), output_dir=out, workers=workers)
    assert _every_output(out) == _every_output(reference)


@pytest.mark.parametrize("path", ["full", "interrupted mid-judge", "cap below the first row",
                                  "cap at the extracted bytes", "cap below the extracted bytes"])
def test_a_run_decodes_only_the_rows_committed_before_it_started(tmp_path, monkeypatch,
                                                                 path) -> None:
    pages, script = _handoff_cases()
    full = MockChatBackend(script)
    reference = tmp_path / "reference"
    run_pipeline(pages, full, output_dir=reference)
    sizes = {name: (reference / name).stat().st_size
             for name in ("extracted.jsonl", "judged.jsonl")}
    extract_calls = sum(1 for template, _ in full.calls if template == "extractor")

    out = tmp_path / "out"
    _run_by_path(path, out, pages, script, 1, extract_calls, monkeypatch)
    if "extracted bytes" in path:
        monkeypatch.setattr(weaksup, "_HANDOFF_CAP", sizes["extracted.jsonl"] - ("below" in path))
    cap = weaksup._HANDOFF_CAP
    before = {name: _lines(out / name) if (out / name).exists() else 0 for name in sizes}
    decoded = _count_decoded_rows(monkeypatch)
    run_pipeline(pages, MockChatBackend(script), output_dir=out)
    # a stage whose lines of this run pass the cap hands over none of them
    expected = {name: _lines(out / name) if sizes[name] > cap else before[name]
                for name in sizes}
    assert {name: decoded.get(name, 0) for name in sizes} == expected
    if path == "full":
        assert expected == {"extracted.jsonl": 0, "judged.jsonl": 0}
    assert _every_output(out) == _every_output(reference)


# ---------------------------------------------------------------------------
# statistics and export


def test_compute_stats_reads_valid_flags_as_the_stages_do(tmp_path) -> None:
    flags = [{"valid": "false"}, {"valid": " TRUE "}, {"valid": True}, {"valid": None}, {}]
    write_jsonl(tmp_path / "judged.jsonl", [{"block": {}, "verdicts": flags}])
    write_jsonl(tmp_path / "assessed.jsonl", [{"block": {}, "assessments": flags[::-1]}])
    stats = compute_stats(tmp_path)
    assert (stats.mentions_judged_valid, stats.mentions_agent_valid) == (2, 2)

    write_jsonl(tmp_path / "judged.jsonl", [{"block": {}, "verdicts": [{"valid": "maybe"}]}])
    with pytest.raises(InvalidRecord, match="valid"):
        compute_stats(tmp_path)


def test_compute_stats_on_empty_directory(tmp_path) -> None:
    stats = compute_stats(tmp_path)
    assert stats.pages_processed == 0
    assert stats.retention_after_agent is None
    assert "retention_after_agent" not in stats.to_dict()


def test_export_finetune_records(tmp_path) -> None:
    cases = _standard_cases()
    pages = [case[0] for case in cases]
    out = tmp_path / "out"
    run_pipeline(pages, MockChatBackend(_pipeline_script(cases)), output_dir=out)

    export_path = tmp_path / "finetune.jsonl"
    count = export_finetune_records(pages, out / "assessed.jsonl", export_path, "train")
    assert count == 5
    rows = list(read_jsonl(export_path))
    assert all(row["split"] == "train" for row in rows)
    assert all(row["instruction"].endswith(page.text) for row, page in zip(rows, sorted(pages, key=lambda p: (p.doc_id, p.page_number))))

    responses = [json.loads(row["response"]) for row in rows]
    # sorted page order: (DOC2, 1) first, then DOC pages 1..4
    assert [m["raw_name"] for m in responses[0]] == ["DHS"]
    assert responses[0][0]["specificity"] == "properly_named"
    assert responses[0][0]["context"] == "primary"
    assert [m["raw_name"] for m in responses[1]] == ["Census"]
    assert responses[2] == []  # agent invalidated the only mention
    assert responses[3] == []  # mention-free page
    assert responses[4] == []  # blank page


def test_export_without_split_tag_omits_the_field(tmp_path) -> None:
    page = _page(1, "empty")
    assessed = tmp_path / "assessed.jsonl"
    assessed.write_bytes(b"")
    export_path = tmp_path / "finetune.jsonl"
    count = export_finetune_records([page], assessed, export_path)
    assert count == 1
    (row,) = read_jsonl(export_path)
    assert "split" not in row
    assert json.loads(row["response"]) == []
