"""End-to-end checks of the package's numbered guarantees.

Each test function is named ``test_criterion_N...``; the terminal summary
hook in conftest.py prints one PASS/FAIL line per criterion number.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from datamentions import MockChatBackend, match_mentions, reason_mentions, run_pipeline
from datamentions.cli import main
from datamentions.evalkit import fbeta, jaccard
from datamentions.gate import filter_pages
from datamentions.llm import request_digest
from datamentions.records import (
    AgentAssessment,
    CONTEXT_VALUES,
    DatasetMention,
    DocumentRecord,
    GroundTruthRecord,
    MentionBlock,
    PageRecord,
    RELEVANCE_VALUES,
    SOURCE_CORPUS_VALUES,
    SPECIFICITY_VALUES,
    canonical_json,
    dumps_line,
    parse_mention_block,
    read_jsonl,
)
from datamentions.textnorm import normalize_tokens
from datamentions.weaksup import compute_stats

from oracles import exhaustive_match_size
from pipeline_fixtures import pipeline_script, stage_file_bytes, write_script_file

DOC = "f" * 40


# ---------------------------------------------------------------------------
# criterion 1 — F-beta arithmetic at beta = 0.5


@pytest.mark.parametrize(
    "precision, recall, expected",
    [
        (69.45, 80.65, 71.43),
        (60.00, 70.00, 61.76),
        (62.50, 71.43, 64.10),
    ],
)
def test_criterion_1_fbeta_arithmetic(precision, recall, expected) -> None:
    value = fbeta(precision / 100, recall / 100, beta=0.5) * 100
    assert value == pytest.approx(expected, abs=0.01)


# ---------------------------------------------------------------------------
# criterion 2 — F1 special cases


def test_criterion_2_f1_values() -> None:
    assert fbeta(1.0, 0.5, beta=1.0) * 100 == pytest.approx(66.7, abs=0.4)
    assert fbeta(1.0, 1.0, beta=1.0) * 100 == 100.0


# ---------------------------------------------------------------------------
# criterion 3 — Jaccard fixtures and the strict boundary


def test_criterion_3_jaccard_fixtures() -> None:
    name = "Hydrology data from the University of Colorado"
    assert jaccard(name, name) == 1.0
    assert jaccard(name, "Data concerning hydrology from the University of Colorado") == 0.875


def test_criterion_3_boundary_pair_is_rejected() -> None:
    predicted, gold = "alpha beta", "alpha beta gamma delta"
    assert jaccard(predicted, gold) == 0.5
    result = match_mentions([predicted], [gold])
    assert result.pairs == () and (result.tp, result.fp, result.fn) == (0, 1, 1)


# ---------------------------------------------------------------------------
# criterion 4 — fixture corpus totals, frozen from a brute-force oracle


def test_criterion_4_fixture_corpus_scoring(data_dir, capsys) -> None:
    code = main(
        [
            "score",
            "--predictions", str(data_dir / "eval_predictions.jsonl"),
            "--gold", str(data_dir / "eval_gold.jsonl"),
            "--format", "json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["tp"], report["fp"], report["fn"]) == (13, 8, 10)
    assert report["precision"] == 61.90
    assert report["recall"] == 56.52
    assert report["f_beta"] == 60.75


# ---------------------------------------------------------------------------
# criterion 5 — the recorded full agent response parses byte-exactly


def test_criterion_5_agent_response_parsing(data_dir) -> None:
    payload = json.loads((data_dir / "report_review_block.json").read_text(encoding="utf-8"))
    block, _ = parse_mention_block(payload)
    response = (data_dir / "report_review_response.txt").read_text(encoding="utf-8")
    backend = MockChatBackend(
        {("reasoner", request_digest("reasoner", canonical_json(block.to_dict()))): response}
    )
    assessments = reason_mentions(block, backend)
    assert len(assessments) == 1
    ruling = assessments[0]
    assert ruling.valid is False
    assert ruling.specificity is None
    assert ruling.context is None
    expected = "The raw_name is a report title and does not represent a dataset."
    assert ruling.invalid_reason.encode("utf-8") == expected.encode("utf-8")


# ---------------------------------------------------------------------------
# criterion 6 — retention ratio over a 100-mention scripted run


def test_criterion_6_retention_ratio(tmp_path) -> None:
    # 10 pages x 10 judge-valid mentions; the agent rejects 42 of the 100
    invalid_budget = 42
    cases = []
    for n in range(1, 11):
        page = PageRecord(doc_id=DOC, page_number=n, text=f"Page {n} reviews ten data sources.")
        names = [f"Survey {n}-{i}" for i in range(10)]
        rejected = min(invalid_budget, 10)
        invalid_budget -= rejected
        agent = [False] * rejected + [True] * (10 - rejected)
        cases.append((page, names, [True] * 10, agent))
    assert invalid_budget == 0

    backend = MockChatBackend(pipeline_script(cases))
    started = time.monotonic()
    stats = run_pipeline([c[0] for c in cases], backend, output_dir=tmp_path)
    elapsed = time.monotonic() - started

    assert stats.mentions_judged_valid == 100
    assert stats.mentions_agent_valid == 58
    assert abs(stats.retention_after_agent - 0.58) <= 1e-9
    assert stats == compute_stats(tmp_path)
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# criterion 7 — resume after the extract stage is byte-identical and call-free


def _generate_config(base: Path, tag: str, script: dict) -> tuple[Path, Path, Path]:
    script_path = write_script_file(base / f"{tag}-script.jsonl", script)
    call_log = base / f"{tag}-calls.jsonl"
    out_dir = base / tag
    cfg = base / f"{tag}-config.json"
    cfg.write_text(
        json.dumps(
            {
                "backend": {"kind": "mock", "script": str(script_path), "call_log": str(call_log)},
                "paths": {"output": str(out_dir)},
            }
        ),
        encoding="utf-8",
    )
    return cfg, out_dir, call_log


def test_criterion_7_resume_is_byte_identical_with_no_duplicate_calls(tmp_path, capsys) -> None:
    cases = [
        (
            PageRecord(doc_id=DOC, page_number=1, text="We use the LSMS and the Census of Agriculture."),
            ["LSMS", "Census of Agriculture"],
            [True, False],
            [True],
        ),
        (
            PageRecord(doc_id=DOC, page_number=2, text="The DHS informs this work."),
            ["DHS"],
            [True],
            [False],
        ),
        (
            PageRecord(doc_id=DOC, page_number=3, text="No data sources appear here."),
            [],
            [],
            [],
        ),
    ]
    script = pipeline_script(cases)
    pages_file = tmp_path / "pages.jsonl"
    pages_file.write_bytes(b"".join(dumps_line(c[0].to_dict()) for c in cases))

    cfg_ref, out_ref, log_ref = _generate_config(tmp_path, "reference", script)
    assert main(["--config", str(cfg_ref), "generate", "--pages", str(pages_file)]) == 0

    cfg_int, out_int, log_int = _generate_config(tmp_path, "interrupted", script)
    # stop after the extract stage, then resume the full pipeline
    assert main(
        ["--config", str(cfg_int), "generate", "--pages", str(pages_file), "--stage", "extract"]
    ) == 0
    assert main(["--config", str(cfg_int), "generate", "--pages", str(pages_file)]) == 0
    capsys.readouterr()

    assert stage_file_bytes(out_int) == stage_file_bytes(out_ref)
    assert (out_int / "stats.json").read_bytes() == (out_ref / "stats.json").read_bytes()
    assert json.loads((out_int / "stats.json").read_bytes()) == compute_stats(out_int).to_dict()

    resumed_calls = [(row["stage"], row["digest"]) for row in read_jsonl(log_int)]
    reference_calls = [(row["stage"], row["digest"]) for row in read_jsonl(log_ref)]
    assert len(resumed_calls) == len(set(resumed_calls)), "resume repeated a backend call"
    assert sorted(resumed_calls) == sorted(reference_calls)


# ---------------------------------------------------------------------------
# criterion 8 — split reproduction at the documented partition sizes


def test_criterion_8_split_reproduction(tmp_path) -> None:
    records = tmp_path / "records.jsonl"
    lines = [json.dumps({"record": n}) for n in range(924)]
    records.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    out_dirs = []
    for tag in ("first", "second"):
        out_dir = tmp_path / tag
        code = main(
            [
                "--seed", "13",
                "split",
                "--records", str(records),
                "--train", "864", "--val", "40", "--test", "20",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        out_dirs.append(out_dir)

    first, second = out_dirs
    parts = {
        name: (first / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
        for name in ("train", "val", "test")
    }
    assert [len(parts[n]) for n in ("train", "val", "test")] == [864, 40, 20]
    assert not (first / "leftover.jsonl").exists()
    assert (
        set(parts["train"]) | set(parts["val"]) | set(parts["test"])
    ) == set(lines)
    assert not (set(parts["train"]) & set(parts["val"]))
    assert not (set(parts["train"]) & set(parts["test"]))
    assert not (set(parts["val"]) & set(parts["test"]))
    for name in ("train", "val", "test"):
        assert (first / f"{name}.jsonl").read_bytes() == (second / f"{name}.jsonl").read_bytes()


# ---------------------------------------------------------------------------
# criterion 9 — property suites, 1000 randomized cases each


_VOCAB = ("census", "survey", "data", "panel", "index", "national", "household", "water",
          "2010", "annual")
_names = st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=4).map(" ".join)
_any_text = st.text(max_size=40)

_SAFE_TEXT = st.text(alphabet="abcdefghij ", min_size=1, max_size=20).filter(
    lambda s: bool(s.strip())
)
_OPTIONAL_TEXT = st.none() | _SAFE_TEXT
_DOC_IDS = st.text(alphabet="0123456789abcdef", min_size=40, max_size=40)

_mentions = st.builds(
    DatasetMention,
    raw_name=_SAFE_TEXT,
    mentioned_in=_SAFE_TEXT,
    harmonized_name=_OPTIONAL_TEXT,
    acronym=_OPTIONAL_TEXT,
    producer=_OPTIONAL_TEXT,
    year=_OPTIONAL_TEXT,
    data_type=_OPTIONAL_TEXT,
    context=st.none() | st.sampled_from(sorted(CONTEXT_VALUES)),
    specificity=st.none() | st.sampled_from(sorted(SPECIFICITY_VALUES)),
    relevance=st.none() | st.sampled_from(sorted(RELEVANCE_VALUES)),
)

_pages = st.builds(
    PageRecord,
    doc_id=_DOC_IDS,
    page_number=st.integers(min_value=1, max_value=999),
    text=st.text(max_size=80),
)

_documents = st.builds(
    DocumentRecord,
    doc_id=_DOC_IDS,
    title=_SAFE_TEXT,
    source_corpus=st.sampled_from(sorted(SOURCE_CORPUS_VALUES)),
    year=st.none() | st.integers(min_value=1900, max_value=2030),
    is_open_access=st.booleans(),
    pdf_url=_OPTIONAL_TEXT,
    citation_count=st.none() | st.integers(min_value=0, max_value=100000),
)

_blocks = st.builds(
    MentionBlock,
    mentioned_in=_SAFE_TEXT,
    datasets=st.lists(_mentions, max_size=3).map(tuple),
    source=_DOC_IDS,
    page=st.integers(min_value=1, max_value=500),
)


@st.composite
def _assessments(draw) -> AgentAssessment:
    mention = draw(_mentions)
    if draw(st.booleans()):
        return AgentAssessment(
            mention=mention,
            valid=True,
            specificity=draw(st.sampled_from(sorted(SPECIFICITY_VALUES))),
            context=draw(st.sampled_from(sorted(CONTEXT_VALUES))),
        )
    return AgentAssessment(mention=mention, valid=False, invalid_reason=draw(_SAFE_TEXT))


@st.composite
def _ground_truths(draw) -> GroundTruthRecord:
    names: list[str] = []
    seen: set[frozenset[str]] = set()
    for name in draw(st.lists(_SAFE_TEXT, max_size=4)):
        key = normalize_tokens(name)
        if key not in seen:
            seen.add(key)
            names.append(name)
    return GroundTruthRecord(
        doc_id=draw(_DOC_IDS),
        page_number=draw(st.integers(min_value=1, max_value=999)),
        gold_names=tuple(names),
    )


@settings(max_examples=1000, deadline=None)
@given(a=_any_text, b=_any_text)
def test_criterion_9_jaccard_symmetry_and_bounds(a: str, b: str) -> None:
    j = jaccard(a, b)
    assert j == jaccard(b, a)
    assert 0.0 <= j <= 1.0


@settings(max_examples=1000, deadline=None)
@given(predicted=st.lists(_names, max_size=8), gold=st.lists(_names, max_size=8))
def test_criterion_9_matching_accounting_identities(predicted, gold) -> None:
    result = match_mentions(predicted, gold)
    assert result.tp == len(result.pairs)
    assert result.tp + result.fp == len(predicted)
    assert result.tp + result.fn == len(gold)
    assert result.tp <= min(len(predicted), len(gold))
    gold_indices = [gi for gi, _, _ in result.pairs]
    pred_indices = [pi for _, pi, _ in result.pairs]
    assert len(set(gold_indices)) == len(gold_indices)
    assert len(set(pred_indices)) == len(pred_indices)
    assert all(j > 0.5 for _, _, j in result.pairs)


@settings(max_examples=1000, deadline=None)
@given(predicted=st.lists(_names, max_size=5), gold=st.lists(_names, max_size=5))
def test_criterion_9_greedy_matching_vs_exhaustive(predicted, gold) -> None:
    greedy = match_mentions(predicted, gold)
    best = exhaustive_match_size(list(predicted), list(gold))
    # greedy yields a maximal matching: never larger than the optimum and,
    # by the standard maximal-matching bound, at least half of it
    assert greedy.tp <= best <= 2 * greedy.tp
    used_gold = {gi for gi, _, _ in greedy.pairs}
    used_pred = {pi for _, pi, _ in greedy.pairs}
    for gi, g in enumerate(gold):
        for pi, p in enumerate(predicted):
            if gi not in used_gold and pi not in used_pred:
                assert jaccard(p, g) <= 0.5, "greedy left an eligible pair unmatched"


class _TableGate:
    """A gate with a fixed score per page text, for property checks."""

    def __init__(self, scores: dict[str, float]) -> None:
        self._scores = scores

    def score_page(self, text: str) -> float:
        return self._scores[text]


@settings(max_examples=1000, deadline=None)
@given(
    scores=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=8
    ),
    t1=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    t2=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_criterion_9_gate_threshold_monotonicity(scores, t1, t2) -> None:
    lo, hi = min(t1, t2), max(t1, t2)
    pages = [PageRecord(doc_id=DOC, page_number=i + 1, text=f"page {i}") for i in range(len(scores))]
    gate = _TableGate({p.text: s for p, s in zip(pages, scores)})
    passed_lo, decisions_lo = filter_pages(pages, gate, lo)
    passed_hi, _ = filter_pages(pages, gate, hi)
    keys_lo = {(p.doc_id, p.page_number) for p in passed_lo}
    keys_hi = {(p.doc_id, p.page_number) for p in passed_hi}
    assert keys_hi <= keys_lo, "raising the threshold must only shrink the passing set"
    assert [d.score for d in decisions_lo] == scores


@settings(max_examples=1000, deadline=None)
@given(record=st.one_of(_pages, _documents, _blocks, _assessments(), _ground_truths()))
def test_criterion_9_serialization_round_trips(record) -> None:
    line = dumps_line(record.to_dict())[:-1].decode("utf-8")
    assert "\n" not in line
    assert type(record).from_dict(json.loads(line)) == record
