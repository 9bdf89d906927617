from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from datamentions import evalkit, match_mentions, render_report, score
from datamentions.cli import main
from datamentions.errors import InvalidRecord, UnknownAdapter
from datamentions.evalkit import (
    MatchConfig,
    MatchResult,
    fbeta,
    import_predictions,
    jaccard,
    precision_recall,
    score_records,
)
from datamentions.records import GroundTruthRecord, PredictionRecord, read_jsonl

from oracles import (
    exhaustive_match_size, oracle_fbeta, oracle_greedy_match, oracle_jaccard, oracle_tokens,
)

DOC = "c" * 40


# ---------------------------------------------------------------------------
# jaccard


def test_jaccard_identical_up_to_normalization() -> None:
    assert jaccard("World Development Indicators", "world—development—indicators!") == 1.0


def test_jaccard_disjoint_and_empty() -> None:
    assert jaccard("alpha", "beta") == 0.0
    assert jaccard("", "") == 0.0
    assert jaccard("", "data") == 0.0


def test_jaccard_partial_overlap() -> None:
    # {survey, data} vs {survey}: intersection 1, union 2
    assert jaccard("survey data", "survey") == 0.5


def test_jaccard_agrees_with_oracle() -> None:
    pairs = [
        ("Toxic Release Inventory (TRI)", "Toxic Release Inventory"),
        ("2005 SAM for Ghana", "A 2005 SAM for Ghana"),
        ("Enquête Agricole", "enquête agricole"),
        ("census data 2010", "2010 census"),
    ]
    for a, b in pairs:
        assert jaccard(a, b) == pytest.approx(oracle_jaccard(a, b), abs=1e-12)


# ---------------------------------------------------------------------------
# matching


def test_match_requires_strictly_more_than_half() -> None:
    at_boundary = match_mentions(["survey data"], ["survey"])
    assert (at_boundary.tp, at_boundary.fp, at_boundary.fn) == (0, 1, 1)
    above = match_mentions(["national survey data"], ["national survey"])
    assert (above.tp, above.fp, above.fn) == (1, 0, 0)


def test_match_greedy_prefers_higher_jaccard() -> None:
    # the exact-copy prediction should claim the gold name, leaving the
    # partial one unmatched
    result = match_mentions(
        ["household survey", "household survey 2019"],
        ["household survey"],
    )
    assert result.tp == 1
    assert result.pairs[0][:2] == (0, 0)


def test_match_tie_breaks_by_gold_then_prediction_index() -> None:
    # two identical predictions, two identical gold names: all four pairs
    # have J=1.0, so (gold 0, pred 0) then (gold 1, pred 1) win
    result = match_mentions(["x y", "x y"], ["x y", "x y"])
    assert [(gi, pi) for gi, pi, _ in result.pairs] == [(0, 0), (1, 1)]


def test_match_each_side_used_once() -> None:
    result = match_mentions(["census"], ["census", "census survey records data x"])
    assert result.tp == 1
    assert result.fn == 1
    assert result.fp == 0


def test_match_accounting_identities() -> None:
    predicted = ["a b c", "d e", "f"]
    gold = ["a b c", "g h"]
    result = match_mentions(predicted, gold)
    assert result.tp + result.fp == len(predicted)
    assert result.tp + result.fn == len(gold)
    assert result.tp == len(result.pairs)


def test_match_empty_sides() -> None:
    assert match_mentions([], []) == MatchResult(tp=0, fp=0, fn=0, pairs=())
    assert match_mentions(["x"], []).fp == 1
    assert match_mentions([], ["x"]).fn == 1


def test_match_rejects_bad_config() -> None:
    with pytest.raises(InvalidRecord):
        MatchConfig(jaccard_threshold=1.5)
    with pytest.raises(InvalidRecord):
        MatchConfig(beta=0.0)


# words that overlap often, plus separators, case and accents that tokenize away
_WORDS = ["survey", "Survey", "data", "census", "2010", "de", "Enquête", "x", "-", "()", ""]
_NAMES = st.lists(st.sampled_from(_WORDS), max_size=4).map(" ".join) | st.text(max_size=12)


@settings(max_examples=500, deadline=None)
@given(
    predicted=st.lists(_NAMES, max_size=6),
    gold=st.lists(_NAMES, max_size=6),
    threshold=st.floats(min_value=0.0, max_value=1.0),
)
def test_match_equals_the_pair_by_pair_reference(predicted, gold, threshold) -> None:
    result = match_mentions(predicted, gold, MatchConfig(jaccard_threshold=threshold))
    assert result == MatchResult(*oracle_greedy_match(predicted, gold, threshold))


# Dense pages: many names per side drawn from a few words, so most pairs
# share a token and many Jaccard values tie.
_DENSE_NAMES = st.lists(
    st.sampled_from(["survey", "Census", "data", "2010", "wave", "x", "-"]), max_size=4
).map(" ".join)
_DENSE_PAGES = st.tuples(st.lists(_DENSE_NAMES, max_size=15), st.lists(_DENSE_NAMES, max_size=15))
_THRESHOLDS = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=200, deadline=None)
@given(page=_DENSE_PAGES, threshold=_THRESHOLDS)
def test_match_equals_the_reference_on_dense_pages(page, threshold) -> None:
    predicted, gold = page
    result = match_mentions(predicted, gold, MatchConfig(jaccard_threshold=threshold))
    assert result == MatchResult(*oracle_greedy_match(predicted, gold, threshold))


# a gold record holds no two names with the same tokens
_DENSE_RECORD_PAGES = st.tuples(
    st.lists(_DENSE_NAMES, max_size=15),
    st.lists(_DENSE_NAMES, max_size=15, unique_by=lambda name: frozenset(oracle_tokens(name))),
)


@settings(max_examples=25, deadline=None)
@given(pages=st.lists(_DENSE_RECORD_PAGES, max_size=12), threshold=_THRESHOLDS)
def test_score_records_sums_the_reference_over_dense_pages(pages, threshold) -> None:
    predictions = [PredictionRecord(DOC, n, tuple(p)) for n, (p, _) in enumerate(pages, 1)]
    gold = [GroundTruthRecord(DOC, n, tuple(g)) for n, (_, g) in enumerate(pages, 1)]
    report, results = score_records(predictions, gold, MatchConfig(jaccard_threshold=threshold))
    expected = [MatchResult(*oracle_greedy_match(p, g, threshold)) for p, g in pages]
    assert list(results.values()) == expected
    assert (report.tp, report.fp, report.fn) == tuple(
        sum(getattr(r, field) for r in expected) for field in ("tp", "fp", "fn")
    )


def test_match_tokenizes_each_name_once(monkeypatch) -> None:
    calls: list[str] = []

    def counted(text: str) -> frozenset[str]:
        calls.append(text)
        return tokenize(text)

    tokenize = evalkit.normalize_tokens
    monkeypatch.setattr(evalkit, "normalize_tokens", counted)
    predicted = ["household survey", "survey 2019", "census", "x y", "labour force"]
    gold = ["household survey", "census data", "labour force survey", "x"]
    result = match_mentions(predicted, gold)
    assert result.tp == 2
    assert len(calls) <= len(predicted) + len(gold)


# ---------------------------------------------------------------------------
# metrics


def test_precision_recall_degenerate_cases() -> None:
    assert precision_recall(0, 0, 0) == (1.0, 1.0)
    assert precision_recall(0, 0, 3) == (0.0, 0.0)
    assert precision_recall(0, 3, 0) == (0.0, 0.0)


def test_fbeta_zero_when_both_zero() -> None:
    assert fbeta(0.0, 0.0, 0.5) == 0.0


def test_fbeta_weights_precision_for_small_beta() -> None:
    high_p = fbeta(0.9, 0.5, 0.5)
    high_r = fbeta(0.5, 0.9, 0.5)
    assert high_p > high_r
    assert high_p == pytest.approx(oracle_fbeta(0.9, 0.5, 0.5), abs=1e-12)


def test_score_micro_sums_counts() -> None:
    results = [
        MatchResult(tp=2, fp=1, fn=0, pairs=()),
        MatchResult(tp=0, fp=0, fn=2, pairs=()),
    ]
    report = score(results, beta=1.0)
    assert (report.tp, report.fp, report.fn) == (2, 1, 2)
    assert report.precision == pytest.approx(2 / 3)
    assert report.recall == pytest.approx(0.5)


def test_score_macro_averages_per_result() -> None:
    results = [
        MatchResult(tp=1, fp=0, fn=0, pairs=()),
        MatchResult(tp=0, fp=1, fn=1, pairs=()),
    ]
    report = score(results, beta=1.0, macro=True)
    assert report.macro
    assert report.precision == pytest.approx(0.5)
    assert report.recall == pytest.approx(0.5)


def test_score_empty_macro_is_perfect() -> None:
    report = score([], macro=True)
    assert (report.precision, report.recall, report.f_beta) == (1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# record-level scoring


def test_score_records_pages_missing_on_either_side() -> None:
    predictions = [
        PredictionRecord(doc_id=DOC, page_number=1, predicted_names=("census",)),
        PredictionRecord(doc_id=DOC, page_number=2, predicted_names=("stray guess",)),
    ]
    gold = [
        GroundTruthRecord(doc_id=DOC, page_number=1, gold_names=("census",)),
        GroundTruthRecord(doc_id=DOC, page_number=3, gold_names=("unseen gold",)),
    ]
    report, per_page = score_records(predictions, gold)
    assert (report.tp, report.fp, report.fn) == (1, 1, 1)
    assert set(per_page) == {(DOC, 1), (DOC, 2), (DOC, 3)}


def test_score_records_rejects_duplicate_pages() -> None:
    duplicated = [
        PredictionRecord(doc_id=DOC, page_number=1, predicted_names=()),
        PredictionRecord(doc_id=DOC, page_number=1, predicted_names=()),
    ]
    with pytest.raises(InvalidRecord):
        score_records(duplicated, [])


def test_fixture_corpus_totals_match_brute_force_oracle(data_dir) -> None:
    # re-derive the frozen fixture totals with the exhaustive matcher; the
    # greedy matcher must agree on every page of this corpus
    gold_rows = list(read_jsonl(data_dir / "eval_gold.jsonl"))
    pred_rows = list(read_jsonl(data_dir / "eval_predictions.jsonl"))
    assert len(gold_rows) == len(pred_rows) == 19
    tp = fp = fn = 0
    for g, p in zip(gold_rows, pred_rows):
        assert g["doc_id"] == p["doc_id"]
        best = exhaustive_match_size(p["predicted_names"], g["gold_names"])
        greedy = match_mentions(p["predicted_names"], g["gold_names"])
        assert greedy.tp == best
        tp += best
        fp += len(p["predicted_names"]) - best
        fn += len(g["gold_names"]) - best
    assert (tp, fp, fn) == (13, 8, 10)


# ---------------------------------------------------------------------------
# adapters and rendering


def test_import_predictions_canonical(tmp_path) -> None:
    path = tmp_path / "preds.jsonl"
    path.write_text(
        json.dumps({"doc_id": DOC, "page_number": 1, "predicted_names": ["X"]}) + "\n",
        encoding="utf-8",
    )
    records = import_predictions(path)
    assert records == [PredictionRecord(doc_id=DOC, page_number=1, predicted_names=("X",))]


def test_import_predictions_nested_template_format(tmp_path) -> None:
    row = {
        "doc_id": DOC,
        "page_number": 4,
        "data_mentions": [
            {"mentioned_in": "s1", "datasets": [{"raw_name": "A"}, {"raw_name": "B"}]},
            {"mentioned_in": "s2", "datasets": [{"raw_name": "C"}]},
        ],
    }
    path = tmp_path / "preds.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    records = import_predictions(path, "nuextract_template")
    assert records[0].predicted_names == ("A", "B", "C")


@pytest.mark.parametrize("adapter, rows", [
    ("canonical", [{"doc_id": DOC, "page_number": 1, "predicted_names": ["X"]},
                   {"doc_id": DOC, "page_number": 2, "predicted_names": []},
                   {"doc_id": DOC, "page_number": "1", "predicted_names": ["Y"]}]),
    ("nuextract_template", [{"source": DOC, "data_mentions": []},
                            {"doc_id": DOC, "page": 2, "data_mentions": []},
                            {"doc_id": DOC, "page_number": 1, "data_mentions": []}]),
])
def test_a_repeated_prediction_page_is_refused_naming_the_file_and_both_lines(
        tmp_path, capsys, adapter, rows) -> None:
    path = tmp_path / "preds.jsonl"
    path.write_text(json.dumps(rows[0]) + "\n\n" + "".join(json.dumps(row) + "\n"
                                                         for row in rows[1:]), encoding="utf-8")
    message = f"{path}: line 4: a second record for page {(DOC, 1)!r}, whose first is on line 1"
    with pytest.raises(InvalidRecord) as raised:
        import_predictions(path, adapter)
    assert str(raised.value) == message
    gold = tmp_path / "gold.jsonl"
    gold.write_text(json.dumps({"doc_id": DOC, "page_number": 1, "gold_names": ["X"]}) + "\n",
                    encoding="utf-8")
    capsys.readouterr()
    assert main(["score", "--predictions", str(path), "--gold", str(gold),
                 "--adapter", adapter]) == 3
    assert message in capsys.readouterr().err


def test_import_predictions_unknown_adapter(tmp_path) -> None:
    path = tmp_path / "preds.jsonl"
    path.write_text("{}\n", encoding="utf-8")
    with pytest.raises(UnknownAdapter):
        import_predictions(path, "mystery")


def test_render_report_text_and_json() -> None:
    report = score([MatchResult(tp=13, fp=8, fn=10, pairs=())], beta=0.5)
    text = render_report(report, "text")
    assert "61.90" in text and "56.52" in text and "60.75" in text
    assert "tp=13" in text and "aggregation=micro" in text
    payload = json.loads(render_report(report, "json"))
    assert payload["precision"] == 61.90
    assert payload["recall"] == 56.52
    assert payload["f_beta"] == 60.75
    assert payload["beta"] == 0.5
