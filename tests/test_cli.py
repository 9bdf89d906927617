from __future__ import annotations

import fcntl
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest
import requests

from datamentions import cli, corpus
from datamentions.cli import _advisory_lock, _apply_decisions, _load_pages, main
from datamentions.corpus import CorpusStore
from datamentions.errors import InputError, InvalidRecord
from datamentions.evalkit import import_predictions
from datamentions.gate import RemoteGate, filter_pages
from datamentions.llm import MockChatBackend, request_digest
from datamentions.records import (
    PageRecord,
    canonical_json,
    dumps_line,
    parse_mention_block,
    read_jsonl,
    write_jsonl,
)
from datamentions.splits import import_annotations
from datamentions.weaksup import (
    compute_stats,
    export_finetune_records,
    plan_pipeline,
    run_pipeline,
)

from pipeline_fixtures import (
    block_for,
    extractor_response,
    judge_response,
    pipeline_script,
    reason_response,
    write_script_file,
)
from stubserver import StubServer

DOC = "f" * 40
DOC2 = "0" * 39 + "1"
PAPER_ID = "b71b859da04440fe5f61613da6b223db9a74cf9c"


def _page(number: int, text: str, doc_id: str = DOC) -> PageRecord:
    return PageRecord(doc_id=doc_id, page_number=number, text=text)


def _pages_file(tmp_path: Path, pages: list[PageRecord]) -> Path:
    path = tmp_path / "pages.jsonl"
    write_jsonl(path, (p.to_dict() for p in pages))
    return path


def _config_file(tmp_path: Path, sections: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(sections), encoding="utf-8")
    return path


def _mock_config(tmp_path: Path, script: dict[tuple[str, str], str]) -> Path:
    script_path = write_script_file(tmp_path / "script.jsonl", script)
    return _config_file(
        tmp_path,
        {
            "backend": {
                "kind": "mock",
                "script": str(script_path),
                "call_log": str(tmp_path / "calls.jsonl"),
            },
            "paths": {"output": str(tmp_path / "out")},
        },
    )


def _two_page_cases() -> list:
    return [
        (_page(1, "We rely on the LSMS throughout."), ["LSMS"], [True], [True]),
        (_page(2, "The DHS informs this work."), ["DHS"], [True], [False]),
    ]


# ---------------------------------------------------------------------------
# configuration and exit codes


def test_missing_config_file_exits_2(tmp_path, capsys) -> None:
    code = main(
        ["--config", str(tmp_path / "nope.yaml"), "gate", "--out", str(tmp_path / "d.jsonl")]
    )
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_invalid_config_value_exits_2(tmp_path, capsys) -> None:
    cfg = _config_file(tmp_path, {"gate": {"threshold": 2.0}})
    code = main(["--config", str(cfg), "gate", "--out", str(tmp_path / "d.jsonl")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_missing_input_file_exits_3(tmp_path, capsys) -> None:
    code = main(
        [
            "score",
            "--predictions", str(tmp_path / "absent.jsonl"),
            "--gold", str(tmp_path / "also-absent.jsonl"),
        ]
    )
    assert code == 3
    assert "input error" in capsys.readouterr().err


def _tree(root: Path) -> dict[str, bytes | None]:
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.mark.parametrize("command", ["generate", "ingest"])
def test_a_pages_file_that_is_not_utf8_exits_3_and_changes_nothing(
    tmp_path, capsys, command
) -> None:
    cfg = _mock_config(tmp_path, pipeline_script(_two_page_cases()))
    store = tmp_path / "store"
    CorpusStore(store).ingest_pages([_page(3, "Stored before.")])
    pages = tmp_path / "latin1.jsonl"
    pages.write_bytes(
        dumps_line(_page(1, "We rely on the LSMS throughout.").to_dict())
        + b'{"doc_id": "' + DOC.encode() + b'", "page_number": 2, "text": "caf\xe9"}\n'
    )
    before = _tree(tmp_path)
    code = main(["--config", str(cfg), "--corpus-dir", str(store), command, "--pages", str(pages)])
    assert code == 3
    assert f"input error: {pages}: line 2 is not UTF-8" in capsys.readouterr().err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("command", ["generate", "ingest", "sample", "gate"])
@pytest.mark.parametrize("line, complaint", [
    ('{"doc_id": "x", page_number: 2}', " is not JSON"),
    ('{"doc_id": "' + DOC + '", "page_number": 2, "text": "LSMS\\ud800"}',
     " holds a lone surrogate"),
    ('{"doc_id": "' + DOC + '", "page_number": 2, "text": {"a": 1}}',
     ": the row has a field of the wrong type or value: text is an object, not text"),
], ids=["not JSON", "lone surrogate", "object text"])
def test_a_bad_pages_line_exits_3_naming_it_and_changes_nothing(tmp_path, capsys, command,
                                                                line, complaint) -> None:
    cfg = _mock_config(tmp_path, pipeline_script(_two_page_cases()))
    store = tmp_path / "store"
    CorpusStore(store).ingest_pages([_page(3, "Stored before.")])
    pages = tmp_path / "bad.jsonl"
    pages.write_bytes(dumps_line(_page(1, "We rely on the LSMS throughout.").to_dict())
                      + (line + "\n").encode("utf-8"))
    extra = {"sample": ["-n", "1", "--out", str(tmp_path / "sample.jsonl")],
             "gate": ["--out", str(tmp_path / "decisions.jsonl")]}.get(command, [])
    before = _tree(tmp_path)
    code = main(["--config", str(cfg), "--corpus-dir", str(store), command, "--pages", str(pages)]
                + extra)
    assert code == 3
    assert f"input error: {pages}: line 2{complaint}" in capsys.readouterr().err
    assert _tree(tmp_path) == before


def test_a_bad_pages_line_after_a_whole_batch_exits_3_and_changes_no_stored_byte(
    tmp_path, capsys
) -> None:
    store = tmp_path / "store"
    CorpusStore(store).ingest_pages([_page(1, "Stored before.")])
    before = _tree(store)
    pages = tmp_path / "pages.jsonl"
    pages.write_bytes(b"".join(dumps_line(_page(n, f"Page {n}.").to_dict())
                               for n in range(2, 102)) + b"{not json\n")
    assert main(["--corpus-dir", str(store), "ingest", "--pages", str(pages)]) == 3
    assert f"input error: {pages}: line 101 is not JSON" in capsys.readouterr().err
    assert _tree(store) == before


@pytest.mark.parametrize("page", ["1.9", "true"])
@pytest.mark.parametrize("command", ["ingest", "infer"])
def test_a_stored_page_number_that_is_not_an_integer_exits_3_naming_the_line(
    tmp_path, capsys, command, page
) -> None:
    cases = _two_page_cases()
    cfg = _mock_config(tmp_path, pipeline_script(cases))
    pages = _pages_file(tmp_path, [c[0] for c in cases])
    store = tmp_path / "store"
    argv = ["--config", str(cfg), "--corpus-dir", str(store), command, "--pages", str(pages)]
    if command == "ingest":
        path = CorpusStore(store).pages_path
        path.write_text(f'{{"doc_id": "{DOC}", "page_number": {page}, "text": "x"}}\n',
                        encoding="utf-8")
    else:
        argv += ["--out", str(tmp_path / "predictions.jsonl")]
        assert main(argv) == 0
        path = _bad_third_line(tmp_path / "out" / "infer" / "extracted.jsonl",
                               {"doc_id": DOC, "page_number": json.loads(page), "blocks": []})
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    line = 1 if command == "ingest" else 3
    assert f"input error: {path}: line {line}: " in err
    assert f"page_number is not an integer: {json.loads(page)!r}" in err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("damaged", ["decisions", "gold", "script"])
def test_a_row_without_its_fields_exits_3_naming_the_file(tmp_path, capsys, damaged) -> None:
    cases = _two_page_cases()
    cfg = _mock_config(tmp_path, pipeline_script(cases))
    pages = _pages_file(tmp_path, [c[0] for c in cases])
    predictions, gold = _score_fixture(tmp_path)
    decisions = tmp_path / "decisions.jsonl"
    write_jsonl(decisions, [{"doc_id": DOC, "page_number": 1, "passed": True}])
    script = tmp_path / "script.jsonl"
    path = {"decisions": decisions, "gold": gold, "script": script}[damaged]
    rows = list(read_jsonl(path))
    del rows[0]["doc_id" if damaged != "script" else "stage"]
    write_jsonl(path, rows)
    if damaged == "gold":
        argv = ["score", "--predictions", str(predictions), "--gold", str(gold)]
    else:
        argv = ["--config", str(cfg), "generate", "--pages", str(pages), "--decisions",
                str(decisions)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"input error: {path}: " in err and "lacks" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("damaged, line, complaint", [
    ("decisions", "[1, 2]", "line 1 is not a JSON object"),
    ("decisions", f'{{"doc_id": "{DOC}", "page_number": "two", "passed": true}}',
     "page_number is not an integer"),
    ("gold", "[1, 2]", "line 1 is not a JSON object"),
    ("gold", "null", "line 1 is not a JSON object"),
    ("gold", f'{{"doc_id": "{DOC}", "page_number": "two", "gold_names": ["LSMS"]}}',
     "wrong type"),
    ("gold", f'{{"doc_id": "{DOC}", "page_number": 1, "gold_names": null}}', "wrong type"),
    ("script", "[1, 2]", "line 1 is not a JSON object"),
    ("decisions", f'{{"doc_id": "{DOC}", "page_number": 1.9, "passed": true}}',
     "page_number is not an integer"),
    ("decisions", f'{{"doc_id": "{DOC}", "page_number": 1, "passed": "maybe"}}',
     "passed is not a boolean"),
    ("gold", f'{{"doc_id": "{DOC}", "page_number": 1, "gold_names": "DHS survey"}}',
     "wrong type"),
    ("gold", f'{{"doc_id": "{DOC}", "page_number": 1, "gold_names": ["LSMS", null]}}',
     "wrong type"),
    ("gold", f'{{"doc_id": "{DOC}", "page_number": 1.9, "gold_names": ["LSMS"]}}', "wrong type"),
    ("gold", f'{{"doc_id": "{DOC}", "page_number": true, "gold_names": ["LSMS"]}}',
     "wrong type"),
    ("gold", f'{{"doc_id": "{DOC}", "page_number": 1, "gold_names": [], "labels": ["LSMS"]}}',
     "wrong type"),
    ("script", '{"stage": 5, "user_content": "x", "response": "r"}', "stage is not a string"),
    ("script", '{"stage": "extractor", "user_content": "x", "response": 5}',
     "response is not a string"),
    ("script", '{"stage": "extractor", "digest": 5, "response": "r"}', "digest is not a string"),
    ("script", '{"stage": "extractor", "user_content": 5, "response": "r"}',
     "user_content is not a string"),
    ("gold", '{"doc_id": {"a": 1}, "page_number": 1, "gold_names": ["LSMS"]}',
     "doc_id is an object, not text"),
    ("decisions", '{"doc_id": ["d"], "page_number": 1, "passed": true}',
     "doc_id is an array, not text"),
], ids=["decisions array", "decisions page word", "gold array", "gold null", "gold page word",
        "gold names null", "script array", "decisions page float", "decisions passed word",
        "gold names string", "gold name null", "gold page float", "gold page bool",
        "gold labels list",
        "script stage number", "script response number", "script digest number",
        "script content number", "gold doc_id object", "decisions doc_id array"])
def test_a_row_of_the_wrong_shape_exits_3_naming_the_file(tmp_path, capsys, damaged, line,
                                                         complaint) -> None:
    cases = _two_page_cases()
    cfg = _mock_config(tmp_path, pipeline_script(cases))
    pages = _pages_file(tmp_path, [c[0] for c in cases])
    predictions, gold = _score_fixture(tmp_path)
    decisions = tmp_path / "decisions.jsonl"
    write_jsonl(decisions, [{"doc_id": DOC, "page_number": 1, "passed": True}])
    path = {"decisions": decisions, "gold": gold, "script": tmp_path / "script.jsonl"}[damaged]
    path.write_text(line + "\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
    if damaged == "gold":
        argv = ["score", "--predictions", str(predictions), "--gold", str(gold),
                "--out", str(tmp_path / "report.txt")]
    else:
        argv = ["--config", str(cfg), "generate", "--pages", str(pages), "--decisions",
                str(decisions)]
    before = _tree(tmp_path)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"input error: {path}: " in err and complaint in err
    assert _tree(tmp_path) == before


def test_a_stored_mention_with_an_unknown_label_exits_3_like_a_reply(tmp_path, capsys) -> None:
    cases = _two_page_cases()
    cfg = _mock_config(tmp_path, pipeline_script(cases))
    pages = _pages_file(tmp_path, [c[0] for c in cases])
    argv = ["--config", str(cfg), "generate", "--pages", str(pages)]
    assert main(argv + ["--stage", "extract"]) == 0
    extracted = tmp_path / "out" / "extracted.jsonl"
    text = extracted.read_text(encoding="utf-8")
    # a hand edit of the same length, so the committed line is still read whole
    old = '"raw_name": "LSMS", "mentioned_in": "We rely on the LSMS throughout."'
    new = '"raw_name": "LSMS", "context": "bogus", "mentioned_in": "We use LSMS"'
    assert len(old) == len(new) and old in text
    extracted.write_text(text.replace(old, new), encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 3
    assert "field 'context' has unknown value 'bogus'" in capsys.readouterr().err
    assert (tmp_path / "out" / "judged.jsonl").read_bytes() == b""


_STORED_MENTION = '"raw_name": "LSMS", "mentioned_in": "We rely on the LSMS throughout."'
_STORED_LABELS = [  # the file, a committed text in it, its hand edit, the complaint
    # the labels of a reply that would be dead-lettered
    ("out/extracted.jsonl", _STORED_MENTION,
     '"raw_name": "LSMS", "producer": [[1]], "year": {"a": 1}, "n": ""',
     "producer is an array, not text"),
    ("out/extracted.jsonl", _STORED_MENTION, '"raw_name": {"a": 1}, "n": ""',
     "raw_name is an object, not text"),
    ("store/pages.jsonl", '"text": "We rely on the LSMS throughout."', '"text": {"a": 1}, "n": ""',
     "text is an object, not text"),
]


def test_a_stored_label_that_is_an_object_or_an_array_exits_3_naming_the_line(
        tmp_path, capsys) -> None:
    cases = _two_page_cases()
    for n, (edited, old, new, complaint) in enumerate(_STORED_LABELS):
        root = tmp_path / str(n)
        root.mkdir()
        cfg = _mock_config(root, pipeline_script(cases))
        CorpusStore(root / "store").ingest_pages(c[0] for c in cases)
        argv = ["--config", str(cfg), "--corpus-dir", str(root / "store"), "generate"]
        assert main(argv + ["--stage", "extract"]) == 0
        path = root / edited
        text = path.read_text(encoding="utf-8")
        # a hand edit of the same length, so a committed line is still read whole; the
        # padding is an unknown field, ignored
        new = new[:-1] + "x" * (len(old) - len(new)) + '"'
        assert len(old) == len(new) and text.count(old) == 1
        path.write_text(text.replace(old, new), encoding="utf-8")
        before = _tree(root)
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"input error: {path}: line 1: " in err and complaint in err
        after = _tree(root)
        if edited == "out/extracted.jsonl":  # the judge stage opened its files, then read a row
            assert after.pop("out/judged.jsonl") == after.pop("out/checkpoints/judge.ckpt") == b""
        assert after == before  # no call logged, no byte changed


@pytest.mark.parametrize("side, line, complaint", [
    ("doccano", '{"page_number": "two", "text": "LSMS", "label": [[0, 4, "x"]]}', "wrong type"),
    ("doccano", '{"text": "LSMS", "label": [[0]]}', "wrong type"),
    ("doccano", '{"text": "LSMS", "label": [{"start": 0}]}', "wrong type"),
    ("doccano", '{"meta": "p1", "text": "LSMS"}', "wrong type"),
    ("doccano", '{"text": 5, "label": [[0, 4, "x"]]}', "wrong type"),
    ("nuextract", '{"page_number": "two", "data_mentions": []}', "wrong type"),
    ("nuextract", '{"data_mentions": [5]}', "wrong type"),
    ("nuextract", '{"data_mentions": 5}', "wrong type"),
    ("nuextract", '{"data_mentions": [{"datasets": ["LSMS"]}]}', "wrong type"),
    ("nuextract", '{"doc_id": "d"}', "lacks 'data_mentions'"),
    ("doccano", '{"page_number": 1.9, "text": "LSMS", "label": [[0, 4, "x"]]}', "wrong type"),
    ("nuextract", '{"page_number": 1.9, "data_mentions": []}', "wrong type"),
    ("nuextract", '{"data_mentions": [{"datasets": [{"raw_name": {"a": 1}}]}]}',
     "raw_name is an object, not text"),
    ("nuextract", '{"doc_id": ["d"], "data_mentions": []}', "doc_id is an array, not text"),
    ("doccano", '{"doc_id": {"a": 1}, "text": "LSMS", "label": [[0, 4, "x"]]}',
     "doc_id is an object, not text"),
    # an empty object is refused too, not passed over for the other doc_id field
    ("nuextract", '{"doc_id": {}, "source": "d", "data_mentions": []}',
     "doc_id is an object, not text"),
    ("doccano", '{"doc_id": {}, "meta": {"doc_id": "d"}, "text": "LSMS", "label": []}',
     "doc_id is an object, not text"),
], ids=["doccano page word", "doccano short span", "doccano span object", "doccano meta word",
        "doccano text number", "nuextract page word", "nuextract mention number",
        "nuextract mentions number", "nuextract dataset word", "nuextract no mentions",
        "doccano page float", "nuextract page float", "nuextract name object",
        "nuextract doc_id array", "doccano doc_id object", "nuextract doc_id empty object",
        "doccano doc_id empty object"])
def test_a_non_canonical_row_of_the_wrong_shape_exits_3_naming_the_file(
    tmp_path, capsys, side, line, complaint
) -> None:
    predictions, gold = _score_fixture(tmp_path)
    path = tmp_path / f"{side}.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    argv = ["score", "--predictions", str(predictions), "--gold", str(gold),
            "--out", str(tmp_path / "report.txt")]
    if side == "doccano":
        argv[4:5] = [str(path), "--gold-format", "doccano_export"]
    else:
        argv[2:3] = [str(path), "--adapter", "nuextract_template"]
    before = _tree(tmp_path)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"input error: {path}: " in err and complaint in err
    assert _tree(tmp_path) == before


def _row_file(path: Path, good: dict, bad: dict) -> Path:
    """A file whose line 1 is ``good``, line 2 blank and line 3 ``bad``."""
    path.write_bytes(dumps_line(good) + b"\n" + dumps_line(bad))
    return path


def _bad_third_line(path: Path, bad: dict) -> Path:
    """Rewrite a two-line stage file as its line 1, a blank line and ``bad``, in as many bytes.

    Every offset a checkpoint commits still ends a line, so a run reads the file.
    """
    first, second = path.read_bytes().splitlines()
    room = len(second) - len(dumps_line({**bad, "pad": ""}))
    assert room >= 0
    path.write_bytes(first + b"\n\n" + dumps_line({**bad, "pad": "x" * room}))
    return path


_GOOD_PAGE = {"doc_id": DOC, "page_number": 1, "text": "We rely on the LSMS throughout."}
_STAGE_READS = ["generate", "generate --dry-run"]


def _reader_case(reader: str, tmp_path: Path, cfg: Path, pages: Path):
    """(the file, its library-level reads, the commands that read it) for ``reader``."""
    store, out = tmp_path / "store", tmp_path / "out"
    cases = _two_page_cases()
    page_list = [c[0] for c in cases]
    script = pipeline_script(cases)
    _, gold = _score_fixture(tmp_path)
    predictions = tmp_path / "predictions.jsonl"
    score = ["score", "--predictions", str(predictions), "--gold", str(gold)]
    run = [lambda: run_pipeline(page_list, MockChatBackend(script), output_dir=out),
           lambda: plan_pipeline(page_list, output_dir=out)]
    if reader == "decisions":
        path = _row_file(tmp_path / "decisions.jsonl",
                         {"doc_id": DOC, "page_number": 1, "passed": True},
                         {"doc_id": DOC, "page_number": "two", "passed": True})
        return path, [lambda: _apply_decisions([], str(path))], [
            f"generate --pages {pages} --decisions {path}"]
    if reader == "pages":
        path = _row_file(tmp_path / "bad-pages.jsonl", _GOOD_PAGE,
                         {"doc_id": DOC, "page_number": 2})
        return path, [lambda: _load_pages(None, str(path))], [
            f"generate --pages {path}", f"gate --pages {path} --out {tmp_path / 'd.jsonl'}",
            f"sample --pages {path} -n 1 --out {tmp_path / 's.jsonl'}", f"ingest --pages {path}",
            f"infer --pages {path} --out {tmp_path / 'p.jsonl'}",
            f"export-finetune --pages {path}"]
    if reader == "store":
        path = _row_file(CorpusStore(store).pages_path, _GOOD_PAGE,
                         {"doc_id": DOC, "page_number": "two", "text": "x"})
        return path, [lambda: CorpusStore(store).iter_pages(),
                      lambda: CorpusStore(store).ingest_pages([_page(3, "x")])], [
            "generate", f"gate --out {tmp_path / 'd.jsonl'}", f"ingest --pages {pages}"]
    if reader in ("canonical", "nuextract_template"):
        good, bad = {"doc_id": DOC, "page_number": 2, "predicted_names": []}, {
            "doc_id": DOC, "page_number": 1, "predicted_names": "LSMS"}
        if reader == "nuextract_template":
            good, bad = {"doc_id": DOC, "data_mentions": []}, {"data_mentions": 5}
        path = _row_file(predictions, good, bad)
        return path, [lambda: import_predictions(path, reader)], [
            " ".join(score + ["--adapter", reader])]
    if reader in ("gold", "doccano_export"):
        good, bad = {"doc_id": DOC, "page_number": 2, "gold_names": []}, {
            "doc_id": DOC, "page_number": 1, "gold_names": "DHS survey"}
        fmt = "canonical"
        if reader == "doccano_export":
            good, bad = {"text": "LSMS", "label": [[0, 4, "x"]]}, {"text": "LSMS", "label": [[0]]}
            fmt = reader
        path = _row_file(gold, good, bad)
        return path, [lambda: import_annotations(path, fmt)], [
            " ".join(score + ["--gold-format", fmt])]
    if reader == "script":
        path = _row_file(tmp_path / "script.jsonl",
                         {"stage": "extractor", "user_content": "x", "response": "[]"},
                         {"stage": 5, "user_content": "x", "response": "r"})
        return path, [lambda: MockChatBackend.from_script_file(path)], [f"generate --pages {pages}"]
    if reader == "assessed":
        path = _row_file(tmp_path / "assessed.jsonl",
                         {"block": {"source": DOC, "page": 1}, "assessments": []}, {"x": 1})
        return path, [lambda: export_finetune_records([], path, tmp_path / "ft.jsonl")], [
            f"export-finetune --pages {pages} --assessed {path} --out {tmp_path / 'ft.jsonl'}"]
    if reader == "infer":
        assert main(["--config", str(cfg), "infer", "--pages", str(pages),
                     "--out", str(predictions)]) == 0
        path = _bad_third_line(out / "infer" / "extracted.jsonl",
                               {"doc_id": DOC, "page_number": 2, "blocks": 5})
        return path, [], [f"infer --pages {pages} --out {predictions}"]
    assert main(["--config", str(cfg), "generate", "--pages", str(pages)]) == 0
    if reader == "checkpoint":
        ckpt = out / "checkpoints" / "extract.ckpt"
        last = json.loads(ckpt.read_bytes().splitlines()[1])
        del last["key"]  # the offsets and counters stay for the checkpoint's load
        return _bad_third_line(ckpt, last), run, [f"{c} --pages {pages}" for c in _STAGE_READS]
    stats = lambda: compute_stats(out)  # noqa: E731
    if reader == "extracted":
        path = _bad_third_line(out / "extracted.jsonl",
                               {"doc_id": DOC, "page_number": 2, "blocks": 5})
        return path, run + [stats], [f"{c} --pages {pages}" for c in _STAGE_READS]
    if reader == "judged":
        path = _bad_third_line(out / "judged.jsonl", {"block": 5, "verdicts": 5})
        return path, run + [stats], [f"{c} --pages {pages}" for c in _STAGE_READS]
    assert reader == "stage-assessed"
    path = _bad_third_line(out / "assessed.jsonl", {"block": 5, "assessments": 5})
    return path, [stats], [f"export-finetune --pages {pages}"]


@pytest.mark.parametrize("reader", [
    "decisions", "pages", "store", "canonical", "nuextract_template", "gold", "doccano_export",
    "script", "assessed", "infer", "checkpoint", "extracted", "judged", "stage-assessed",
])
def test_every_row_reader_names_the_file_and_the_line_of_a_bad_row(tmp_path, capsys,
                                                                   reader) -> None:
    cfg = _mock_config(tmp_path, pipeline_script(_two_page_cases()))
    pages = _pages_file(tmp_path, [c[0] for c in _two_page_cases()])
    path, reads, commands = _reader_case(reader, tmp_path, cfg, pages)
    for read in reads:
        with pytest.raises(InvalidRecord, match=re.escape(f"{path}: line 3: ")):
            read()
    capsys.readouterr()
    for command in commands:
        argv = ["--config", str(cfg), "--corpus-dir", str(tmp_path / "store"), *command.split()]
        assert main(argv) == 3, command
        assert f"input error: {path}: line 3: " in capsys.readouterr().err, command


@pytest.mark.parametrize("page", [0, ""])
@pytest.mark.parametrize("side", ["nuextract_template", "doccano_export"])
def test_an_adapter_reads_a_page_number_as_the_canonical_readers_do(tmp_path, side,
                                                                    page) -> None:
    path = tmp_path / f"{side}.jsonl"
    if side == "nuextract_template":
        row = {"doc_id": DOC, "page_number": page, "page": 3, "data_mentions": []}
        canonical = {"doc_id": DOC, "page_number": page, "predicted_names": []}
        read = lambda p, fmt: import_predictions(p, fmt)  # noqa: E731
    else:
        row = {"doc_id": DOC, "page_number": page, "meta": {"page_number": 3}, "text": ""}
        canonical = {"doc_id": DOC, "page_number": page, "gold_names": []}
        read = lambda p, fmt: import_annotations(p, fmt)[0]  # noqa: E731
    write_jsonl(path, [row])
    write_jsonl(tmp_path / "canonical.jsonl", [canonical])
    if page == "":  # not an integer, in either format
        for fmt, source in ((side, path), ("canonical", tmp_path / "canonical.jsonl")):
            with pytest.raises(InvalidRecord, match="page_number is not an integer"):
                read(source, fmt)
    else:
        (record,) = read(path, side)
        (expected,) = read(tmp_path / "canonical.jsonl", "canonical")
        assert record.page_number == expected.page_number == 0


def test_a_same_length_edit_of_a_stored_label_exits_3_naming_the_line(tmp_path, capsys) -> None:
    page = _page(1, "We rely on the LSMS throughout.")
    labelled = {"raw_name": "LSMS", "context": "primary"}
    block, _ = parse_mention_block({"mentioned_in": page.text, "datasets": [labelled],
                                    "source": DOC, "page": 1})
    block_key = request_digest("judge", canonical_json(block.to_dict()))
    script = {
        ("extractor", request_digest("extractor", page.text)):
            json.dumps([{**labelled, "mentioned_in": page.text}]),
        ("judge", block_key): judge_response(block, [True]),
        ("reasoner", request_digest("reasoner", canonical_json(block.to_dict()))):
            reason_response(block, [True]),
    }
    cfg = _mock_config(tmp_path, script)
    argv = ["--config", str(cfg), "generate", "--pages", str(_pages_file(tmp_path, [page]))]
    assert main(argv) == 0
    extracted = tmp_path / "out" / "extracted.jsonl"
    text = extracted.read_text(encoding="utf-8")
    assert text.count('"context": "primary"') == 1
    extracted.write_text(text.replace('"primary"', '"zzzzzzz"'), encoding="utf-8")
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"input error: {extracted}: line 1: " in err
    assert "field 'context' has unknown value 'zzzzzzz'" in err
    assert _tree(tmp_path) == before  # no call logged, no byte changed


# ---------------------------------------------------------------------------
# score


def _score_fixture(tmp_path: Path) -> tuple[Path, Path]:
    gold = tmp_path / "gold.jsonl"
    write_jsonl(
        gold,
        [{"doc_id": DOC, "page_number": 1, "gold_names": ["LSMS"]}],
    )
    predictions = tmp_path / "predictions.jsonl"
    write_jsonl(
        predictions,
        [{"doc_id": DOC, "page_number": 1, "predicted_names": ["LSMS", "Bogus"]}],
    )
    return predictions, gold


def test_score_renders_text_report(tmp_path, capsys) -> None:
    predictions, gold = _score_fixture(tmp_path)
    code = main(["score", "--predictions", str(predictions), "--gold", str(gold)])
    out = capsys.readouterr().out
    assert code == 0
    assert "precision" in out and "50.00" in out
    assert "tp=1  fp=1  fn=0" in out


def test_score_json_report_and_out_file(tmp_path, capsys) -> None:
    predictions, gold = _score_fixture(tmp_path)
    report_path = tmp_path / "report.json"
    code = main(
        [
            "score",
            "--predictions", str(predictions),
            "--gold", str(gold),
            "--format", "json",
            "--out", str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["tp"], report["fp"], report["fn"]) == (1, 1, 0)
    assert report["precision"] == 50.0 and report["recall"] == 100.0
    assert json.loads(report_path.read_text(encoding="utf-8")) == report


def test_score_beta_override(tmp_path, capsys) -> None:
    predictions, gold = _score_fixture(tmp_path)
    code = main(
        [
            "score",
            "--predictions", str(predictions),
            "--gold", str(gold),
            "--beta", "1.0",
            "--format", "json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["beta"] == 1.0
    assert report["f_beta"] == 66.67


# ---------------------------------------------------------------------------
# gate


def test_gate_writes_decisions(tmp_path, capsys) -> None:
    cfg = _config_file(tmp_path, {"gate": {"kind": "keyword"}})
    pages = _pages_file(
        tmp_path,
        [_page(1, "We analyze a new dataset here."), _page(2, "Completely unrelated prose.")],
    )
    out = tmp_path / "decisions.jsonl"
    code = main(
        ["--config", str(cfg), "gate", "--pages", str(pages), "--out", str(out)]
    )
    assert code == 0
    assert "gate passed 1 of 2 pages" in capsys.readouterr().out
    rows = list(read_jsonl(out))
    assert [(r["page_number"], r["passed"]) for r in rows] == [(1, True), (2, False)]


def test_gate_defaults_to_output_dir(tmp_path, capsys) -> None:
    cfg = _config_file(tmp_path, {"gate": {"kind": "keyword"}})
    pages = _pages_file(tmp_path, [_page(1, "A census underpins the analysis.")])
    code = main(
        [
            "--config", str(cfg),
            "--output-dir", str(tmp_path / "out"),
            "gate",
            "--pages", str(pages),
        ]
    )
    assert code == 0
    assert (tmp_path / "out" / "gate_decisions.jsonl").exists()


def _closed_sessions(monkeypatch) -> list[requests.Session]:
    """Record every ``requests.Session`` closed from now on."""
    closed: list[requests.Session] = []
    close = requests.Session.close
    monkeypatch.setattr(requests.Session, "close",
                        lambda session: closed.append(session) or close(session))
    return closed


def test_remote_gate_pages_share_pooled_connections(tmp_path, monkeypatch) -> None:
    pages = [_page(n, f"Page {n} of plain prose.") for n in range(1, 41)]
    pages_file = _pages_file(tmp_path, pages)
    out = tmp_path / "decisions.jsonl"
    closed = _closed_sessions(monkeypatch)
    with StubServer([{"body": "0.7"}]) as server:
        cfg = _config_file(tmp_path, {"gate": {"kind": "remote", "endpoint": server.url}})
        code = main(["--config", str(cfg), "gate", "--pages", str(pages_file), "--out", str(out)])
        assert len(closed) == 1  # the command closes its session, and its connections
        pooled = {request["client"][1] for request in server.requests}
        _, unpooled = filter_pages(pages, RemoteGate(endpoint=server.url))
    assert code == 0
    assert len(server.requests) == 80
    assert 1 <= len(pooled) <= 8  # the gate scores eight pages at a time
    assert list(read_jsonl(out)) == [decision.to_dict() for decision in unpooled]


def test_local_commands_never_import_the_http_stack(tmp_path) -> None:
    # a fresh interpreter: this module imports requests itself
    cases = [
        (_page(1, "We rely on the LSMS survey throughout."), ["LSMS"], [True], [True]),
        (_page(2, "Completely unrelated prose."), [], [], []),
    ]
    cfg = _mock_config(tmp_path, pipeline_script(cases))
    config = json.loads(cfg.read_text(encoding="utf-8"))
    config["gate"] = {"kind": "keyword"}
    cfg.write_text(json.dumps(config), encoding="utf-8")
    pages = _pages_file(tmp_path, [c[0] for c in cases])
    predictions, gold = _score_fixture(tmp_path)
    commands = [
        ["--config", str(cfg), "gate", "--pages", str(pages)],
        ["--config", str(cfg), "generate", "--pages", str(pages),
         "--decisions", str(tmp_path / "out" / "gate_decisions.jsonl")],
        ["score", "--predictions", str(predictions), "--gold", str(gold)],
    ]
    script = (
        "import json, sys\n"
        "import datamentions\n"
        "import datamentions.cli\n"
        "codes = [datamentions.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "http = [name for name in ('requests', 'urllib3') if name in sys.modules]\n"
        "print(json.dumps([codes, http]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0, 0], []]
    assert len(list(read_jsonl(tmp_path / "calls.jsonl"))) == 3  # the page that passed the gate, through all three stages


# ---------------------------------------------------------------------------
# generate


def test_generate_runs_all_stages(tmp_path, capsys) -> None:
    cases = _two_page_cases()
    cfg = _mock_config(tmp_path, pipeline_script(cases))
    pages = _pages_file(tmp_path, [c[0] for c in cases])
    code = main(["--config", str(cfg), "generate", "--pages", str(pages)])
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["pages_processed"] == 2
    assert stats["mentions_extracted"] == 2
    assert stats["mentions_judged_valid"] == 2
    assert stats["mentions_agent_valid"] == 1
    assert stats["retention_after_agent"] == 0.5
    out_dir = tmp_path / "out"
    assert stats == compute_stats(out_dir).to_dict()
    for name in ("extracted.jsonl", "judged.jsonl", "assessed.jsonl", "stats.json"):
        assert (out_dir / name).exists()
    assert not (out_dir / ".lock").exists()
    assert len(list(read_jsonl(tmp_path / "calls.jsonl"))) == 6


def test_remote_generate_pools_one_connection_per_worker(tmp_path, monkeypatch, capsys) -> None:
    monkeypatch.setenv("TEST_CHAT_KEY", "sk-test")
    pages = _pages_file(tmp_path, [_page(n, f"Page {n} names no data.") for n in range(1, 7)])
    closed = _closed_sessions(monkeypatch)
    reply = {"choices": [{"message": {"content": "[]"}}]}
    with StubServer([{"body": reply}]) as server:
        cfg = _config_file(tmp_path, {
            "endpoint": {"base_url": server.url, "api_key_env": "TEST_CHAT_KEY"},
            "backend": {"kind": "remote"},
            "execution": {"concurrency": 2},
            "paths": {"output": str(tmp_path / "out")},
        })
        code = main(["--config", str(cfg), "generate", "--pages", str(pages)])
        assert len(closed) == 1
        ports = {request["client"][1] for request in server.requests}
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["pages_processed"] == 6
    assert stats == compute_stats(tmp_path / "out").to_dict()
    assert len(server.requests) == 6  # one extract call per page, and nothing to judge
    assert 1 <= len(ports) <= 2  # 6 ports, one per call, without a pooled session


def test_generate_respects_gate_decisions(tmp_path, capsys) -> None:
    cases = _two_page_cases()
    cfg = _mock_config(tmp_path, pipeline_script(cases))
    pages = _pages_file(tmp_path, [c[0] for c in cases])
    decisions = tmp_path / "decisions.jsonl"
    write_jsonl(
        decisions,
        [
            {"doc_id": DOC, "page_number": 1, "passed": True},
            {"doc_id": DOC, "page_number": 2, "passed": False},
        ],
    )
    code = main(
        [
            "--config", str(cfg),
            "generate",
            "--pages", str(pages),
            "--decisions", str(decisions),
        ]
    )
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["pages_processed"] == 1
    assert stats == compute_stats(tmp_path / "out").to_dict()
    assert len(list(read_jsonl(tmp_path / "calls.jsonl"))) == 3


def test_generate_reads_passed_flags_written_as_strings(tmp_path, capsys) -> None:
    cases = _two_page_cases()
    cfg = _mock_config(tmp_path, pipeline_script(cases))
    pages = _pages_file(tmp_path, [c[0] for c in cases])
    decisions = tmp_path / "decisions.jsonl"
    write_jsonl(decisions, [{"doc_id": DOC, "page_number": 1, "passed": "true"},
                            {"doc_id": DOC, "page_number": 2, "passed": "false"}])
    argv = ["--config", str(cfg), "generate", "--pages", str(pages), "--decisions", str(decisions)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["pages_processed"] == 1


def test_generate_dry_run_prints_plan(tmp_path, capsys) -> None:
    pages = _pages_file(tmp_path, [c[0] for c in _two_page_cases()])
    code = main(
        [
            "--output-dir", str(tmp_path / "out"),
            "generate",
            "--pages", str(pages),
            "--stage", "extract",
            "--dry-run",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "2 pending items, 2 backend calls" in out
    assert "total backend calls: 2" in out


def test_generate_dry_run_marks_downstream_stages_unknown(tmp_path, capsys) -> None:
    pages = _pages_file(tmp_path, [c[0] for c in _two_page_cases()])
    code = main(
        ["--output-dir", str(tmp_path / "out"), "generate", "--pages", str(pages), "--dry-run"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "input not available yet" in out
    assert "total backend calls: unknown" in out


def test_generate_dry_run_marks_stages_unknown_while_their_input_will_grow(tmp_path,
                                                                          capsys) -> None:
    cases = [(_page(n, f"Page {n} relies on the LSMS."), ["LSMS"], [True], [True])
             for n in (1, 2, 3, 4)]
    cfg = _mock_config(tmp_path, pipeline_script(cases))
    argv = ["--config", str(cfg), "generate", "--pages"]
    assert main(argv + [str(_pages_file(tmp_path, [c[0] for c in cases[:2]]))]) == 0
    pages = str(_pages_file(tmp_path, [c[0] for c in cases]))
    capsys.readouterr()
    assert main(argv + [pages, "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "stage extract — 2 pending items, 2 backend calls" in out
    assert "total backend calls: unknown" in out
    calls = tmp_path / "calls.jsonl"
    before = len(calls.read_text(encoding="utf-8").splitlines())
    assert main(argv + [pages]) == 0
    assert len(calls.read_text(encoding="utf-8").splitlines()) - before == 6


def test_generate_unscripted_backend_exits_4(tmp_path, capsys) -> None:
    cfg = _mock_config(tmp_path, {})
    pages = _pages_file(tmp_path, [_page(1, "An unscripted page.")])
    code = main(["--config", str(cfg), "generate", "--pages", str(pages)])
    assert code == 4
    assert "pipeline interrupted" in capsys.readouterr().err
    assert not (tmp_path / "out" / ".lock").exists()


def test_generate_partial_progress_exits_5_then_resumes(tmp_path, capsys) -> None:
    cases = _two_page_cases()
    extract_entries = [
        item for item in pipeline_script(cases).items() if item[0][0] == "extractor"
    ]
    # script only page 1's extraction; page 2 interrupts the stage mid-way
    cfg_partial = _mock_config(tmp_path, dict(extract_entries[:1]))
    pages = _pages_file(tmp_path, [c[0] for c in cases])
    code = main(
        ["--config", str(cfg_partial), "generate", "--pages", str(pages), "--stage", "extract"]
    )
    assert code == 5
    assert "pipeline interrupted" in capsys.readouterr().err
    assert len(list(read_jsonl(tmp_path / "out" / "extracted.jsonl"))) == 1
    assert not (tmp_path / "out" / ".lock").exists()

    write_script_file(tmp_path / "script.jsonl", pipeline_script(cases))
    code = main(["--config", str(cfg_partial), "generate", "--pages", str(pages)])
    assert code == 0
    assert len(list(read_jsonl(tmp_path / "out" / "extracted.jsonl"))) == 2
    # the only repeated request is page 2's extraction, which failed before
    # the interrupt; completed work is never re-sent
    logged = [(row["stage"], row["digest"]) for row in read_jsonl(tmp_path / "calls.jsonl")]
    repeats = {entry for entry in logged if logged.count(entry) > 1}
    failed_extract = extract_entries[1][0]
    assert repeats == {failed_extract}


def _planned_total(capsys) -> int:
    out = capsys.readouterr().out
    return int(out.rsplit("total backend calls: ", 1)[1].split()[0])


class _HeldBack:
    """A backend whose answer to ``held`` waits until it has answered a ``later`` text.

    The run waits for its running attempts before it stops, so the later
    item's reply reaches the ledger whatever the threads' timing.
    """

    def __init__(self, backend, held: str, later: set[str]):
        self.backend, self.held, self.later = backend, held, later
        self.answered_later = threading.Event()

    def complete(self, request):
        if request.user_content == self.held:
            assert self.answered_later.wait(timeout=60)
        reply = self.backend.complete(request)
        if request.user_content in self.later:
            self.answered_later.set()
        return reply


def test_dry_run_after_an_interrupted_run_counts_the_calls_its_resume_issues(
    tmp_path, capsys, monkeypatch
) -> None:
    pages = [_page(n, f"Page {n} names no data.") for n in range(1, 41)]
    script = pipeline_script([(page, [], [], []) for page in pages])
    # page 24 is unscripted: the run stops there, with the replies of up to
    # 2 * concurrency items after it in the ledger and none of them committed
    down = ("extractor", request_digest("extractor", pages[23].text))
    cfg = _mock_config(tmp_path, {key: text for key, text in script.items() if key != down})
    config = json.loads(cfg.read_text(encoding="utf-8"))
    config["execution"] = {"concurrency": 4}
    cfg.write_text(json.dumps(config), encoding="utf-8")
    argv = ["--config", str(cfg), "generate", "--pages", str(_pages_file(tmp_path, pages)),
            "--stage", "extract"]
    build = cli._build_backend
    monkeypatch.setattr(cli, "_build_backend", lambda *args: _HeldBack(
        build(*args), pages[23].text, {page.text for page in pages[24:]}))
    assert main(argv) == 5
    monkeypatch.undo()
    capsys.readouterr()
    recorded = len(list(read_jsonl(tmp_path / "out" / "replies.jsonl")))
    committed = len(list(read_jsonl(tmp_path / "out" / "extracted.jsonl")))
    assert recorded > committed == 23

    write_script_file(tmp_path / "script.jsonl", script)
    assert main(argv + ["--dry-run"]) == 0
    planned = _planned_total(capsys)
    calls_before = len(list(read_jsonl(tmp_path / "calls.jsonl")))
    assert main(argv) == 0
    issued = len(list(read_jsonl(tmp_path / "calls.jsonl"))) - calls_before
    assert planned == issued == len(pages) - recorded


def test_a_lengthened_committed_line_exits_3_and_changes_nothing(tmp_path, capsys) -> None:
    cases = _two_page_cases()
    cfg = _mock_config(tmp_path, pipeline_script(cases))
    pages = _pages_file(tmp_path, [c[0] for c in cases])
    argv = ["--config", str(cfg), "generate", "--pages", str(pages)]
    assert main(argv + ["--stage", "extract"]) == 0
    extracted = tmp_path / "out" / "extracted.jsonl"
    data = extracted.read_bytes()
    extracted.write_bytes(data.replace(b'"mentioned_in"', b'"context": "primary", "mentioned_in"', 1))
    before = _tree(tmp_path / "out")
    capsys.readouterr()

    for extra in (["--dry-run"], []):
        assert main(argv + extra) == 3
        assert "extracted.jsonl" in capsys.readouterr().err
        assert _tree(tmp_path / "out") == before


def _completion(text: str) -> dict:
    return {"body": {"choices": [{"message": {"content": text}}],
                     "usage": {"prompt_tokens": 11, "completion_tokens": 7}}}


def test_a_remote_run_replayed_from_its_ledger_gives_the_same_bytes(
    tmp_path, monkeypatch, capsys
) -> None:
    monkeypatch.setenv("TEST_CHAT_KEY", "sk-test")
    kept, retried = _page(1, "We rely on the LSMS throughout."), _page(2, "The DHS informs this work.")
    garbled = _page(3, "This page draws garbled replies.")
    blocks = [block_for(kept, ["LSMS"]), block_for(retried, ["DHS"])]
    replies = [  # in the order a one-worker run asks
        extractor_response(["LSMS"], kept.text),
        "{not json", extractor_response(["DHS"], retried.text),  # parsed at the second attempt
        "{not json", "[{", "{not json",  # a dead letter
        judge_response(blocks[0], [True]), judge_response(blocks[1], [True]),
        reason_response(blocks[0], [True]), reason_response(blocks[1], [False]),
    ]
    pages = _pages_file(tmp_path, [kept, retried, garbled])
    with StubServer([_completion(text) for text in replies]) as server:
        remote = _config_file(tmp_path, {
            "endpoint": {"base_url": server.url, "api_key_env": "TEST_CHAT_KEY"},
            "backend": {"kind": "remote"},
            "paths": {"output": str(tmp_path / "remote")},
        })
        assert main(["--config", str(remote), "generate", "--pages", str(pages)]) == 0
        assert len(server.requests) == len(replies)
    ledger = list(read_jsonl(tmp_path / "remote" / "replies.jsonl"))
    assert [line["response"] for line in ledger] == replies
    assert all(line["usage"] == {"prompt_tokens": 11, "completion_tokens": 7}
               and line["latency_s"] > 0 for line in ledger)

    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps({
        "backend": {"kind": "mock", "script": str(tmp_path / "remote" / "replies.jsonl")},
        "paths": {"output": str(tmp_path / "replayed")},
    }), encoding="utf-8")
    assert main(["--config", str(replay), "generate", "--pages", str(pages)]) == 0
    for name in ("extracted.jsonl", "judged.jsonl", "assessed.jsonl", "deadletter.jsonl",
                 "stats.json"):
        assert (tmp_path / "replayed" / name).read_bytes() == (
            tmp_path / "remote" / name).read_bytes(), name
    assert len((tmp_path / "remote" / "deadletter.jsonl").read_bytes().splitlines()) == 1


def test_generate_locked_output_dir_exits_3(tmp_path, capsys) -> None:
    cases = _two_page_cases()
    cfg = _mock_config(tmp_path, pipeline_script(cases))
    pages = _pages_file(tmp_path, [c[0] for c in cases])
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    with open(out_dir / ".lock", "w") as held:  # another open file description
        fcntl.flock(held, fcntl.LOCK_EX)
        code = main(["--config", str(cfg), "generate", "--pages", str(pages)])
    assert code == 3
    assert "locked" in capsys.readouterr().err
    assert (out_dir / ".lock").exists(), "a foreign lock must not be removed"


def test_lock_file_left_by_a_crash_blocks_nothing(tmp_path, capsys) -> None:
    cases = _two_page_cases()
    cfg = _mock_config(tmp_path, pipeline_script(cases))
    pages = _pages_file(tmp_path, [c[0] for c in cases])
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / ".lock").write_text("12345\n", encoding="utf-8")
    code = main(["--config", str(cfg), "generate", "--pages", str(pages)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["pages_processed"] == 2
    assert not (out_dir / ".lock").exists()


def test_lock_is_released_when_its_holder_is_killed(tmp_path) -> None:
    holder = subprocess.Popen(
        [sys.executable, "-c",
         "import sys, time; from pathlib import Path; from datamentions.cli import _advisory_lock\n"
         "with _advisory_lock(Path(sys.argv[1])):\n"
         "    print('held', flush=True); time.sleep(60)",
         str(tmp_path)],
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    try:
        assert holder.stdout.readline() == "held\n"
        with pytest.raises(InputError, match="locked by another run"):
            with _advisory_lock(tmp_path):
                pass
    finally:
        holder.kill()
        holder.wait(timeout=30)
        holder.stdout.close()
    assert (tmp_path / ".lock").exists()  # killed before it could clean up
    with _advisory_lock(tmp_path):
        with pytest.raises(InputError, match="locked by another run"):
            with _advisory_lock(tmp_path):
                pass
    assert not (tmp_path / ".lock").exists()


# ---------------------------------------------------------------------------
# sample and split


def test_sample_is_seeded_and_deterministic(tmp_path, capsys) -> None:
    pages = _pages_file(tmp_path, [_page(n, f"Page {n} text.") for n in range(1, 11)])
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    for out in (first, second):
        code = main(
            ["--seed", "99", "sample", "--pages", str(pages), "-n", "3", "--out", str(out)]
        )
        assert code == 0
    assert "sampled 3 of 10 pages" in capsys.readouterr().out
    assert first.read_bytes() == second.read_bytes()
    assert len(list(read_jsonl(first))) == 3


def test_split_by_counts(tmp_path, capsys) -> None:
    records = tmp_path / "records.jsonl"
    lines = [json.dumps({"id": n}) for n in range(10)]
    records.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    out_dir = tmp_path / "splits"
    code = main(
        [
            "split",
            "--records", str(records),
            "--train", "5", "--val", "2", "--test", "1",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    assert "train=5 val=2 test=1 leftover=2" in capsys.readouterr().out
    parts = {
        name: (out_dir / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
        for name in ("train", "val", "test", "leftover")
    }
    assert [len(parts[n]) for n in ("train", "val", "test", "leftover")] == [5, 2, 1, 2]
    combined = sum(parts.values(), [])
    assert sorted(combined) == sorted(lines)


def test_split_by_ratios_covers_everything(tmp_path) -> None:
    records = tmp_path / "records.jsonl"
    records.write_text(
        "".join(json.dumps({"id": n}) + "\n" for n in range(10)), encoding="utf-8"
    )
    out_dir = tmp_path / "splits"
    code = main(
        ["split", "--records", str(records), "--ratios", "0.8,0.1,0.1", "--out-dir", str(out_dir)]
    )
    assert code == 0
    sizes = [
        len((out_dir / f"{name}.jsonl").read_text(encoding="utf-8").splitlines())
        for name in ("train", "val", "test")
    ]
    assert sizes == [8, 1, 1]
    assert not (out_dir / "leftover.jsonl").exists()


def test_split_keeps_a_record_that_holds_a_line_separator_whole(tmp_path, capsys) -> None:
    rows = [{"id": 1, "text": "one\u2028two"}, {"id": 2, "text": "next\x85line"},
            {"id": 3, "text": "para\u2029graph"}]
    lines = [dumps_line(row) for row in rows]
    records = tmp_path / "records.jsonl"
    records.write_bytes(lines[0] + b"\n" + lines[1] + lines[2])  # a blank line is skipped
    out_dir = tmp_path / "splits"
    code = main(["split", "--records", str(records), "--train", "1", "--val", "1",
                 "--test", "1", "--out-dir", str(out_dir)])
    assert code == 0
    assert "split 3 records -> train=1 val=1 test=1 leftover=0" in capsys.readouterr().out
    written = [(out_dir / f"{name}.jsonl").read_bytes() for name in ("train", "val", "test")]
    assert sorted(written) == sorted(lines)
    assert sorted(json.loads(line)["id"] for line in written) == [1, 2, 3]


def test_split_requires_counts_or_ratios(tmp_path, capsys) -> None:
    records = tmp_path / "records.jsonl"
    records.write_text("{}\n", encoding="utf-8")
    code = main(["split", "--records", str(records), "--out-dir", str(tmp_path / "s")])
    assert code == 3
    assert "supply --train/--val/--test counts or --ratios" in capsys.readouterr().err


@pytest.mark.parametrize(
    "records_bytes, ratios, message",
    [
        (b'{"id": 1}\n', "0.8,x,0.1", "--ratios needs three comma-separated numbers"),
        (b'{"id": 1}\n', "0.5,0.5", "--ratios needs three comma-separated numbers"),
        (b'{"id": 1}\n', "0.8,0.1,nan", "ratios must be three finite non-negative numbers"),
        (b'{"id": 1}\n', "0.5,inf,0.1", "ratios must be three finite non-negative numbers"),
        (b'{"id": "caf\xe9"}\n', "0.8,0.1,0.1", "records.jsonl is not UTF-8"),
    ],
    ids=["word", "two-parts", "nan", "inf", "not-utf8"],
)
def test_split_refuses_bad_ratios_and_records_with_exit_3(
    tmp_path, capsys, records_bytes, ratios, message
) -> None:
    records = tmp_path / "records.jsonl"
    records.write_bytes(records_bytes)
    out_dir = tmp_path / "splits"
    code = main(["split", "--records", str(records), "--ratios", ratios, "--out-dir", str(out_dir)])
    assert code == 3
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# export-finetune


def test_export_finetune_after_generate(tmp_path, capsys) -> None:
    cases = _two_page_cases()
    cfg = _mock_config(tmp_path, pipeline_script(cases))
    pages = _pages_file(tmp_path, [c[0] for c in cases])
    assert main(["--config", str(cfg), "generate", "--pages", str(pages)]) == 0
    out = tmp_path / "finetune.jsonl"
    code = main(
        [
            "--config", str(cfg),
            "export-finetune",
            "--pages", str(pages),
            "--out", str(out),
            "--split-tag", "train",
        ]
    )
    capture = capsys.readouterr()
    assert code == 0
    assert "exported 2 instruction/response records" in capture.out
    rows = list(read_jsonl(out))
    assert [row["split"] for row in rows] == ["train", "train"]
    assert rows[0]["instruction"].endswith("We rely on the LSMS throughout.")
    assert [m["raw_name"] for m in json.loads(rows[0]["response"])] == ["LSMS"]
    assert json.loads(rows[1]["response"]) == []  # the agent rejected the DHS mention


def test_export_finetune_requires_assessed_file(tmp_path, capsys) -> None:
    cases = _two_page_cases()
    cfg = _mock_config(tmp_path, pipeline_script(cases))
    pages = _pages_file(tmp_path, [c[0] for c in cases])
    code = main(["--config", str(cfg), "export-finetune", "--pages", str(pages)])
    assert code == 3
    assert "run generate first" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row",
    [
        {"x": 1},
        {"block": {"source": DOC, "page": "two"}, "assessments": []},
        {"block": {"source": DOC, "page": 1}, "assessments": [{"valid": True}]},
        {"block": {"source": DOC, "page": 1.9}, "assessments": []},
        {"block": {"source": DOC, "page": 1},
         "assessments": [{"valid": "maybe", "mention": {"raw_name": "LSMS"}}]},
    ],
    ids=["no-block", "page-not-a-number", "assessment-without-mention", "page-float",
         "valid-word"],
)
def test_export_finetune_refuses_an_assessed_row_of_the_wrong_shape(tmp_path, capsys, row) -> None:
    cases = _two_page_cases()
    cfg = _mock_config(tmp_path, pipeline_script(cases))
    pages = _pages_file(tmp_path, [c[0] for c in cases])
    assessed = tmp_path / "assessed.jsonl"
    write_jsonl(assessed, [row])
    out = tmp_path / "finetune.jsonl"
    code = main(
        [
            "--config", str(cfg),
            "export-finetune",
            "--pages", str(pages),
            "--assessed", str(assessed),
            "--out", str(out),
        ]
    )
    assert code == 3
    assert f"input error: {assessed}: line 1: " in capsys.readouterr().err
    assert not out.exists()


def test_export_finetune_refusal_leaves_no_output_directory(tmp_path, capsys) -> None:
    cases = _two_page_cases()
    cfg = _mock_config(tmp_path, pipeline_script(cases))
    pages = _pages_file(tmp_path, [c[0] for c in cases])
    assessed = tmp_path / "assessed.jsonl"
    write_jsonl(assessed, [{"x": 1}])
    out_dir = tmp_path / "newdir"
    code = main(["--config", str(cfg), "export-finetune", "--pages", str(pages),
                 "--assessed", str(assessed), "--out", str(out_dir / "finetune.jsonl")])
    assert code == 3
    assert f"input error: {assessed}: line 1: the row lacks 'block'" in capsys.readouterr().err
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# infer


def test_infer_writes_predictions_for_every_page(tmp_path, capsys) -> None:
    gated_in = _page(1, "We analyze the LSMS dataset here.")
    gated_out = _page(2, "Completely unrelated prose.")
    script = {
        key: response
        for key, response in pipeline_script(
            [(gated_in, ["LSMS"], [True], [True])]
        ).items()
        if key[0] == "extractor"
    }
    script_path = write_script_file(tmp_path / "script.jsonl", script)
    cfg = _config_file(
        tmp_path,
        {
            "backend": {"kind": "mock", "script": str(script_path)},
            "gate": {"kind": "keyword"},
            "paths": {"output": str(tmp_path / "out")},
        },
    )
    pages = _pages_file(tmp_path, [gated_in, gated_out])
    out = tmp_path / "predictions.jsonl"
    decisions = tmp_path / "decisions.jsonl"
    code = main(
        [
            "--config", str(cfg),
            "infer",
            "--pages", str(pages),
            "--out", str(out),
            "--decisions-out", str(decisions),
        ]
    )
    assert code == 0
    assert "inferred predictions for 2 pages" in capsys.readouterr().out
    rows = list(read_jsonl(out))
    assert [(r["page_number"], r["predicted_names"]) for r in rows] == [
        (1, ["LSMS"]),
        (2, []),
    ]
    assert [r["passed"] for r in read_jsonl(decisions)] == [True, False]


def test_infer_from_the_store_reads_the_pages_once_and_writes_what_infer_pages_does(
    tmp_path, monkeypatch, capsys
) -> None:
    gated_in = _page(2, "We analyze the LSMS dataset here.")
    gated_out = _page(1, "Completely unrelated prose.")
    script = {key: response
              for key, response in pipeline_script([(gated_in, ["LSMS"], [True], [True])]).items()
              if key[0] == "extractor"}
    script_path = write_script_file(tmp_path / "script.jsonl", script)
    store = tmp_path / "corpus"
    CorpusStore(store).ingest_pages([gated_in, gated_out])
    reads: list[int] = []
    listed = corpus._PageListing.__iter__

    def counted(listing):
        reads.append(len(listing))
        return listed(listing)

    monkeypatch.setattr(corpus._PageListing, "__iter__", counted)
    outs = []
    for way in ("store", "file"):
        (tmp_path / way).mkdir()
        cfg = _config_file(tmp_path / way, {"backend": {"kind": "mock", "script": str(script_path)},
                                           "gate": {"kind": "keyword"},
                                           "paths": {"output": str(tmp_path / way / "out")}})
        argv = ["--config", str(cfg), "--corpus-dir", str(store), "infer",
                "--out", str(tmp_path / way / "predictions.jsonl")]
        if way == "file":  # the store's pages, in its key order
            argv += ["--pages", str(_pages_file(tmp_path / way, [gated_out, gated_in]))]
        assert main(argv) == 0
        assert "inferred predictions for 2 pages" in capsys.readouterr().out
        outs.append((tmp_path / way / "predictions.jsonl").read_bytes())
    assert reads == [2]
    assert outs[0] == outs[1]
    assert [row["predicted_names"] for row in read_jsonl(tmp_path / "store" / "predictions.jsonl")
            ] == [[], ["LSMS"]]


def test_gate_on_a_store_with_a_damaged_line_exits_3_and_writes_no_decisions(tmp_path,
                                                                             capsys) -> None:
    store = CorpusStore(tmp_path / "store")
    store.ingest_pages([_page(n, f"A census on page {n}.") for n in (1, 2, 3)])
    data = store.pages_path.read_bytes()
    store.pages_path.write_bytes(data.replace(b'"page_number": 2', b'"page_number": [2', 1))
    cfg = _config_file(tmp_path, {"gate": {"kind": "keyword"}})
    out = tmp_path / "decisions.jsonl"
    argv = ["--config", str(cfg), "--corpus-dir", str(store.root), "gate", "--out", str(out)]
    assert main(argv) == 3
    assert f"input error: {store.pages_path}: line 2 is not JSON" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# search and ingest


def test_search_writes_matched_documents(tmp_path, monkeypatch, capsys) -> None:
    titles = tmp_path / "titles.txt"
    titles.write_text(
        "# survey papers\n"
        "Irrigation and Climate Resilience\n"
        "\n"
        "A Paper Nobody Indexed\n",
        encoding="utf-8",
    )
    match = {
        "data": [
            {
                "paperId": PAPER_ID,
                "title": "Irrigation and Climate Resilience",
                "year": 2020,
                "citationCount": 12,
                "isOpenAccess": True,
                "openAccessPdf": {"url": "https://example.org/paper.pdf"},
            }
        ]
    }
    out = tmp_path / "documents.jsonl"
    closed = _closed_sessions(monkeypatch)
    with StubServer([{"body": match}, {"body": {"data": []}}]) as server:
        cfg = _config_file(tmp_path, {"metadata": {"base_url": server.url}})
        code = main(["--config", str(cfg), "search", str(titles), "--out", str(out)])
        assert len(closed) == 1
    assert code == 0
    assert len(server.requests) == 2
    assert len({request["client"][1] for request in server.requests}) == 1
    assert "matched 1 of 2 titles" in capsys.readouterr().out
    rows = list(read_jsonl(out))
    assert [row["doc_id"] for row in rows] == [PAPER_ID]


def test_ingest_pages_file_then_gate_from_store(tmp_path, capsys) -> None:
    store = tmp_path / "store"
    pages = _pages_file(
        tmp_path,
        [_page(1, "A census underpins the analysis."), _page(2, "No trigger words at all.")],
    )
    code = main(["--corpus-dir", str(store), "ingest", "--pages", str(pages)])
    assert code == 0
    assert "ingested 2 pages, skipped 0" in capsys.readouterr().out

    code = main(["--corpus-dir", str(store), "ingest", "--pages", str(pages)])
    assert code == 0
    assert "ingested 0 pages, skipped 2" in capsys.readouterr().out

    cfg = _config_file(tmp_path, {"gate": {"kind": "keyword"}})
    out = tmp_path / "decisions.jsonl"
    code = main(["--config", str(cfg), "--corpus-dir", str(store), "gate", "--out", str(out)])
    assert code == 0
    assert len(list(read_jsonl(out))) == 2


def test_ingest_pdf_directory_with_custom_converter(tmp_path, capsys) -> None:
    pdf_dir = tmp_path / "pdfs"
    pdf_dir.mkdir()
    (pdf_dir / f"{DOC2}.pdf").write_bytes(b"%PDF fake")
    converter = tmp_path / "fake_pdftotext.py"
    converter.write_text(
        "import sys\nsys.stdout.write('first page\\x0csecond page\\x0c')\n",
        encoding="utf-8",
    )
    code = main(
        [
            "--corpus-dir", str(tmp_path / "store"),
            "ingest",
            "--pdf-dir", str(pdf_dir),
            "--converter", f"{sys.executable} {converter} {{pdf}}",
        ]
    )
    assert code == 0
    assert "ingested 2 pages, skipped 0" in capsys.readouterr().out


def test_ingest_pdf_directory_exits_3_when_the_converter_prints_bytes_that_are_not_utf8(
    tmp_path, capsys
) -> None:
    pdf_dir = tmp_path / "pdfs"
    pdf_dir.mkdir()
    (pdf_dir / f"{DOC2}.pdf").write_bytes(b"%PDF fake")
    converter = tmp_path / "latin1_pdftotext.py"
    converter.write_text("import sys\nsys.stdout.buffer.write(b'page \\xff\\x0c')\n",
                         encoding="utf-8")
    code = main(["--corpus-dir", str(tmp_path / "store"), "ingest", "--pdf-dir", str(pdf_dir),
                 "--converter", f"{sys.executable} {converter} {{pdf}}"])
    assert code == 3
    err = capsys.readouterr().err
    assert f"printed bytes that are not UTF-8 for {pdf_dir / DOC2}.pdf" in err
    assert not (tmp_path / "store" / "pages.jsonl").exists()
