"""Command-line entry point for the whole pipeline.

One configuration file drives every subcommand; individual flags override
single values and all randomness flows from one seed. Exit codes are
stable: 0 success, 2 configuration error, 3 input error, 4 backend
failure, 5 partial completion (progress checkpointed, resumable).
"""

from __future__ import annotations

import argparse
import fcntl
import json
import logging
import os
import shlex
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence, TypeVar

from .config import PipelineConfig, load_config
from .corpus import CorpusStore, MetadataClient, convert_pdf_to_pages, search_paper_by_title
from .errors import (
    BackendError,
    ConfigError,
    DataMentionsError,
    InputError,
    MalformedResponse,
    NetworkError,
    PipelineInterrupted,
    UnscriptedInput,
)
from .evalkit import MatchConfig, import_predictions, render_report, score_records
from .gate import (
    _GATE_WIDTH,
    AlwaysPassGate,
    GateDecision,
    KeywordGate,
    PageGate,
    RemoteGate,
    filter_pages,
)
from .llm import MockChatBackend, ChatBackend, RemoteChatBackend, load_templates
from .records import PageRecord, _coerce_bool, _coerce_int, _require, read_rows, write_jsonl
from .retries import RetryPolicy
from .splits import SplitSpec, import_annotations, sample_pages, split
from .weaksup import (
    STAGES,
    PipelineStats,
    export_finetune_records,
    plan_pipeline,
    run_pipeline,
)

if TYPE_CHECKING:
    import requests

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_BACKEND = 4
EXIT_PARTIAL = 5


# ---------------------------------------------------------------------------
# shared plumbing


@contextmanager
def _advisory_lock(directory: Path) -> Iterator[None]:
    """Guard an output directory against concurrent invocations.

    The lock is an exclusive ``flock`` on ``directory/.lock``. The kernel
    releases it when its holder exits, however that happens, so a file left
    behind by a crash blocks nothing. The holder removes the file before it
    releases the lock; a run that locked the removed file meanwhile finds
    that the path names another file, or none, and tries again.
    """
    directory.mkdir(parents=True, exist_ok=True)
    lock = directory / ".lock"
    while True:
        fd = os.open(lock, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise InputError(f"output directory {directory} is locked by another run") from None
        try:
            if os.path.samestat(os.fstat(fd), os.stat(lock)):
                break
        except FileNotFoundError:
            pass
        os.close(fd)
    try:
        os.ftruncate(fd, 0)
        os.write(fd, f"{os.getpid()}\n".encode())
        yield
    finally:
        lock.unlink(missing_ok=True)
        os.close(fd)


def _retry_policy(cfg: PipelineConfig) -> RetryPolicy:
    return RetryPolicy(
        attempts=cfg.retry_attempts,
        base_delay=cfg.retry_base_delay,
        factor=cfg.retry_factor,
    )


def _pooled_session(size: int) -> requests.Session:
    """A session that keeps up to ``size`` connections to a host open, one per call in flight."""
    import requests
    from requests.adapters import HTTPAdapter

    session = requests.Session()
    adapter = HTTPAdapter(pool_maxsize=size)
    session.mount("http://", adapter)
    session.mount("https://", adapter)
    return session


_Client = TypeVar("_Client")


@contextmanager
def _closing_session(client: _Client) -> Iterator[_Client]:
    """Yield ``client``; close its session, if it has one, and so its connections, after."""
    try:
        yield client
    finally:
        session = getattr(client, "session", None)
        if session is not None:
            session.close()


def _build_backend(cfg: PipelineConfig) -> ChatBackend:
    if cfg.backend == "mock":
        return MockChatBackend.from_script_file(
            cfg.mock_script,
            templates=load_templates(cfg.prompts_dir),
            call_log=cfg.mock_call_log,
        )
    return RemoteChatBackend(
        base_url=cfg.base_url,
        api_key_env=cfg.api_key_env,
        retry_policy=_retry_policy(cfg),
        session=_pooled_session(cfg.concurrency),
    )


def _build_gate(cfg: PipelineConfig) -> PageGate:
    if cfg.gate_kind == "always_pass":
        return AlwaysPassGate()
    if cfg.gate_kind == "keyword":
        if cfg.gate_triggers_file is not None:
            return KeywordGate.from_file(cfg.gate_triggers_file)
        return KeywordGate()
    return RemoteGate(endpoint=cfg.gate_endpoint, session=_pooled_session(_GATE_WIDTH))


def _gate_pages(
    cfg: PipelineConfig, pages: list[PageRecord]
) -> tuple[list[PageRecord], list[GateDecision]]:
    """:func:`filter_pages` through the configured gate, whose connections are closed after."""
    with _closing_session(_build_gate(cfg)) as gate:
        return filter_pages(pages, gate, cfg.gate_threshold)


def _load_pages(cfg: PipelineConfig, pages_file: str | None) -> list[PageRecord]:
    if pages_file is not None:
        path = Path(pages_file)
        if not path.exists():
            raise InputError(f"pages file {path} does not exist")
        return list(read_rows(path, PageRecord.from_dict))
    return CorpusStore(cfg.corpus_dir).iter_pages()


def _run_locked(
    cfg: PipelineConfig, pages: list[PageRecord], output_dir: Path, stages: Sequence[str]
) -> PipelineStats:
    """Run ``stages`` on ``pages`` into ``output_dir`` under its advisory lock."""
    with _closing_session(_build_backend(cfg)) as backend, _advisory_lock(output_dir):
        return run_pipeline(
            pages,
            backend,
            output_dir=output_dir,
            stages=stages,
            templates=load_templates(cfg.prompts_dir),
            model_name=cfg.model_name,
            temperature=cfg.temperature,
            max_output_tokens=cfg.max_output_tokens,
            item_attempts=cfg.item_attempts,
            workers=cfg.concurrency,
        )


def _decision(row: dict) -> tuple[tuple[str, int], bool]:
    """A gate decision row: its page's key and whether the page passed."""
    where = "decision"
    passed = _coerce_bool(_require(row, "passed", where), "passed", where)
    return (_require(row, "doc_id", where),
            _coerce_int(_require(row, "page_number", where), "page_number", where)), passed


def _apply_decisions(pages: list[PageRecord], decisions_file: str) -> list[PageRecord]:
    path = Path(decisions_file)
    if not path.exists():
        raise InputError(f"decisions file {path} does not exist")
    passed = {key for key, ok in read_rows(path, _decision) if ok}
    return [p for p in pages if (p.doc_id, p.page_number) in passed]


# ---------------------------------------------------------------------------
# subcommands


def cmd_search(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    titles_path = Path(args.titles)
    if not titles_path.exists():
        raise InputError(f"titles file {titles_path} does not exist")
    titles = [
        line.strip()
        for line in titles_path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    client = MetadataClient(
        base_url=cfg.metadata_base_url,
        api_key_env=cfg.metadata_api_key_env,
        retry_policy=_retry_policy(cfg),
        session=_pooled_session(1),  # titles are looked up one at a time
    )
    matched = []
    with _closing_session(client):
        for title in titles:
            doc = search_paper_by_title(title, client, source_corpus=args.source_corpus)
            if doc is None:
                log.info("no match: %s", title)
                continue
            matched.append(doc.to_dict())
    write_jsonl(args.out, matched)
    print(f"matched {len(matched)} of {len(titles)} titles -> {args.out}")
    return EXIT_OK


def cmd_ingest(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    store = CorpusStore(cfg.corpus_dir)
    added = skipped = 0
    if args.pages is not None:
        pages = read_rows(args.pages, PageRecord.from_dict)
        summary = store.ingest_pages(pages)
        added, skipped = summary.added, summary.skipped
    else:
        pdf_dir = Path(args.pdf_dir)
        if not pdf_dir.is_dir():
            raise InputError(f"PDF directory {pdf_dir} does not exist")
        converter = shlex.split(args.converter)
        for pdf_path in sorted(pdf_dir.glob("*.pdf")):
            doc_id = pdf_path.stem
            pages = convert_pdf_to_pages(doc_id, pdf_path, converter)
            summary = store.ingest_pages(pages)
            added += summary.added
            skipped += summary.skipped
    print(f"ingested {added} pages, skipped {skipped} duplicates")
    return EXIT_OK


def cmd_gate(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    pages = _load_pages(cfg, args.pages)
    passed, decisions = _gate_pages(cfg, pages)
    out = Path(args.out) if args.out else cfg.output_dir / "gate_decisions.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(out, (d.to_dict() for d in decisions))
    print(f"gate passed {len(passed)} of {len(decisions)} pages -> {out}")
    return EXIT_OK


def cmd_generate(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    pages = _load_pages(cfg, args.pages)
    if args.decisions is not None:
        pages = _apply_decisions(pages, args.decisions)
    stages = STAGES if args.stage == "all" else (args.stage,)

    if args.dry_run:
        plans = plan_pipeline(
            pages,
            output_dir=cfg.output_dir,
            stages=stages,
            templates=load_templates(cfg.prompts_dir),
            model_name=cfg.model_name,
            temperature=cfg.temperature,
            max_output_tokens=cfg.max_output_tokens,
        )
        total: int | None = 0
        for plan in plans:
            if plan.pending is None:
                print(f"plan: stage {plan.stage} — input not available yet, calls unknown")
                total = None
            else:
                print(f"plan: stage {plan.stage} — {plan.pending} pending items, "
                      f"{plan.backend_calls} backend calls")
                if total is not None:
                    total += plan.backend_calls
        print(f"total backend calls: {'unknown' if total is None else total}")
        return EXIT_OK

    stats = _run_locked(cfg, pages, cfg.output_dir, stages)
    dead = cfg.output_dir / "deadletter.jsonl"
    if dead.exists() and dead.stat().st_size > 0:
        log.warning("some items were quarantined; inspect %s", dead)
    print(json.dumps(stats.to_dict(), ensure_ascii=False, indent=2))
    return EXIT_OK


def cmd_sample(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    pages = _load_pages(cfg, args.pages)
    seed = cfg.seed if args.seed is None else args.seed
    sampled = sample_pages(pages, args.count, seed)
    write_jsonl(args.out, (p.to_dict() for p in sampled))
    print(f"sampled {len(sampled)} of {len(pages)} pages -> {args.out}")
    return EXIT_OK


def cmd_split(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    records_path = Path(args.records)
    if not records_path.exists():
        raise InputError(f"records file {records_path} does not exist")
    try:
        text = records_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"records file {records_path} is not UTF-8: {exc}") from None
    lines = [line for line in text.splitlines() if line.strip()]
    seed = cfg.seed if args.seed is None else args.seed
    if args.ratios is not None:
        try:  # a word, or other than three parts
            train, val, test = (float(x) for x in args.ratios.split(","))
        except ValueError:
            raise InputError(
                f"--ratios needs three comma-separated numbers, got {args.ratios!r}"
            ) from None
        spec = SplitSpec.from_ratios(train, val, test, seed=seed)
    else:
        if None in (args.train, args.val, args.test):
            raise InputError("supply --train/--val/--test counts or --ratios")
        spec = SplitSpec.from_counts(args.train, args.val, args.test, seed=seed)
    result = split(lines, spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, part in (
        ("train", result.train), ("val", result.val), ("test", result.test)
    ):
        (out_dir / f"{name}.jsonl").write_text(
            "".join(line + "\n" for line in part), encoding="utf-8"
        )
    if result.leftover:
        (out_dir / "leftover.jsonl").write_text(
            "".join(line + "\n" for line in result.leftover), encoding="utf-8"
        )
    print(
        f"split {len(lines)} records -> train={len(result.train)} "
        f"val={len(result.val)} test={len(result.test)} "
        f"leftover={len(result.leftover)} in {out_dir}"
    )
    return EXIT_OK


def cmd_export_finetune(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    pages = _load_pages(cfg, args.pages)
    assessed = Path(args.assessed) if args.assessed else cfg.output_dir / "assessed.jsonl"
    if not assessed.exists():
        raise InputError(f"assessed file {assessed} does not exist; run generate first")
    out = Path(args.out) if args.out else cfg.output_dir / "finetune.jsonl"
    count = export_finetune_records(pages, assessed, out, args.split_tag)
    print(f"exported {count} instruction/response records -> {out}")
    return EXIT_OK


def _extracted_names(row: dict) -> tuple[tuple[str, int], list[str]]:
    """An extraction row: its page's key and the raw names of its mentions."""
    names = [str(d["raw_name"]) for block in row.get("blocks", [])
             for d in block.get("datasets", [])]
    return (row["doc_id"], _coerce_int(row["page_number"], "page_number", "extraction row")), names


def cmd_infer(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    pages = _load_pages(cfg, args.pages)
    passed, decisions = _gate_pages(cfg, pages)
    infer_dir = cfg.output_dir / "infer"
    _run_locked(cfg, passed, infer_dir, ("extract",))
    names_by_page = dict(read_rows(infer_dir / "extracted.jsonl", _extracted_names))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(out, ({"doc_id": page.doc_id, "page_number": page.page_number,
                       "predicted_names": names_by_page.get((page.doc_id, page.page_number), [])}
                      for page in pages))
    if args.decisions_out:
        write_jsonl(args.decisions_out, (d.to_dict() for d in decisions))
    print(f"inferred predictions for {len(pages)} pages -> {out}")
    return EXIT_OK


def cmd_score(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    for path, label in ((args.predictions, "predictions"), (args.gold, "gold")):
        if not Path(path).exists():
            raise InputError(f"{label} file {path} does not exist")
    predictions = import_predictions(args.predictions, args.adapter)
    gold, _ = import_annotations(args.gold, args.gold_format)
    match_cfg = MatchConfig(
        jaccard_threshold=cfg.jaccard_threshold,
        beta=cfg.beta if args.beta is None else args.beta,
    )
    report, _ = score_records(predictions, gold, match_cfg, macro=args.macro)
    rendered = render_report(report, args.format)
    print(rendered)
    if args.out:
        Path(args.out).write_text(rendered + "\n", encoding="utf-8")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="datamentions",
        description="Extract, validate, and score dataset mentions in documents.",
    )
    parser.add_argument("--config", help="configuration file (YAML or JSON)")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    parser.add_argument("--seed", type=int, help="override the configured seed")
    parser.add_argument("--corpus-dir", help="override the corpus store directory")
    parser.add_argument("--output-dir", help="override the output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="look up paper titles in the metadata index")
    p.add_argument("titles", help="file with one title per line")
    p.add_argument("--out", required=True, help="documents output file")
    p.add_argument("--source-corpus", default="other",
                   choices=["one_earth", "prwp", "other"])
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("ingest", help="ingest page records or convert PDFs")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pages", help="page records file")
    group.add_argument("--pdf-dir", help="directory of <doc_id>.pdf files")
    p.add_argument("--converter", default="pdftotext {pdf} -",
                   help="PDF-to-text command; {pdf} is replaced with the file path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("gate", help="score pages for mention presence")
    p.add_argument("--pages", help="page records file (default: corpus store)")
    p.add_argument("--out", help="decisions output file")
    p.set_defaults(func=cmd_gate)

    p = sub.add_parser("generate", help="run the weak-supervision stages")
    p.add_argument("--pages", help="page records file (default: corpus store)")
    p.add_argument("--decisions", help="gate decisions file; only passed pages are used")
    p.add_argument("--stage", default="all", choices=["extract", "judge", "reason", "all"])
    p.add_argument("--dry-run", action="store_true",
                   help="print the execution plan and backend-call count, then exit")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sample", help="draw a seeded uniform sample of pages")
    p.add_argument("--pages", help="page records file (default: corpus store)")
    p.add_argument("-n", "--count", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("split", help="partition records into train/val/test")
    p.add_argument("--records", required=True, help="line-delimited records file")
    p.add_argument("--train", type=int)
    p.add_argument("--val", type=int)
    p.add_argument("--test", type=int)
    p.add_argument("--ratios", help="three comma-separated ratios, e.g. 0.8,0.1,0.1")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("export-finetune", help="write instruction/response records")
    p.add_argument("--pages", help="page records file (default: corpus store)")
    p.add_argument("--assessed", help="assessed mentions file (default: output dir)")
    p.add_argument("--out", help="export file (default: output dir)")
    p.add_argument("--split-tag", help="tag each record with a partition name")
    p.set_defaults(func=cmd_export_finetune)

    p = sub.add_parser("infer", help="gate pages, extract mentions, emit predictions")
    p.add_argument("--pages", help="page records file (default: corpus store)")
    p.add_argument("--out", required=True, help="prediction records output file")
    p.add_argument("--decisions-out", help="also write gate decisions here")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("score", help="score predictions against ground truth")
    p.add_argument("--predictions", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--adapter", default="canonical",
                   choices=["canonical", "nuextract_template"])
    p.add_argument("--gold-format", default="canonical",
                   choices=["canonical", "doccano_export"])
    p.add_argument("--beta", type=float, help="override the configured beta")
    p.add_argument("--macro", action="store_true",
                   help="average per-page metrics instead of micro-aggregating")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(func=cmd_score)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.corpus_dir is not None:
            cfg.corpus_dir = Path(args.corpus_dir)
        if args.output_dir is not None:
            cfg.output_dir = Path(args.output_dir)
        cfg.validate()
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PipelineInterrupted as exc:
        print(f"pipeline interrupted: {exc}", file=sys.stderr)
        return EXIT_PARTIAL if exc.progressed else EXIT_BACKEND
    except (UnscriptedInput, NetworkError, BackendError, MalformedResponse) as exc:
        print(f"backend failure: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (DataMentionsError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
