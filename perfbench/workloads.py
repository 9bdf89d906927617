"""The benchmark workloads: inputs, set-up, one timed round, and its checks.

Load model: every run is one closed-loop driver process. It calls the
library and waits for each call to return; pipeline ``workers`` never
exceeds the number of cores available (at most 2).

Each workload has four parts. ``prepare`` makes the inputs from the seed
and, for the generate workloads, a reference run (none of it timed).
``setup`` is what ``setup_s`` times, in a fresh process. ``execute`` is the
program's work in one round; a fresh process runs it after ``setup`` to
give ``peak_rss_mb``. ``run_round`` runs it timed, adds the round's
reruns, and checks every output.

``cpu_bound`` says whether a round's wall time is CPU time of the program,
so that run.py scales it by the calibration loop; waiting on the stand-in
remote services is not scaled. The reruns behind ``rerun_s`` are CPU-bound
on every workload and always scaled.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from perfbench import inputs
from perfbench.harness import DelayGate, FaultyBackend, supervise
from perfbench.oracle import (
    STAGE_FILES,
    Tally,
    check_same_bytes,
    check_scores,
    check_stage_files,
    reference_scores,
    tree_digest,
)


def load_program(root: Path) -> SimpleNamespace:
    """Import the program from ``root/src``, refusing any other copy of it."""
    src = root / "src"
    if not (src / "datamentions" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import datamentions
    from datamentions import corpus, errors, evalkit, gate, llm, records, splits, weaksup

    if Path(datamentions.__file__).resolve().parent != (src / "datamentions").resolve():
        raise ImportError(f"datamentions was imported from {datamentions.__file__}, not {src}")
    return SimpleNamespace(corpus=corpus, errors=errors, evalkit=evalkit, gate=gate,
                           llm=llm, records=records, splits=splits, weaksup=weaksup)


def quiet_library_log() -> None:
    """The library logs each quarantined item; keep the records, drop the output."""
    log = logging.getLogger("datamentions")
    log.addHandler(logging.NullHandler())
    log.propagate = False


def workers_available() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


@dataclass
class RoundResult:
    pages: int  # pages the round carried through, over round_s gives pages_per_s
    round_s: float
    gate_pages: int  # pages gated, over gate_s gives gate_pages_per_s
    gate_s: float
    reruns: list[float]  # rerun_s samples
    layer: dict[str, float] = field(default_factory=dict)  # per-layer figures from outside spans


# ---------------------------------------------------------------------------
# generate_local and generate_flaky


@dataclass(frozen=True)
class GenerateShape:
    store_pages: int
    gated_pages: int
    call_delay_s: float
    gate_delay_s: float
    faults: int
    parallel: bool
    reruns_per_round: int


# Local CPU layers carry all the wall time: record encode/decode, payload
# parsing and digests, stage enumeration and checkpoint commit. Concurrency
# changes must not move it.
GENERATE_LOCAL = GenerateShape(
    store_pages=2000, gated_pages=1000, call_delay_s=0.0, gate_delay_s=0.0,
    faults=0, parallel=False, reruns_per_round=2,
)
# Backend and gate waiting carry the wall time, and the resume path runs
# several times a round: in-flight windows, cancellation, resume overhead and
# wasted calls show here; serialization wins should not.
GENERATE_FLAKY = GenerateShape(
    store_pages=160, gated_pages=80, call_delay_s=0.020, gate_delay_s=0.004,
    faults=4, parallel=True, reruns_per_round=10,
)


class GenerateWorkload:
    """Gate the pages of a store, run the three stages, then rerun as a no-op.

    Pages carry 300 to 450 words; half of the store carries a gate trigger.
    Mentions per gated page are long-tailed, replies come bare, fenced, or
    tagged with prose, and about 2% of replies are malformed every time, so
    those items are dead-lettered after the retry budget.
    """

    def __init__(self, shape: GenerateShape, seed: int, work: Path):
        self.shape = shape
        self.seed = seed
        self.work = work
        self.store_dir = work / "store"
        self.script_path = work / "script.jsonl"
        self.faults_path = work / "faults.json"
        self.cpu_bound = shape.call_delay_s == 0 and shape.gate_delay_s == 0
        self.workers = workers_available() if shape.parallel else 1
        self.gen: inputs.GenerateInputs | None = None
        self.reference: dict[str, bytes] = {}
        self.rounds = 0

    def prepare(self, dm, tally: Tally) -> None:
        s = self.shape
        self.gen = inputs.make_generate_inputs(
            self.seed, s.store_pages, s.gated_pages, n_faults=s.faults)
        inputs.write_script(self.script_path, self.gen.script)
        self.faults_path.write_text(json.dumps(sorted(self.gen.faults)), encoding="utf-8")
        store = dm.corpus.CorpusStore(self.store_dir)
        store.ingest_pages(dm.records.PageRecord.from_dict(p) for p in self.gen.store_pages)

        # reference: uninterrupted, one worker, no delay and no faults
        state = self.setup(dm)
        backend = FaultyBackend(state.mock, state.templates,
                                transient_error=dm.errors.RetriesExhausted)
        passed, _ = dm.gate.filter_pages(dm.corpus.CorpusStore(self.store_dir).iter_pages(),
                                         state.keyword_gate)
        out = self.work / "reference"
        dm.weaksup.run_pipeline(passed, backend, output_dir=out,
                                templates=state.templates, workers=1)
        check_stage_files(out, self.gen.expected, self.gen.expected_dead, tally)
        tally.add(1, int(backend.issued != self.gen.expected_calls),
                  f"reference run issued {backend.issued} calls, script says {self.gen.expected_calls}")
        self.reference = {name: (out / name).read_bytes() for name in STAGE_FILES + ("stats.json",)}

    def setup(self, dm) -> SimpleNamespace:
        """What a fresh ``generate`` process does before its first page."""
        templates = dm.llm.load_templates()
        mock = dm.llm.MockChatBackend.from_script_file(self.script_path, templates)
        keyword_gate = dm.gate.KeywordGate()
        return SimpleNamespace(templates=templates, mock=mock, keyword_gate=keyword_gate)

    def make_backend(self, dm, state) -> FaultyBackend:
        faults = frozenset(map(tuple, json.loads(self.faults_path.read_text(encoding="utf-8"))))
        return FaultyBackend(state.mock, state.templates, delay_s=self.shape.call_delay_s,
                             faults=faults, transient_error=dm.errors.RetriesExhausted)

    def make_gate(self, state):
        if self.shape.gate_delay_s:
            return DelayGate(state.keyword_gate, self.shape.gate_delay_s)
        return state.keyword_gate

    def execute(self, dm, state, backend, gate, out: Path) -> SimpleNamespace:
        """Open the store, gate its pages, and run the pipeline to the end under supervision."""
        t0 = time.perf_counter()
        pages = dm.corpus.CorpusStore(self.store_dir).iter_pages()
        passed, decisions = dm.gate.filter_pages(pages, gate)
        t1 = time.perf_counter()
        supervise(lambda: self.pipeline(dm, state, backend, passed, out), backend,
                  dm.errors.PipelineInterrupted, max_invocations=len(backend.faults) + 2)
        t2 = time.perf_counter()
        return SimpleNamespace(pages=pages, passed=passed, decisions=decisions,
                               gate_s=t1 - t0, round_s=t2 - t0)

    def pipeline(self, dm, state, backend, passed, out: Path):
        return dm.weaksup.run_pipeline(passed, backend, output_dir=out,
                                       templates=state.templates, workers=self.workers)

    def run_round(self, dm, state, backend, gate, tally: Tally) -> RoundResult:
        gen, shape = self.gen, self.shape
        self.rounds += 1
        out = self.work / f"out-{self.rounds}"
        backend.reset()
        r = self.execute(dm, state, backend, gate, out)

        issued, failed, wasted = backend.issued, backend.failed, backend.wasted
        before = tree_digest(out)
        reruns = []
        for _ in range(shape.reruns_per_round):
            r0 = time.perf_counter()
            self.pipeline(dm, state, backend, r.passed, out)
            reruns.append(time.perf_counter() - r0)

        # checks
        got = [(p.doc_id, p.page_number) for p in r.passed]
        tally.add(len(r.decisions), sum(1 for a, b in zip(got, gen.gated_keys) if a != b)
                  + abs(len(got) - len(gen.gated_keys)), "gate passed other pages than seeded")
        n_items = sum(gen.items.values())
        check_same_bytes(out, self.reference, n_items, tally)
        tally.add(1, int(failed != len(gen.faults)),
                  f"{failed} injected failures raised, {len(gen.faults)} seeded")
        tally.add(1, int(issued - failed - wasted != gen.expected_calls),
                  f"{issued} calls issued, {failed} failed, {wasted} wasted; script needs {gen.expected_calls}")
        if not shape.parallel:
            tally.add(1, int(wasted != 0), f"{wasted} calls wasted with one worker")
        tally.add(1, int(backend.issued != issued or tree_digest(out) != before),
                  "the no-op rerun issued calls or changed files")

        committed = sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in (out / "checkpoints").glob("*.ckpt")
        )
        quarantined = len((out / "deadletter.jsonl").read_text(encoding="utf-8").splitlines())
        shutil.rmtree(out)
        useful = issued - failed - wasted
        return RoundResult(
            pages=len(r.passed), round_s=r.round_s,
            gate_pages=len(r.pages), gate_s=r.gate_s,
            reruns=reruns,
            layer={
                "llm.calls": issued,
                "llm.failures": failed,
                "weaksup.calls_wasted": wasted,
                "weaksup.useful_call_ratio": useful / issued if issued else 0.0,
                "weaksup.items_committed": committed,
                "weaksup.items_quarantined": quarantined,
            },
        )


# ---------------------------------------------------------------------------
# corpus_score


class CorpusScoreWorkload:
    """Bulk ingest into a fresh store, reopen and gate it, then score.

    About 10% of the offered pages repeat an earlier key, so ingest must
    skip them. Names per scored page are long-tailed: most pages carry 0
    to 5 names and about 2% are dense with 20 to 80, which is what makes
    matcher cost visible. No backend is involved. The corpus write path and
    the matcher do their work only here, so linear ingest and tokenize-once
    matching show here and nowhere else.
    """

    unique_pages = 2000
    duplicate_pages = 200
    cpu_bound = True

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.pages_path = work / "offered_pages.jsonl"
        self.pred_path = work / "predictions.jsonl"
        self.gold_path = work / "gold.jsonl"
        self.gen: inputs.CorpusInputs | None = None
        self.reference: dict = {}
        self.rounds = 0

    def prepare(self, dm, tally: Tally) -> None:
        self.gen = inputs.make_corpus_inputs(self.seed, self.unique_pages, self.duplicate_pages)
        inputs.write_jsonl(self.pages_path, self.gen.offered)
        inputs.write_jsonl(self.pred_path, self.gen.predictions)
        inputs.write_jsonl(self.gold_path, self.gen.gold)
        self.reference = reference_scores(self.gen.predictions, self.gen.gold)

    def setup(self, dm) -> SimpleNamespace:
        """What fresh ``gate`` and ``score`` processes load before their first page."""
        keyword_gate = dm.gate.KeywordGate()
        preds = dm.evalkit.import_predictions(self.pred_path)
        gold_records, _ = dm.splits.import_annotations(self.gold_path)
        return SimpleNamespace(keyword_gate=keyword_gate, predictions=preds, gold=gold_records)

    def make_backend(self, dm, state):
        return None

    def make_gate(self, state):
        return state.keyword_gate

    def _offered(self, dm):
        """The ``ingest --pages`` path: records decoded lazily from the file."""
        return (dm.records.PageRecord.from_dict(row) for row in dm.records.read_jsonl(self.pages_path))

    def execute(self, dm, state, backend, gate, out: Path) -> SimpleNamespace:
        """Ingest every offered page into a fresh store at ``out``, reopen and gate it, then score."""
        t0 = time.perf_counter()
        summary = dm.corpus.CorpusStore(out).ingest_pages(self._offered(dm))
        t1 = time.perf_counter()
        store = dm.corpus.CorpusStore(out)
        pages = store.iter_pages()
        passed, decisions = dm.gate.filter_pages(pages, gate)
        t2 = time.perf_counter()
        report, results = dm.evalkit.score_records(state.predictions, state.gold)
        t3 = time.perf_counter()
        return SimpleNamespace(store=store, summary=summary, pages=pages, passed=passed,
                               decisions=decisions, report=report, results=results,
                               ingest_s=t1 - t0, gate_s=t2 - t1, round_s=t3 - t0)

    def run_round(self, dm, state, backend, gate, tally: Tally) -> RoundResult:
        gen = self.gen
        self.rounds += 1
        root = self.work / f"store-{self.rounds}"
        offered = len(gen.offered)
        r = self.execute(dm, state, backend, gate, root)
        stored = (root / "pages.jsonl").read_bytes()
        again = r.store.ingest_pages(self._offered(dm))

        # checks
        want_added = len(gen.unique)
        summary = r.summary
        tally.add(offered, abs(summary.added - want_added) + abs(summary.skipped - (offered - want_added)),
                  f"ingest added {summary.added}, skipped {summary.skipped}; expected {want_added} added")
        got = [(p.doc_id, p.page_number, p.text) for p in r.pages]
        want = [(p["doc_id"], p["page_number"], p["text"]) for p in gen.unique]
        tally.add(len(want), sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want)),
                  "stored pages differ from the first occurrence of each key")
        passed_keys = {(p.doc_id, p.page_number) for p in r.passed}
        tally.add(len(r.decisions), len(passed_keys ^ gen.gated_keys), "gate passed other pages than seeded")
        check_scores(r.report, r.results, self.reference, tally)
        tally.add(offered, again.added + abs(again.skipped - offered)
                  + int((root / "pages.jsonl").read_bytes() != stored),
                  "re-ingesting the same pages added pages or changed the store")
        shutil.rmtree(root)
        return RoundResult(
            pages=offered, round_s=r.round_s,
            gate_pages=len(r.pages), gate_s=r.gate_s,
            reruns=[r.ingest_s],  # rerun_s: the bulk ingest into an empty store
        )


def make_workload(name: str, seed: int, work: Path):
    if name == "generate_local":
        return GenerateWorkload(GENERATE_LOCAL, seed, work)
    if name == "generate_flaky":
        return GenerateWorkload(GENERATE_FLAKY, seed, work)
    if name == "corpus_score":
        return CorpusScoreWorkload(seed, work)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("generate_local", "generate_flaky", "corpus_score")


def median(values) -> float:
    return statistics.median(values) if values else 0.0
