"""Span tracing from outside the program, for the per-layer metrics.

``Tracer.install`` replaces each measured public function at the name its
caller binds (for example ``datamentions.weaksup.extract_mentions``, which
``run_pipeline`` looks up in its own module) with a wrapper that records a
span: id, parent id, name, start and end. Spans stay in memory until the
benchmark ends. ``uninstall`` puts every original back, so traced and
untraced rounds can alternate in one process.

A span started on a worker thread with nothing open on that thread takes
as parent the innermost span open on the thread that installed the tracer,
which is the call that handed out the work.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# names of spans whose time is record decoding; nested ones are counted once
DECODE_SPANS = frozenset({
    "records.read_jsonl", "records.PageRecord.from_dict", "records.MentionBlock.from_dict",
    "records.DatasetMention.from_dict", "records.JudgeVerdict.from_dict",
})
STAGE_SPANS = {
    "weaksup.extract_mentions": "extract",
    "weaksup.judge_mentions": "judge",
    "weaksup.reason_mentions": "reason",
}

PER_LAYER_UNITS = {
    "corpus.open_s": "s",
    "corpus.iter_pages_s": "s",
    "corpus.ingest_s": "s",
    "corpus.pages_added": "pages",
    "corpus.pages_skipped": "pages",
    "gate.filter_s": "s",
    "gate.wait_s": "s",
    "gate.pages_scored": "pages",
    "gate.pages_passed": "pages",
    "llm.calls": "calls",
    "llm.failures": "calls",
    "llm.wait_s": "s",
    "llm.parse_s": "s",
    "llm.parse_calls": "calls",
    "llm.digest_s": "s",
    "llm.digest_calls": "calls",
    "records.canonical_json_s": "s",
    "records.canonical_json_calls": "calls",
    "records.dumps_line_s": "s",
    "records.dumps_line_calls": "calls",
    "records.decode_s": "s",
    "weaksup.invocations": "count",
    "weaksup.run_s": "s",
    "weaksup.stage_s.extract": "s",
    "weaksup.stage_s.judge": "s",
    "weaksup.stage_s.reason": "s",
    "weaksup.self_s": "s",
    "weaksup.checkpoint_load_s": "s",
    "weaksup.items_committed": "items",
    "weaksup.items_quarantined": "items",
    "weaksup.calls_wasted": "calls",
    "weaksup.useful_call_ratio": "ratio",
    "evalkit.score_s": "s",
    "evalkit.match_s": "s",
    "evalkit.match_calls": "calls",
    "evalkit.pairs": "pairs",
    "textnorm.tokenize_calls": "calls",
    "trace.overhead_pct": "%",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_thread = threading.get_ident()
        self._owner_stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner_thread:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        try:
            return self._owner_stack[-1]
        except IndexError:
            return 0

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result)`` may count."""
        spans, ids, tracer = self.spans, self._ids, self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_iterator(self, name: str, fn):
        """``fn`` returning an iterator; each ``next`` on it records a span."""
        spans, ids, tracer = self.spans, self._ids, self

        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))

            def timed():
                while True:
                    stack = tracer._stack()
                    parent = tracer._parent(stack)
                    sid = next(ids)
                    stack.append(sid)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        spans.append((sid, parent, name, t0, perf_counter()))
                    yield item

            return timed()

        return traced

    def counted(self, name: str, fn):
        """``fn`` counting calls only: for leaf functions too hot for a span each."""
        counts = self.counts

        def traced(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``; classmethods stay classmethods."""
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(raw.__func__)))
            else:
                setattr(owner, attr, make(raw))
            self._patches.append((owner, attr, raw, True))
        else:
            had_own = hasattr(owner, "__dict__") and attr in vars(owner)
            raw = getattr(owner, attr)
            setattr(owner, attr, make(raw))
            self._patches.append((owner, attr, raw, had_own))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def install(self, dm, *, backend, gate) -> None:
        """Wrap the measured entry points of every layer.

        ``dm`` is the program namespace (see ``workloads.load_program``);
        ``backend`` and ``gate`` are the instances the workload passes in
        (``None`` where a workload has none).
        """
        span = lambda name: (lambda fn: self.wrap(name, fn))  # noqa: E731
        counts = self.counts

        def count_ingest(args, summary):
            counts["corpus.pages_added"] += summary.added
            counts["corpus.pages_skipped"] += summary.skipped

        def count_passed(args, result):
            counts["gate.pages_passed"] += len(result[0])

        def count_pairs(args, result):
            counts["evalkit.pairs"] += len(args[0]) * len(args[1])

        store = dm.corpus.CorpusStore
        self.patch(store, "__init__", span("corpus.open"))
        self.patch(store, "iter_pages", span("corpus.iter_pages"))
        self.patch(store, "ingest_pages", lambda fn: self.wrap("corpus.ingest_pages", fn, count_ingest))
        self.patch(dm.gate, "filter_pages", lambda fn: self.wrap("gate.filter_pages", fn, count_passed))
        if gate is not None:
            self.patch(gate, "score_page", span("gate.score_page"))
        if backend is not None:
            self.patch(backend, "complete", span("llm.complete"))
        self.patch(dm.weaksup, "extract_json_payload", span("llm.extract_json_payload"))
        for module in (dm.weaksup, dm.llm):
            self.patch(module, "request_digest", span("llm.request_digest"))
        self.patch(dm.weaksup, "canonical_json", span("records.canonical_json"))
        for module in (dm.weaksup, dm.corpus):
            self.patch(module, "dumps_line", span("records.dumps_line"))
        for module in (dm.weaksup, dm.corpus, dm.records):
            self.patch(module, "read_jsonl", lambda fn: self.wrap_iterator("records.read_jsonl", fn))
        for cls in (dm.records.PageRecord, dm.records.MentionBlock,
                    dm.records.DatasetMention, dm.records.JudgeVerdict):
            self.patch(cls, "from_dict", span(f"records.{cls.__name__}.from_dict"))
        for fn_name in ("run_pipeline", "extract_mentions", "judge_mentions", "reason_mentions"):
            self.patch(dm.weaksup, fn_name, span(f"weaksup.{fn_name}"))
        self.patch(dm.weaksup.StageCheckpoint, "load", span("weaksup.StageCheckpoint.load"))
        self.patch(dm.evalkit, "score_records", span("evalkit.score_records"))
        self.patch(dm.evalkit, "match_mentions",
                   lambda fn: self.wrap("evalkit.match_mentions", fn, count_pairs))
        self.patch(dm.evalkit, "normalize_tokens",
                   lambda fn: self.counted("textnorm.tokenize_calls", fn))

    # -- results -----------------------------------------------------------

    def take(self) -> tuple[list, Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans: list, counts: Counter) -> dict[str, float]:
    """Per-layer figures of one round from its spans and counts.

    Backend accounting (calls, failures, waste) and committed items come
    from the workload; this covers everything measured by spans.
    """
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    name_of: dict[int, str] = {}
    parent_of: dict[int, int] = {}
    for sid, parent, name, t0, t1 in spans:
        total[name] += t1 - t0
        calls[name] += 1
        name_of[sid] = name
        parent_of[sid] = parent

    decode_s = sum(
        t1 - t0 for sid, parent, name, t0, t1 in spans
        if name in DECODE_SPANS and name_of.get(parent) not in DECODE_SPANS
    )

    # self time of run_pipeline: its duration minus the part of it that
    # stage-function spans below it cover (they overlap when workers > 1)
    def run_ancestor(sid: int) -> int:
        while sid:
            sid = parent_of.get(sid, 0)
            if name_of.get(sid) == "weaksup.run_pipeline":
                return sid
        return 0

    covered: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, name, t0, t1 in spans:
        if name in STAGE_SPANS:
            covered[run_ancestor(sid)].append((t0, t1))
    self_s = sum(
        (t1 - t0) - _union_length(covered.get(sid, []))
        for sid, parent, name, t0, t1 in spans if name == "weaksup.run_pipeline"
    )

    m = {
        "corpus.open_s": total["corpus.open"],
        "corpus.iter_pages_s": total["corpus.iter_pages"],
        "corpus.ingest_s": total["corpus.ingest_pages"],
        "corpus.pages_added": counts["corpus.pages_added"],
        "corpus.pages_skipped": counts["corpus.pages_skipped"],
        "gate.filter_s": total["gate.filter_pages"],
        "gate.wait_s": total["gate.score_page"],
        "gate.pages_scored": calls["gate.score_page"],
        "gate.pages_passed": counts["gate.pages_passed"],
        "llm.wait_s": total["llm.complete"],
        "llm.parse_s": total["llm.extract_json_payload"],
        "llm.parse_calls": calls["llm.extract_json_payload"],
        "llm.digest_s": total["llm.request_digest"],
        "llm.digest_calls": calls["llm.request_digest"],
        "records.canonical_json_s": total["records.canonical_json"],
        "records.canonical_json_calls": calls["records.canonical_json"],
        "records.dumps_line_s": total["records.dumps_line"],
        "records.dumps_line_calls": calls["records.dumps_line"],
        "records.decode_s": decode_s,
        "weaksup.invocations": calls["weaksup.run_pipeline"],
        "weaksup.run_s": total["weaksup.run_pipeline"],
        "weaksup.self_s": self_s,
        "weaksup.checkpoint_load_s": total["weaksup.StageCheckpoint.load"],
        "evalkit.score_s": total["evalkit.score_records"],
        "evalkit.match_s": total["evalkit.match_mentions"],
        "evalkit.match_calls": calls["evalkit.match_mentions"],
        "evalkit.pairs": counts["evalkit.pairs"],
        "textnorm.tokenize_calls": counts["textnorm.tokenize_calls"],
    }
    for span_name, stage in STAGE_SPANS.items():
        m[f"weaksup.stage_s.{stage}"] = total[span_name]
    return m


def write_spans(path: Path, spans: list) -> None:
    """One JSON array per span: id, parent id, name, start and duration in seconds."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = min((s[3] for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, name, t0, t1 in spans:
            fh.write(json.dumps([sid, parent, name, round(t0 - origin, 7), round(t1 - t0, 7)]) + "\n")
