"""Self-tests of the benchmark: generator, oracle, fault wrapper and tracer.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import inputs
from perfbench.harness import FaultyBackend, supervise
from perfbench.oracle import STAGE_FILES, Tally, check_same_bytes, check_stage_files, reference_match
from perfbench.tracing import Tracer, layer_metrics
from perfbench.workloads import load_program, make_workload

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def dm():
    return load_program(ROOT)


def _run(dm, gen, out: Path, *, faults=frozenset(), tracer=None):
    """Store the pages, gate them and run the pipeline on one worker under supervision."""
    templates = dm.llm.load_templates()
    mock = dm.llm.MockChatBackend(gen.script, templates)
    backend = FaultyBackend(mock, templates, faults=faults,
                            transient_error=dm.errors.RetriesExhausted)
    store = dm.corpus.CorpusStore(out / "store")
    store.ingest_pages(dm.records.PageRecord.from_dict(p) for p in gen.store_pages)
    gate = dm.gate.KeywordGate()
    if tracer is not None:
        tracer.install(dm, backend=backend, gate=gate)
    try:
        passed, _ = dm.gate.filter_pages(dm.corpus.CorpusStore(out / "store").iter_pages(), gate)
        _, invocations = supervise(
            lambda: dm.weaksup.run_pipeline(passed, backend, output_dir=out / "run",
                                            templates=templates),
            backend, dm.errors.PipelineInterrupted, max_invocations=len(faults) + 2)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return backend, invocations


def test_generator_is_deterministic_per_seed():
    a = inputs.make_generate_inputs(5, 60, 30, n_faults=2)
    b = inputs.make_generate_inputs(5, 60, 30, n_faults=2)
    c = inputs.make_generate_inputs(6, 60, 30, n_faults=2)
    assert (a.store_pages, a.script, a.faults, a.expected, a.expected_dead) == \
        (b.store_pages, b.script, b.faults, b.expected, b.expected_dead)
    assert a.store_pages != c.store_pages
    # the seed changes content, never the amount of work
    assert (a.expected_calls, a.items, len(a.expected_dead)) == \
        (c.expected_calls, c.items, len(c.expected_dead))

    x = inputs.make_corpus_inputs(5, 120, 12)
    y = inputs.make_corpus_inputs(5, 120, 12)
    z = inputs.make_corpus_inputs(6, 120, 12)
    assert (x.offered, x.predictions, x.gold) == (y.offered, y.predictions, y.gold)
    assert x.offered != z.offered and x.pairs == z.pairs


def test_filler_text_carries_no_gate_trigger():
    trigger = re.compile(
        r"\b(?:" + "|".join(re.escape(t) for t in inputs.TRIGGER_TERMS) + r")\b", re.IGNORECASE)
    assert not [w for w in inputs.FILLER if trigger.search(w)]


def test_generated_pages_have_realistic_length_and_gate_share():
    gen = inputs.make_generate_inputs(3, 100, 50)
    words = [len(p["text"].split()) for p in gen.store_pages]
    assert 280 <= min(words) and max(words) <= 470
    assert len(gen.gated_keys) == 50


def test_oracle_accepts_the_program_and_flags_one_flipped_byte(dm, tmp_path):
    gen = inputs.make_generate_inputs(7, 40, 20)
    backend, _ = _run(dm, gen, tmp_path)
    out = tmp_path / "run"
    ok = Tally()
    check_stage_files(out, gen.expected, gen.expected_dead, ok)
    assert ok.failed == 0 and ok.attempted > 0, ok.problems
    assert backend.issued == gen.expected_calls
    reference = {name: (out / name).read_bytes() for name in STAGE_FILES}

    path = out / "judged.jsonl"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    flipped = Tally()
    check_stage_files(out, gen.expected, gen.expected_dead, flipped)
    assert flipped.failed == 1
    against_reference = Tally()
    check_same_bytes(out, reference, sum(gen.items.values()), against_reference)
    assert against_reference.failed == 1


def test_one_worker_flaky_run_wastes_nothing_and_matches_the_script(dm, tmp_path):
    gen = inputs.make_generate_inputs(9, 40, 20, n_faults=3)
    _run(dm, gen, tmp_path / "reference")
    backend, invocations = _run(dm, gen, tmp_path / "flaky", faults=frozenset(gen.faults))
    assert len(gen.faults) == 3 and invocations == 4
    assert backend.wasted == 0
    assert backend.failed == 3
    assert backend.issued == gen.expected_calls + len(gen.faults)
    for name in STAGE_FILES:
        assert (tmp_path / "flaky" / "run" / name).read_bytes() == \
            (tmp_path / "reference" / "run" / name).read_bytes()


def test_reference_matcher_pairs_greedily_above_the_threshold():
    tp, fp, fn, pairs = reference_match(
        ["Kenya DHS 2014", "Ghana Census", "noise"], ["Kenya DHS 2014 wave", "Ghana Census"])
    assert (tp, fp, fn) == (2, 1, 0)
    assert pairs == ((1, 1, 1.0), (0, 0, 0.75))
    # Jaccard exactly at the threshold is not a match
    assert reference_match(["a b"], ["a c"])[0] == 0


def test_tracer_records_every_layer_and_restores_the_program(dm, tmp_path):
    originals = (dm.weaksup.extract_mentions, dm.weaksup.request_digest,
                 dm.corpus.CorpusStore.__init__, dm.evalkit.normalize_tokens)
    gen = inputs.make_generate_inputs(11, 40, 20)
    tracer = Tracer()
    backend, _ = _run(dm, gen, tmp_path, tracer=tracer)
    assert (dm.weaksup.extract_mentions, dm.weaksup.request_digest,
            dm.corpus.CorpusStore.__init__, dm.evalkit.normalize_tokens) == originals
    assert "complete" not in vars(backend)
    spans, counts = tracer.take()
    m = layer_metrics(spans, counts)
    assert m["weaksup.invocations"] == 1
    assert m["gate.pages_scored"] == 40 and m["gate.pages_passed"] == 20
    assert m["llm.digest_calls"] > 0 and m["records.dumps_line_calls"] > 0
    assert 0 < m["weaksup.self_s"] < m["weaksup.run_s"]
    for stage in ("extract", "judge", "reason"):
        assert m[f"weaksup.stage_s.{stage}"] > 0


def test_probe_runs_a_flaky_round_in_a_fresh_process(dm, tmp_path):
    workload = make_workload("generate_flaky", 4, tmp_path)
    tally = Tally()
    workload.prepare(dm, tally)
    assert tally.failed == 0, tally.problems
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
         "--workload", "generate_flaky", "--work", str(tmp_path), "--round"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["setup_s"] > 0 and result["peak_rss_mb"] > 0
    assert not (tmp_path / "probe-out").exists()
