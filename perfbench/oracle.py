"""Correctness checks for benchmark runs.

Every check adds to a ``Tally``: the number of operations it judged, how
many disagree with the reference, and a short description of each
disagreement for the log. ``ops_failed_frac`` is ``failed / attempted``
over a whole run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.inputs import tokens

MATCH_THRESHOLD = 0.5  # a pair matches when its Jaccard is strictly above this
F_BETA = 0.5
STAGE_FILES = ("extracted.jsonl", "judged.jsonl", "assessed.jsonl", "deadletter.jsonl")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, problem: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(problem)


def tree_digest(directory: Path) -> dict[str, str]:
    """A digest of every file under ``directory``, by relative path."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def differing_lines(actual: bytes, expected: list[str]) -> int:
    """Lines of ``actual`` that differ from ``expected`` by position, plus any surplus."""
    lines = actual.decode("utf-8", errors="replace").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    else:
        return max(len(lines), len(expected)) or 1  # unterminated last line
    bad = sum(1 for a, e in zip(lines, expected) if a != e)
    return bad + abs(len(lines) - len(expected))


def check_stage_files(out_dir: Path, expected: dict[str, list[str]],
                      expected_dead: list[tuple], tally: Tally) -> None:
    """Stage files equal the generator's expected lines; dead letters are the seeded items."""
    for name, lines in expected.items():
        path = out_dir / name
        actual = path.read_bytes() if path.exists() else b""
        bad = differing_lines(actual, lines)
        tally.add(len(lines), min(bad, max(len(lines), 1)), f"{name}: {bad} lines differ")
    dead_path = out_dir / "deadletter.jsonl"
    rows = []
    if dead_path.exists():
        for raw in dead_path.read_text(encoding="utf-8").splitlines():
            try:
                row = json.loads(raw)
                rows.append((row["stage"], row["key"], row["doc_id"], row["page_number"], row["error"]))
            except (ValueError, KeyError):
                rows.append(("unparseable", raw[:60], "", 0, ""))
    bad = sum(1 for a, e in zip(rows, expected_dead) if a != tuple(e))
    bad += abs(len(rows) - len(expected_dead))
    tally.add(len(expected_dead), min(bad, max(len(expected_dead), 1)),
              f"deadletter.jsonl: {bad} entries differ from the seeded malformed items")
    stats_path = out_dir / "stats.json"
    actual = stats_path.read_text(encoding="utf-8") if stats_path.exists() else ""
    tally.add(1, int(actual != expected_stats(expected)), "stats.json disagrees with the stage files")


def expected_stats(expected: dict[str, list[str]]) -> str:
    """stats.json as the counts of the expected stage lines give it."""
    extracted = [json.loads(x) for x in expected["extracted.jsonl"]]
    judged_valid = sum(v["valid"] for x in expected["judged.jsonl"] for v in json.loads(x)["verdicts"])
    agent_valid = sum(a["valid"] for x in expected["assessed.jsonl"] for a in json.loads(x)["assessments"])
    stats = {
        "pages_processed": len(extracted),
        "blocks_extracted": sum(len(row["blocks"]) for row in extracted),
        "mentions_extracted": sum(len(b["datasets"]) for row in extracted for b in row["blocks"]),
        "mentions_judged_valid": judged_valid,
        "mentions_agent_valid": agent_valid,
    }
    if judged_valid:
        stats["retention_after_agent"] = agent_valid / judged_valid
    return json.dumps(stats, ensure_ascii=False, indent=2) + "\n"


def check_same_bytes(out_dir: Path, reference: dict[str, bytes], n_items: int, tally: Tally) -> None:
    """Stage files and stats are byte-identical to the reference run."""
    failed = 0
    for name, ref in reference.items():
        path = out_dir / name
        actual = path.read_bytes() if path.exists() else b""
        if actual != ref:
            ref_lines = ref.decode("utf-8").split("\n")[:-1]
            failed += differing_lines(actual, ref_lines) or 1
    tally.add(n_items, min(failed, n_items), f"{failed} output lines differ from the reference run")


# ---------------------------------------------------------------------------
# scoring reference


def reference_match(predicted: list[str], gold: list[str]):
    """Greedy one-to-one matching by descending Jaccard over unique lowercase tokens.

    Pairs strictly above ``MATCH_THRESHOLD`` are candidates; ties break by
    (gold index, prediction index). Returns (tp, fp, fn, pairs) with pairs
    as (gold index, prediction index, jaccard) triples.
    """
    pred_tokens = [tokens(p) for p in predicted]
    gold_tokens = [tokens(g) for g in gold]
    candidates = []
    for gi, g in enumerate(gold_tokens):
        for pi, p in enumerate(pred_tokens):
            inter = len(g & p)
            union = len(g) + len(p) - inter
            j = inter / union if union else 0.0
            if j > MATCH_THRESHOLD:
                candidates.append((j, gi, pi))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    used_g, used_p, pairs = set(), set(), []
    for j, gi, pi in candidates:
        if gi in used_g or pi in used_p:
            continue
        used_g.add(gi)
        used_p.add(pi)
        pairs.append((gi, pi, j))
    tp = len(pairs)
    return tp, len(predicted) - tp, len(gold) - tp, tuple(pairs)


def reference_scores(predictions: list[dict], gold: list[dict]) -> dict[tuple[str, int], tuple]:
    gold_by_key = {(g["doc_id"], g["page_number"]): g["gold_names"] for g in gold}
    out = {}
    for p in predictions:
        key = (p["doc_id"], p["page_number"])
        out[key] = reference_match(p["predicted_names"], gold_by_key.get(key, []))
    return out


def fbeta_report(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else (1.0 if fn == 0 else 0.0)
    recall = tp / (tp + fn) if tp + fn else (1.0 if fp == 0 else 0.0)
    if precision + recall == 0:
        return precision, recall, 0.0
    b2 = F_BETA * F_BETA
    return precision, recall, (1 + b2) * precision * recall / (b2 * precision + recall)


def check_scores(report, results: dict, reference: dict, tally: Tally) -> None:
    """Per-page counts and pairs, and the micro totals, match the reference matcher."""
    bad = sum(
        1 for key, ref in reference.items()
        if key not in results
        or (results[key].tp, results[key].fp, results[key].fn, tuple(results[key].pairs)) != ref
    )
    bad += len(set(results) - set(reference))
    tally.add(len(reference), bad, f"{bad} scored pages disagree with the reference matcher")
    tp = sum(r[0] for r in reference.values())
    fp = sum(r[1] for r in reference.values())
    fn = sum(r[2] for r in reference.values())
    want = (tp, fp, fn) + fbeta_report(tp, fp, fn)
    got = (report.tp, report.fp, report.fn, report.precision, report.recall, report.f_beta)
    tally.add(1, int(got != want), f"score totals {got} != reference {want}")
