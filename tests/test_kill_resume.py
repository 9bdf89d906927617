"""SIGKILL a ``generate`` process at seeded commit, ledger and seal points, then resume.

Each run is a subprocess that calls the CLI's ``main`` after patching the
checkpoint, ledger, seal and statistics writes to kill the process at the
n-th one: before the checkpoint lines of a group commit whose output lines
are already written, halfway through those checkpoint lines, before or
halfway through the append of a reply to ``replies.jsonl`` (inside a group
commit, so the stage's committed items are lost with it), halfway through
a seal, or halfway through ``stats.json``. Reruns go on until one exits 0;
the result must equal an uninterrupted run byte for byte, and no item
committed and no reply whole in the ledger before a kill may be asked for
again after it.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from datamentions.records import PageRecord, write_jsonl
from datamentions.weaksup import compute_stats

from pipeline_fixtures import pipeline_script, write_script_file

DOC = "a" * 40
DOC2 = "b" * 40

_KILLABLE_GENERATE = r"""
import os, signal, sys
from pathlib import Path
from datamentions import cli, ledger, weaksup

kind, n = sys.argv[1], int(sys.argv[2])
seen = 0

def dying(write, flush):
    def write_or_die(data):
        global seen
        seen += 1
        if seen == n:
            if kind.startswith("torn"):
                write(data[: len(data) // 2])
                flush()
            os.kill(os.getpid(), signal.SIGKILL)
        return write(data)
    return write_or_die

class DyingFile:
    def __init__(self, fh):
        self.fh = fh
        self.write = dying(fh.write, fh.flush)
    def __getattr__(self, name):
        return getattr(self.fh, name)

if kind in ("before-ckpt", "torn-ckpt"):
    init = weaksup._StageWriter.__init__
    def init_dying(self, *args):
        init(self, *args)
        self._ckpt = DyingFile(self._ckpt)
    weaksup._StageWriter.__init__ = init_dying
elif kind in ("before-ledger", "torn-ledger"):
    open_ledger = ledger.ReplyLedger.open
    def open_dying(self):
        open_ledger(self)
        self._file = DyingFile(self._file)
    ledger.ReplyLedger.open = open_dying
else:
    target = {"torn-seal": ".seal", "torn-stats": "stats.json"}.get(kind)
    write_bytes = Path.write_bytes
    def write_bytes_dying(self, data):
        if target not in (self.suffix, self.name):
            return write_bytes(self, data)
        with open(self, "wb") as fh:
            return dying(fh.write, fh.flush)(data)
    Path.write_bytes = write_bytes_dying

sys.exit(cli.main(sys.argv[3:]))
"""

_TEMPLATE_OF = {"extract": "extractor", "judge": "judge", "reason": "reasoner"}
_KILLS = ("torn-ledger", "before-ckpt", "before-ledger", "torn-ckpt", "torn-ledger",
          "before-ledger", "torn-ckpt", "before-ckpt", "torn-seal", "torn-seal", "torn-stats")


def _cases() -> list:
    cases = []
    for n in range(1, 7):
        names = [f"Survey {n}-{i}" for i in range(n % 3 + 1)]
        page = PageRecord(doc_id=DOC if n % 2 else DOC2, page_number=n,
                          text=f"Page {n} uses {' and '.join(names)}.")
        cases.append((page, names, [i != 1 for i in range(len(names))],
                      [n % 4 != 0] * (len(names) - (len(names) > 1))))
    cases.append((PageRecord(doc_id=DOC, page_number=9, text="No data here."), [], [], []))
    return cases


def _setup(tmp_path: Path, tag: str, concurrency: int) -> tuple[list[str], Path, Path]:
    cases = _cases()
    script = write_script_file(tmp_path / "script.jsonl", pipeline_script(cases))
    pages = tmp_path / "pages.jsonl"
    write_jsonl(pages, (case[0].to_dict() for case in cases))
    out, log = tmp_path / tag, tmp_path / f"{tag}-calls.jsonl"
    config = tmp_path / f"{tag}.json"
    config.write_text(json.dumps({
        "backend": {"kind": "mock", "script": str(script), "call_log": str(log)},
        "execution": {"concurrency": concurrency},
        "paths": {"output": str(out)},
    }), encoding="utf-8")
    return ["--config", str(config), "generate", "--pages", str(pages)], out, log


def _generate(argv: list[str], kind: str = "none", n: int = 0) -> int:
    proc = subprocess.run(
        [sys.executable, "-c", _KILLABLE_GENERATE, kind, str(n), *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode in (0, -signal.SIGKILL), proc.stderr
    return proc.returncode


def _whole_lines(path: Path) -> list[dict]:
    data = path.read_bytes() if path.exists() else b""
    return [json.loads(line) for line in data[: data.rfind(b"\n") + 1].splitlines()]


def _committed(out: Path) -> set[tuple[str, str]]:
    """(template, digest) of every item whose checkpoint line is complete."""
    return {(template, row["key"].rsplit(":", 1)[1]) for stage, template in _TEMPLATE_OF.items()
            for row in _whole_lines(out / "checkpoints" / f"{stage}.ckpt")}


def _recorded(out: Path) -> set[tuple[str, str]]:
    """(template, digest) of every reply whose ledger line is complete."""
    return {(row["stage"], row["digest"]) for row in _whole_lines(out / "replies.jsonl")}


def _items(out: Path) -> dict[str, int]:
    """The committed items of each stage."""
    return {stage: len(_whole_lines(out / "checkpoints" / f"{stage}.ckpt")) for stage in _TEMPLATE_OF}


def _calls(log: Path) -> list[tuple[str, str]]:
    if not log.exists():
        return []
    rows = (json.loads(line) for line in log.read_text(encoding="utf-8").splitlines())
    return [(row["stage"], row["digest"]) for row in rows]


def _kept_files(out: Path) -> dict[str, bytes]:
    names = ["extracted.jsonl", "judged.jsonl", "assessed.jsonl", "deadletter.jsonl",
             "stats.json"]
    names += [f"checkpoints/{stage}.{kind}" for stage in _TEMPLATE_OF for kind in ("ckpt", "seal")]
    return {name: (out / name).read_bytes() for name in names}


@pytest.mark.parametrize("seed, concurrency", [(1, 1), (2, 1), (3, 4)])
def test_killed_generate_resumes_byte_identically(tmp_path, seed, concurrency) -> None:
    reference, ref_out, ref_log = _setup(tmp_path, "reference", concurrency)
    assert _generate(reference) == 0
    ref_items, replies = _items(ref_out), len(_whole_lines(ref_out / "replies.jsonl"))

    argv, out, log = _setup(tmp_path, "killed", concurrency)
    rng = random.Random(seed)
    kills: list[tuple[int, set]] = []  # (calls logged so far, items kept) at each kill
    for kind in _KILLS:
        if kind == "torn-seal":
            seals = out / "checkpoints"
            whole = sum(1 for p in seals.glob("*.seal") if len(p.read_bytes()) == 65)
            n = rng.randint(1, 3 - whole) if whole < 3 else 0
        elif kind == "torn-stats":
            n = 1  # the run writes it once, at its end: no earlier run got that far
        elif kind.endswith("ckpt"):  # a stage of fewer than 64 items flushes once
            flushes = sum(_items(out)[stage] < ref_items[stage] for stage in _TEMPLATE_OF)
            n = rng.randint(1, flushes) if flushes else 0
        else:  # each reply not yet in the ledger is asked for and appended once
            appends = replies - len(_whole_lines(out / "replies.jsonl"))
            n = rng.randint(1, appends) if appends else 0
        if n == 0:
            continue
        assert _generate(argv, kind, n) == -signal.SIGKILL, kind
        kills.append((len(_calls(log)), _committed(out) | _recorded(out)))
    assert len(kills) >= 3
    assert _generate(argv) == 0

    assert _kept_files(out) == _kept_files(ref_out)
    assert json.loads(_kept_files(out)["stats.json"]) == compute_stats(out).to_dict()
    calls = _calls(log)
    for logged, kept in kills:
        assert kept.isdisjoint(calls[logged:])
    assert sorted(set(calls)) == sorted(set(_calls(ref_log)))

    ledger = (out / "replies.jsonl").read_bytes()
    assert _generate(argv) == 0  # a sealed no-op
    assert _calls(log) == calls
    assert _kept_files(out) == _kept_files(ref_out)
    assert (out / "replies.jsonl").read_bytes() == ledger
