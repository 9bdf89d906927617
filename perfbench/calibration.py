"""A fixed CPU-bound loop that measures how fast the host runs right now.

On a shared virtual machine the speed of the CPU drifts by a fifth or more
over minutes, and process CPU time drifts with it, so two runs of the same
code can disagree by more than a regression worth catching. A CPU-bound
timing is therefore scaled by this loop, timed just before and just after
it: ``scaled = measured * REFERENCE_S / loop_time``. The figure reads as
seconds on a host where the loop takes ``REFERENCE_S``; a slower program
still reads slower, while the host's drift cancels.

The loop is benchmark code, identical for every version of the program. It
does what the program spends its CPU on, over a working set of a few
megabytes as the program's is, so that it feels the same cache pressure
from other tenants: building a set of page keys, tokenising page text, and
pure-Python JSON encoding with indentation and decoding.
"""

from __future__ import annotations

import functools
import json
import random
import re
from time import perf_counter

REFERENCE_S = 0.02  # about the loop's time on a quiet 2-core cloud virtual machine
_TOKEN = re.compile(r"[a-z0-9]+")


@functools.cache  # built on first use, so a process that only imports this module stays small
def _pages() -> list[dict]:
    rng = random.Random(0)
    words = ("the of survey panel household income labor market region rural "
             "urban census wave estimate district village").split()
    return [
        {"doc_id": f"{rng.getrandbits(160):040x}", "page_number": i % 12 + 1,
         "text": " ".join(rng.choice(words) for _ in range(380))}
        for i in range(2000)
    ]


def loop_time() -> float:
    """Seconds the calibration loop takes now."""
    pages = _pages()
    t0 = perf_counter()
    keys = set()
    for i, page in enumerate(pages):
        keys.add((page["doc_id"], page["page_number"]))
        if i % 4 == 0:
            frozenset(_TOKEN.findall(page["text"][:600]))
        if i % 16 == 0:
            block = {"source": page["doc_id"], "mentioned_in": [page["text"][:80]] * 6}
            json.loads(json.dumps(block, ensure_ascii=False, indent=2))
    sorted(keys)
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """The factor that turns a timing taken between two loops into reference seconds."""
    return REFERENCE_S / ((before + after) / 2.0)

