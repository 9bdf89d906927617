"""Benchmark-owned stand-ins for the remote services.

``FaultyBackend`` wraps the program's scripted ``MockChatBackend``. It adds
a fixed per-call delay, raises a once-only transient failure on chosen
requests, and counts calls itself: the mock's own call log opens a file on
every call, which would put mock overhead into the timed path.
``DelayGate`` stands in for the remote page classifier.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Mapping


class FaultyBackend:
    """Latency and fault injection around a chat backend, with call accounting.

    Calls are keyed by (template id, user content), which identifies a request
    exactly as its digest does without hashing on the hot path. A request in
    ``faults`` fails once with ``RetriesExhausted`` (after the delay, as a
    real exhausted retry would) and succeeds when issued again.

    ``wasted`` counts calls whose request had already succeeded in an
    invocation that was later interrupted: that reply was paid for and thrown
    away. Each retry of a malformed reply counts, as each was paid for once
    before. A committed request is never issued again, so it never counts.
    The supervisor marks invocation boundaries.
    """

    def __init__(self, inner, templates: Mapping, *, delay_s: float = 0.0,
                 faults: frozenset = frozenset(), transient_error: type[Exception]):
        self.inner = inner
        self.delay_s = delay_s
        self.faults = faults
        self.transient_error = transient_error
        self._template_of = {t.body: t.template_id for t in templates.values()}
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.issued = 0
        self.failed = 0
        self.wasted = 0
        self._faulted: set = set()
        self._succeeded_now: set = set()
        self._succeeded_before_stop: set = set()

    def complete(self, request):
        key = (self._template_of.get(request.system_prompt), request.user_content)
        with self._lock:
            self.issued += 1
            if key in self._succeeded_before_stop:
                self.wasted += 1
            inject = key in self.faults and key not in self._faulted
            if inject:
                self._faulted.add(key)
        if self.delay_s:
            time.sleep(self.delay_s)
        if inject:
            with self._lock:
                self.failed += 1
            raise self.transient_error("injected transient failure")
        response = self.inner.complete(request)
        with self._lock:
            self._succeeded_now.add(key)
        return response

    def begin_invocation(self) -> None:
        with self._lock:
            self._succeeded_now = set()

    def invocation_interrupted(self) -> None:
        with self._lock:
            self._succeeded_before_stop |= self._succeeded_now
            self._succeeded_now = set()


class DelayGate:
    """A page gate that waits a fixed time per page, then defers to ``inner``.

    Stands in for a remote classifier: the wait dominates, the decision is
    the keyword gate's, so outputs match an undelayed reference run.
    """

    def __init__(self, inner, delay_s: float):
        self.inner = inner
        self.delay_s = delay_s

    def score_page(self, text: str) -> float:
        time.sleep(self.delay_s)
        return self.inner.score_page(text)


def supervise(run: Callable[[], object], backend: FaultyBackend,
              interrupted: type[Exception], max_invocations: int) -> tuple[object, int]:
    """Rerun ``run`` after each interruption, as an operator does on exit 5.

    Returns the final result and the number of invocations it took.
    """
    for invocation in range(1, max_invocations + 1):
        backend.begin_invocation()
        try:
            return run(), invocation
        except interrupted:
            backend.invocation_interrupted()
    raise RuntimeError(f"pipeline did not finish within {max_invocations} invocations")
