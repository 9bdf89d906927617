from __future__ import annotations

import threading
from contextlib import closing

import pytest

from datamentions.window import windowed_map


def _source(count: int, fail_at: int | None = None):
    for n in range(count):
        if n == fail_at:
            raise ValueError(f"unreadable item {n}")
        yield n


@pytest.mark.parametrize("width", [1, 2, 4])
def test_a_failing_source_raises_after_the_results_before_it(width) -> None:
    got: list[int] = []
    with pytest.raises(ValueError, match="item 7"):
        for result in windowed_map(lambda n: n * n, _source(20, fail_at=7), width):
            got.append(result)
    assert got == [n * n for n in range(7)]


def test_closing_early_cancels_the_queued_calls() -> None:
    lock, started, release = threading.Lock(), [], threading.Event()

    def blocking(n: int) -> int:
        with lock:
            started.append(n)
        if n >= 2:  # holds every worker until the consumer has closed
            release.wait(timeout=5)
        return n

    width = 4
    timer = threading.Timer(0.05, release.set)
    with closing(windowed_map(blocking, range(100), width)) as results:
        assert [next(results), next(results)] == [0, 1]
        timer.start()  # close() cancels the queued items, then waits for the running ones
    timer.join(timeout=5)
    assert release.is_set()
    assert sorted(started) == list(range(len(started)))
    assert len(started) <= 2 + width  # items 0 and 1, and those the workers held at close
