"""A bounded in-flight window: ``fn`` over items on a few threads, results in order.

:func:`windowed_map` is the one way the library overlaps calls to a remote
service, the gate's page classifier and the pipeline's chat backend alike.
At most ``2 * width`` calls are queued or running at any time, and only the
window's items are held in memory, never the whole input. A run that stops
early has made at most that many calls whose results it does not use: the
gate throws those scores away, while the pipeline has recorded those
replies in its ledger and is given them again when it resumes.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["windowed_map"]


def windowed_map(fn: Callable[[T], R], items: Iterable[T], width: int) -> Iterator[R]:
    """Yield ``fn(item)`` for each item, in input order.

    Width 1 is plain :func:`map` in the caller's thread. A larger width runs
    ``fn`` on ``width`` threads with at most ``2 * width`` items submitted
    and not yet yielded; the next item is submitted as each result is
    yielded. ``items`` is read in the caller's thread, an item at a time as
    it is submitted, and may be a one-shot iterator.

    The first exception in input order propagates, whether ``fn`` raised it
    or reading ``items`` did (the latter after the results of the items
    before it, as with :func:`map`). Any exit, that exception, one thrown
    into the generator or :meth:`close`, cancels the queued calls and waits
    only for those running, so close the generator (``contextlib.closing``)
    when the consumer may stop early.
    """
    if width <= 1:
        yield from map(fn, items)
        return
    source = iter(items)
    queued: deque[Future] = deque()

    def submit_next() -> None:
        nonlocal source
        try:
            item = next(source)
        except StopIteration:
            return
        except Exception as exc:
            failed: Future = Future()
            failed.set_exception(exc)  # raised in this item's place, after those before it
            queued.append(failed)
            source = iter(())
            return
        queued.append(pool.submit(fn, item))

    pool = ThreadPoolExecutor(width)
    try:
        for _ in range(2 * width):
            submit_next()
        while queued:
            result = queued.popleft().result()
            submit_next()
            yield result
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
