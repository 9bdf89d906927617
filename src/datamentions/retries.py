"""Bounded exponential backoff for HTTP calls.

One policy serves both the metadata client and the chat backend: transient
failures (connection errors, timeouts, HTTP 429 and 5xx) are retried with
exponential backoff, honoring a Retry-After header when the server sends
one; any other response is returned to the caller for interpretation.
"""

from __future__ import annotations

import logging
import math
import time
from typing import TYPE_CHECKING, Callable

from .errors import RateLimited, RetriesExhausted, Timeout
from .records import frozen_record

if TYPE_CHECKING:
    import requests

log = logging.getLogger(__name__)


@frozen_record
class RetryPolicy:
    """How many times to try a call, and the exponential backoff between tries."""

    attempts: int = 5
    base_delay: float = 1.0
    factor: float = 2.0
    max_delay: float = 60.0

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return min(self.base_delay * self.factor ** (attempt - 1), self.max_delay)


def _retry_after_seconds(response: requests.Response) -> float | None:
    """The Retry-After header in seconds; None when absent or not a finite number."""
    header = response.headers.get("Retry-After")
    if header is None:
        return None
    try:
        seconds = float(header)
    except ValueError:
        return None
    return max(seconds, 0.0) if math.isfinite(seconds) else None


def send_with_retries(
    send: Callable[[], requests.Response],
    policy: RetryPolicy = RetryPolicy(),
    *,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[requests.Response, int]:
    """Run ``send`` under the retry policy; return (response, retries used).

    Responses other than 429/5xx are returned as-is, including 4xx — the
    caller decides what a definitive rejection means. When the budget runs
    out the last failure class picks the exception: :class:`Timeout`,
    :class:`RateLimited` (with the retry-after hint), or
    :class:`RetriesExhausted`. A 429's Retry-After raises the wait after
    that 429 alone, never a later one, and no wait before a retry exceeds
    ``policy.max_delay``, whatever Retry-After asks for.
    """
    import requests  # loaded by the first call, so processes that never send skip it

    last_kind = "network"
    last_detail = ""
    for attempt in range(1, policy.attempts + 1):
        retry_after: float | None = None
        try:
            response = send()
        except requests.Timeout as exc:
            last_kind, last_detail = "timeout", str(exc)
        except requests.RequestException as exc:
            last_kind, last_detail = "network", str(exc)
        else:
            if response.status_code == 429:
                last_kind = "rate_limited"
                last_detail = "HTTP 429"
                retry_after = _retry_after_seconds(response)
            elif response.status_code >= 500:
                last_kind, last_detail = "server_error", f"HTTP {response.status_code}"
            else:
                return response, attempt - 1
        if attempt < policy.attempts:
            delay = policy.delay(attempt)
            if retry_after is not None:
                delay = min(max(delay, retry_after), policy.max_delay)
            log.debug("transient failure (%s), retry %d/%d in %.1fs",
                      last_detail, attempt, policy.attempts - 1, delay)
            sleep(delay)

    message = f"gave up after {policy.attempts} attempts: {last_detail}"
    if last_kind == "timeout":
        raise Timeout(message)
    if last_kind == "rate_limited":
        raise RateLimited(message, retry_after=retry_after)
    raise RetriesExhausted(message)
