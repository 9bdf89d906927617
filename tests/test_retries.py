from __future__ import annotations

from types import SimpleNamespace

import pytest
import requests

from datamentions.errors import RateLimited, RetriesExhausted, Timeout
from datamentions.retries import RetryPolicy, send_with_retries


def _response(status: int, headers: dict | None = None) -> SimpleNamespace:
    return SimpleNamespace(status_code=status, headers=headers or {})


def _scripted(outcomes: list):
    """A send() that replays outcomes: exceptions raise, responses return."""
    outcomes = list(outcomes)

    def send():
        outcome = outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    return send


def test_immediate_success_uses_no_retries() -> None:
    sleeps: list[float] = []
    response, retries = send_with_retries(
        _scripted([_response(200)]), RetryPolicy(), sleep=sleeps.append
    )
    assert response.status_code == 200
    assert retries == 0
    assert sleeps == []


def test_client_errors_are_returned_not_retried() -> None:
    response, retries = send_with_retries(
        _scripted([_response(404)]), RetryPolicy(), sleep=lambda _: None
    )
    assert response.status_code == 404
    assert retries == 0


def test_transient_500_then_success() -> None:
    sleeps: list[float] = []
    response, retries = send_with_retries(
        _scripted([_response(500), _response(503), _response(200)]),
        RetryPolicy(attempts=5, base_delay=1.0, factor=2.0),
        sleep=sleeps.append,
    )
    assert response.status_code == 200
    assert retries == 2
    assert sleeps == [1.0, 2.0]


def test_connection_errors_then_exhaustion() -> None:
    failures = [requests.ConnectionError("refused")] * 3
    with pytest.raises(RetriesExhausted):
        send_with_retries(
            _scripted(failures), RetryPolicy(attempts=3), sleep=lambda _: None
        )


def test_timeout_exhaustion_maps_to_timeout_error() -> None:
    failures = [requests.Timeout("too slow")] * 2
    with pytest.raises(Timeout):
        send_with_retries(
            _scripted(failures), RetryPolicy(attempts=2), sleep=lambda _: None
        )


def test_rate_limit_exhaustion_carries_retry_after() -> None:
    responses = [_response(429, {"Retry-After": "17"})] * 2
    with pytest.raises(RateLimited) as excinfo:
        send_with_retries(
            _scripted(responses), RetryPolicy(attempts=2), sleep=lambda _: None
        )
    assert excinfo.value.retry_after == 17.0


def test_retry_after_raises_the_backoff_floor() -> None:
    sleeps: list[float] = []
    send_with_retries(
        _scripted([_response(429, {"Retry-After": "7"}), _response(200)]),
        RetryPolicy(attempts=3, base_delay=1.0, factor=2.0),
        sleep=sleeps.append,
    )
    assert sleeps == [7.0]


def test_delay_schedule_caps_at_max_delay() -> None:
    policy = RetryPolicy(attempts=10, base_delay=1.0, factor=2.0, max_delay=8.0)
    assert [policy.delay(a) for a in (1, 2, 3, 4, 5)] == [1.0, 2.0, 4.0, 8.0, 8.0]


@pytest.mark.parametrize("header, waited, hint", [
    ("inf", 1.0, None),  # time.sleep(inf) raises OverflowError
    ("nan", 1.0, None),
    ("-inf", 1.0, None),
    ("86400", 60.0, 86400.0),  # a day, against a policy that waits a minute at most
])
def test_retry_after_never_waits_past_max_delay(header, waited, hint) -> None:
    policy = RetryPolicy(attempts=2, base_delay=1.0, factor=2.0, max_delay=60.0)
    sleeps: list[float] = []
    send_with_retries(
        _scripted([_response(429, {"Retry-After": header}), _response(200)]),
        policy, sleep=sleeps.append,
    )
    assert sleeps == [waited]
    with pytest.raises(RateLimited) as excinfo:
        send_with_retries(
            _scripted([_response(429, {"Retry-After": header})] * 2),
            policy, sleep=lambda _: None,
        )
    assert excinfo.value.retry_after == hint


def test_a_retry_after_hint_sets_only_the_wait_after_its_own_429() -> None:
    sleeps: list[float] = []
    response, retries = send_with_retries(
        _scripted([_response(429, {"Retry-After": "30"}), _response(503), _response(503),
                   _response(200)]),
        RetryPolicy(attempts=5, base_delay=1.0, factor=2.0),
        sleep=sleeps.append,
    )
    assert response.status_code == 200 and retries == 3
    assert sleeps == [30.0, 2.0, 4.0]
