from __future__ import annotations

import json
import re
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from datamentions import ChatResponse, MockChatBackend, RemoteChatBackend, llm
from datamentions.errors import (
    BackendError,
    InvalidRecord,
    MalformedResponse,
    MultiplePayloads,
    NoPayloadFound,
    ParseError,
    RetriesExhausted,
    UnscriptedInput,
)
from datamentions.llm import (
    ChatRequest,
    PromptTemplate,
    StageCall,
    extract_json_payload,
    load_templates,
    request_digest,
)
from datamentions.retries import RetryPolicy

from stubserver import StubServer


def _chat_body(text: str) -> dict:
    return {
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "usage": {"prompt_tokens": 10, "completion_tokens": 5},
    }


# ---------------------------------------------------------------------------
# templates and requests


def test_templates_ship_with_the_package() -> None:
    templates = load_templates()
    assert set(templates) == {"extractor", "judge", "reasoner"}
    for template in templates.values():
        assert template.body.strip()
    assert "<OUTPUTDATA>" in templates["reasoner"].body


def test_load_templates_from_directory(tmp_path) -> None:
    for template_id in ("extractor", "judge", "reasoner"):
        (tmp_path / f"{template_id}.txt").write_text(f"custom {template_id}\n")
    templates = load_templates(tmp_path)
    assert templates["judge"].body == "custom judge\n"


def test_chat_request_validation() -> None:
    with pytest.raises(ValueError):
        ChatRequest(model_name="m", system_prompt="", user_content="u")
    with pytest.raises(ValueError):
        ChatRequest(model_name="m", system_prompt="s", user_content="u", temperature=-1)
    with pytest.raises(ValueError):
        ChatRequest(model_name="m", system_prompt="s", user_content="u", max_output_tokens=0)


def test_request_digest_is_stable_and_distinct() -> None:
    d1 = request_digest("extractor", "page text")
    assert d1 == request_digest("extractor", "page text")
    assert len(d1) == 64 and all(c in "0123456789abcdef" for c in d1)
    assert d1 != request_digest("judge", "page text")
    assert d1 != request_digest("extractor", "other text")


@pytest.mark.parametrize("temperature, digest", [
    (0.0, "50ac72b70d67ff05a664aef2d4d7b8e45cc0b4e620bb3e19ea46ab0ca195d253"),
    (0, "50ac72b70d67ff05a664aef2d4d7b8e45cc0b4e620bb3e19ea46ab0ca195d253"),
    (0.7, "51f3eaae81f511134010ce236dc1cef8bbaab706e5389162bdde993e2f99b2a6"),
])
def test_the_stage_digest_keeps_the_bytes_of_written_ledgers(temperature, digest) -> None:
    # the ``config`` of every reply ledger line written so far; another value
    # would send a rerun back to the backend for every recorded reply
    call = StageCall(PromptTemplate("judge", "p"), "m", temperature, 4096)
    assert call.digest() == digest


# ---------------------------------------------------------------------------
# payload extraction


def test_bare_payload() -> None:
    assert extract_json_payload('  {"a": 1} ') == {"a": 1}


def test_bare_payload_repairs_one_trailing_comma() -> None:
    assert extract_json_payload('{"a": [1, 2,], }') == {"a": [1, 2]}


def test_bare_payload_empty_response() -> None:
    with pytest.raises(NoPayloadFound):
        extract_json_payload("   ")


def test_parse_error_reports_byte_offset() -> None:
    with pytest.raises(ParseError) as excinfo:
        extract_json_payload('{"é": bad}')
    # the failure lands on "bad"; é is two bytes in UTF-8
    assert excinfo.value.offset == 7
    assert "byte offset 7" in str(excinfo.value)


@pytest.mark.parametrize("text", ['["LSMS\\ud800"]', '["LSMS\ud800"]', '{"\\udc00": 1}',
                                  '["LSMS\ud800",'],
                         ids=["escaped", "in the text", "escaped in a key", "in broken text"])
def test_a_payload_holding_a_lone_surrogate_is_a_parse_error(text) -> None:
    with pytest.raises(ParseError) as excinfo:
        extract_json_payload(text)
    str(excinfo.value).encode("utf-8")  # the message itself holds none
    assert extract_json_payload('["\\ud83d\\ude00", "\u00e9"]') == ["\U0001f600", "\u00e9"]


@pytest.mark.parametrize("mode, wrap", [("bare", "{}"), ("fenced", "```json\n{}\n```"),
                                        ("tagged", "<OUTPUTDATA>{}</OUTPUTDATA>")])
def test_a_payload_nested_past_the_recursion_limit_is_a_parse_error(mode, wrap) -> None:
    deep = "[" * 5000 + "]" * 5000
    for payload in (deep, deep[:-1] + ",]"):  # the second takes the repair pass
        with pytest.raises(ParseError, match="nested deeper"):
            extract_json_payload(wrap.format(payload), mode)


def test_fenced_payload() -> None:
    text = 'Sure, here you go:\n```json\n{"b": [2]}\n```\nHope that helps.'
    assert extract_json_payload(text, "fenced") == {"b": [2]}


def test_fenced_payload_requires_a_json_fence() -> None:
    with pytest.raises(NoPayloadFound):
        extract_json_payload('```python\nprint("hi")\n```', "fenced")


def test_tagged_payload_with_inner_fence() -> None:
    text = (
        "Strategy: review each item.\n"
        '<OUTPUTDATA>```json\n{"datasets": []}\n```</OUTPUTDATA>\nDone.'
    )
    assert extract_json_payload(text, "tagged") == {"datasets": []}


def test_tagged_payload_without_fence() -> None:
    assert extract_json_payload('<OUTPUTDATA>{"x": 1}</OUTPUTDATA>', "tagged") == {"x": 1}


def test_tagged_payload_requires_exactly_one_pair() -> None:
    with pytest.raises(NoPayloadFound):
        extract_json_payload("no tags here", "tagged")
    doubled = '<OUTPUTDATA>{"a": 1}</OUTPUTDATA><OUTPUTDATA>{"b": 2}</OUTPUTDATA>'
    with pytest.raises(MultiplePayloads):
        extract_json_payload(doubled, "tagged")


def test_tag_search_returns_what_the_lazy_regex_finds() -> None:
    pieces = st.sampled_from(["<OUTPUTDATA>", "</OUTPUTDATA>", "<OUTPUT", "DATA>", "</", "<",
                              ">", "/", "OUTPUTDATA", "x", "\n", "{}", "é"])

    @settings(max_examples=500, deadline=None)
    @given(st.lists(pieces, max_size=12).map("".join))
    def check(text) -> None:
        assert llm._tagged_spans(text) == re.findall(
            r"<OUTPUTDATA>(.*?)</OUTPUTDATA>", text, re.DOTALL)

    check()
    nested = "<OUTPUTDATA>a<OUTPUTDATA>b</OUTPUTDATA>c</OUTPUTDATA><OUTPUTDATA>d"
    assert llm._tagged_spans(nested) == ["a<OUTPUTDATA>b"]


def test_unknown_mode_rejected() -> None:
    with pytest.raises(ValueError):
        extract_json_payload("{}", "loose")


# ---------------------------------------------------------------------------
# mock backend


def test_mock_backend_answers_scripted_requests() -> None:
    templates = load_templates()
    digest = request_digest("extractor", "some page")
    backend = MockChatBackend({("extractor", digest): "[]"}, templates=templates)
    request = ChatRequest(
        model_name="m",
        system_prompt=templates["extractor"].body,
        user_content="some page",
    )
    response = backend.complete(request)
    assert response == ChatResponse(text="[]", latency=0.0)
    assert backend.calls == [("extractor", digest)]


def test_mock_backend_accepts_stage_aliases() -> None:
    templates = load_templates()
    digest = request_digest("reasoner", "block")
    backend = MockChatBackend({("reason", digest): "ok"}, templates=templates)
    request = ChatRequest(
        model_name="m", system_prompt=templates["reasoner"].body, user_content="block"
    )
    assert backend.complete(request).text == "ok"


def test_mock_backend_rejects_unknown_system_prompt() -> None:
    backend = MockChatBackend({})
    request = ChatRequest(model_name="m", system_prompt="who are you", user_content="hi")
    with pytest.raises(UnscriptedInput):
        backend.complete(request)


def test_mock_backend_rejects_unscripted_content() -> None:
    templates = load_templates()
    backend = MockChatBackend({}, templates=templates)
    request = ChatRequest(
        model_name="m", system_prompt=templates["judge"].body, user_content="surprise"
    )
    with pytest.raises(UnscriptedInput):
        backend.complete(request)


def test_mock_backend_from_script_file_and_call_log(tmp_path) -> None:
    templates = load_templates()
    script_path = tmp_path / "script.jsonl"
    script_path.write_text(
        json.dumps({"stage": "extract", "user_content": "page one", "response": "[]"})
        + "\n"
        + json.dumps(
            {
                "stage": "judge",
                "digest": request_digest("judge", "block one"),
                "response": "[]",
            }
        )
        + "\n",
        encoding="utf-8",
    )
    log_path = tmp_path / "calls.jsonl"
    backend = MockChatBackend.from_script_file(
        script_path, templates=templates, call_log=log_path
    )
    backend.complete(
        ChatRequest(
            model_name="m",
            system_prompt=templates["extractor"].body,
            user_content="page one",
        )
    )
    backend.complete(
        ChatRequest(
            model_name="m",
            system_prompt=templates["judge"].body,
            user_content="block one",
        )
    )
    logged = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert [entry["stage"] for entry in logged] == ["extractor", "judge"]


@pytest.mark.parametrize("line, refused", [
    ('{"stage": "extract", "digest": "d", "response": "[\\"LSMS\\ud800\\"]"}', False),
    ('{"stage": "extract\\ud800", "digest": "d", "response": "[]"}', True),
    ('{"stage": "extract", "digest": "d\\udfff", "response": "[]"}', True),
    ('{"stage": "extract", "digest": "d", "response": "[]", "\\ud800": "x"}', True),
], ids=["response", "stage", "digest", "key"])
def test_a_script_keeps_a_lone_surrogate_in_a_response_only(tmp_path, line, refused) -> None:
    script_path = tmp_path / "script.jsonl"
    script_path.write_text(line + "\n", encoding="utf-8")
    if refused:
        with pytest.raises(InvalidRecord, match=r"script\.jsonl: line 1 holds a lone surrogate"):
            MockChatBackend.from_script_file(script_path)
    else:
        backend = MockChatBackend.from_script_file(script_path)
        assert backend.script == {("extractor", "d"): '["LSMS\ud800"]'}


def test_a_digest_on_several_script_lines_is_given_them_in_order(tmp_path) -> None:
    templates = load_templates()
    script_path = tmp_path / "script.jsonl"
    lines = [{"stage": "extract", "user_content": "page one", "response": text}
             for text in ("first", "second", "third")]
    lines.insert(1, {"stage": "judge", "user_content": "block one", "response": "only"})
    script_path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    backend = MockChatBackend.from_script_file(script_path, templates=templates)
    assert backend.script[("judge", request_digest("judge", "block one"))] == "only"

    def ask(template_id: str, user_content: str) -> str:
        return backend.complete(ChatRequest(
            model_name="m", system_prompt=templates[template_id].body,
            user_content=user_content)).text

    assert [ask("extractor", "page one") for _ in range(5)] == [
        "first", "second", "third", "third", "third"]  # the last one repeats
    assert [ask("judge", "block one") for _ in range(2)] == ["only", "only"]


def test_a_digest_with_several_replies_gives_each_once_to_many_threads() -> None:
    templates = load_templates()
    replies = [f"reply {i}" for i in range(60)]
    backend = MockChatBackend({("extract", request_digest("extractor", "page")): replies},
                              templates=templates)
    request = ChatRequest(model_name="m", system_prompt=templates["extractor"].body,
                          user_content="page")
    given: list[str] = []

    def ask() -> None:
        for _ in range(30):
            given.append(backend.complete(request).text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    # a lost update of the served count would give an earlier reply twice
    assert sorted(given) == sorted(replies + replies[-1:] * (8 * 30 - len(replies)))


# ---------------------------------------------------------------------------
# remote backend


def _remote(url: str, attempts: int = 5) -> RemoteChatBackend:
    return RemoteChatBackend(
        base_url=url,
        api_key_env="TEST_CHAT_KEY",
        retry_policy=RetryPolicy(attempts=attempts, base_delay=0.01),
        sleep=lambda _: None,
    )


def _request() -> ChatRequest:
    return ChatRequest(model_name="test-model", system_prompt="sys", user_content="user")


def test_remote_backend_requires_api_key(monkeypatch) -> None:
    monkeypatch.delenv("TEST_CHAT_KEY", raising=False)
    with pytest.raises(BackendError):
        _remote("http://127.0.0.1:9").complete(_request())


def test_remote_backend_posts_the_chat_protocol(monkeypatch) -> None:
    monkeypatch.setenv("TEST_CHAT_KEY", "sk-test")
    with StubServer([{"body": _chat_body("hello")}]) as server:
        response = _remote(server.url).complete(_request())
    assert response.text == "hello"
    assert response.retries == 0
    assert response.token_usage == {"prompt_tokens": 10, "completion_tokens": 5}
    sent = server.requests[0]
    assert sent["path"] == "/chat/completions"
    assert sent["headers"]["Authorization"] == "Bearer sk-test"
    body = json.loads(sent["body"])
    assert body["model"] == "test-model"
    assert body["messages"] == [
        {"role": "system", "content": "sys"},
        {"role": "user", "content": "user"},
    ]
    assert body["temperature"] == 0.0
    assert body["max_tokens"] == 4096


def test_remote_backend_retries_transient_failures(monkeypatch) -> None:
    monkeypatch.setenv("TEST_CHAT_KEY", "sk-test")
    script = [{"status": 429}, {"status": 429}, {"body": _chat_body("eventually")}]
    with StubServer(script) as server:
        response = _remote(server.url).complete(_request())
    assert response.text == "eventually"
    assert response.retries == 2
    assert len(server.requests) == 3


def test_remote_backend_exhausts_on_persistent_500(monkeypatch) -> None:
    monkeypatch.setenv("TEST_CHAT_KEY", "sk-test")
    with StubServer([{"status": 500}]) as server:
        with pytest.raises(RetriesExhausted):
            _remote(server.url, attempts=4).complete(_request())
        assert len(server.requests) == 4


def test_remote_backend_definitive_rejection(monkeypatch) -> None:
    monkeypatch.setenv("TEST_CHAT_KEY", "sk-test")
    with StubServer([{"status": 403, "body": {"error": "forbidden"}}]) as server:
        with pytest.raises(BackendError) as excinfo:
            _remote(server.url).complete(_request())
    assert excinfo.value.status_code == 403


def test_remote_backend_malformed_completion_body(monkeypatch) -> None:
    monkeypatch.setenv("TEST_CHAT_KEY", "sk-test")
    with StubServer([{"body": {"choices": []}}]) as server:
        with pytest.raises(MalformedResponse):
            _remote(server.url).complete(_request())
