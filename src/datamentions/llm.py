"""Chat-completion gateway: backends, prompt templates, payload extraction.

Three system prompts ship with the package, one file per stage, loaded
verbatim: ``extractor`` (find dataset mentions on a page), ``judge``
(validate each mention), and ``reasoner`` (devil's-advocate review with a
tagged output contract). Backends speak the OpenAI-compatible
chat-completions wire protocol or are deterministic mocks scripted by
request digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Protocol, Sequence

from .errors import (
    BackendError,
    InvalidRecord,
    MalformedResponse,
    MissingField,
    MultiplePayloads,
    NoPayloadFound,
    ParseError,
    UnknownTemplate,
    UnscriptedInput,
)
from .records import _has_lone_surrogate, _loads_exact, frozen_record, read_rows
from .retries import RetryPolicy, send_with_retries

if TYPE_CHECKING:
    import requests

TEMPLATE_IDS = ("extractor", "judge", "reasoner")
DEFAULT_MODEL = "gpt-4o-mini-2024-07-18"
# pipeline stage name -> the template id of its prompt
_STAGE_ALIASES = {"extract": "extractor", "judge": "judge", "reason": "reasoner"}

__all__ = [
    "ChatBackend",
    "ChatRequest",
    "ChatResponse",
    "DEFAULT_MODEL",
    "MockChatBackend",
    "PromptTemplate",
    "RemoteChatBackend",
    "StageCall",
    "TEMPLATE_IDS",
    "extract_json_payload",
    "load_templates",
    "request_digest",
]


@frozen_record
class ChatRequest:
    """One chat call: the model, its system and user prompts, and the decoding settings."""

    model_name: str
    system_prompt: str
    user_content: str
    temperature: float = 0.0
    max_output_tokens: int = 4096

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if not self.system_prompt or not self.user_content:
            raise ValueError("prompts must be non-empty")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be positive")


@frozen_record
class ChatResponse:
    """A model reply with its token usage, latency in seconds and retry count."""

    text: str
    token_usage: Mapping[str, int] | None = None
    latency: float = 0.0
    retries: int = 0


@frozen_record
class PromptTemplate:
    """The prompt text of one pipeline stage, named by its template id."""

    template_id: str
    body: str

    def __post_init__(self) -> None:
        if self.template_id not in TEMPLATE_IDS:
            raise UnknownTemplate(f"unknown template id {self.template_id!r}")
        if not self.body:
            raise ValueError(f"template {self.template_id!r} has an empty body")


@frozen_record
class StageCall:
    """What, besides a request's body, decides a stage's reply: its prompt, model and decoding."""

    template: PromptTemplate
    model_name: str = DEFAULT_MODEL
    temperature: float = 0.0
    max_output_tokens: int = 4096

    def request(self, user_content: str) -> ChatRequest:
        """The chat call that sends ``user_content`` under these settings."""
        return ChatRequest(self.model_name, self.template.body, user_content,
                           self.temperature, self.max_output_tokens)

    def digest(self) -> str:
        """The sha256 hex digest of the prompt body, ``model_name``, ``temperature`` and
        ``max_output_tokens``; a change to any of them gives another digest."""
        settings = json.dumps({"prompt": self.template.body, "model_name": self.model_name,
                               "temperature": float(self.temperature),
                               "max_output_tokens": self.max_output_tokens}, sort_keys=True)
        return hashlib.sha256(settings.encode("ascii")).hexdigest()


def load_templates(prompts_dir: str | Path | None = None) -> dict[str, PromptTemplate]:
    """Load the three stage prompts, from a directory or the packaged set."""
    templates: dict[str, PromptTemplate] = {}
    for template_id in TEMPLATE_IDS:
        if prompts_dir is not None:
            body = (Path(prompts_dir) / f"{template_id}.txt").read_text(encoding="utf-8")
        else:
            body = (
                resources.files("datamentions") / "prompts" / f"{template_id}.txt"
            ).read_text(encoding="utf-8")
        templates[template_id] = PromptTemplate(template_id=template_id, body=body)
    return templates


def request_digest(template_id: str, user_content: str) -> str:
    """Stable identity of one request: hash of (template id, user content)."""
    h = hashlib.sha256()
    h.update(template_id.encode("utf-8"))
    h.update(b"\x00")
    h.update(user_content.encode("utf-8"))
    return h.hexdigest()


class ChatBackend(Protocol):
    def complete(self, request: ChatRequest) -> ChatResponse: ...


# ---------------------------------------------------------------------------
# backends


@dataclass
class RemoteChatBackend:
    """OpenAI-compatible chat-completions endpoint.

    The API key is read from the named environment variable at call time;
    requests retry per policy on transient failures, and any other 4xx is a
    definitive :class:`BackendError`.
    """

    base_url: str
    api_key_env: str = "OPENAI_API_KEY"
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    timeout: float = 120.0
    session: requests.Session | None = None
    sleep: Callable[[float], None] = time.sleep

    def _headers(self) -> dict[str, str]:
        key = os.environ.get(self.api_key_env, "")
        if not key:
            raise BackendError(
                f"no API key found in environment variable {self.api_key_env!r}"
            )
        return {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}

    def complete(self, request: ChatRequest) -> ChatResponse:
        import requests  # loaded by the first call, not when the module is

        url = self.base_url.rstrip("/") + "/chat/completions"
        payload = {
            "model": request.model_name,
            "messages": [
                {"role": "system", "content": request.system_prompt},
                {"role": "user", "content": request.user_content},
            ],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        headers = self._headers()
        http = self.session or requests
        started = time.monotonic()
        response, retries = send_with_retries(
            lambda: http.post(url, json=payload, headers=headers, timeout=self.timeout),
            self.retry_policy,
            sleep=self.sleep,
        )
        latency = time.monotonic() - started
        if response.status_code != 200:
            raise BackendError(
                f"chat endpoint rejected the request: HTTP {response.status_code}",
                status_code=response.status_code,
            )
        try:
            body = response.json()
            text = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise MalformedResponse(f"unexpected completion body: {exc}") from exc
        if not isinstance(text, str):
            raise MalformedResponse("completion content is not text")
        return ChatResponse(
            text=text,
            token_usage=body.get("usage"),
            latency=latency,
            retries=retries,
        )


def _script_entry(entry: dict[str, Any]) -> tuple[tuple[str, str], str]:
    """A mock script line's (template id, digest) and its reply."""
    keyed = "digest" in entry
    for key in ("stage", "response", "digest" if keyed else "user_content"):
        if key not in entry:
            raise MissingField(key, "script line")
        if not isinstance(entry[key], str):
            raise InvalidRecord(f"script line: {key} is not a string: {type(entry[key]).__name__}")
    stage = _STAGE_ALIASES.get(entry["stage"], entry["stage"])
    digest = entry["digest"] if keyed else request_digest(stage, entry["user_content"])
    return (stage, digest), entry["response"]


class MockChatBackend:
    """Deterministic backend scripted by (template id, request digest).

    The template id is recovered from the system prompt, so requests built
    from the shipped prompts resolve without extra plumbing. Unknown system
    prompts or unscripted digests fail fast with :class:`UnscriptedInput`.
    A digest scripted with a list of replies is given them in the order it
    is asked, the last one repeating; one scripted with a string is always
    given that string. An optional call log appends one line per
    completion, which lets tests count backend calls across process
    boundaries.
    """

    def __init__(
        self,
        script: Mapping[tuple[str, str], str | Sequence[str]],
        templates: Mapping[str, PromptTemplate] | None = None,
        call_log: str | Path | None = None,
    ):
        self.script = {
            (_STAGE_ALIASES.get(stage, stage), digest): response
            for (stage, digest), response in script.items()
        }
        templates = templates or load_templates()
        self._prompt_to_template = {t.body: t.template_id for t in templates.values()}
        self.call_log = Path(call_log) if call_log is not None else None
        self.calls: list[tuple[str, str]] = []
        self._served: dict[tuple[str, str], int] = {}  # replies given, for digests with several
        self._lock = threading.Lock()

    @classmethod
    def from_script_file(
        cls,
        path: str | Path,
        templates: Mapping[str, PromptTemplate] | None = None,
        call_log: str | Path | None = None,
    ) -> "MockChatBackend":
        """Build from a line-delimited script.

        Each line carries ``stage``, ``response``, and either ``digest`` or
        ``user_content`` (digested here for convenience), all strings. A
        digest on several lines is given their replies in file order, the
        last one repeating, so a pipeline's ``replies.jsonl`` is a script
        that replays its run. A ``response`` may hold a lone surrogate (the
        ledger keeps such a reply as a ``\\udXXX`` escape, and the stage
        that parses it refuses it); ``stage`` and ``digest`` may not.
        """
        templates = templates or load_templates()
        script: dict[tuple[str, str], list[str]] = {}
        for scripted, response in read_rows(path, _script_entry, surrogates_in=("response",)):
            script.setdefault(scripted, []).append(response)
        return cls({key: replies[0] if len(replies) == 1 else replies
                    for key, replies in script.items()}, templates=templates, call_log=call_log)

    def complete(self, request: ChatRequest) -> ChatResponse:
        template_id = self._prompt_to_template.get(request.system_prompt)
        if template_id is None:
            raise UnscriptedInput("system prompt does not match any known template")
        digest = request_digest(template_id, request.user_content)
        self.calls.append((template_id, digest))
        if self.call_log is not None:
            with open(self.call_log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"stage": template_id, "digest": digest}) + "\n")
        try:
            text = self.script[(template_id, digest)]
        except KeyError:
            raise UnscriptedInput(
                f"no scripted response for stage {template_id!r}, digest {digest}"
            ) from None
        if not isinstance(text, str):
            with self._lock:
                served = self._served.get((template_id, digest), 0)
                self._served[(template_id, digest)] = served + 1
            text = text[min(served, len(text) - 1)]
        return ChatResponse(text=text, latency=0.0)


# ---------------------------------------------------------------------------
# payload extraction

_OPEN_TAG, _CLOSE_TAG = "<OUTPUTDATA>", "</OUTPUTDATA>"
_FENCE_RE = re.compile(r"```json[ \t]*\n(.*?)```", re.DOTALL)
_TRAILING_COMMA_RE = re.compile(r",(\s*[}\]])")


def _loads_lenient(payload: str) -> Any:
    """Parse JSON with one repair pass that strips trailing commas.

    A value holding a lone surrogate, from a ``\\ud800`` escape or in the
    text itself, raises :class:`ParseError`, as no UTF-8 output line could
    hold it. orjson, when installed, decodes the payload first and refuses
    such text; of the rest, only a payload with a ``\\u`` escape or
    non-ASCII text is checked. A value nested deeper than Python's recursion
    limit raises :class:`ParseError` too.
    """
    try:
        value = _loads_exact(payload)
        if value is not None:
            return value
        value = _loads_repaired(payload)
        surrogate = ("\\u" in payload or not payload.isascii()) and _has_lone_surrogate(value)
    except RecursionError:
        raise ParseError("payload is nested deeper than the recursion limit") from None
    if surrogate:
        raise ParseError("payload holds a lone surrogate, which UTF-8 cannot encode")
    return value


def _loads_repaired(payload: str) -> Any:
    try:
        return json.loads(payload)
    except json.JSONDecodeError as exc:
        repaired = _TRAILING_COMMA_RE.sub(r"\1", payload)
        if repaired != payload:
            try:
                return json.loads(repaired)
            except json.JSONDecodeError:
                pass
        offset = len(payload[: exc.pos].encode("utf-8", "surrogatepass"))
        raise ParseError(f"payload is not valid JSON: {exc.msg}", offset=offset) from exc


def _tagged_spans(text: str) -> list[str]:
    """What ``re.findall(r"<OUTPUTDATA>(.*?)</OUTPUTDATA>", text, re.DOTALL)`` returns.

    Each span runs from an open tag to the first close tag after it, and the
    next open tag is looked for after that close tag, as the lazy pattern
    matches; an open tag with no close tag after it ends the search.
    """
    spans: list[str] = []
    start = text.find(_OPEN_TAG)
    while start != -1:
        start += len(_OPEN_TAG)
        end = text.find(_CLOSE_TAG, start)
        if end == -1:
            break
        spans.append(text[start:end])
        start = text.find(_OPEN_TAG, end + len(_CLOSE_TAG))
    return spans


def _strip_fence(text: str) -> str:
    stripped = text.strip()
    if not stripped.startswith("```"):
        return stripped
    first_newline = stripped.find("\n")
    if first_newline == -1:
        # an opening fence with no content line, e.g. "```json```"
        inner = stripped[3:]
        inner = inner[4:] if inner.startswith("json") else inner
        return inner.removesuffix("```").strip()
    body = stripped[first_newline + 1 :]
    if body.rstrip().endswith("```"):
        body = body.rstrip()[:-3]
    return body.strip()


def extract_json_payload(text: str, mode: str = "bare") -> Any:
    """Parse the structured payload of a model response.

    Modes: ``bare`` parses the whole text; ``fenced`` parses the first code
    fence labeled json; ``tagged`` parses the payload between exactly one
    OUTPUTDATA open/close tag pair, tolerating prose outside the tags and
    an optional fence inside them.
    """
    if mode == "bare":
        stripped = text.strip()
        if not stripped:
            raise NoPayloadFound("empty response")
        return _loads_lenient(stripped)
    if mode == "fenced":
        match = _FENCE_RE.search(text)
        if not match:
            raise NoPayloadFound("no ```json code fence in response")
        payload = match.group(1).strip()
        if not payload:
            raise NoPayloadFound("json code fence is empty")
        return _loads_lenient(payload)
    if mode == "tagged":
        spans = _tagged_spans(text)
        if not spans:
            raise NoPayloadFound("no OUTPUTDATA tag pair in response")
        if len(spans) > 1:
            raise MultiplePayloads(f"{len(spans)} OUTPUTDATA tag pairs in response")
        payload = _strip_fence(spans[0])
        if not payload:
            raise NoPayloadFound("OUTPUTDATA tags contain no payload")
        return _loads_lenient(payload)
    raise ValueError(f"unknown payload mode {mode!r}")
