"""The reply ledger: every reply a pipeline run was given, kept for its later runs.

``replies.jsonl`` in a run's output directory holds one line for each reply
the backend gave a stage attempt, appended as soon as the attempt returned
or failed to parse it. A later run asks the ledger before it asks the
backend, so a reply that was paid for before a stop, a kill or a redo is
given again without a call, and the run's outputs are the same bytes.

A reply is keyed by (stage settings, item key, attempt). The stage settings
are the :meth:`~datamentions.llm.StageCall.digest` of the prompt body, the
model and the decoding settings, so a changed prompt, model or setting never
reuses a reply. The item key holds the page and the request digest, so
items do not share replies, which keeps the key exact at any temperature.

The ledger is a log, not an output: its lines follow the order replies
arrived in, it stays out of the byte-identical outputs, and deleting it is
always safe, as the items are then asked for again. Each line carries the
``stage``, ``digest`` and ``response`` of a mock script line, so the ledger
also replays its run through :class:`~datamentions.llm.MockChatBackend`.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from pathlib import Path
from typing import Any

from .llm import ChatBackend, ChatRequest, ChatResponse
from .records import _orjson, _write_all

log = logging.getLogger(__name__)

LEDGER_FILE = "replies.jsonl"


def _line(entry: dict[str, Any]) -> bytes:
    """``entry`` as one JSON line: by orjson when installed, else (and for what orjson
    refuses: a lone surrogate, an int wider than 64 bits) by ``json``, in ASCII."""
    fast = _orjson()
    if fast is not None:
        try:
            return fast.dumps(entry, option=fast.OPT_APPEND_NEWLINE)
        except TypeError:
            pass
    return (json.dumps(entry, separators=(",", ":"), default=str) + "\n").encode("ascii")


def _decoded(line: bytes) -> Any:
    """The value of a ledger line: by orjson when installed, else, and for what orjson
    refuses (the ``\\udXXX`` escape :func:`_line` writes for a lone surrogate), by ``json``."""
    fast = _orjson()
    if fast is not None:
        try:
            return fast.loads(line)
        except fast.JSONDecodeError:
            pass
    return json.loads(line)


class ReplyLedger:
    """``replies.jsonl``: a line for every reply the backend gave a stage attempt.

    :meth:`record` appends the line in one unbuffered write under a lock; a
    backend error that brought no reply writes nothing. A line holds
    ``config`` (the stage's :meth:`~datamentions.llm.StageCall.digest`),
    ``key`` (the item key), ``n`` (the attempt, from 0), ``stage`` (the template id),
    ``digest`` (the request digest a mock script is keyed by),
    ``response``, ``latency_s``, ``retries``, ``usage`` (the token usage)
    and ``outcome`` (``ok``, or the class of the error the reply raised).

    :meth:`load` maps each (config, key, n) to the byte offset of its first
    whole line, not to its reply, so the index holds no reply text. It and
    :meth:`reply` decode a line by :func:`_decoded`, so every line
    :meth:`record` writes is read back. A line that does not decode, or
    whose fields have the wrong types, is left out and costs the call it
    would have saved. A torn last line, the
    append of a kill, is not indexed, and :meth:`open` cuts it off before
    the first append.
    """

    def __init__(self, path: Path):
        self.path = path
        self.index: dict[tuple[str, str, int], int] = {}
        self.size = 0  # the bytes up to the end of the last whole line
        self._file: Any = None
        self._lock = threading.Lock()

    @classmethod
    def load(cls, path: Path) -> "ReplyLedger":
        ledger = cls(path)
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            return ledger
        configs: dict[str, str] = {}  # one string per settings digest, for every line that holds it
        damaged = offset = 0
        with fh:
            for line in fh:
                if line[-1:] != b"\n":
                    break
                try:
                    entry = _decoded(line)
                    config, key, n = entry["config"], entry["key"], entry["n"]
                    if not (type(config) is str and type(key) is str and type(n) is int
                            and type(entry["response"]) is str):
                        raise TypeError("a field of the wrong type")
                except (ValueError, KeyError, TypeError):
                    damaged += bool(line.strip())
                else:
                    ledger.index.setdefault((configs.setdefault(config, config), key, n), offset)
                offset += len(line)
        ledger.size = offset
        if damaged:
            log.warning("%s: %d damaged lines left out; their replies will be asked for again",
                        path, damaged)
        return ledger

    def reply(self, config: str, key: str, n: int) -> str | None:
        """The recorded reply to attempt ``n`` of item ``key`` under ``config``, or None."""
        offset = self.index.get((config, key, n))
        if offset is None:
            return None
        with open(self.path, "rb") as fh:
            fh.seek(offset)
            line = fh.readline()
        return _decoded(line)["response"]

    def open(self) -> None:
        """Open the file for appends, first cutting off a torn last line."""
        self._file = open(self.path, "ab", buffering=0)
        if os.fstat(self._file.fileno()).st_size > self.size:
            os.ftruncate(self._file.fileno(), self.size)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()

    def record(self, config: str, key: str, n: int, template_id: str, reply: ChatResponse,
               outcome: str) -> None:
        """Append the line of ``reply``, the backend's answer to attempt ``n`` of ``key``."""
        data = _line({
            "config": config, "key": key, "n": n, "stage": template_id,
            "digest": key[key.rfind(":") + 1:], "response": reply.text,
            "latency_s": reply.latency, "retries": reply.retries, "usage": reply.token_usage,
            "outcome": outcome,
        })
        with self._lock:
            _write_all(self._file.write, data)


class LedgerBackend:
    """The backend as one stage attempt sees it: a recorded reply, else a call.

    ``recorded`` is the reply the ledger holds for the attempt, which
    :meth:`complete` returns without a call; when it is None,
    :meth:`complete` asks ``backend`` and keeps its response in ``reply``.
    """

    __slots__ = ("backend", "recorded", "reply")

    def __init__(self, backend: ChatBackend, recorded: str | None):
        self.backend = backend
        self.recorded = recorded
        self.reply: ChatResponse | None = None

    def complete(self, request: ChatRequest) -> ChatResponse:
        if self.recorded is not None:
            return ChatResponse(text=self.recorded)
        self.reply = reply = self.backend.complete(request)
        return reply
