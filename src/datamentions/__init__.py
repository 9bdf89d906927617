"""Dataset-mention extraction, validation, and scoring for document corpora.

The package covers the full workflow: corpus acquisition and page storage,
keyword/remote gating of pages, a three-stage chat-model labeling pipeline
(extract, judge, reason) with resumable checkpoints, fine-tuning export,
deterministic sampling and splitting, and token-overlap-based scoring.

The package root re-exports only the names of the README's library section;
everything else is imported from its own module (``datamentions.records``,
``datamentions.errors``, ...).
"""

from __future__ import annotations

from .evalkit import match_mentions, render_report, score
from .llm import ChatResponse, MockChatBackend, RemoteChatBackend
from .weaksup import (
    extract_mentions,
    judge_mentions,
    plan_pipeline,
    reason_mentions,
    run_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "ChatResponse",
    "MockChatBackend",
    "RemoteChatBackend",
    "extract_mentions",
    "judge_mentions",
    "match_mentions",
    "plan_pipeline",
    "reason_mentions",
    "render_report",
    "run_pipeline",
    "score",
    "__version__",
]
