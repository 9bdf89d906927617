"""Three-stage weak supervision with checkpointed, resumable orchestration.

Stage ``extract`` turns raw page text into mention blocks, ``judge`` rules
on each mention's validity, and ``reason`` runs a devil's-advocate review
that may override the judge. Only judge-valid mentions reach the reasoner.
Every stage appends to its own output file and records per-item progress in
a checkpoint, so an interrupted run resumes without repeating a single
backend call and reproduces the uninterrupted output byte for byte. Commits
are grouped (:class:`_StageWriter`): a kill before the checkpoint lines of a
group are written leaves lines no checkpoint points past, which the resume
cuts off, and a checkpoint line cut short by a kill is ignored; either way
those items are done again, from the reply ledger.
Items that keep failing after the per-item retry budget are quarantined to a
dead-letter file rather than blocking the run. A stage whose output file (a
missing one counts as empty) or the dead-letter file is shorter than its
checkpoint says is redone from scratch, and so is every later stage: their
item keys digest its output, and dead letters are stored in stage order.
A run is refused before any byte changes when a selected stage needs an
input that is missing or that an unselected stage would redo. A stage reads
its input file only up to the offset the stage that wrote it has committed,
so bytes past the last commit (a line cut short by a kill) are never parsed.

A stage that ends with nothing pending writes a seal,
``checkpoints/<stage>.seal``: one sha256 hex line over the seal format, the
stage name and template id, a digest of the stage's input (the pages'
``(doc_id, page_number, text)`` in key order, or the input file's committed
bytes) and a digest of the checkpoint's committed bytes. Item keys are a
function of the stage and its input, and the completed keys of the
checkpoint, so a later run or plan that computes the same seal knows
nothing is pending and skips enumerating the stage: no input row is
decoded and no key digested. Nothing else reads a seal. A torn, stale or
deleted one only costs that enumeration, after which the stage is sealed
again, so seals are written without fsync or rename. Loading a checkpoint
decodes only its last line, for the offsets and counters, and hashes its
committed bytes for the seal check; a stage that ran hashes its checkpoint
file again for its new seal. Before the first stage that is not sealed
makes a call, the keys of every checkpoint no seal vouches for are read,
up to its committed size, so a damaged line stops the run before it pays
for anything.

Each checkpoint line also carries the stage's running counters after its
commit, so the statistics in ``stats.json`` are a sum over the three last
lines, and no output row is decoded for them. ``stats.json`` is written
only when its bytes change. Checkpoints written before lines carried
counters are counted from the stage outputs instead.

Every reply the backend gives is recorded in the reply ledger
(:mod:`datamentions.ledger`), and an attempt whose reply is there makes no
call. The ledger is read when the first stage that is not sealed starts,
so a sealed rerun never opens it.

A stage streams its pending items through one bounded in-flight window:
with ``workers`` threads, at most ``2 * workers`` items are submitted ahead
of the one being committed. Only those, and the rest of one batch of
enumerated items, are held in memory, never the stage's whole input. An
error that stops the run, a backend error (the first in input order) or a
failed commit, stops the stage at once: queued items are cancelled and
only the calls already running finish; the ledger keeps their replies.

One table of stage specs drives both :func:`run_pipeline` and
:func:`plan_pipeline`, so they walk the same items under the same keys and
``generate --dry-run`` counts exactly the calls a run would issue, none
for an item whose first reply is in the ledger (beyond those, a reply that
fails to parse is asked for again, up to the per-item retry budget); it
reports a stage's calls as unknown while an earlier stage has yet to write
its input.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
from contextlib import ExitStack, closing
from dataclasses import dataclass, field, replace
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    ArityMismatch,
    BackendError,
    BadEnum,
    DataMentionsError,
    InvalidRecord,
    MalformedResponse,
    MissingField,
    MultiplePayloads,
    NoPayloadFound,
    ParseError,
    PipelineInterrupted,
    ValidityCouplingViolation,
)
from .llm import (
    ChatBackend,
    ChatRequest,
    DEFAULT_MODEL,
    PromptTemplate,
    _STAGE_ALIASES,
    extract_json_payload,
    load_templates,
    request_digest,
)
from .records import (
    DatasetMention,
    JudgeVerdict,
    AgentAssessment,
    MentionBlock,
    PageRecord,
    canonical_json,
    clean_optional,
    dumps_line,
    parse_mention_block,
    _chunks,
    _coerce_bool,
    _coerce_int,
    _label,
    _require,
    _write_all,
    read_jsonl,  # noqa: F401 -- not called here, but perfbench/tracing.py patches it by this name
    read_rows,
    validate_mention,
    write_jsonl,
    CONTEXT_VALUES,
    SPECIFICITY_VALUES,
)
from .window import windowed_map

if TYPE_CHECKING:
    from .ledger import ReplyLedger

log = logging.getLogger(__name__)

STAGES = ("extract", "judge", "reason")

_DEADLETTER_FILE = "deadletter.jsonl"

# Item-level failures that quarantine one item after the retry budget;
# anything else (network exhaustion, unscripted mocks) aborts the run.
_POISON_ERRORS = (
    ParseError,
    NoPayloadFound,
    MultiplePayloads,
    ArityMismatch,
    ValidityCouplingViolation,
    MissingField,
    BadEnum,
    InvalidRecord,
    BackendError,
    MalformedResponse,
)

__all__ = [
    "PipelineStats",
    "StageCheckpoint",
    "StagePlan",
    "compute_stats",
    "export_finetune_records",
    "extract_mentions",
    "judge_mentions",
    "plan_pipeline",
    "reason_mentions",
    "run_pipeline",
    "STAGES",
]


# ---------------------------------------------------------------------------
# stage operations


# The characters a JSON text can begin with, ``json``'s NaN and Infinity included.
_JSON_FIRST = frozenset('{["-0123456789tfnNI')


def _parse_stage_payload(text: str) -> Any:
    """Parse a stage reply: tags win when present, else bare, else fenced.

    A reply whose first non-blank character cannot begin a JSON text (prose
    before a fence) would fail the bare parse, so it tries the fence first;
    only when that finds no payload does it take the bare-then-fenced order.
    Either way it returns the value, or raises the error, of that order.
    """
    if "<OUTPUTDATA>" in text:
        return extract_json_payload(text, "tagged")
    head = text.lstrip()[:1]
    if head and head not in _JSON_FIRST:
        try:
            return extract_json_payload(text, "fenced")
        except NoPayloadFound:
            pass
    try:
        return extract_json_payload(text, "bare")
    except (ParseError, NoPayloadFound) as bare_error:
        try:
            return extract_json_payload(text, "fenced")
        except NoPayloadFound:
            raise bare_error from None


def _request(
    template: PromptTemplate,
    user_content: str,
    model_name: str,
    temperature: float,
    max_output_tokens: int,
) -> ChatRequest:
    return ChatRequest(
        model_name=model_name,
        system_prompt=template.body,
        user_content=user_content,
        temperature=temperature,
        max_output_tokens=max_output_tokens,
    )


def _blocks_from_extractor_payload(
    payload: Any, doc_id: str, page_number: int
) -> list[MentionBlock]:
    """Assemble blocks from an extractor reply.

    The reply may be a flat array of mention objects (each carrying its own
    ``mentioned_in``), a single such object, block-shaped objects with a
    ``datasets`` array, or a wrapper object holding either list. Mentions
    are grouped by sentence; identical (raw_name, mentioned_in) duplicates
    collapse before judging.
    """
    if isinstance(payload, dict):
        for key in ("data_mentions", "mentions", "blocks", "extractions"):
            if isinstance(payload.get(key), list):
                payload = payload[key]
                break
        else:
            payload = [payload]
    if not isinstance(payload, list):
        raise InvalidRecord("extractor reply is neither an object nor an array")

    grouped: dict[str, list[dict]] = {}
    for item in payload:
        if not isinstance(item, dict):
            raise InvalidRecord("extractor reply entries must be objects")
        sentence = str(item.get("mentioned_in") or "")
        entries = item["datasets"] if isinstance(item.get("datasets"), list) else [item]
        if not sentence:
            raise MissingField("mentioned_in", "extractor reply entry")
        grouped.setdefault(sentence, []).extend(entries)

    blocks: list[MentionBlock] = []
    for sentence, entries in grouped.items():
        block, warnings = parse_mention_block(
            {
                "mentioned_in": sentence,
                "datasets": entries,
                "source": doc_id,
                "page": page_number,
            }
        )
        for warning in warnings:
            log.debug("extractor payload for %s p%d: %s", doc_id, page_number, warning)
        kept: list[DatasetMention] = []
        seen: set[tuple[str, str]] = set()
        for mention in block.datasets:
            violations = validate_mention(mention)
            if violations:
                log.warning(
                    "dropping invalid mention %r on %s p%d: %s",
                    mention.raw_name, doc_id, page_number, "; ".join(violations),
                )
                continue
            key = (mention.raw_name, mention.mentioned_in)
            if key in seen:
                log.info(
                    "collapsing duplicate mention %r on %s p%d",
                    mention.raw_name, doc_id, page_number,
                )
                continue
            seen.add(key)
            kept.append(mention)
        if kept:  # the parsed block itself when every mention survives
            blocks.append(block if len(kept) == len(block.datasets)
                          else replace(block, datasets=tuple(kept)))
    return blocks


def extract_mentions(
    page: PageRecord,
    backend: ChatBackend,
    *,
    templates: Mapping[str, PromptTemplate] | None = None,
    model_name: str = DEFAULT_MODEL,
    temperature: float = 0.0,
    max_output_tokens: int = 4096,
) -> list[MentionBlock]:
    """Run the extraction stage on one page.

    Empty pages short-circuit to an empty list without a backend call.
    """
    if not page.text.strip():
        return []
    templates = templates or load_templates()
    response = backend.complete(
        _request(templates["extractor"], page.text, model_name, temperature, max_output_tokens)
    )
    payload = _parse_stage_payload(response.text)
    return _blocks_from_extractor_payload(payload, page.doc_id, page.page_number)


def _warn_on_echo(entry: Mapping[str, Any], mention: DatasetMention, label: str) -> None:
    echoed = entry.get("raw_name")
    if echoed is not None and echoed != mention.raw_name:
        log.warning(
            "%s echoed raw_name %r for %r; keeping positional alignment",
            label, echoed, mention.raw_name,
        )


_VERDICT_LIST_KEYS = ("verdicts", "assessments", "results", "datasets")


def judge_mentions(
    block: MentionBlock,
    backend: ChatBackend,
    *,
    templates: Mapping[str, PromptTemplate] | None = None,
    model_name: str = DEFAULT_MODEL,
    temperature: float = 0.0,
    max_output_tokens: int = 4096,
    user_content: str | None = None,
) -> list[JudgeVerdict]:
    """Run the judge stage on one block; verdicts align with its datasets.

    ``user_content`` is the request body, ``canonical_json(block.to_dict())``,
    made here unless the caller already has it.
    """
    if not block.datasets:
        raise InvalidRecord("judge stage requires a block with at least one dataset")
    templates = templates or load_templates()
    if user_content is None:
        user_content = canonical_json(block.to_dict())
    response = backend.complete(
        _request(templates["judge"], user_content, model_name, temperature, max_output_tokens)
    )
    payload = _parse_stage_payload(response.text)
    if isinstance(payload, dict):
        for key in _VERDICT_LIST_KEYS:
            if isinstance(payload.get(key), list):
                payload = payload[key]
                break
        else:
            raise InvalidRecord("judge reply carries no verdict list")
    if not isinstance(payload, list):
        raise InvalidRecord("judge reply is not a verdict list")
    if len(payload) != len(block.datasets):
        raise ArityMismatch(
            f"{len(payload)} verdicts for {len(block.datasets)} datasets"
        )

    verdicts: list[JudgeVerdict] = []
    for mention, entry in zip(block.datasets, payload):
        if not isinstance(entry, dict):
            raise InvalidRecord("judge verdict entries must be objects")
        valid = _coerce_bool(_require(entry, "valid", "judge verdict"), "valid", "judge verdict")
        reason = entry.get("reason") or entry.get("explanation")
        if not reason or not str(reason).strip():
            raise MissingField("reason", "judge verdict")
        _warn_on_echo(entry, mention, "judge")
        verdicts.append(
            JudgeVerdict(
                raw_name=mention.raw_name,
                valid=valid,
                reason=str(reason),
                inferred_year=clean_optional(entry.get("inferred_year", entry.get("year"))),
                inferred_producer=clean_optional(
                    entry.get("inferred_producer", entry.get("producer"))
                ),
                inferred_data_type=clean_optional(
                    entry.get("inferred_data_type", entry.get("data_type"))
                ),
            )
        )
    return verdicts


_WHITESPACE = re.compile(r"\s+")


def _squash(text: str) -> str:
    return _WHITESPACE.sub(" ", text).strip()


def reason_mentions(
    block: MentionBlock,
    backend: ChatBackend,
    *,
    templates: Mapping[str, PromptTemplate] | None = None,
    model_name: str = DEFAULT_MODEL,
    temperature: float = 0.0,
    max_output_tokens: int = 4096,
    user_content: str | None = None,
) -> list[AgentAssessment]:
    """Run the reasoning agent on one block; one assessment per dataset.

    The reply is parsed strictly from the tagged payload. The agent's
    harmonized_name is kept only when it occurs inside the source sentence
    (compared with whitespace runs collapsed); raw_name and mentioned_in
    always come from the input block, which keeps them byte-identical to the
    extraction-stage values. A reply that marks a mention invalid yet keeps
    its labels is repaired by nulling the labels, with a logged warning.
    ``user_content`` is the request body, as for :func:`judge_mentions`.
    """
    if not block.datasets:
        raise InvalidRecord("reason stage requires a block with at least one dataset")
    templates = templates or load_templates()
    if user_content is None:
        user_content = canonical_json(block.to_dict())
    response = backend.complete(
        _request(templates["reasoner"], user_content, model_name, temperature, max_output_tokens)
    )
    payload = extract_json_payload(response.text, "tagged")
    if isinstance(payload, dict):
        entries = payload.get("datasets")
        if entries is None:
            raise MissingField("datasets", "agent reply")
    else:
        entries = payload
    if not isinstance(entries, list):
        raise InvalidRecord("agent reply carries no dataset list")
    if len(entries) != len(block.datasets):
        raise ArityMismatch(
            f"{len(entries)} assessed datasets for {len(block.datasets)} inputs"
        )

    assessments: list[AgentAssessment] = []
    for mention, entry in zip(block.datasets, entries):
        if not isinstance(entry, dict):
            raise InvalidRecord("agent dataset entries must be objects")
        where = "agent dataset entry"
        valid = _coerce_bool(_require(entry, "valid", where), "valid", where)
        specificity = _label(entry, "specificity", SPECIFICITY_VALUES)
        context = _label(entry, "context", CONTEXT_VALUES)
        invalid_reason = clean_optional(entry.get("invalid_reason"))

        if not valid and (specificity is not None or context is not None):
            log.warning(
                "agent marked %r invalid but kept labels; nulling them",
                mention.raw_name,
            )
            specificity = None
            context = None
        if not valid and invalid_reason is None:
            raise ValidityCouplingViolation(
                f"agent marked {mention.raw_name!r} invalid without a reason"
            )
        if valid and (specificity is None or context is None):
            raise ValidityCouplingViolation(
                f"agent kept {mention.raw_name!r} valid without both labels"
            )
        if valid:
            invalid_reason = None

        _warn_on_echo(entry, mention, "agent")

        if "harmonized_name" in entry:
            harmonized = clean_optional(entry.get("harmonized_name"))
        else:
            harmonized = mention.harmonized_name
        if harmonized is not None and _squash(harmonized) not in _squash(mention.mentioned_in):
            log.info(
                "harmonized_name %r absent from the source sentence; removing it",
                harmonized,
            )
            harmonized = None
        changes = {"harmonized_name": harmonized}
        for key in ("acronym", "producer", "year", "data_type"):
            if key in entry:
                changes[key] = clean_optional(entry[key])

        assessments.append(
            AgentAssessment(
                mention=replace(mention, **changes),
                valid=valid,
                invalid_reason=invalid_reason,
                specificity=specificity,
                context=context,
            )
        )
    return assessments


# ---------------------------------------------------------------------------
# checkpointing


@dataclass
class StageCheckpoint:
    """Per-stage resume bookkeeping: file offsets, counters and committed bytes.

    The offsets and the stage's running ``counts`` are those of the last
    committed line, the only line :meth:`load` decodes; the item keys are
    read from the file, up to ``size``, only when a stage is not sealed.
    ``size`` is the length of the checkpoint file up to the end of its last
    complete line, and ``digest`` the sha256 hex digest of those bytes. A
    last line without its newline is the torn tail of a commit that was cut
    short; it is ignored, so that item runs again. ``counts`` is empty
    before the first commit and None when the last line predates counters.
    A line of the wrong shape raises :class:`InvalidRecord` naming the file.
    """

    output_offset: int = 0
    deadletter_offset: int = 0
    size: int = 0
    digest: str = hashlib.sha256().hexdigest()
    counts: list[int] | None = field(default_factory=list)

    @classmethod
    def load(cls, path: Path) -> "StageCheckpoint":
        ckpt = cls()
        data = path.read_bytes() if path.exists() else b""
        ckpt.size = data.rfind(b"\n") + 1
        committed = data[: ckpt.size]
        ckpt.digest = hashlib.sha256(committed).hexdigest()
        end = ckpt.size
        while end:  # back to the last line that is not blank
            start = committed.rfind(b"\n", 0, end - 1) + 1
            line = committed[start:end].strip()
            if line:
                try:
                    last = json.loads(line.decode("utf-8"))
                    ckpt.output_offset, ckpt.deadletter_offset = int(last["out"]), int(last["dead"])
                    ckpt.counts = last.get("n")
                    if ckpt.counts is not None and not (
                        isinstance(ckpt.counts, list) and ckpt.counts
                        and all(type(n) is int for n in ckpt.counts)
                    ):
                        raise ValueError(f"counters {ckpt.counts!r} are not a list of integers")
                except (ValueError, KeyError, TypeError) as exc:
                    raise InvalidRecord(f"{path}: damaged checkpoint line: {exc!r}") from exc
                break
            end = start
        return ckpt


def _size(path: Path) -> int:
    """Length of ``path`` in bytes; a missing file counts as empty."""
    return path.stat().st_size if path.exists() else 0


def _truncate(path: Path, size: int) -> None:
    """Cut ``path`` back to ``size`` bytes; a shorter or missing file stays as it is."""
    if _size(path) > size:
        os.truncate(path, size)


class _StageWriter:
    """Append-only writer committing (output, dead-letter, checkpoint) lines in groups.

    A commit buffers the item's output or dead-letter line and its
    checkpoint line. Every :data:`_ENUMERATION_BATCH` commits, and on any
    exit, :meth:`flush` appends the outputs and dead letters, then the
    checkpoint lines, through the unbuffered files. The offsets are the
    files' sizes at open plus the bytes committed since; nothing else
    writes to the files while the writer is open.
    """

    def __init__(self, checkpoint: StageCheckpoint, output_dir: Path, spec: _StageSpec):
        self.checkpoint = checkpoint
        with ExitStack() as files:  # closes what it opened if a later open fails
            self._out, self._dead, self._ckpt = [
                files.enter_context(open(output_dir / name, "ab", buffering=0))
                for name in (spec.output_file, _DEADLETTER_FILE, spec.checkpoint_file)
            ]
            self._files = files.pop_all()
        self._out_end = os.fstat(self._out.fileno()).st_size
        self._dead_end = os.fstat(self._dead.fileno()).st_size
        self._out_lines: list[bytes] = []
        self._dead_lines: list[bytes] = []
        self._ckpt_lines: list[bytes] = []

    def __enter__(self) -> "_StageWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        with self._files:  # closed even if the flush raises
            self.flush()

    def commit(self, key: str, line: str, counts: Sequence[int] | None = None) -> None:
        """Add ``line`` to the output, or without ``counts`` to the dead-letter file, then
        checkpoint ``key`` with the stage's counters, ``counts`` added."""
        data = (line + "\n").encode("utf-8")
        ckpt = self.checkpoint
        if counts is None:
            self._dead_lines.append(data)
            self._dead_end += len(data)
        else:
            self._out_lines.append(data)
            self._out_end += len(data)
            ckpt.counts = [total + n for total, n in zip(ckpt.counts, counts)]
        ckpt.output_offset, ckpt.deadletter_offset = self._out_end, self._dead_end
        # the bytes of json.dumps({"key": key, "out": ..., "dead": ..., "n": counts}) + "\n"
        self._ckpt_lines.append((
            f'{{"key": {encode_basestring_ascii(key)}, "out": {self._out_end}, '
            f'"dead": {self._dead_end}, "n": [{", ".join(map(str, ckpt.counts))}]}}\n'
        ).encode("ascii"))
        if len(self._ckpt_lines) == _ENUMERATION_BATCH:
            self.flush()

    def flush(self) -> None:
        """Append the buffered lines: outputs and dead letters, then their checkpoint lines.

        The buffers are emptied first, so a failed flush is not made again
        on the way out; its bytes lie past every committed offset.
        """
        pending = ((self._out, self._out_lines), (self._dead, self._dead_lines),
                   (self._ckpt, self._ckpt_lines))
        self._out_lines, self._dead_lines, self._ckpt_lines = [], [], []
        for file, lines in pending:
            if lines:
                _write_all(file.write, b"".join(lines))


# ---------------------------------------------------------------------------
# pipeline statistics


@dataclass(frozen=True)
class PipelineStats:
    """Counts of pages, blocks and mentions through the stages, from the outputs on disk."""

    pages_processed: int = 0
    blocks_extracted: int = 0
    mentions_extracted: int = 0
    mentions_judged_valid: int = 0
    mentions_agent_valid: int = 0
    retention_after_agent: float | None = None

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "pages_processed": self.pages_processed,
            "blocks_extracted": self.blocks_extracted,
            "mentions_extracted": self.mentions_extracted,
            "mentions_judged_valid": self.mentions_judged_valid,
            "mentions_agent_valid": self.mentions_agent_valid,
        }
        if self.retention_after_agent is not None:
            d["retention_after_agent"] = self.retention_after_agent
        return d


def _counted_valid(entry: Mapping[str, Any]) -> bool:
    """An output row's ``valid`` flag, read as every flag is; absent or null counts as false."""
    value = entry.get("valid")
    return value is not None and _coerce_bool(value, "valid", "stage output row")


def _block_counts(row: Mapping[str, Any]) -> tuple[int, int]:
    """An extraction row's blocks and mentions."""
    blocks = row.get("blocks", [])
    return len(blocks), sum(len(block.get("datasets", [])) for block in blocks)


def compute_stats(output_dir: str | Path) -> PipelineStats:
    """Recompute statistics from whatever stage outputs exist on disk."""
    output_dir = Path(output_dir)

    def rows(name: str, parse: Callable[[dict[str, Any]], Any]) -> Iterable[Any]:
        path = output_dir / name
        return read_rows(path, parse) if path.exists() else ()

    extracted = list(rows("extracted.jsonl", _block_counts))
    judged_valid = sum(rows("judged.jsonl",
                            lambda row: sum(map(_counted_valid, row.get("verdicts", [])))))
    agent_valid = sum(rows("assessed.jsonl",
                           lambda row: sum(map(_counted_valid, row.get("assessments", [])))))
    return PipelineStats(
        pages_processed=len(extracted),
        blocks_extracted=sum(blocks for blocks, _ in extracted),
        mentions_extracted=sum(mentions for _, mentions in extracted),
        mentions_judged_valid=judged_valid,
        mentions_agent_valid=agent_valid,
        retention_after_agent=agent_valid / judged_valid if judged_valid > 0 else None,
    )


# ---------------------------------------------------------------------------
# pipeline orchestration


def _dead_line(stage: str, key: str, doc_id: str, page_number: int, exc: Exception) -> str:
    return dumps_line(
        {
            "stage": stage,
            "key": key,
            "doc_id": doc_id,
            "page_number": page_number,
            "error": type(exc).__name__,
            "detail": str(exc),
        }
    )


def _enriched_mention(mention: DatasetMention, verdict: JudgeVerdict) -> DatasetMention:
    """Fill year/producer/data_type from the judge when the mention lacks them."""
    updates: dict[str, str] = {}
    if mention.year is None and verdict.inferred_year is not None:
        updates["year"] = verdict.inferred_year
    if mention.producer is None and verdict.inferred_producer is not None:
        updates["producer"] = verdict.inferred_producer
    if mention.data_type is None and verdict.inferred_data_type is not None:
        updates["data_type"] = verdict.inferred_data_type
    return replace(mention, **updates) if updates else mention


# Item enumerators yield (doc_id, page_number, user_content, subject): the
# request's user content fixes the item's checkpoint key, and ``subject`` is
# what the stage's ``produce`` takes: a page, or a block with the dict it was
# encoded from. A block is turned into a dict and encoded here, once; the
# stage's ``produce`` sends that same text and writes that same dict, so the
# request, its key and the output line always agree.


def _extract_items(pages: Iterable[PageRecord]) -> Iterator[tuple[str, int, str, PageRecord]]:
    """The pages, which :func:`_stage_source` has put in key order."""
    for page in pages:
        yield page.doc_id, page.page_number, page.text, page


def _extracted_blocks(row: dict[str, Any]) -> list[MentionBlock]:
    """An extraction row's blocks that hold a mention, one judge item each."""
    return [block for block in map(MentionBlock.from_dict, row.get("blocks", []))
            if block.datasets]


def _judged_survivors(row: dict[str, Any]) -> list[MentionBlock]:
    """A judged row's block cut to its judge-valid mentions, enriched by the judge.

    One reason item, or none when no mention survives.
    """
    block = MentionBlock.from_dict(row["block"])
    verdicts = [JudgeVerdict.from_dict(v) for v in row.get("verdicts", [])]
    survivors = tuple(
        _enriched_mention(m, v) for m, v in zip(block.datasets, verdicts) if v.valid
    )
    if not survivors:
        return []
    # the decoded block itself when no mention changed
    return [block if survivors == block.datasets else replace(block, datasets=survivors)]


def _block_items(
    rows: Iterable[list[MentionBlock]],
) -> Iterator[tuple[str, int, str, tuple[MentionBlock, dict]]]:
    for blocks in rows:
        for block in blocks:
            payload = block.to_dict()
            yield block.source, block.page, canonical_json(payload), (block, payload)


def _produce_extract(
    page: PageRecord, user_content: str, backend: ChatBackend, kwargs: Mapping[str, Any]
) -> tuple[str, list[int]]:
    blocks = extract_mentions(page, backend, **kwargs)  # user_content is page.text
    line = dumps_line(
        {
            "doc_id": page.doc_id,
            "page_number": page.page_number,
            "blocks": [b.to_dict() for b in blocks],
        }
    )
    return line, [1, len(blocks), sum(len(b.datasets) for b in blocks)]


def _produce_judge(
    subject: tuple[MentionBlock, dict], user_content: str, backend: ChatBackend,
    kwargs: Mapping[str, Any],
) -> tuple[str, list[int]]:
    block, payload = subject
    verdicts = judge_mentions(block, backend, user_content=user_content, **kwargs)
    line = dumps_line({"block": payload, "verdicts": [v.to_dict() for v in verdicts]})
    return line, [sum(v.valid for v in verdicts)]


def _produce_reason(
    subject: tuple[MentionBlock, dict], user_content: str, backend: ChatBackend,
    kwargs: Mapping[str, Any],
) -> tuple[str, list[int]]:
    block, payload = subject
    assessments = reason_mentions(block, backend, user_content=user_content, **kwargs)
    line = dumps_line({"block": payload, "assessments": [a.to_dict() for a in assessments]})
    return line, [sum(a.valid for a in assessments)]


@dataclass(frozen=True)
class _StageSpec:
    """One stage of the pipeline: what it reads, what it writes, one item's work.

    ``parse`` reads one row of the input file, and ``items`` turns the
    pages, or what ``parse`` made of the rows, into items.
    ``produce(subject, user_content, backend, stage_kwargs)`` returns the
    item's output line and what it adds to each of the stage's ``counters``,
    the :class:`PipelineStats` fields the stage counts; ``user_content`` is
    the text ``items`` yielded for the item's key. ``parse``, ``items`` and
    ``produce`` reach the stage functions and record helpers through this
    module's globals at call time, never through references taken at import.
    """

    name: str
    template_id: str
    input_file: str | None  # None: the stage reads the pages passed in
    output_file: str
    parse: Callable[[dict[str, Any]], Any] | None
    items: Callable[[Any], Iterator[tuple[str, int, str, Any]]]
    produce: Callable[[Any, str, ChatBackend, Mapping[str, Any]], tuple[str, list[int]]]
    counters: tuple[str, ...]

    @property
    def checkpoint_file(self) -> str:
        return f"checkpoints/{self.name}.ckpt"

    @property
    def seal_file(self) -> str:
        return f"checkpoints/{self.name}.seal"


_STAGE_SPECS = (
    _StageSpec("extract", _STAGE_ALIASES["extract"], None, "extracted.jsonl",
               None, _extract_items, _produce_extract,
               ("pages_processed", "blocks_extracted", "mentions_extracted")),
    _StageSpec("judge", _STAGE_ALIASES["judge"], "extracted.jsonl", "judged.jsonl",
               _extracted_blocks, _block_items, _produce_judge, ("mentions_judged_valid",)),
    _StageSpec("reason", _STAGE_ALIASES["reason"], "judged.jsonl", "assessed.jsonl",
               _judged_survivors, _block_items, _produce_reason, ("mentions_agent_valid",)),
)
_WRITER_OF = {spec.output_file: spec.name for spec in _STAGE_SPECS}


def _selected_specs(stages: Sequence[str]) -> tuple[_StageSpec, ...]:
    """The specs of ``stages`` in pipeline order; an unknown name raises."""
    for stage in stages:
        if stage not in STAGES:
            raise InvalidRecord(f"unknown stage {stage!r}")
    return tuple(spec for spec in _STAGE_SPECS if spec.name in stages)


def _resume_checkpoints(output_dir: Path) -> tuple[dict[str, StageCheckpoint], set[str]]:
    """Each stage's checkpoint, read once, and the names of the stages to redo.

    A stage the module's redo rule hits comes back empty. So each offset
    returned lies within its file, and truncating to it only drops
    uncommitted bytes. Each checkpoint's ``counts`` is one per counter of
    its stage, or None for lines from before counters. An offset that does
    not end a line raises :class:`InvalidRecord` (:func:`_check_line_ends`).
    """
    sizes = {_DEADLETTER_FILE: _size(output_dir / _DEADLETTER_FILE)}
    checkpoints: dict[str, StageCheckpoint] = {}
    redone: set[str] = set()
    for spec in _STAGE_SPECS:
        path = output_dir / spec.checkpoint_file
        ckpt = StageCheckpoint.load(path)
        sizes[spec.output_file] = _size(output_dir / spec.output_file)
        if redone or (
            sizes[spec.output_file] < ckpt.output_offset
            or sizes[_DEADLETTER_FILE] < ckpt.deadletter_offset
        ):
            if not redone:
                log.warning("%s: %s or %s is shorter than its checkpoint; redoing this stage "
                            "and every later one", spec.name, spec.output_file, _DEADLETTER_FILE)
            redone.add(spec.name)
            ckpt = StageCheckpoint()
        if ckpt.counts == []:  # nothing committed yet
            ckpt.counts = [0] * len(spec.counters)
        elif ckpt.counts is not None and len(ckpt.counts) != len(spec.counters):
            raise InvalidRecord(f"{path}: damaged checkpoint line: {len(ckpt.counts)} "
                                f"counters, the {spec.name} stage keeps {len(spec.counters)}")
        checkpoints[spec.name] = ckpt
    ends = {spec.output_file: checkpoints[spec.name].output_offset for spec in _STAGE_SPECS}
    ends[_DEADLETTER_FILE] = max(c.deadletter_offset for c in checkpoints.values())
    _check_line_ends(output_dir, ends, sizes)
    return checkpoints, redone


def _check_line_ends(output_dir: Path, ends: Mapping[str, int], sizes: Mapping[str, int]) -> None:
    """Raise :class:`InvalidRecord` naming a file whose committed bytes do not end a line.

    A committed line edited to another length moves the lines after it off
    their offsets; every state a kill leaves passes. One byte is read from
    each file longer than its offset; an edit that keeps the length is not seen.
    """
    for name, offset in ends.items():
        if 0 < offset < sizes[name]:
            fd = os.open(output_dir / name, os.O_RDONLY)
            try:
                last = os.pread(fd, 1, offset - 1)
            finally:
                os.close(fd)
            if last != b"\n":
                raise InvalidRecord(
                    f"{output_dir / name}: byte {offset} does not end a line, but the "
                    f"checkpoints commit the file up to it; was a committed line edited?")


def _require_inputs(
    specs: Sequence[_StageSpec], output_dir: Path, redone: set[str]
) -> None:
    """Raise for a selected stage whose input no selected stage will write.

    Such an input must exist and be kept as it is: a redone writer would
    have its output cut back to nothing. Called before any byte changes.
    """
    selected = {spec.name for spec in specs}
    for spec in specs:
        writer = _WRITER_OF.get(spec.input_file)
        if writer is None or writer in selected:
            continue
        if writer in redone:
            raise InvalidRecord(
                f"{spec.name} stage requires {spec.input_file}, which is shorter than the "
                f"{writer} checkpoint says; run the {writer} stage again first"
            )
        if not (output_dir / spec.input_file).exists():
            raise InvalidRecord(
                f"{spec.name} stage requires {spec.input_file}; run the earlier stages first"
            )


def _committed_keys(
    output_dir: Path, checkpoints: Mapping[str, StageCheckpoint], names: Iterable[str]
) -> dict[str, frozenset[str]]:
    """The item keys in the committed lines of each named stage's checkpoint.

    A line that does not decode, or that carries no key, raises
    :class:`InvalidRecord` naming the checkpoint.
    """
    keys: dict[str, frozenset[str]] = {}
    for spec in _STAGE_SPECS:
        if spec.name not in names:
            continue
        path, size = output_dir / spec.checkpoint_file, checkpoints[spec.name].size
        # with nothing committed it may be missing
        keys[spec.name] = frozenset(read_rows(path, itemgetter("key"), size) if size else ())
    return keys


def _sha256(path: Path, size: int | None = None) -> str:
    """The sha256 hex digest of the first ``size`` bytes of ``path`` (all of them when None)."""
    h = hashlib.sha256()
    for chunk in _chunks(path, size):
        h.update(chunk)
    return h.hexdigest()


def _pages_digest(pages: Iterable[PageRecord]) -> str:
    """sha256 over each page's (doc_id, page_number, text), length-prefixed, in order."""
    h = hashlib.sha256()
    for page in pages:
        doc_id = page.doc_id.encode("utf-8", "surrogatepass")
        text = page.text.encode("utf-8", "surrogatepass")
        h.update(b"%d:%d:%d:" % (len(doc_id), page.page_number, len(text)))
        h.update(doc_id)
        h.update(text)
    return h.hexdigest()


def _stage_source(
    spec: _StageSpec,
    pages: Iterable[PageRecord],
    output_dir: Path,
    checkpoints: Mapping[str, StageCheckpoint],
) -> tuple[Any, str] | None:
    """What ``spec.items`` reads, with the digest of it that the stage's seal covers.

    That is the pages in key order, or the input file's committed rows.
    None while the input file is missing.
    """
    if spec.input_file is None:
        pages = sorted(pages, key=attrgetter("doc_id", "page_number"))
        return pages, _pages_digest(pages)
    path = output_dir / spec.input_file
    if not path.exists():
        return None
    size = checkpoints[_WRITER_OF[spec.input_file]].output_offset
    return read_rows(path, spec.parse, size), _sha256(path, size)


# Bump when the item keys a stage derives from its input change.
_SEAL_FORMAT = "datamentions-seal-1"


def _seal(spec: _StageSpec, input_digest: str, checkpoint: StageCheckpoint) -> bytes:
    """The seal line of ``spec``: its input and its checkpoint's committed bytes, hashed."""
    parts = (_SEAL_FORMAT, spec.name, spec.template_id, input_digest, checkpoint.digest)
    return hashlib.sha256("\n".join(parts).encode()).hexdigest().encode() + b"\n"


def _holds(path: Path, data: bytes) -> bool:
    """Whether the file at ``path`` holds exactly ``data``; a missing one does not."""
    try:
        return path.read_bytes() == data
    except FileNotFoundError:
        return False


def _keyed_items(spec: _StageSpec, source: Any) -> Iterator[tuple[str, str, int, str, Any]]:
    """(key, doc_id, page_number, user_content, subject) for each item of the stage."""
    for doc_id, page_number, user_content, subject in spec.items(source):
        key = f"{doc_id}:{page_number}:{request_digest(spec.template_id, user_content)}"
        yield key, doc_id, page_number, user_content, subject


# Items are enumerated (input rows decoded, bodies encoded, keys digested)
# this many at a time, ahead of the window. Enumerating one item between
# calls made the zero-latency pipeline about 4% slower on a 2-core VM, as
# the decode-and-digest loop no longer stayed in the CPU caches; batches of
# 16 and 256 did worse than 64. Enumeration issues no call.
_ENUMERATION_BATCH = 64


def _run_stage(
    spec: _StageSpec,
    source: Any,
    writer: _StageWriter,
    done: frozenset[str],
    backend: ChatBackend,
    stage_kwargs: Mapping[str, Any],
    *,
    ledger: ReplyLedger,
    settings: str,
    item_attempts: int,
    workers: int,
) -> None:
    """Run the stage's pending items; commit output or dead-letter per item.

    Items stream through :func:`windowed_map` at width ``workers``, and
    results are committed strictly in input order regardless of worker
    count, keeping output files deterministic. An item is pending when its
    key is not in ``done``, the keys committed before the stage started, so
    a key repeated in the input runs, and commits, each time at any worker
    count. An attempt takes its reply from ``ledger`` under ``settings``
    when it is there, else asks ``backend`` and records the reply.
    """
    keyed = _keyed_items(spec, source)
    batches = iter(lambda: list(islice(keyed, _ENUMERATION_BATCH)), [])
    pending = (item for batch in batches for item in batch if item[0] not in done)
    from .ledger import LedgerBackend

    vias: dict[int, LedgerBackend] = {}  # by thread
    recorded = ledger.reply if ledger.index else None

    def attempt(
        item: tuple[str, str, int, str, Any],
    ) -> tuple[Any, tuple[str, list[int]] | None, Exception | None]:
        via = vias.get(threading.get_ident())
        if via is None:
            via = vias[threading.get_ident()] = LedgerBackend(backend)
        key, last = item[0], None
        for n in range(item_attempts):
            via.recorded = None if recorded is None else recorded(settings, key, n)
            via.reply = None
            try:
                produced = spec.produce(item[4], item[3], via, stage_kwargs)
            except _POISON_ERRORS as exc:
                produced, last = None, exc
            reply = via.reply
            if reply is not None:
                ledger.record(settings, key, n, spec.template_id, reply,
                              "ok" if produced else type(last).__name__)
            if produced:
                return item, produced, None
        return item, None, last

    with closing(windowed_map(attempt, pending, workers)) as outcomes:
        for (key, doc_id, page_number, _, _), produced, error in outcomes:
            if error is not None:
                log.error("%s: quarantining %s after %d attempts: %s",
                          spec.name, key, item_attempts, error)
                writer.commit(key, _dead_line(spec.name, key, doc_id, page_number, error))
            else:
                writer.commit(key, *produced)


def run_pipeline(
    pages: Iterable[PageRecord],
    backend: ChatBackend,
    *,
    output_dir: str | Path,
    stages: Sequence[str] = STAGES,
    templates: Mapping[str, PromptTemplate] | None = None,
    model_name: str = DEFAULT_MODEL,
    temperature: float = 0.0,
    max_output_tokens: int = 4096,
    item_attempts: int = 3,
    workers: int = 1,
) -> PipelineStats:
    """Run the requested stages in order and return the resulting statistics.

    Stage boundaries are barriers: judge input is read back from the
    extraction output file, reason input from the judge output file. Every
    stage is independently checkpointed and resumable; rerunning a completed
    pipeline performs zero backend calls and rewrites nothing.
    """
    specs = _selected_specs(stages)
    templates = templates or load_templates()
    output_dir = Path(output_dir)
    checkpoints, redone = _resume_checkpoints(output_dir)
    _require_inputs(specs, output_dir, redone)
    (output_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
    for spec in _STAGE_SPECS:  # selected or not, so a redone stage resets the later ones
        _truncate(output_dir / spec.output_file, checkpoints[spec.name].output_offset)
        _truncate(output_dir / spec.checkpoint_file, checkpoints[spec.name].size)
    _truncate(output_dir / _DEADLETTER_FILE,
              max(c.deadletter_offset for c in checkpoints.values()))

    stage_kwargs = {
        "templates": templates,
        "model_name": model_name,
        "temperature": temperature,
        "max_output_tokens": max_output_tokens,
    }
    sealed: set[str] = set()
    done: dict[str, frozenset[str]] | None = None
    with ExitStack() as opened:
        for spec in specs:
            source, input_digest = _stage_source(spec, pages, output_dir, checkpoints)
            checkpoint, seal_path = checkpoints[spec.name], output_dir / spec.seal_file
            if _holds(seal_path, _seal(spec, input_digest, checkpoint)):
                sealed.add(spec.name)
                # a file the redo rule let go missing can only have been empty;
                # create it, as the writer's append-mode open would have
                for name in (spec.output_file, _DEADLETTER_FILE, spec.checkpoint_file):
                    if not (output_dir / name).exists():
                        (output_dir / name).touch()
                continue
            if done is None:  # so a damaged line stops the run before any call
                done = _committed_keys(output_dir, checkpoints, checkpoints.keys() - sealed)
                # loaded by the first stage that runs, so a sealed rerun never loads it
                from .ledger import LEDGER_FILE, ReplyLedger, settings_digest

                ledger = ReplyLedger.load(output_dir / LEDGER_FILE)
                ledger.open()
                opened.callback(ledger.close)
            if checkpoint.counts is None:  # lines from before counters: count the output once
                stats = compute_stats(output_dir)
                checkpoint.counts = [getattr(stats, name) for name in spec.counters]
            settings = settings_digest(templates[spec.template_id], model_name, temperature,
                                       max_output_tokens)
            with _StageWriter(checkpoint, output_dir, spec) as writer:
                try:
                    _run_stage(spec, source, writer, done[spec.name], backend, stage_kwargs,
                               ledger=ledger, settings=settings,
                               item_attempts=item_attempts, workers=workers)
                except _POISON_ERRORS:
                    # an item's own poison errors are caught per item; one that
                    # reaches here comes from reading the stage input
                    raise
                except DataMentionsError as exc:
                    raise PipelineInterrupted(
                        f"pipeline stopped during a stage: {exc}", cause=exc,
                        progressed=any(c.output_offset or c.deadletter_offset
                                       for c in checkpoints.values()),
                    ) from exc
            ckpt_path = output_dir / spec.checkpoint_file  # the stage's commits made it longer
            checkpoint.size, checkpoint.digest = _size(ckpt_path), _sha256(ckpt_path)
            seal_path.write_bytes(_seal(spec, input_digest, checkpoint))

    if any(c.counts is None for c in checkpoints.values()):
        stats = compute_stats(output_dir)  # a checkpoint from before counters
    else:
        totals = {name: n for spec in _STAGE_SPECS
                  for name, n in zip(spec.counters, checkpoints[spec.name].counts)}
        judged, agent = totals["mentions_judged_valid"], totals["mentions_agent_valid"]
        stats = PipelineStats(**totals, retention_after_agent=agent / judged if judged else None)
    data = (json.dumps(stats.to_dict(), ensure_ascii=False, indent=2) + "\n").encode("utf-8")
    if not _holds(output_dir / "stats.json", data):
        (output_dir / "stats.json").write_bytes(data)
    return stats


@dataclass(frozen=True)
class StagePlan:
    """What one stage would do if run now."""

    stage: str
    pending: int | None  # None when the stage's input is missing or will be written again
    backend_calls: int | None


def plan_pipeline(
    pages: Iterable[PageRecord],
    *,
    output_dir: str | Path,
    stages: Sequence[str] = STAGES,
    templates: Mapping[str, PromptTemplate] | None = None,
    model_name: str = DEFAULT_MODEL,
    temperature: float = 0.0,
    max_output_tokens: int = 4096,
) -> list[StagePlan]:
    """Describe pending work per stage without touching any backend.

    Walks the same items as :func:`run_pipeline` and keeps the same
    checkpoints: completed keys are excluded, a stage the run would redo
    counts all its items, and a sealed stage has nothing pending. A stage
    reports unknown amounts when its input file has not been produced yet,
    or when the stage that writes it will write it again: it is redone, or
    it is planned with pending items or unknown amounts itself. A pending
    item whose first reply is in the ledger under the given settings costs
    no call. Nothing is written.
    """
    output_dir = Path(output_dir)
    checkpoints, redone = _resume_checkpoints(output_dir)
    sealed: set[str] = set()
    done: dict[str, frozenset[str]] | None = None
    plans: dict[str, StagePlan] = {}
    for spec in _selected_specs(stages):
        writer = _WRITER_OF.get(spec.input_file)
        written_again = writer in redone or (writer in plans and plans[writer].pending != 0)
        staged = None if written_again else _stage_source(spec, pages, output_dir, checkpoints)
        if staged is None:
            plans[spec.name] = StagePlan(stage=spec.name, pending=None, backend_calls=None)
            continue
        source, input_digest = staged
        checkpoint = checkpoints[spec.name]
        pending = calls = 0
        if _holds(output_dir / spec.seal_file, _seal(spec, input_digest, checkpoint)):
            sealed.add(spec.name)
        else:
            if done is None:  # as run_pipeline reads them
                done = _committed_keys(output_dir, checkpoints, checkpoints.keys() - sealed)
                from .ledger import LEDGER_FILE, ReplyLedger, settings_digest

                recorded = ReplyLedger.load(output_dir / LEDGER_FILE).index
                templates = templates or load_templates()
            settings = settings_digest(templates[spec.template_id], model_name, temperature,
                                       max_output_tokens)
            for key, _, _, user_content, _ in _keyed_items(spec, source):
                if key not in done[spec.name]:
                    pending += 1
                    # a blank page costs no call, nor does a recorded reply
                    calls += bool(user_content.strip()) and (settings, key, 0) not in recorded
        plans[spec.name] = StagePlan(stage=spec.name, pending=pending, backend_calls=calls)
    return list(plans.values())


# ---------------------------------------------------------------------------
# fine-tuning export

DEFAULT_INSTRUCTION_PREAMBLE = (
    "Identify and extract all dataset mentions from the following page of a "
    "document. Return a JSON array of dataset mention objects; return [] if "
    "the page mentions no datasets."
)


def _valid_mentions(row: dict[str, Any]) -> tuple[tuple[str, int], list[dict[str, Any]]]:
    """An assessed row's page key and its agent-valid mentions, with the agent's labels."""
    block = row["block"]
    key = (block["source"], _coerce_int(block["page"], "page", "assessed block"))
    return key, [{**a.mention.to_dict(), "specificity": a.specificity, "context": a.context}
                 for a in map(AgentAssessment.from_dict, row.get("assessments", [])) if a.valid]


def export_finetune_records(
    pages: Iterable[PageRecord],
    assessed: str | Path,
    out_path: str | Path,
    split_tag: str | None = None,
) -> int:
    """Write one instruction/response record per page.

    The instruction is :data:`DEFAULT_INSTRUCTION_PREAMBLE`, a blank line
    and the page text; the response is the serialized list of agent-valid
    mentions, with the agent's final labels applied — an empty array for
    mention-free pages. Returns the number of records written.

    Every assessed row is read before ``out_path`` and its missing parent
    directories are made; a row of the wrong shape raises
    :class:`InvalidRecord` naming the file and the line, and nothing is written.
    """
    valid_by_page: dict[tuple[str, int], list[dict[str, Any]]] = {}
    for key, mentions in read_rows(assessed, _valid_mentions):
        valid_by_page.setdefault(key, []).extend(mentions)

    tag = {} if split_tag is None else {"split": split_tag}
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    return write_jsonl(out_path, (
        {
            "instruction": f"{DEFAULT_INSTRUCTION_PREAMBLE}\n\n{page.text}",
            "response": json.dumps(valid_by_page.get((page.doc_id, page.page_number), []),
                                   ensure_ascii=False),
            **tag,
        }
        for page in sorted(pages, key=attrgetter("doc_id", "page_number"))
    ))
