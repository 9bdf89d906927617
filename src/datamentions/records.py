"""Domain types, validation, and the canonical serialization contract.

Every stage of the pipeline exchanges the types defined here. The on-disk
format is line-delimited JSON (one entity per line, UTF-8, snake_case field
names). Serialization follows one rule everywhere: optional fields that are
absent are omitted on write, and on read the JSON ``null`` as well as the
literal strings ``"None"``/``"null"`` normalize to absent — prompts instruct
models to emit ``None`` for unknown values, and that token must never leak
into typed fields.

Each record shape has one parser and each field one rule: a mention or a
block, from a model reply or a stored row, is read by
:func:`parse_mention_block`; text by :func:`_text`, labels by
:func:`_label`, flags by :func:`_coerce_bool`, page numbers by
:func:`_coerce_int` and name lists by :func:`_names`.

The bytes of an encoding and the value of a decoding are those of the
standard ``json`` module. :func:`dumps_line` gives a line's UTF-8 bytes,
newline included, from one C encoder, the one ``json.dumps`` would build
for the call, made once at import and shared by all threads, where
``json.dumps`` builds a new one for every call. When the optional ``fast``
extra is installed, orjson writes the values it encodes identically:
prompt records (:func:`canonical_json`) and flat record lines such as
exports and dead letters. It also decodes every line that
:func:`read_rows` reads and every model reply payload, keeping its value
only where ``json`` is known to give the same one; every other text is
decoded, and refused, by ``json`` as before. orjson is imported on the
first value encoded or line decoded, never by importing the package.

Page lines, which the page store writes and reads back in bulk, have a
codec of their own with the same bytes and rules: :meth:`PageRecord.to_line`
fills one fixed template with orjson's encoding of ``doc_id`` and ``text``,
and :func:`_page_fields` keeps orjson's decoding of a line when its three
fields hold exactly their own types. Any other page or line takes
:func:`dumps_line` or :func:`_decode_line`.

Records are frozen, slotted dataclasses made by :func:`frozen_record`, and
so are the other values built once per page, item or call (chat requests
and replies, gate decisions, match results) and the package's other
immutable values (reports, settings, plans). One zero-latency pipeline run
over 1,000 pages builds about 26,000 of them and reads each several times.
Slots keep a record's values inline, with no instance ``__dict__``: a
ten-field mention holds 121 bytes and reads its fields as fast as a stock
dataclass does, and the decorator's ``__init__``, which sets each slot
through its descriptor, builds it in about half the time of a stock frozen
dataclass's. That ``__init__`` is the only code generated for a record
class; equality, hashing, ``repr``, immutability and pickling are the same
shared functions for every class, which keeps start-up short for a
command-line program that runs each step as a fresh process.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import re
from _thread import get_ident
from dataclasses import FrozenInstanceError, dataclass, fields
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, Iterator, Sequence

from .errors import (
    BadEnum,
    DataMentionsError,
    InvalidRecord,
    MissingField,
    ValidityCouplingViolation,
)
from .textnorm import normalize_tokens

CONTEXT_VALUES = ("primary", "supporting", "background")
SPECIFICITY_VALUES = ("properly_named", "descriptive_but_unnamed", "vague_generic")
RELEVANCE_VALUES = ("directly_relevant", "indirectly_relevant", "not_relevant")
SOURCE_CORPUS_VALUES = ("one_earth", "prwp", "other")

_DOC_ID = re.compile(r"^[0-9a-f]{40}$")
_ABSENT_STRINGS = frozenset({"", "none", "null"})


def is_doc_id(value: Any) -> bool:
    """True when ``value`` is a 40-character lowercase hex identifier."""
    return isinstance(value, str) and bool(_DOC_ID.match(value))


def _text(value: Any, key: str) -> str:
    """A text field's value: a number or a boolean becomes its ``str``; an object or
    an array, which has no text form, raises :class:`InvalidRecord` naming ``key``."""
    if isinstance(value, str):
        return value
    if isinstance(value, (dict, list)):
        kind = "an object" if isinstance(value, dict) else "an array"
        raise InvalidRecord(f"{key} is {kind}, not text")
    return str(value)


def _first_given(*values: Any) -> Any:
    """The first of ``values`` that is neither null nor ``""``, else the last of them.

    Unlike ``or``, it keeps ``0``, ``false`` and ``{}`` for :func:`_text` to read or refuse.
    """
    for value in values[:-1]:
        if value is not None and value != "":
            return value
    return values[-1]


def clean_optional(value: Any, key: str = "a text field") -> str | None:
    """Normalize an optional text field, read by :func:`_text`: null-ish values become absent."""
    if value is None:
        return None
    value = _text(value, key)
    if value.strip().lower() in _ABSENT_STRINGS:
        return None
    return value


def _require(payload: dict, key: str, where: str) -> Any:
    if key not in payload or payload[key] is None:
        raise MissingField(key, where)
    return payload[key]


def _coerce_int(value: Any, key: str, where: str) -> int:
    """An int, or a string of decimal digits; a bool or a float is refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and value.strip().isdecimal():
        return int(value.strip())
    raise InvalidRecord(f"{where}: {key} is not an integer: {value!r}")


def _coerce_bool(value: Any, key: str, where: str) -> bool:
    """A bool, or the string ``"true"`` or ``"false"`` in any case."""
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.strip().lower() in ("true", "false"):
        return value.strip().lower() == "true"
    raise InvalidRecord(f"{where}: {key} is not a boolean: {value!r}")


def _label(payload: dict, key: str, allowed: tuple[str, ...]) -> str | None:
    """The payload's ``key`` label: absent, or one of ``allowed`` (else :class:`BadEnum`)."""
    value = clean_optional(payload.get(key), key)
    if value is None or value in allowed:
        return value
    raise BadEnum(key, value)


def _names(payload: dict, key: str, where: str) -> tuple[str, ...]:
    """The payload's ``key`` list of names; anything but a list of strings is refused."""
    if key not in payload:
        raise MissingField(key, where)
    names = payload[key]
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise InvalidRecord(f"{where}: {key} is not a list of strings")
    return tuple(names)


# (record id, thread id) for each repr being built: a record that holds itself
# shows as "..." inside its own repr, as in a stock dataclass's
_REPR_RUNNING: set[tuple[int, int]] = set()


def _record_methods(cls: type, names: tuple[str, ...]) -> dict[str, Callable]:
    """The methods of a frozen dataclass for ``cls``, whose fields are ``names``.

    Each is a closure over one getter of the field values as a tuple, so
    making them compiles nothing.
    """
    if len(names) > 1:
        values = attrgetter(*names)
    else:  # attrgetter of one name returns the bare value, and of none raises
        def values(record: object) -> tuple:
            return tuple(getattr(record, name) for name in names)
    field_names = frozenset(names)
    shown = ", ".join(f"{name}={{!r}}" for name in names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        key = id(self), get_ident()
        if key in _REPR_RUNNING:
            return "..."
        _REPR_RUNNING.add(key)
        try:
            return f"{self.__class__.__qualname__}({shown.format(*values(self))})"
        finally:
            _REPR_RUNNING.discard(key)

    def __setattr__(self, name, value):
        if type(self) is cls or name in field_names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in field_names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    def __getstate__(self):
        return list(values(self))

    def __setstate__(self, state):
        for name, value in zip(names, state):
            object.__setattr__(self, name, value)

    return {"__eq__": __eq__, "__hash__": __hash__, "__repr__": __repr__,
            "__setattr__": __setattr__, "__delattr__": __delattr__,
            "__getstate__": __getstate__, "__setstate__": __setstate__}


def frozen_record(cls: type) -> type:
    """A frozen, slotted dataclass whose methods are shared functions, not generated source.

    ``dataclass(init=False, repr=False, eq=False, slots=True)`` gives the
    class its fields, its slots and ``__match_args__``, and generates no
    code. ``__eq__``, ``__hash__``, ``__repr__``, ``__setattr__``,
    ``__delattr__``, ``__getstate__`` and ``__setstate__`` are then the same
    functions for every class (:func:`_record_methods`), closures over one
    ``operator.attrgetter`` of the field names, and behave as those of
    ``dataclass(frozen=True, slots=True)``: equality compares the fields as
    a tuple between instances of the same class, the hash is that of the
    tuple, ``repr`` shows ``Class(name=value, ...)`` with ``...`` for a
    record inside itself, assigning or deleting a field raises
    :class:`dataclasses.FrozenInstanceError` with the stock message, and
    pickling and copying carry the field values as a list.
    ``fields``/``asdict``/``replace`` read the dataclass fields as before.
    One difference: assigning or deleting an attribute that is not a field
    raises ``FrozenInstanceError`` here, where the stock slotted class
    raises ``TypeError`` from a ``super()`` call bound to the class it
    replaced. ``__dataclass_params__`` reads ``eq=False, repr=False,
    frozen=False``, since the class does that work itself; so a stock
    ``@dataclass(frozen=True)`` cannot subclass a record.

    The one generated function is ``__init__``, made by ``exec``. It has
    the parameters, order, defaults and annotations the dataclass would have
    generated; it stores each argument through its slot descriptor's
    ``__set__``, then calls ``__post_init__`` when the class has one. Stock
    frozen dataclasses call ``object.__setattr__`` once per field instead,
    which looks each name up through the class first. On Python 3.11 the
    stock decorator compiles six sources for a frozen slotted class and this
    one compiles one, so a ten-field record class is made in about 0.2 ms
    against 0.7 ms. Importing the package, with its 25 record classes and
    five mutable dataclasses, compiles 50 sources where it compiled 175,
    and takes a median 54 ms against 63 ms without cached bytecode. The
    shared ``__eq__`` and ``__hash__`` take about twice the time of the
    generated ones (0.5 and 0.37 µs on a ten-field mention); a zero-latency
    pipeline run over 1,000 gated pages compares about 300 mentions and
    hashes no record.

    Slots keep the values inline and leave out the instance ``__dict__``.
    On Python 3.11 a ten-field mention builds in about 0.8 µs against 1.6 µs
    for a stock frozen dataclass, reads four fields in under 30 ns as a
    stock instance does, and holds 121 bytes against 169. Storing into the
    instance ``__dict__`` instead builds it in about 0.5 µs, but reads four
    fields in 100 to 190 ns and holds 232 bytes, and a pipeline run reads
    each record it builds more than once. Instances take no attributes
    other than their fields, and no weak references.

    Fields with ``default_factory``, ``init=False``, ``kw_only``,
    ``repr=False``, ``compare=False`` or ``hash`` set, ``InitVar`` or
    ``ClassVar`` pseudo-fields, and a class body that defines one of the
    methods above, raise :class:`TypeError` when the class is defined.
    """
    explicit_doc = cls.__dict__.get("__doc__") is not None
    cls = dataclass(init=False, repr=False, eq=False, slots=True)(cls)
    record_fields = fields(cls)
    if len(record_fields) != len(cls.__dataclass_fields__):
        raise TypeError(f"{cls.__name__}: InitVar and ClassVar pseudo-fields are not supported")
    for f in record_fields:
        if (f.default_factory is not dataclasses.MISSING or not f.init or f.kw_only
                or not f.repr or not f.compare or f.hash is not None):
            raise TypeError(f"{cls.__name__}.{f.name}: default_factory, init=False, kw_only, "
                            "repr=False, compare=False and hash fields are not supported")
    names = tuple(f.name for f in record_fields)
    methods = _record_methods(cls, names)
    defined = sorted(methods.keys() & cls.__dict__.keys())
    if defined:
        raise TypeError(f"{cls.__name__} defines {', '.join(defined)}: a record's own "
                        "methods are not supported")
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    self_name = "__dataclass_self__" if "self" in names else "self"
    params = [self_name] + [
        name if f.default is dataclasses.MISSING else f"{name}=__default_{name}__"
        for name, f in zip(names, record_fields)
    ]
    body = [f"__set_{name}__({self_name}, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        body.append(f"{self_name}.__post_init__()")
    namespace: dict = {"__name__": cls.__module__}
    namespace.update((f"__set_{name}__", cls.__dict__[name].__set__) for name in names)
    namespace.update((f"__default_{f.name}__", f.default) for f in record_fields
                     if f.default is not dataclasses.MISSING)
    exec(f"def __init__({', '.join(params)}):\n    " + "\n    ".join(body or ["pass"]),
         namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in record_fields}, "return": None}
    cls.__init__ = init
    if not explicit_doc:  # what dataclass writes once it has made __init__
        cls.__doc__ = cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")
    return cls


# ---------------------------------------------------------------------------
# documents and pages


@frozen_record
class DocumentRecord:
    """A paper located through the scholarly metadata index."""

    doc_id: str
    title: str
    source_corpus: str = "other"
    year: int | None = None
    is_open_access: bool = False
    pdf_url: str | None = None
    citation_count: int | None = None

    def __post_init__(self) -> None:
        if not is_doc_id(self.doc_id):
            raise InvalidRecord(f"doc_id must be 40 lowercase hex chars, got {self.doc_id!r}")
        if not self.title or not self.title.strip():
            raise InvalidRecord("document title must be non-empty")
        if self.source_corpus not in SOURCE_CORPUS_VALUES:
            raise BadEnum("source_corpus", self.source_corpus)
        if self.citation_count is not None and self.citation_count < 0:
            raise InvalidRecord("citation_count must be non-negative")

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "doc_id": self.doc_id,
            "title": self.title,
            "source_corpus": self.source_corpus,
            "is_open_access": self.is_open_access,
        }
        if self.year is not None:
            d["year"] = self.year
        if self.pdf_url is not None:
            d["pdf_url"] = self.pdf_url
        if self.citation_count is not None:
            d["citation_count"] = self.citation_count
        return d

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "DocumentRecord":
        where = "document record"
        year = payload.get("year")
        open_access = payload.get("is_open_access")
        citations = payload.get("citation_count")
        return cls(
            doc_id=_text(_require(payload, "doc_id", where), "doc_id"),
            title=_text(_require(payload, "title", where), "title"),
            source_corpus=payload.get("source_corpus") or "other",
            year=None if year is None else _coerce_int(year, "year", where),
            is_open_access=(False if open_access is None
                            else _coerce_bool(open_access, "is_open_access", where)),
            pdf_url=clean_optional(payload.get("pdf_url"), "pdf_url"),
            citation_count=None if citations is None else _coerce_int(citations, "citation_count", where),
        )


# A page's stored line, as dumps_line writes its to_dict(): the JSON texts of
# doc_id and text, and page_number in decimal, go in the slots.
_PAGE_LINE = b'{"doc_id": %b, "page_number": %d, "text": %b}\n'


@frozen_record
class PageRecord:
    """One physical page of text from a document.

    A page is stored as one line, written by :meth:`to_line` and read back
    by :func:`_page_fields`. Both keep to the bytes and the rules of
    :func:`dumps_line` and of :func:`read_rows` with :meth:`from_dict`, and
    take a shorter path for a page whose fields hold exactly their own types.
    """

    doc_id: str
    page_number: int
    text: str

    def __post_init__(self) -> None:
        if not isinstance(self.page_number, int) or self.page_number < 1:
            raise InvalidRecord(f"page_number must be >= 1, got {self.page_number!r}")

    def to_dict(self) -> dict[str, Any]:
        return {"doc_id": self.doc_id, "page_number": self.page_number, "text": self.text}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "PageRecord":
        where = "page record"
        return cls(
            doc_id=_text(_require(payload, "doc_id", where), "doc_id"),
            page_number=_coerce_int(_require(payload, "page_number", where), "page_number", where),
            text=_text(_require(payload, "text", where), "text"),
        )

    def to_line(self) -> bytes:
        """The page's line: the bytes of ``dumps_line(self.to_dict())``, errors included.

        When orjson is installed and ``doc_id``, ``page_number`` and ``text``
        are exactly a str, an int and a str, the line is :data:`_PAGE_LINE`
        filled with orjson's encoding of the two strings, which is ``json``'s
        without ``ensure_ascii``, and the number's digits, as ``json`` writes
        an int. Any other page, and one holding a lone surrogate (which
        orjson refuses with a ``TypeError``), goes to :func:`dumps_line`, so
        a lone surrogate raises :class:`UnicodeEncodeError` there.
        """
        doc_id, number, text = self.doc_id, self.page_number, self.text
        fast = _orjson()
        if fast is not None and type(doc_id) is str and type(number) is int and type(text) is str:
            try:
                return _PAGE_LINE % (fast.dumps(doc_id), number, fast.dumps(text))
            except TypeError:
                pass
        return dumps_line(self.to_dict())


# ---------------------------------------------------------------------------
# mentions


@frozen_record
class DatasetMention:
    """One extracted dataset mention.

    Deliberately constructible with out-of-range values: model output must be
    representable before it can be judged, so enforcement lives in
    :func:`validate_mention` and in the strict parsers, not in the constructor.
    """

    raw_name: str
    mentioned_in: str
    harmonized_name: str | None = None
    acronym: str | None = None
    producer: str | None = None
    year: str | None = None
    data_type: str | None = None
    context: str | None = None
    specificity: str | None = None
    relevance: str | None = None

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"raw_name": self.raw_name}
        if self.harmonized_name is not None:
            d["harmonized_name"] = self.harmonized_name
        if self.acronym is not None:
            d["acronym"] = self.acronym
        if self.producer is not None:
            d["producer"] = self.producer
        if self.year is not None:
            d["year"] = self.year
        if self.data_type is not None:
            d["data_type"] = self.data_type
        if self.context is not None:
            d["context"] = self.context
        if self.specificity is not None:
            d["specificity"] = self.specificity
        if self.relevance is not None:
            d["relevance"] = self.relevance
        d["mentioned_in"] = self.mentioned_in
        return d

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "DatasetMention":
        return _parse_mention_payload(payload, None, [])


def validate_mention(mention: DatasetMention) -> list[str]:
    """Return the list of invariant violations for ``mention`` (empty = ok).

    Total over all constructible mentions; never raises.
    """
    violations: list[str] = []
    if not mention.raw_name or not mention.raw_name.strip():
        violations.append("raw_name empty")
    if not mention.mentioned_in or not mention.mentioned_in.strip():
        violations.append("mentioned_in empty")
    if mention.context is not None and mention.context not in CONTEXT_VALUES:
        violations.append(f"unknown context value {mention.context!r}")
    if mention.specificity is not None and mention.specificity not in SPECIFICITY_VALUES:
        violations.append(f"unknown specificity value {mention.specificity!r}")
    if mention.relevance is not None and mention.relevance not in RELEVANCE_VALUES:
        violations.append(f"unknown relevance value {mention.relevance!r}")
    return violations


@frozen_record
class MentionBlock:
    """Dataset mentions that share one source sentence on one page."""

    mentioned_in: str
    datasets: tuple[DatasetMention, ...]
    source: str
    page: int

    def __post_init__(self) -> None:
        if not is_doc_id(self.source):
            raise InvalidRecord(f"block source must be a doc_id, got {self.source!r}")
        if not isinstance(self.page, int) or self.page < 1:
            raise InvalidRecord(f"block page must be >= 1, got {self.page!r}")
        if not isinstance(self.datasets, tuple):
            object.__setattr__(self, "datasets", tuple(self.datasets))

    def to_dict(self) -> dict[str, Any]:
        return {
            "mentioned_in": self.mentioned_in,
            "datasets": [m.to_dict() for m in self.datasets],
            "source": self.source,
            "page": self.page,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "MentionBlock":
        return parse_mention_block(payload)[0]


_MENTION_FIELDS = frozenset(f.name for f in fields(DatasetMention))
_BLOCK_FIELDS = frozenset(f.name for f in fields(MentionBlock))


def _parse_mention_payload(
    payload: Any,
    block_sentence: str | None,
    warnings: list[str],
) -> DatasetMention:
    """A mention from a reply entry or a stored row; its own sentence wins over the block's."""
    if not isinstance(payload, dict):
        raise InvalidRecord(f"dataset entry must be an object, got {type(payload).__name__}")
    raw_name = _text(_require(payload, "raw_name", "dataset entry"), "raw_name")
    mentioned_in = _first_given(payload.get("mentioned_in"), block_sentence)
    if mentioned_in is None:
        raise MissingField("mentioned_in", "dataset entry")
    for key in payload:
        if key not in _MENTION_FIELDS:
            warnings.append(f"unknown dataset field {key!r} ignored")
    get = payload.get
    return DatasetMention(
        raw_name,
        _text(mentioned_in, "mentioned_in"),
        clean_optional(get("harmonized_name"), "harmonized_name"),
        clean_optional(get("acronym"), "acronym"),
        clean_optional(get("producer"), "producer"),
        clean_optional(get("year"), "year"),
        clean_optional(get("data_type"), "data_type"),
        _label(payload, "context", CONTEXT_VALUES),
        _label(payload, "specificity", SPECIFICITY_VALUES),
        _label(payload, "relevance", RELEVANCE_VALUES),
    )


def parse_mention_block(payload: Any) -> tuple[MentionBlock, list[str]]:
    """Strictly parse a reply's or a stored row's value into a :class:`MentionBlock`.

    Missing optional fields become absent; unknown extra fields are ignored
    but reported in the returned warning list. Raises :class:`MissingField`
    for absent required fields and :class:`BadEnum` for out-of-range labels.
    """
    if not isinstance(payload, dict):
        raise InvalidRecord(f"mention block must be an object, got {type(payload).__name__}")
    warnings: list[str] = []
    sentence = _text(_require(payload, "mentioned_in", "mention block"), "mentioned_in")
    raw_datasets = _require(payload, "datasets", "mention block")
    if not isinstance(raw_datasets, list):
        raise InvalidRecord("mention block: 'datasets' must be a list")
    datasets = tuple(
        _parse_mention_payload(entry, sentence, warnings) for entry in raw_datasets
    )
    for key in payload:
        if key not in _BLOCK_FIELDS:
            warnings.append(f"unknown block field {key!r} ignored")
    block = MentionBlock(
        sentence,
        datasets,
        _text(_require(payload, "source", "mention block"), "source"),
        _coerce_int(_require(payload, "page", "mention block"), "page", "mention block"),
    )
    return block, warnings


# ---------------------------------------------------------------------------
# judgments and assessments


@frozen_record
class JudgeVerdict:
    """One validity ruling from the judge stage, order-aligned to a block."""

    raw_name: str
    valid: bool
    reason: str
    inferred_year: str | None = None
    inferred_producer: str | None = None
    inferred_data_type: str | None = None

    def __post_init__(self) -> None:
        if not self.reason or not self.reason.strip():
            raise InvalidRecord("verdict reason must be non-empty")

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"raw_name": self.raw_name, "valid": self.valid, "reason": self.reason}
        if self.inferred_year is not None:
            d["inferred_year"] = self.inferred_year
        if self.inferred_producer is not None:
            d["inferred_producer"] = self.inferred_producer
        if self.inferred_data_type is not None:
            d["inferred_data_type"] = self.inferred_data_type
        return d

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "JudgeVerdict":
        where = "judge verdict"
        return cls(
            raw_name=_text(_require(payload, "raw_name", where), "raw_name"),
            valid=_coerce_bool(_require(payload, "valid", where), "valid", where),
            reason=_text(_require(payload, "reason", where), "reason"),
            inferred_year=clean_optional(payload.get("inferred_year"), "inferred_year"),
            inferred_producer=clean_optional(payload.get("inferred_producer"),
                                             "inferred_producer"),
            inferred_data_type=clean_optional(payload.get("inferred_data_type"),
                                              "inferred_data_type"),
        )


@frozen_record
class AgentAssessment:
    """The reasoning agent's final ruling on one mention.

    Construction enforces the validity coupling: an invalid mention carries
    null labels and a non-empty reason; a valid one carries both labels.
    """

    mention: DatasetMention
    valid: bool
    invalid_reason: str | None = None
    specificity: str | None = None
    context: str | None = None

    def __post_init__(self) -> None:
        name = self.mention.raw_name
        if self.valid:
            if self.specificity is None or self.context is None:
                raise ValidityCouplingViolation(f"agent kept {name!r} valid without both labels")
        else:
            if self.specificity is not None or self.context is not None:
                raise ValidityCouplingViolation(f"agent marked {name!r} invalid but kept labels")
            if not self.invalid_reason or not self.invalid_reason.strip():
                raise ValidityCouplingViolation(f"agent marked {name!r} invalid without a reason")
        if self.specificity is not None and self.specificity not in SPECIFICITY_VALUES:
            raise BadEnum("specificity", self.specificity)
        if self.context is not None and self.context not in CONTEXT_VALUES:
            raise BadEnum("context", self.context)

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "mention": self.mention.to_dict(),
            "valid": self.valid,
            "specificity": self.specificity,
            "context": self.context,
        }
        if self.invalid_reason is not None:
            d["invalid_reason"] = self.invalid_reason
        return d

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "AgentAssessment":
        where = "agent assessment"
        return cls(
            mention=DatasetMention.from_dict(_require(payload, "mention", where)),
            valid=_coerce_bool(_require(payload, "valid", where), "valid", where),
            invalid_reason=clean_optional(payload.get("invalid_reason"), "invalid_reason"),
            specificity=_label(payload, "specificity", SPECIFICITY_VALUES),
            context=_label(payload, "context", CONTEXT_VALUES),
        )


# ---------------------------------------------------------------------------
# evaluation-side records


@frozen_record
class GroundTruthRecord:
    """Gold dataset names for one page, possibly with per-name labels."""

    doc_id: str
    page_number: int
    gold_names: tuple[str, ...]
    labels: dict[str, dict[str, str]] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.gold_names, tuple):
            object.__setattr__(self, "gold_names", tuple(self.gold_names))
        if self.labels is not None and not isinstance(self.labels, dict):
            raise InvalidRecord(f"gold labels is not an object: {type(self.labels).__name__}")
        seen: set[frozenset[str]] = set()
        for name in self.gold_names:
            tokens = normalize_tokens(name)
            if tokens in seen:
                raise InvalidRecord(
                    f"gold name {name!r} duplicates another after token normalization"
                )
            seen.add(tokens)

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "doc_id": self.doc_id,
            "page_number": self.page_number,
            "gold_names": list(self.gold_names),
        }
        if self.labels is not None:
            d["labels"] = self.labels
        return d

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "GroundTruthRecord":
        where = "ground truth record"
        return cls(
            doc_id=_text(_require(payload, "doc_id", where), "doc_id"),
            page_number=_coerce_int(_require(payload, "page_number", where), "page_number", where),
            gold_names=_names(payload, "gold_names", where),
            labels=payload.get("labels"),
        )


@frozen_record
class PredictionRecord:
    """Predicted dataset names for one page."""

    doc_id: str
    page_number: int
    predicted_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.predicted_names, tuple):
            object.__setattr__(self, "predicted_names", tuple(self.predicted_names))

    def to_dict(self) -> dict[str, Any]:
        return {
            "doc_id": self.doc_id,
            "page_number": self.page_number,
            "predicted_names": list(self.predicted_names),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "PredictionRecord":
        where = "prediction record"
        return cls(
            doc_id=_text(_require(payload, "doc_id", where), "doc_id"),
            page_number=_coerce_int(_require(payload, "page_number", where), "page_number", where),
            predicted_names=_names(payload, "predicted_names", where),
        )


# ---------------------------------------------------------------------------
# line-delimited I/O


_ORJSON_LEAVES = frozenset((str, int, bool, type(None)))
# Containers nested deeper than this take the json path. json.loads raises
# RecursionError near the interpreter's recursion limit, where orjson.loads
# has none, and orjson.dumps refuses values nested 256 deep.
_ORJSON_DEPTH = 64


def _orjson_safe(value: Any, depth: int = _ORJSON_DEPTH) -> bool:
    """Whether ``value`` holds only dicts, lists, str, int, bool and None,
    with containers nested at most ``depth`` deep.

    Exact types only: orjson writes floats in another form than ``json``
    (``1e16`` for ``1e+16``) and encodes subclasses, tuples and dataclasses
    on its own terms, so anything else takes the ``json`` path.
    """
    kind = type(value)
    if kind is dict:
        value = value.values()
    elif kind is not list:
        return kind in _ORJSON_LEAVES
    if not depth:
        return False
    for item in value:
        if type(item) is not str and not _orjson_safe(item, depth - 1):
            return False
    return True


def _is_flat(value: Any) -> bool:
    """Whether ``value`` is a dict of str keys to str, int, bool or None values.

    Exact types only, as in :func:`_orjson_safe`; a loop, not ``all``, as
    every stage line pays for this check before it takes the ``json`` path.
    """
    if type(value) is not dict:
        return False
    for key, item in value.items():
        if type(key) is not str or type(item) not in _ORJSON_LEAVES:
            return False
    return True


def __getattr__(name: str) -> Any:
    """``orjson``, imported on first use; None when it is not installed.

    orjson is the optional ``fast`` extra. It is imported on the first
    value it can write or the first text it decodes, so importing the
    package does not load it.
    """
    if name != "orjson":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    try:
        import orjson as module
    except ImportError:
        module = None
    globals()["orjson"] = module
    return module


def _orjson() -> Any:
    """The ``orjson`` module, or None; tests hide it by setting ``records.orjson``."""
    try:
        return orjson  # a global once __getattr__ has imported it
    except NameError:
        return __getattr__("orjson")


def canonical_json(value: Any) -> str:
    """Pretty canonical JSON used when a record travels inside a prompt.

    The text is ``json.dumps(value, ensure_ascii=False, indent=2)``; orjson
    writes it when installed and the value is plain. orjson refuses lone
    surrogates, ints wider than 64 bits and non-str keys with a
    ``TypeError``, and those values take the ``json`` path as well.
    """
    fast = _orjson()
    if fast is not None and _orjson_safe(value):
        try:
            return fast.dumps(value, option=fast.OPT_INDENT_2).decode()
        except TypeError:
            pass
    return json.dumps(value, ensure_ascii=False, indent=2)


def _line_encoder() -> Callable[[Any, int], Sequence[str]] | None:
    """The C encoder ``json.dumps`` builds for :func:`dumps_line`'s arguments, or None.

    ``json.dumps(value, ensure_ascii=False, separators=(", ", ": "))`` makes
    a ``JSONEncoder`` and a fresh C encoder on every call. This one is made
    once, with the same arguments in the positional order
    ``JSONEncoder.iterencode`` passes them, except for the circular-reference
    markers: without them the encoder keeps no state between calls, so
    threads can share it. (A shared marker dict would also keep the ids of
    a value whose encoding raised, and refuse that value's containers as
    circular from then on.) None when the C accelerator is not available.
    """
    make = json.encoder.c_make_encoder
    if make is None:
        return None
    return make(None, json.JSONEncoder().default, json.encoder.encode_basestring, None,
                ": ", ", ", False, False, True)


_ENCODE_LINE = _line_encoder()


def dumps_line(value: Any) -> bytes:
    """A line of a line-delimited record file: its UTF-8 bytes, newline included.

    They are ``(json.dumps(value, ensure_ascii=False, separators=(", ", ": ")) + "\\n").encode()``.
    A flat record (a dict with str keys and str, int, bool or None values,
    such as a page) is written by orjson when installed: each key and value
    is encoded on its own and joined with the same separators. orjson
    escapes strings exactly as ``json`` does without ``ensure_ascii``, and
    is several times faster on long text. Every other value, and a flat
    one holding a lone surrogate or an int wider than 64 bits (which orjson
    refuses with a ``TypeError``), is written by the one C encoder
    :func:`_line_encoder` built at import, the encoder ``json.dumps`` would
    build for the call, so the text and the errors are ``json``'s, and a lone
    surrogate raises :class:`UnicodeEncodeError`. One exception: that encoder
    does not look for circular references, so a value that holds itself
    raises :class:`RecursionError` where ``json.dumps`` raises
    :class:`ValueError`. Without the C accelerator the value goes to
    ``json.dumps`` itself.
    """
    if _is_flat(value):
        fast = _orjson()
        if fast is not None:
            dumps = fast.dumps
            try:
                return (b"{" + b", ".join([dumps(key) + b": " + dumps(item)
                                           for key, item in value.items()]) + b"}\n")
            except TypeError:
                pass
    if _ENCODE_LINE is None:
        return (json.dumps(value, ensure_ascii=False, separators=(", ", ": ")) + "\n").encode()
    return ("".join(_ENCODE_LINE(value, 0)) + "\n").encode()


# Line files are written this many lines at a time: one write per batch, and
# memory for one batch, however long the file.
_LINE_BATCH = 64


def write_jsonl(path: str | Path, rows: Iterable[dict[str, Any]]) -> int:
    """Write ``rows`` as one JSON object per line; returns the row count.

    The lines :func:`dumps_line` gives are written :data:`_LINE_BATCH` at
    a time through an unbuffered file.
    """
    count, lines = 0, map(dumps_line, rows)
    with open(path, "wb", buffering=0) as fh:
        while batch := list(islice(lines, _LINE_BATCH)):
            _write_all(fh.write, b"".join(batch))
            count += len(batch)
    return count


def _write_all(write: Callable[[bytes], int], data: bytes) -> None:
    """Write all of ``data`` through an unbuffered file's ``write``.

    That is one call, unless the system writes short; the rest then follows,
    and a full disk raises.
    """
    written = write(data)
    while written < len(data):
        written += write(data[written:])


# Files are read, counted and hashed this many bytes at a time, never whole.
# Chunks of 64 KiB raised the peak memory of a zero-latency run by 0.13 MB.
_CHUNK = 1 << 14
# Lines are read through a buffer this size. Through the default 8 KiB one,
# reading and decoding a 5.8 MB file of 2,000 pages took 5.2 ms, not 4.3 ms
# (Python 3.11, orjson 3.8, 2-core VM): most lines straddled two refills.
_LINE_BUFFER = 1 << 16


def _chunks(path: str | Path, size: int | None = None) -> Iterator[bytes]:
    """The first ``size`` bytes of ``path`` (all of them when None), a chunk at a time."""
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size if size is None else size
        while left > 0 and (chunk := fh.read(min(left, _CHUNK))):
            yield chunk
            left -= len(chunk)


# The escape of a surrogate code point; the text of a line holding none
# cannot decode to a lone surrogate. A regular expression finds it about
# twice as fast as ``in`` on long lines with many escapes, such as pages.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _has_lone_surrogate(value: Any) -> bool:
    """Whether a decoded JSON value holds a lone surrogate, which UTF-8 cannot encode."""
    try:
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _loads_exact(text: str | bytes) -> Any:
    """The value of ``text`` as orjson decodes it, or None to decode it with ``json``.

    The value is kept only when it is what ``json.loads`` gives too: orjson
    is installed, accepts the text, and the value passes
    :func:`_orjson_safe`. A float fails it, since orjson 3.8 turns ints
    wider than 64 bits into floats. orjson refuses, and so leaves to
    ``json``, every text the callers' own checks or ``json`` treat apart:
    NaN and infinities, ``1e400``, a BOM, a lone surrogate escape and
    text or bytes that are not UTF-8. The text ``null`` takes the ``json``
    path as well.
    """
    fast = _orjson()
    if fast is None:
        return None
    try:
        value = fast.loads(text)
    except fast.JSONDecodeError:
        return None
    return value if _orjson_safe(value) else None


def _page_fields(path: str | Path, number: int, line: bytes) -> tuple[str, int, str] | Any:
    """The doc_id, page_number and text of the page on line ``number`` of
    ``path``, whose bytes are ``line``, as :func:`read_rows` reads the line
    with :meth:`PageRecord.from_dict`; :data:`_BLANK` for a blank line. Faults
    raise the :class:`InvalidRecord` that ``read_rows`` raises.

    orjson decodes the line first. Its row is taken as it is when
    :func:`_loads_exact` would keep it and its ``doc_id``, ``page_number``
    and ``text`` are exactly a str, an int of at least 1 and a str, which is
    what ``from_dict`` makes of them. A page's line holds only those three
    keys, whose values :func:`_orjson_safe` accepts, so only a row with
    other keys pays for that walk. Any other line is read by
    :func:`_decode_line`.
    """
    fast = _orjson()
    if fast is not None:
        try:
            row = fast.loads(line)
        except fast.JSONDecodeError:
            row = None
        if type(row) is dict:
            doc_id, page_number, text = row.get("doc_id"), row.get("page_number"), row.get("text")
            if (type(doc_id) is str and type(page_number) is int and page_number >= 1
                    and type(text) is str and (len(row) == 3 or _orjson_safe(row))):
                return doc_id, page_number, text
    page = _decode_line(path, number, line, PageRecord.from_dict)
    return page if page is _BLANK else (page.doc_id, page.page_number, page.text)


# What a row's ``parse`` may raise for a row of the wrong shape: a record's
# own refusal, a missing key or index, a value of the wrong type or form.
_ROW_ERRORS = (DataMentionsError, LookupError, TypeError, ValueError, AttributeError)


def _row_fault(exc: Exception) -> str:
    """What :func:`read_rows` says ``parse`` found wrong with a row."""
    if isinstance(exc, MissingField):
        return f"{exc.where} lacks {exc.field!r}"
    if isinstance(exc, KeyError) and isinstance(exc.args[0], str):  # JSON keys are strings
        return f"the row lacks {exc.args[0]!r}"
    detail = exc if isinstance(exc, DataMentionsError) else repr(exc)
    return f"the row has a field of the wrong type or value: {detail}"


# What :func:`_decode_line` gives for a blank line, which holds no row.
_BLANK = object()


def _decode_line(path: str | Path, number: int, line: bytes,
                 parse: Callable[[dict[str, Any]], Any] | None,
                 surrogates_in: Collection[str] = ()) -> Any:
    """``parse`` of the object on line ``number`` of ``path``, as :func:`read_rows` reads it.

    ``line`` is the line's bytes; :data:`_BLANK` when it holds only
    whitespace. Raises :class:`InvalidRecord` for each fault
    :func:`read_rows` names.
    """
    row = _loads_exact(line)
    if row is None:
        # undecodable bytes become lone surrogates, found by the encode below
        text = line.decode("utf-8", "surrogateescape").strip()
        if not text:
            return _BLANK
        try:
            if not text.isascii():
                text.encode("utf-8")
            row = json.loads(text)
        except UnicodeEncodeError:
            raise InvalidRecord(f"{path}: line {number} is not UTF-8") from None
        except json.JSONDecodeError as exc:
            raise InvalidRecord(f"{path}: line {number} is not JSON: {exc.msg} "
                                f"(column {exc.colno})") from None
        if _SURROGATE_ESCAPE.search(text) and _has_lone_surrogate(
                {k: v for k, v in row.items() if k not in surrogates_in}
                if surrogates_in and type(row) is dict else row):
            raise InvalidRecord(f"{path}: line {number} holds a lone surrogate")
    if type(row) is not dict:
        raise InvalidRecord(f"{path}: line {number} is not a JSON object")
    if parse is None:
        return row
    try:
        return parse(row)
    except _ROW_ERRORS as exc:
        raise InvalidRecord(f"{path}: line {number}: {_row_fault(exc)}") from exc


def _lines(path: str | Path, size: int | None = None) -> Iterator[bytes]:
    """The lines of ``path`` as bytes, each with its ``\\n`` but perhaps the last; with
    ``size``, only the complete lines within its first ``size`` bytes. Lines end at
    ``\\n`` alone."""
    with open(path, "rb", buffering=_LINE_BUFFER) as fh:
        yield from (fh if size is None else islice(
            fh, sum(chunk.count(b"\n") for chunk in _chunks(path, size))))


def read_rows(
    path: str | Path, parse: Callable[[dict[str, Any]], Any] | None, size: int | None = None,
    surrogates_in: Collection[str] = (),
) -> Iterator[Any]:
    """Yield ``parse(row)`` for each object on a non-blank line of ``path``.

    With ``size``, only the complete lines within the first ``size`` bytes
    are read: a line cut short there, and whatever follows it, is never
    decoded. Lines end at ``\\n`` alone, as byte offsets count them. Nothing
    is read before the first ``next``. Every fault of a line raises
    :class:`InvalidRecord` that reads ``<path>: line <n> ...``, ``n`` the
    line's number in the file: a line that is not UTF-8, that is not JSON,
    whose strings hold a lone surrogate (a ``\\ud800`` escape, which no
    UTF-8 file can hold) or that is not an object, and any error in
    :data:`_ROW_ERRORS` that ``parse`` raises. With ``parse`` None the rows
    themselves are yielded. A lone surrogate in the value of a top-level
    key named in ``surrogates_in`` is kept, for rows that record text no
    UTF-8 file can hold, as the reply ledger does; one anywhere else in the
    line is refused.

    Each line is read as bytes and decoded by :func:`_decode_line`. orjson,
    when installed, decodes the bytes first (:func:`_loads_exact`); it
    refuses the lines the checks above look for, so a line it decoded skips
    them. Any other line is decoded and checked by ``json``, and only one
    holding a surrogate escape pays for the check of its decoded value.
    """
    for number, line in enumerate(_lines(path, size), 1):
        row = _decode_line(path, number, line, parse, surrogates_in)
        if row is not _BLANK:
            yield row


def read_jsonl(path: str | Path, size: int | None = None) -> Iterator[dict[str, Any]]:
    """The rows of ``path`` as :func:`read_rows` reads them, each as decoded."""
    return read_rows(path, None, size)


__all__ = [
    "AgentAssessment",
    "CONTEXT_VALUES",
    "DatasetMention",
    "DocumentRecord",
    "GroundTruthRecord",
    "JudgeVerdict",
    "MentionBlock",
    "PageRecord",
    "PredictionRecord",
    "RELEVANCE_VALUES",
    "SOURCE_CORPUS_VALUES",
    "SPECIFICITY_VALUES",
    "canonical_json",
    "clean_optional",
    "dumps_line",
    "frozen_record",
    "is_doc_id",
    "parse_mention_block",
    "read_jsonl",
    "read_rows",
    "validate_mention",
    "write_jsonl",
]
