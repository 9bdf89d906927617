"""``records.frozen_record`` against stock frozen dataclasses.

Every class the decorator makes is rebuilt here from its own body and its
fields with ``@dataclass(frozen=True, slots=True)``. The two must agree on
signature, fields, slots, equality, hashing, ``repr``,
``dataclasses.replace``, pickling, copying, immutability and the error each
``__post_init__`` raises, for hypothesis-drawn field values, valid and
invalid alike.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
import sys
import types
from dataclasses import FrozenInstanceError, dataclass, field

import pytest
from hypothesis import given, settings, strategies as st

from datamentions.evalkit import MatchResult
from datamentions.gate import GateDecision
from datamentions.llm import ChatRequest, ChatResponse
from datamentions.records import (
    CONTEXT_VALUES,
    RELEVANCE_VALUES,
    SOURCE_CORPUS_VALUES,
    SPECIFICITY_VALUES,
    AgentAssessment,
    DatasetMention,
    DocumentRecord,
    GroundTruthRecord,
    JudgeVerdict,
    MentionBlock,
    PageRecord,
    PredictionRecord,
    frozen_record,
)


@frozen_record
class Undocumented:
    name: str
    count: int = 0


# every class in the package has a docstring of its own; Undocumented checks
# the one the decorator writes in its place
DECORATED = (
    DocumentRecord, PageRecord, DatasetMention, MentionBlock, JudgeVerdict, AgentAssessment,
    GroundTruthRecord, PredictionRecord, ChatRequest, ChatResponse, GateDecision, MatchResult,
    Undocumented,
)

# what @dataclass writes into a class, besides one slot descriptor per
# field; everything else is the class's own body
_GENERATED = frozenset((
    "__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__",
    "__dataclass_fields__", "__dataclass_params__", "__match_args__", "__dict__", "__weakref__",
    "__slots__", "__getstate__", "__setstate__",
))

# pickle finds a class by module and qualified name, so the stock twins live
# in a module of their own under the same names as the decorated classes
_STOCK_MODULE = types.ModuleType("_stock_frozen_records")
sys.modules[_STOCK_MODULE.__name__] = _STOCK_MODULE


def _auto_doc(cls: type) -> str:
    return cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")


def _stock_twin(cls: type) -> type:
    record_fields = dataclasses.fields(cls)
    names = {f.name for f in record_fields}
    namespace = {k: v for k, v in vars(cls).items() if k not in _GENERATED and k not in names}
    # a slotted class keeps its slot descriptors under the field names, so
    # the defaults come from the fields
    namespace.update((f.name, f.default) for f in record_fields
                     if f.default is not dataclasses.MISSING)
    namespace["__module__"] = _STOCK_MODULE.__name__
    if cls.__doc__ == _auto_doc(cls):
        namespace["__doc__"] = None  # let the stock dataclass write its own
    twin = dataclass(frozen=True, slots=True)(type(cls.__name__, (), namespace))
    setattr(_STOCK_MODULE, cls.__qualname__, twin)
    return twin


STOCK = {cls: _stock_twin(cls) for cls in DECORATED}

_TEXT = st.text(max_size=6)
_OPTIONAL = st.none() | _TEXT | st.sampled_from(
    CONTEXT_VALUES + SPECIFICITY_VALUES + RELEVANCE_VALUES + ("None", " ")
)
_DOC_ID = st.sampled_from(["f" * 40, "0123456789abcdef" * 2 + "01234567"]) | _TEXT
_MENTIONS = st.builds(DatasetMention, raw_name=_TEXT, mentioned_in=_TEXT, year=_OPTIONAL)
_NAMES = st.lists(_TEXT, max_size=3)
_UNIT = st.floats(0, 1)

FIELD_VALUES = {
    "doc_id": _DOC_ID,
    "source": _DOC_ID,
    "title": _TEXT,
    "text": _TEXT,
    "raw_name": _TEXT,
    "mentioned_in": _TEXT,
    "reason": _TEXT,
    "source_corpus": st.sampled_from(SOURCE_CORPUS_VALUES + ("elsewhere",)),
    "year": st.none() | st.integers(1990, 2030) | _TEXT,
    "is_open_access": st.booleans(),
    "citation_count": st.none() | st.integers(-2, 9),
    "page_number": st.integers(-1, 4) | st.just("2"),
    "page": st.integers(-1, 4) | st.just("2"),
    "datasets": st.lists(_MENTIONS, max_size=3) | st.lists(_MENTIONS, max_size=3).map(tuple),
    "mention": _MENTIONS,
    "valid": st.booleans(),
    "gold_names": _NAMES | _NAMES.map(tuple) | st.just(["LSMS survey", "survey LSMS"]),
    "predicted_names": _NAMES | _NAMES.map(tuple),
    "labels": st.none() | st.dictionaries(_TEXT, st.dictionaries(_TEXT, _TEXT, max_size=1),
                                          max_size=2),
    "model_name": _TEXT,
    "system_prompt": _TEXT,
    "user_content": _TEXT,
    "temperature": st.floats(-1, 2),
    "max_output_tokens": st.integers(-1, 9000),
    "token_usage": st.none() | st.dictionaries(_TEXT, st.integers(0, 99), max_size=2),
    "latency": st.floats(0, 5),
    "retries": st.integers(0, 3),
    "score": _UNIT,
    "threshold": _UNIT,
    "passed": st.booleans(),
    "tp": st.integers(0, 5),
    "fp": st.integers(0, 5),
    "fn": st.integers(0, 5),
    "pairs": st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), _UNIT), max_size=2)
    .map(tuple),
}


def _values(f: dataclasses.Field) -> st.SearchStrategy:
    return FIELD_VALUES.get(f.name, _OPTIONAL)


def _kwargs(cls: type) -> st.SearchStrategy[dict]:
    """Every field without a default, and any of those with one."""
    required = {f.name: _values(f) for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING}
    optional = {f.name: _values(f) for f in dataclasses.fields(cls)
                if f.default is not dataclasses.MISSING}
    return st.fixed_dictionaries(required, optional=optional)


def _outcome(call, *args, **kwargs) -> tuple:
    """``("ok", result)`` or ``("raised", error class, message)``."""
    try:
        return "ok", call(*args, **kwargs)
    except Exception as exc:
        return "raised", type(exc), str(exc)


def _state(record: object) -> list:
    return [(f.name, getattr(record, f.name)) for f in dataclasses.fields(record)]


@pytest.mark.parametrize("cls", DECORATED, ids=lambda cls: cls.__name__)
def test_signature_fields_and_doc_match_the_stock_dataclass(cls) -> None:
    stock = STOCK[cls]
    assert inspect.signature(cls) == inspect.signature(stock)
    assert [
        (f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash, f.compare,
         f.kw_only)
        for f in dataclasses.fields(cls)
    ] == [
        (f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash, f.compare,
         f.kw_only)
        for f in dataclasses.fields(stock)
    ]
    assert cls.__match_args__ == stock.__match_args__
    assert cls.__slots__ == stock.__slots__ == tuple(f.name for f in dataclasses.fields(cls))
    assert cls.__doc__ == stock.__doc__
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


@pytest.mark.parametrize("cls", DECORATED, ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_records_behave_as_stock_frozen_dataclasses(cls, data) -> None:
    stock = STOCK[cls]
    kwargs = data.draw(_kwargs(cls), label="kwargs")
    built, stock_built = _outcome(cls, **kwargs), _outcome(stock, **kwargs)
    assert built[0] == stock_built[0]
    if built[0] == "raised":  # a __post_init__ check: the same class and message
        assert built[1:] == stock_built[1:]
        return
    record, twin = built[1], stock_built[1]
    assert type(record) is cls and type(twin) is stock
    assert not hasattr(record, "__dict__") and not hasattr(twin, "__dict__")
    assert _state(record) == _state(twin)
    assert repr(record) == repr(twin)
    assert dataclasses.asdict(record) == dataclasses.asdict(twin)
    assert record == cls(**kwargs) and twin == stock(**kwargs)
    assert not record != cls(**kwargs)
    assert _outcome(hash, record) == _outcome(hash, twin)  # dict-valued fields are unhashable

    changed = data.draw(st.sampled_from(dataclasses.fields(cls)), label="field")
    name, value = changed.name, data.draw(_values(changed), label="value")
    replaced = _outcome(dataclasses.replace, record, **{name: value})
    stock_replaced = _outcome(dataclasses.replace, twin, **{name: value})
    assert replaced[0] == stock_replaced[0]
    if replaced[0] == "ok":
        assert type(replaced[1]) is cls
        assert _state(replaced[1]) == _state(stock_replaced[1])
        assert (replaced[1] == record) == (stock_replaced[1] == twin)
    else:
        assert replaced[1:] == stock_replaced[1:]

    for original, other in ((record, twin), (twin, record)):
        restored = pickle.loads(pickle.dumps(original))
        assert type(restored) is type(original) and restored == original
        assert _state(restored) == _state(other)
        copied = copy.deepcopy(original)
        assert type(copied) is type(original) and copied == original
        assert _state(copied) == _state(other)
        assert copy.copy(original) == original

    first = dataclasses.fields(cls)[0].name
    assigned = _outcome(setattr, record, first, "changed")
    assert assigned[:2] == ("raised", FrozenInstanceError)
    assert assigned == _outcome(setattr, twin, first, "changed")
    assert _outcome(delattr, record, first) == _outcome(delattr, twin, first)
    assert _outcome(delattr, record, first)[:2] == ("raised", FrozenInstanceError)
    assert _state(record) == _state(twin)


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (MentionBlock, {"mentioned_in": "s", "datasets": (), "source": "not a doc id", "page": 1}),
        (MentionBlock, {"mentioned_in": "s", "datasets": [], "source": "f" * 40, "page": 0}),
        (GateDecision, {"doc_id": "d", "page_number": 1, "score": 0.2, "threshold": 0.5,
                        "passed": True}),
        (GateDecision, {"doc_id": "d", "page_number": 1, "score": 0.5, "threshold": 0.5,
                        "passed": False}),
        (AgentAssessment, {"mention": DatasetMention("LSMS", "s"), "valid": True}),
        (ChatRequest, {"model_name": "m", "system_prompt": "", "user_content": "u"}),
    ],
    ids=["block-source", "block-page", "gate-passed-below", "gate-failed-at", "assessment",
         "chat-request"],
)
def test_post_init_errors_match_the_stock_dataclass(cls, kwargs) -> None:
    error = _outcome(cls, **kwargs)
    assert error[0] == "raised"
    assert error == _outcome(STOCK[cls], **kwargs)


def test_a_block_built_from_a_list_holds_a_tuple() -> None:
    mention = DatasetMention("LSMS", "s")
    block = MentionBlock("s", [mention], "f" * 40, 1)
    assert block.datasets == (mention,)
    assert hash(block) == hash(MentionBlock("s", (mention,), "f" * 40, 1))


def test_a_field_named_self_or_like_the_store_is_kept() -> None:
    @frozen_record
    class Odd:
        self: int
        _d: int = 2

    odd = Odd(1)
    assert (odd.self, odd._d) == (1, 2)
    assert list(inspect.signature(Odd).parameters) == ["self", "_d"]


def _refused(body: dict) -> None:
    with pytest.raises(TypeError, match="not supported"):
        frozen_record(type("Refused", (), body))


def test_the_decorator_refuses_a_default_factory_field() -> None:
    _refused({"__annotations__": {"names": "list"}, "names": field(default_factory=list)})


def test_the_decorator_refuses_a_kw_only_field() -> None:
    _refused({"__annotations__": {"a": "int", "b": "int"}, "b": field(kw_only=True)})


def test_the_decorator_refuses_an_init_false_field() -> None:
    _refused({"__annotations__": {"a": "int"}, "a": field(default=0, init=False)})


def test_the_decorator_refuses_an_initvar() -> None:
    _refused({"__annotations__": {"a": dataclasses.InitVar[int]}})
