"""``records.frozen_record`` against stock frozen dataclasses.

Every class the decorator makes is rebuilt here from its own body and its
fields with ``@dataclass(frozen=True, slots=True)``. The two must agree on
signature, fields, slots, equality, hashing, ``repr``,
``dataclasses.replace``, pickling, copying, immutability and the error each
``__post_init__`` raises, for hypothesis-drawn field values, valid and
invalid alike. Guards count instead of time: making a record class compiles
one source, and the package holds no other frozen dataclass.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import json
import os
import pickle
import pkgutil
import subprocess
import sys
import types
from dataclasses import FrozenInstanceError, dataclass, field
from pathlib import Path

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

import datamentions
from datamentions.corpus import IngestSummary, StoredFileReport
from datamentions.evalkit import MatchConfig, MatchResult, ScoreReport
from datamentions.gate import GateDecision, GateEvalReport
from datamentions.llm import TEMPLATE_IDS, ChatRequest, ChatResponse, PromptTemplate, StageCall
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
from datamentions.retries import RetryPolicy
from datamentions.splits import SplitResult, SplitSpec
from datamentions.weaksup import PipelineStats, StagePlan, _StageSpec


@frozen_record
class Undocumented:
    name: str
    count: int = 0


@frozen_record
class Single:
    """One field: ``attrgetter`` of one name gives the bare value, not a tuple."""

    value: int


@frozen_record
class Empty:
    """No fields."""


# every class in the package has a docstring of its own; Undocumented checks
# the one the decorator writes in its place
DECORATED = (
    DocumentRecord, PageRecord, DatasetMention, MentionBlock, JudgeVerdict, AgentAssessment,
    GroundTruthRecord, PredictionRecord, ChatRequest, ChatResponse, PromptTemplate, StageCall,
    GateDecision, GateEvalReport, MatchConfig, MatchResult, ScoreReport, IngestSummary,
    StoredFileReport, RetryPolicy, SplitSpec, SplitResult, PipelineStats, _StageSpec, StagePlan,
    Undocumented, Single,
)
_LOCAL = {Undocumented, Single}

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


STOCK = {cls: _stock_twin(cls) for cls in DECORATED + (Empty,)}

_TEXT = st.text(max_size=6)
_OPTIONAL = st.none() | _TEXT | st.sampled_from(
    CONTEXT_VALUES + SPECIFICITY_VALUES + RELEVANCE_VALUES + ("None", " ")
)
_DOC_ID = st.sampled_from(["f" * 40, "0123456789abcdef" * 2 + "01234567"]) | _TEXT
_MENTIONS = st.builds(DatasetMention, raw_name=_TEXT, mentioned_in=_TEXT, year=_OPTIONAL)
_NAMES = st.lists(_TEXT, max_size=3)
_UNIT = st.floats(0, 1)
_COUNT = st.integers(0, 9)
_TEMPLATES = st.builds(PromptTemplate, template_id=st.sampled_from(TEMPLATE_IDS),
                       body=st.text(min_size=1, max_size=6))
_CALLABLE = st.sampled_from((len, repr, sorted))  # picklable by name
_PARTITION = st.lists(_COUNT | _TEXT, max_size=3).map(tuple)
_COUNTS = st.tuples(_COUNT, _COUNT, _COUNT)
_RATIOS = st.tuples(_UNIT, _UNIT, _UNIT).map(lambda ratios: tuple(r / 3 for r in ratios))

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
    "template_id": st.sampled_from(TEMPLATE_IDS + ("judges",)),
    "body": _TEXT,
    "template": _TEMPLATES,
    "precision": _UNIT,
    "recall": _UNIT,
    "f_beta": _UNIT,
    "f1": _UNIT,
    "beta": st.floats(-1, 3),
    "macro": st.booleans(),
    "tn": st.integers(0, 5),
    "jaccard_threshold": st.floats(-0.5, 1.5),
    "added": _COUNT,
    "skipped": _COUNT,
    "path": _TEXT.map(Path),
    "size_bytes": st.integers(0, 10**6),
    "attempts": st.integers(0, 6),
    "base_delay": st.floats(0, 2),
    "factor": st.floats(1, 3),
    "max_delay": st.floats(0, 60),
    "seed": st.integers(-5, 2**40),
    "counts": st.none() | _COUNTS | st.lists(st.integers(-1, 3), max_size=4).map(tuple),
    "ratios": st.none() | _RATIOS | st.lists(st.floats(-0.5, 1.5), max_size=4).map(tuple)
    | st.just((float("inf"), 0.0, 0.0)),
    "train": _PARTITION,
    "val": _PARTITION,
    "test": _PARTITION,
    "leftover": _PARTITION,
    "pages_processed": _COUNT,
    "blocks_extracted": _COUNT,
    "mentions_extracted": _COUNT,
    "mentions_judged_valid": _COUNT,
    "mentions_agent_valid": _COUNT,
    "retention_after_agent": st.none() | _UNIT,
    "name": _TEXT,
    "input_file": st.none() | _TEXT,
    "output_file": _TEXT,
    "parse": st.none() | _CALLABLE,
    "items": _CALLABLE,
    "produce": _CALLABLE,
    "counters": _NAMES.map(tuple),
    "count": _CALLABLE,
    "stage": _TEXT,
    "pending": st.none() | _COUNT,
    "backend_calls": st.none() | _COUNT,
}


def _values(f: dataclasses.Field) -> st.SearchStrategy:
    return FIELD_VALUES.get(f.name, _OPTIONAL)


def _fields(cls: type, **drawn: st.SearchStrategy) -> st.SearchStrategy[dict]:
    """Every field without a default and every field in ``drawn``, and any of the rest.

    A field in ``drawn`` takes its values from there, any other from
    :data:`FIELD_VALUES`.
    """
    values = {f.name: drawn.get(f.name, _values(f)) for f in dataclasses.fields(cls)}
    required = {f.name: values[f.name] for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING or f.name in drawn}
    optional = {name: value for name, value in values.items() if name not in required}
    return st.fixed_dictionaries(required, optional=optional)


_HEX_ID = st.text("0123456789abcdef", min_size=40, max_size=40)
_FILLED = st.text(min_size=1, max_size=6).filter(str.strip)
_PAGE = st.integers(1, 4)

# Field values that pass the class's own checks, which values drawn field by
# field seldom do all at once
_BUILDING = {
    AgentAssessment: _fields(AgentAssessment, valid=st.just(True),
                             specificity=st.sampled_from(SPECIFICITY_VALUES),
                             context=st.sampled_from(CONTEXT_VALUES))
    | _fields(AgentAssessment, valid=st.just(False), invalid_reason=_FILLED,
              specificity=st.none(), context=st.none()),
    MentionBlock: _fields(MentionBlock, source=_HEX_ID, page=_PAGE),
    DocumentRecord: _fields(DocumentRecord, doc_id=_HEX_ID, title=_FILLED,
                            source_corpus=st.sampled_from(SOURCE_CORPUS_VALUES),
                            citation_count=st.none() | st.integers(0, 9)),
    PageRecord: _fields(PageRecord, page_number=_PAGE),
    GateDecision: _fields(GateDecision).map(
        lambda kwargs: {**kwargs, "passed": kwargs["score"] >= kwargs["threshold"]}),
}


def _kwargs(cls: type) -> st.SearchStrategy[dict]:
    """Every field without a default, and any of those with one."""
    kwargs = _fields(cls)
    if cls is SplitSpec:
        # it takes exactly one of counts and ratios, which fields drawn apart seldom give
        seed = FIELD_VALUES["seed"]
        kwargs |= (st.fixed_dictionaries({"seed": seed, "counts": _COUNTS})
                   | st.fixed_dictionaries({"seed": seed, "ratios": _RATIOS}))
    if cls in _BUILDING:
        kwargs |= _BUILDING[cls]
    return kwargs


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


@pytest.mark.parametrize("cls", DECORATED, ids=lambda cls: cls.__name__)
def test_the_drawn_values_build_each_class(cls) -> None:
    find(_kwargs(cls), lambda kwargs: _outcome(cls, **kwargs)[0] == "ok",
         settings=settings(database=None, phases=[Phase.generate], max_examples=2000))


@pytest.mark.parametrize("cls", (Undocumented, STOCK[Undocumented]), ids=["record", "stock"])
def test_a_record_inside_itself_shows_as_dots(cls) -> None:
    names: list = []
    record = cls(names)
    names.append(record)
    assert repr(record) == "Undocumented(name=[...], count=0)"


def test_an_attribute_that_is_not_a_field_is_refused_as_frozen() -> None:
    # the stock slotted class raises TypeError here, from a super() bound to
    # the class that dataclass replaced when it added the slots
    record = Undocumented("a")
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'other'"):
        record.other = 1
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'other'"):
        del record.other


def test_the_methods_are_shared_and_named_for_their_class() -> None:
    for name in ("__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__",
                 "__getstate__", "__setstate__"):
        method = vars(Undocumented)[name]
        assert method.__code__ is vars(DocumentRecord)[name].__code__
        assert method.__qualname__ == f"Undocumented.{name}"


def test_a_record_without_fields_behaves_as_the_stock_dataclass() -> None:
    record, twin = Empty(), STOCK[Empty]()
    assert (record == Empty(), hash(record), repr(record)) == (twin == STOCK[Empty](), hash(twin),
                                                               repr(twin))
    assert record.__getstate__() == twin.__getstate__() == []
    assert pickle.loads(pickle.dumps(record)) == record and copy.deepcopy(record) == record
    assert _outcome(setattr, record, "x", 1)[:2] == ("raised", FrozenInstanceError)


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


@pytest.mark.parametrize("option", [{"repr": False}, {"compare": False}, {"hash": True}])
def test_the_decorator_refuses_a_field_left_out_of_a_method(option) -> None:
    _refused({"__annotations__": {"a": "int"}, "a": field(default=0, **option)})


@pytest.mark.parametrize("method", ["__eq__", "__repr__", "__setattr__", "__getstate__"])
def test_the_decorator_refuses_a_class_that_defines_a_record_method(method) -> None:
    _refused({"__annotations__": {"a": "int"}, method: lambda self, *args: None})


_COUNT_COMPILES = """
import json, sys
from dataclasses import dataclass
from datamentions.records import frozen_record

sources = []

def hook(event, args):
    if event == "compile" and args[1] == "<string>":
        source = args[0]
        sources.append(source.decode() if isinstance(source, bytes) else source)

sys.addaudithook(hook)

def counted(decorate):
    del sources[:]
    decorate(type("Made", (), {"__annotations__": {"a": "int", "b": "str"}, "b": ""}))
    return list(sources)

print(json.dumps([counted(dataclass(init=False, repr=False, eq=False, slots=True)),
                  counted(frozen_record)]))
"""


def test_making_a_record_class_compiles_one_source() -> None:
    # in a fresh process, since an audit hook cannot be removed
    proc = subprocess.run([sys.executable, "-c", _COUNT_COMPILES], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    fields_only, record = json.loads(proc.stdout)
    # what dataclass compiles for fields, slots and __match_args__ alone: nothing
    # before Python 3.13, which compiles one empty function builder
    assert len(fields_only) <= (sys.version_info >= (3, 13))
    added = [source for source in record if source not in fields_only]
    assert len(record) == len(fields_only) + 1 and len(added) == 1
    assert added[0].startswith("def __init__(self, a, b=__default_b__):")


# the package's dataclasses that hold state they change, which stay stock
_MUTABLE = ["config.PipelineConfig", "corpus.MetadataClient", "gate.RemoteGate",
            "llm.RemoteChatBackend", "weaksup.StageCheckpoint"]


def _package_dataclasses() -> list[type]:
    modules = [importlib.import_module(f"datamentions.{info.name}")
               for info in pkgutil.iter_modules(datamentions.__path__)]
    return [cls for module in modules for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            and dataclasses.is_dataclass(cls)]


def test_every_frozen_dataclass_in_the_package_is_a_record_tested_here() -> None:
    shared = vars(DocumentRecord)["__repr__"].__code__
    found = _package_dataclasses()
    records = [cls for cls in found
               if getattr(vars(cls).get("__repr__"), "__code__", None) is shared]
    stock = [cls for cls in found if cls not in records]
    names = sorted(f"{cls.__module__.split('.')[-1]}.{cls.__qualname__}" for cls in stock)
    assert names == _MUTABLE
    assert not any(cls.__dataclass_params__.frozen for cls in stock)
    assert set(records) == set(DECORATED) - _LOCAL
