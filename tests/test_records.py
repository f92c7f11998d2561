"""The contracts of the record types that the code relies on."""

from __future__ import annotations

import importlib
import pickle
import pkgutil

import pytest

import microweave
from microweave.analysis import Finding, Subject
from microweave.frontend import _Annotation, _ClientIdiom
from microweave.laast import SourceSpan
from microweave.matchers import Component, Endpoint, MatcherRule, MethodSig, RemoteCall
from microweave.record import Record
from microweave.weave import CommEdge, EntityMatch, FieldMatch, WeaveConfig

SPAN = SourceSpan("A.java", 1, 2)


def _component() -> Component:
    return Component("Entity", "User", "users", [("id", "long")], [], [("Entity", {})], SPAN)


def _call() -> RemoteCall:
    return RemoteCall("orders", "OrderService", "place", "GET", "http://users/u/{*}", 1, SPAN)


def _endpoint() -> Endpoint:
    handler = MethodSig("get", [("id", "long")], "User", [])
    return Endpoint("UserController", "users", "GET", ["/u/{id}"], [], handler, SPAN)


IMMUTABLE = {
    "Subject": lambda: Subject("users", "UserController.get", "A.java", 3),
    "Finding": lambda: Finding("E01", "error", "dangling", (Subject("users", "x"),)),
    "_ClientIdiom": lambda: _ClientIdiom({"get": "GET"}),
    "_Annotation": lambda: _Annotation("GetMapping", 0, 18, {"value": "/x"}),
    "SourceSpan": lambda: SourceSpan("A.java", 1, 2),
    "MatcherRule": lambda: MatcherRule("Entity", ("Entity",), (), 10),
    "WeaveConfig": lambda: WeaveConfig(config_digest="abc"),
    "FieldMatch": lambda: FieldMatch("id", "id", 1.0, True),
    "EntityMatch": lambda: EntityMatch(_component(), _component(), 1.0, "name", ()),
    "CommEdge": lambda: CommEdge(_call(), _endpoint(), "/u/{id}", 1.0, 1.0, False),
}

#: The immutable records whose fields are all hashable.
HASHABLE = ("Subject", "Finding", "SourceSpan", "MatcherRule", "WeaveConfig", "FieldMatch")


@pytest.mark.parametrize("name", sorted(IMMUTABLE))
def test_immutable_records_refuse_assignment(name):
    record = IMMUTABLE[name]()
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert record == IMMUTABLE[name]()


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_records_hash_equal_as_keys_and_set_members(name):
    first, second = IMMUTABLE[name](), IMMUTABLE[name]()
    assert first == second and first is not second
    assert hash(first) == hash(second)
    assert {first: name}[second] == name
    assert len({first, second}) == 1


def test_mutable_records_compare_by_value_and_are_unhashable():
    assert _component() == _component()
    changed = _component()
    changed.fields.append(("name", "String"))
    assert changed != _component()
    assert _endpoint() != _call()
    with pytest.raises(TypeError):
        hash(_component())
    assert repr(SPAN) == "SourceSpan(file='A.java', line_start=1, line_end=2)"
    assert repr(MethodSig("get", [], "User", [])) == (
        "MethodSig(name='get', params=[], return_type='User', annotations=[])"
    )


def _records() -> list[type[Record]]:
    """Every record type of the package, each of its modules imported, so
    that a new record is covered without being listed here."""
    for module in pkgutil.iter_modules(microweave.__path__):
        if module.name != "__main__":
            importlib.import_module(f"microweave.{module.name}")
    found, todo = [], [Record]
    while todo:
        subclasses = todo.pop().__subclasses__()
        found += subclasses
        todo += subclasses
    return sorted((c for c in found if c.__module__.startswith("microweave.")),
                  key=lambda c: c.__qualname__)


RECORDS = _records()
#: The records built by the one constructor of ``Record``.
GENERIC = [c for c in RECORDS if c.__init__ is Record.__init__]


def _field_values(cls: type[Record]) -> list:
    """One distinct value per field, of a type every record's equality reads."""
    return [{"field": name} for name in cls.__slots__]


def test_only_the_syntax_node_writes_out_its_constructor():
    assert len(RECORDS) >= 20
    assert [c.__qualname__ for c in RECORDS if "__init__" in vars(c)] == ["LaastNode"]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_record_built_by_position_equals_record_built_by_keyword(cls):
    values = _field_values(cls)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(cls.__slots__, values)))
    assert by_position == by_keyword
    assert [getattr(by_keyword, name) for name in cls.__slots__] == values
    assert pickle.loads(pickle.dumps(by_keyword)) == by_keyword
    assert set(cls._defaults) <= set(cls.__slots__)


@pytest.mark.parametrize("cls", [c for c in RECORDS if c._defaults], ids=lambda c: c.__qualname__)
def test_field_left_out_takes_its_default_and_a_type_default_is_fresh(cls):
    required = {name: {"field": name} for name in cls.__slots__ if name not in cls._defaults}
    first, second = cls(**required), cls(**required)
    for name, default in cls._defaults.items():
        value = getattr(first, name)
        if not isinstance(default, type):
            assert value is default
            continue
        assert type(value) is default and value == default()
        if value.__hash__ is None:  # mutable, so two records must not share it
            assert value is not getattr(second, name)


def _message(call) -> str:
    with pytest.raises(TypeError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("cls", GENERIC, ids=lambda c: c.__qualname__)
def test_constructor_refusal_names_the_class_and_the_field(cls):
    fields, values = cls.__slots__, _field_values(cls)
    by_keyword = dict(zip(fields, values))
    name = cls.__qualname__
    for field in fields:
        if field not in cls._defaults:
            left_out = {key: value for key, value in by_keyword.items() if key != field}
            assert _message(lambda: cls(**left_out)) == (
                f"{name}() missing required field {field!r}")
    assert _message(lambda: cls(**by_keyword, bogus=1)) == f"{name}() has no field 'bogus'"
    assert _message(lambda: cls(*values, 1)) == (
        f"{name}() takes its {len(fields)} fields ({', '.join(fields)}) but "
        f"{len(fields) + 1} were given")
    assert _message(lambda: cls(values[0], **{fields[0]: values[0]})) == (
        f"{name}() got field {fields[0]!r} both by position and by keyword")
    # A misspelt keyword is named before the field it leaves out.
    misspelt = {**by_keyword, fields[0] + "_": by_keyword.pop(fields[0])}
    assert _message(lambda: cls(**misspelt)) == f"{name}() has no field {fields[0] + '_'!r}"
