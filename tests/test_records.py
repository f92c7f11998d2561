"""The contracts of the record types that the code relies on."""

from __future__ import annotations

import pytest

from microweave.analysis import Finding, Subject
from microweave.frontend import _Annotation, _ClientIdiom
from microweave.laast import SourceSpan
from microweave.matchers import Component, Endpoint, MatcherRule, MethodSig, RemoteCall
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
