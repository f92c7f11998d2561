from __future__ import annotations

import pytest

from microweave.errors import MalformedDocument, TermNotFound
from microweave.similarity import (
    Taxonomy,
    entity_similarity,
    load_taxonomy_file,
    normalize_entity_name,
    parse_taxonomy,
    wu_palmer,
)

SHOP_TAXONOMY = """\
thing
  person
    user
    customer
    client
  document
    order
    invoice
"""


def test_normalize_splits_camel_snake_and_digits():
    assert normalize_entity_name("OrderItemDTO") == ["order", "item"]
    assert normalize_entity_name("user") == ["user"]
    assert normalize_entity_name("order_item2") == ["order", "item", "2"]
    assert normalize_entity_name("HTTPServer") == ["http", "server"]


def test_normalize_strips_suffix_tokens_with_fallback():
    assert normalize_entity_name("UserEntity") == ["user"]
    assert normalize_entity_name("DTO") == ["dto"]
    assert normalize_entity_name("ModelDto") == ["modeldto"]


def test_parse_taxonomy_builds_depths():
    t = parse_taxonomy(SHOP_TAXONOMY)
    assert "thing" in t and "client" in t
    assert len(t.ancestors("thing")) == 1
    assert len(t.ancestors("person")) == 2
    assert len(t.ancestors("user")) == 3
    assert len(t) == 8


def test_parse_taxonomy_rejects_bad_shapes():
    with pytest.raises(MalformedDocument):
        parse_taxonomy("")
    with pytest.raises(MalformedDocument):
        parse_taxonomy("a\nb\n")  # second root
    with pytest.raises(MalformedDocument):
        parse_taxonomy("a\n   b\n")  # odd indent
    with pytest.raises(MalformedDocument):
        parse_taxonomy("a\n    b\n")  # level jump
    with pytest.raises(MalformedDocument):
        parse_taxonomy("a\n  b\n  b\n")  # duplicate term


def test_wu_palmer_identity_and_symmetry():
    t = parse_taxonomy(SHOP_TAXONOMY)
    for term in ("thing", "person", "user"):
        assert wu_palmer(term, term, t) == 1.0
    assert wu_palmer("user", "customer", t) == wu_palmer("customer", "user", t)


def test_wu_palmer_formula_values():
    t = parse_taxonomy("root\n  thing\n    vehicle\n      car\n      truck\n")
    assert wu_palmer("car", "truck", t) == pytest.approx(2 * 3 / (4 + 4))
    assert wu_palmer("root", "car", t) == pytest.approx(2 * 1 / (1 + 4))
    # Each term's ancestry is built once and then read by every pair.
    assert t.ancestors("car") == {"root", "thing", "vehicle", "car"}
    assert t.ancestors("car") is t.ancestors("car")


def test_wu_palmer_siblings_under_person():
    t = parse_taxonomy(SHOP_TAXONOMY)
    assert wu_palmer("client", "customer", t) == pytest.approx(2 * 2 / (3 + 3))
    assert wu_palmer("user", "order", t) == pytest.approx(2 * 1 / (3 + 3))


def test_wu_palmer_unknown_term():
    t = parse_taxonomy(SHOP_TAXONOMY)
    with pytest.raises(TermNotFound):
        wu_palmer("user", "widget", t)


def test_entity_similarity_exact_after_strip():
    score, strategy = entity_similarity("Order", "OrderDTO")
    assert (score, strategy) == (1.0, "exact")


def test_entity_similarity_disjoint_without_taxonomy():
    score, strategy = entity_similarity("Order", "Payment")
    assert score == 0.0
    assert strategy == "token"


def test_entity_similarity_token_jaccard():
    score, strategy = entity_similarity("OrderItem", "OrderLine")
    assert score == pytest.approx(1 / 3)
    assert strategy == "token"


def test_entity_similarity_taxonomy_strategy():
    t = parse_taxonomy(SHOP_TAXONOMY)
    score, strategy = entity_similarity("Client", "Customer", taxonomy=t)
    assert score == pytest.approx(2 * 2 / 6)
    assert strategy == "taxonomy"


def test_entity_similarity_prefers_exact_on_ties():
    score, strategy = entity_similarity("User", "User")
    assert (score, strategy) == (1.0, "exact")


def test_entity_similarity_symmetry():
    t = parse_taxonomy(SHOP_TAXONOMY)
    pairs = [("OrderItem", "Order"), ("Client", "Customer"), ("UserDTO", "User")]
    for a, b in pairs:
        assert entity_similarity(a, b, taxonomy=t)[0] == \
            entity_similarity(b, a, taxonomy=t)[0]


def test_taxonomy_score_ignores_uncovered_tokens():
    t = parse_taxonomy(SHOP_TAXONOMY)
    # "basket" is not in the taxonomy, so only user~customer pairs count
    score, strategy = entity_similarity("BasketUser", "Customer", taxonomy=t)
    assert strategy == "taxonomy"
    assert score == pytest.approx(2 * 2 / 6)


def test_load_taxonomy_file(tmp_path):
    path = tmp_path / "tax.txt"
    path.write_text(SHOP_TAXONOMY, encoding="utf-8")
    t = load_taxonomy_file(path)
    assert isinstance(t, Taxonomy)
    assert len(t.ancestors("invoice")) == 3
