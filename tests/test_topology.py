from __future__ import annotations

import pytest

from microweave.errors import MalformedDocument
from microweave.topology import (
    ORIGIN_DEPENDS_ON,
    ORIGIN_ENV_URL,
    ORIGIN_LINKS,
    build_inventory,
    load_compose_file,
    merge_topologies,
    parse_compose,
)


def _svc(model, name):
    return next(s for s in model.services if s.name == name)


def test_parse_minimal_compose():
    model = parse_compose(
        """
services:
  web:
    image: nginx:1.25
  api:
    build: .
"""
    )
    assert [s.name for s in model.services] == ["api", "web"]
    assert _svc(model, "web").image == "nginx:1.25"
    assert model.declared_edges == []
    assert model.warnings == []


def test_depends_on_list_and_dict_forms():
    model = parse_compose(
        """
services:
  a:
    depends_on:
      - b
      - c
  b:
    depends_on:
      c:
        condition: service_healthy
  c:
    image: x
"""
    )
    assert model.declared_edges == [
        ("a", "b", ORIGIN_DEPENDS_ON),
        ("a", "c", ORIGIN_DEPENDS_ON),
        ("b", "c", ORIGIN_DEPENDS_ON),
    ]


def test_links_strip_alias_suffix():
    model = parse_compose(
        """
services:
  site:
    links:
      - db:database
      - cache
  db:
    image: postgres
  cache:
    image: redis
"""
    )
    assert ("site", "db", ORIGIN_LINKS) in model.declared_edges
    assert ("site", "cache", ORIGIN_LINKS) in model.declared_edges


def test_environment_urls_resolve_hosts_to_services():
    model = parse_compose(
        """
services:
  front:
    environment:
      USERS_URL: "http://users:8080/api"
      SELF_URL: "http://front/api"
      OUTSIDE: "https://example.com/api"
  users:
    image: x
"""
    )
    assert model.declared_edges == [("front", "users", ORIGIN_ENV_URL)]


def test_environment_list_form_and_alias_resolution():
    model = parse_compose(
        """
services:
  front:
    environment:
      - "PEOPLE=http://people-svc:9000"
  users:
    networks:
      backend:
        aliases:
          - people-svc
"""
    )
    assert model.declared_edges == [("front", "users", ORIGIN_ENV_URL)]
    assert _svc(model, "users").aliases == ["people-svc"]


def test_unknown_targets_become_warnings_not_edges():
    model = parse_compose(
        """
services:
  solo:
    depends_on:
      - ghost
    links:
      - phantom
"""
    )
    assert model.declared_edges == []
    assert len(model.warnings) == 2
    assert any("ghost" in w for w in model.warnings)
    assert any("phantom" in w for w in model.warnings)


def test_service_key_that_is_no_string_names_the_service_its_text_spells():
    model = parse_compose(
        """
services:
  1:
    image: x
    depends_on: [~]
  ~:
    links: ["1"]
  api:
    depends_on: [1]
"""
    )
    assert [s.name for s in model.services] == ["", "1", "api"]
    assert _svc(model, "1").image == "x"
    assert model.declared_edges == [
        ("", "1", ORIGIN_LINKS),
        ("1", "", ORIGIN_DEPENDS_ON),
        ("api", "1", ORIGIN_DEPENDS_ON),
    ]
    assert model.warnings == []


def test_version_warning_only_for_unexpected_values():
    ok = parse_compose("version: '3.8'\nservices:\n  a:\n    image: x\n")
    assert ok.warnings == []
    odd = parse_compose("version: '9'\nservices:\n  a:\n    image: x\n")
    assert len(odd.warnings) == 1
    assert "version" in odd.warnings[0]


def test_parse_rejects_malformed_documents():
    with pytest.raises(MalformedDocument):
        parse_compose(b"\xff\xfe")
    with pytest.raises(MalformedDocument):
        parse_compose("services: [unclosed")
    with pytest.raises(MalformedDocument):
        parse_compose("- just\n- a\n- list\n")
    with pytest.raises(MalformedDocument):
        parse_compose("version: '3'\n")
    with pytest.raises(MalformedDocument):
        parse_compose("services:\n  web: just-a-string\n")


def test_load_compose_file(tmp_path):
    path = tmp_path / "docker-compose.yml"
    path.write_text("version: '9'\nservices:\n  api:\n    image: x\n", encoding="utf-8")
    model = load_compose_file(path)
    assert [s.name for s in model.services] == ["api"]
    assert model.warnings == [f"{path.as_posix()}: unsupported compose version '9'"]


def test_merge_topologies_unions_and_keeps_first_image():
    base = parse_compose(
        """
services:
  api:
    image: api:1
    ports: ["8080:8080"]
  db:
    image: postgres
""",
        source="base.yml",
    )
    override = parse_compose(
        """
services:
  api:
    image: api:2
    environment:
      DB_URL: "http://db:5432"
  worker:
    depends_on: [api]
""",
        source="override.yml",
    )
    merged = merge_topologies([base, override])
    assert [s.name for s in merged.services] == ["api", "db", "worker"]
    assert _svc(merged, "api").image == "api:1"
    assert any("image" in w for w in merged.warnings)
    assert ("api", "db", ORIGIN_ENV_URL) in merged.declared_edges
    assert ("worker", "api", ORIGIN_DEPENDS_ON) in merged.declared_edges


def test_merge_topologies_takes_an_image_a_later_file_supplies():
    base = parse_compose("services:\n  api:\n    depends_on: [db]\n  db:\n    image: pg\n")
    override = parse_compose("services:\n  api:\n    image: api:2\n")
    merged = merge_topologies([base, override])
    assert _svc(merged, "api").image == "api:2"
    assert merged.warnings == []


def test_build_inventory_names_aliases_and_variants():
    topology = parse_compose(
        """
services:
  user-service:
    networks:
      net:
        aliases:
          - users
"""
    )
    inventory = build_inventory(topology, ["orders"])
    assert inventory["orders"] == "orders"
    assert inventory["user-service"] == "user-service"
    assert inventory["user_service"] == "user-service"
    assert inventory["users"] == "user-service"
    assert inventory.warnings == []


def test_build_inventory_analyzed_names_win_collisions():
    topology = parse_compose(
        """
services:
  shared:
    image: x
"""
    )
    inventory = build_inventory(topology, ["shared"])
    assert inventory["shared"] == "shared"
    assert inventory.warnings == []


def test_build_inventory_alias_collision_warns():
    topology = parse_compose(
        """
services:
  first:
    networks:
      net:
        aliases:
          - common
  second:
    networks:
      net:
        aliases:
          - common
"""
    )
    inventory = build_inventory(topology, [])
    assert inventory["common"] == "first"
    assert len(inventory.warnings) == 1


def test_build_inventory_without_topology():
    inventory = build_inventory(None, ["a", "b"])
    assert inventory["a"] == "a"
    assert inventory["b"] == "b"


def test_build_inventory_reaches_an_underscored_service_by_its_hyphenated_host():
    inventory = build_inventory(None, ["user_svc"])
    assert inventory["user-svc"] == "user_svc"
    assert inventory["user_svc"] == "user_svc"
