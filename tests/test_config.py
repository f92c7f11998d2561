"""The configuration tables: the documented field list, one fault per
wrong-typed field, and ``null`` read as an absent key."""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microweave.config import (
    _CHECKS, _CONFIG, _RULE, _SERVICE, _THRESHOLDS, load_config,
)
from microweave.errors import ConfigError
from microweave.frontend import source_files

DOCS = Path(__file__).parents[1] / "docs" / "config.md"

# Each table with the path its fields take in a document.
TABLES = {"": _CONFIG, "services[0].": _SERVICE, "thresholds.": _THRESHOLDS,
          "ruleset[0].": _RULE, "checks.": _CHECKS}
FIELDS = [prefix + key for prefix, table in TABLES.items() for key in table]

# A valid config that sets every field.
VALID = {
    "services": [{"name": "a", "root_dir": "a", "include_globs": ["**/*.java"],
                  "convention": "SpringLike"}],
    "root": ".",
    "taxonomy_path": "taxonomy.txt",
    "compose_paths": ["compose.yml"],
    "thresholds": {"tau": 0.5, "tau_f": 0.5, "theta": 0.5},
    "ruleset": [{"role": "Service", "annotations": ["Service"], "suffixes": ["Service"],
                 "priority": 1}],
    "checks": {"disable": ["W03"], "severity": {"E01": "warning"}},
    "output_dir": "out",
}

# The JSON types each field accepts, written out apart from the tables.
ACCEPTED = {
    "services": {"array", "string"},
    "root": {"string"},
    "taxonomy_path": {"string"},
    "compose_paths": {"array"},
    "thresholds": {"object"},
    "ruleset": {"array"},
    "checks": {"object"},
    "output_dir": {"string"},
    "services[0].name": {"string"},
    "services[0].root_dir": {"string"},
    "services[0].include_globs": {"array"},
    "services[0].convention": {"string"},
    "thresholds.tau": {"integer", "number"},
    "thresholds.tau_f": {"integer", "number"},
    "thresholds.theta": {"integer", "number"},
    "ruleset[0].role": {"string"},
    "ruleset[0].annotations": {"array"},
    "ruleset[0].suffixes": {"array"},
    "ruleset[0].priority": {"integer"},
    "checks.disable": {"array"},
    "checks.severity": {"object"},
}

VALUES = {
    "boolean": st.booleans(),
    "integer": st.integers(),
    "number": st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: x != int(x)),
    "string": st.text(alphabet="ab./*", max_size=4),
    "array": st.lists(st.integers(), max_size=2),
    "object": st.dictionaries(st.sampled_from(["a", "b"]), st.integers(), max_size=2),
}


@pytest.fixture(scope="module")
def project(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("config tables")
    (root / "a").mkdir()
    (root / "a" / "A.java").write_text("class A {}\n", encoding="utf-8")
    (root / "taxonomy.txt").write_text("", encoding="utf-8")
    (root / "compose.yml").write_text("", encoding="utf-8")
    return root


def _set(document: dict, path: str, value) -> dict:
    """``document`` with the field at ``path`` set to ``value``, or removed
    when ``value`` is ``...``."""
    document = copy.deepcopy(document)
    *parents, key = re.findall(r"\w+|\[\d+\]", path)
    target = document
    for part in parents:
        target = target[int(part[1:-1])] if part.startswith("[") else target[part]
    if value is ...:
        del target[key]
    else:
        target[key] = value
    return document


def _load(project: Path, document: dict):
    path = project / "config.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return load_config(path)


def _documented_fields() -> dict[str, list[tuple[str, bool]]]:
    """Each documented table's fields as ``(key, required)``, in page order:
    the top level's under ``""``, each section's bullets under its key."""
    fields: dict[str, list[tuple[str, bool]]] = {"": []}
    section = ""
    for line in DOCS.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            top = re.fullmatch(r"### `(\w+)` \((required|optional)\)", line)
            section = top.group(1) if top else ""
            if top:
                fields[""].append((section, top.group(2) == "required"))
        elif section and (bullet := re.match(r"- `(\w+)`( \(required\))? - ", line)):
            fields.setdefault(section, []).append((bullet.group(1), bool(bullet.group(2))))
    return fields


def test_documented_fields_match_the_tables():
    tables = {"": _CONFIG, "services": _SERVICE, "thresholds": _THRESHOLDS,
              "ruleset": _RULE, "checks": _CHECKS}
    assert _documented_fields() == {
        name: [(key, default is ...) for key, (default, _rule) in table.items()]
        for name, table in tables.items()
    }


def test_every_field_has_its_accepted_types_and_the_valid_config_loads(project):
    assert sorted(ACCEPTED) == sorted(FIELDS)
    _load(project, VALID)


@pytest.mark.parametrize("field", FIELDS)
@settings(derandomize=True, deadline=None, max_examples=25)
@given(data=st.data())
def test_one_wrong_typed_field_is_the_one_fault_reported(project, field, data):
    wrong = data.draw(st.sampled_from(sorted(set(VALUES) - ACCEPTED[field])))
    value = data.draw(VALUES[wrong])
    with pytest.raises(ConfigError) as raised:
        _load(project, _set(VALID, field, value))
    message = str(raised.value)
    assert re.match(re.escape(field) + "[ :]", message), message
    assert "\n" not in message


@pytest.mark.parametrize("field", FIELDS)
def test_null_reads_as_an_absent_key(project, field):
    def outcome(value):
        try:
            config = _load(project, _set(VALID, field, value))
        except ConfigError as error:
            return str(error)
        return config._replace(weave=config.weave._replace(config_digest=""))

    assert outcome(None) == outcome(...)


def test_auto_discovery_reads_each_service_below_root(tmp_path):
    """A directory with a ``.java`` file is a SpringLike service, and one
    with only ``.laast.json`` files a passthrough service that reads them."""
    files = {"alpha": ["A.java"], "beta": ["b/B.laast.json"], "gamma": ["C.java", "c.laast.json"]}
    for name, paths in files.items():
        for relative in paths:
            (tmp_path / "services" / name / relative).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / "services" / name / relative).write_text("{}", encoding="utf-8")
    (tmp_path / "config").mkdir()
    path = tmp_path / "config" / "config.json"
    path.write_text(json.dumps({"services": "auto", "root": "../services"}), encoding="utf-8")
    trees = load_config(path).services
    assert [(tree.service_name, tree.convention) for tree in trees] == [
        ("alpha", "SpringLike"), ("beta", "LaastPassthrough"), ("gamma", "SpringLike")]
    assert trees[0].root_dir == (tmp_path / "services" / "alpha").resolve()
    assert [path.name for path in source_files(trees[1])] == ["B.laast.json"]
