from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microweave import __version__
from microweave.cli import main
from microweave.errors import ConfigError
from microweave.laast import MAX_DEPTH
from microweave.runner import load_config

from conftest import GOLDEN_DIR

GOLDEN_FILES = (
    "system.json",
    "context-map.json",
    "report.json",
    "report.txt",
    "graph-services.dot",
    "graph-context.dot",
    "graph-full.dot",
)


def _run(*argv):
    return main(list(argv))


def test_fixture_run_matches_goldens(shop, capsys):
    code = _run("--config", str(shop / "config.json"))
    capsys.readouterr()
    assert code == 2
    out = shop / "out"
    for name in GOLDEN_FILES:
        generated = (out / name).read_bytes()
        golden = (GOLDEN_DIR / name).read_bytes()
        assert generated == golden, f"{name} drifted from golden"
    generated_ir = (out / "orders.ir.json").read_bytes()
    assert generated_ir == (GOLDEN_DIR / "orders.ir.json").read_bytes()


def test_rerun_is_byte_identical(shop, capsys):
    assert _run("--config", str(shop / "config.json")) == 2
    first = {name: (shop / "out" / name).read_bytes() for name in GOLDEN_FILES}
    assert _run("--config", str(shop / "config.json")) == 2
    capsys.readouterr()
    second = {name: (shop / "out" / name).read_bytes() for name in GOLDEN_FILES}
    assert first == second


def test_variant_run_exits_with_errors(shop_variant, capsys):
    code = _run("--config", str(shop_variant / "config.json"))
    capsys.readouterr()
    assert code == 2


def test_fixing_the_dangling_call_downgrades_exit(shop, capsys):
    (shop / "orders" / "src" / "main" / "java" / "shop" / "orders"
     / "LegacyUserClient.java").unlink()
    code = _run("--config", str(shop / "config.json"))
    capsys.readouterr()
    assert code == 1
    report = json.loads((shop / "out" / "report.json").read_bytes())
    rules = sorted({f["rule_id"] for f in report["findings"]})
    assert rules == ["W01"]


def _write_project(tmp_path, services, conventions=None, **config_fields):
    """Write each service's files under tmp_path/<name> plus a config that
    lists them and holds ``config_fields``; returns the config path."""
    conventions = conventions or {}
    entries = []
    for name, files in services.items():
        for rel, text in files.items():
            path = tmp_path / name / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        entry = {"name": name, "root_dir": name}
        if name in conventions:
            entry["convention"] = conventions[name]
        entries.append(entry)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"services": entries, **config_fields}), encoding="utf-8")
    return config


_CLIENT = """
@Service
public class SyncService {
    private final RestTemplate restTemplate;

    public void pull(long id) {
        restTemplate.getForObject("http://beta/api/items/" + id, String.class);
    }
}
"""

_CONTROLLER = """
@RestController
@RequestMapping("/api/items")
public class ItemController {
    @GetMapping("/{id}")
    public String get(@PathVariable("id") long id) {
        return "";
    }
}
"""


def test_clean_pair_exits_zero(tmp_path, capsys):
    config = _write_project(
        tmp_path, {"alpha": {"src/Client.java": _CLIENT}, "beta": {"src/Ctl.java": _CONTROLLER}}
    )
    code = _run("--config", str(config))
    capsys.readouterr()
    assert code == 0


def test_missing_config_flag_is_tool_failure(capsys):
    code = _run()
    captured = capsys.readouterr()
    assert code == 3
    assert "configuration error" in captured.err


def test_bad_root_dir_names_the_field(shop, capsys):
    config = json.loads((shop / "config.json").read_text(encoding="utf-8"))
    config["services"][0]["root_dir"] = "no-such-dir"
    (shop / "config.json").write_text(json.dumps(config), encoding="utf-8")
    code = _run("--config", str(shop / "config.json"))
    captured = capsys.readouterr()
    assert code == 3
    assert "services[0].root_dir" in captured.err


def test_invalid_config_json_is_tool_failure(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("{broken", encoding="utf-8")
    code = _run("--config", str(config))
    captured = capsys.readouterr()
    assert code == 3
    assert "configuration error" in captured.err


def test_services_filter_limits_scope(shop, capsys):
    code = _run("--config", str(shop / "config.json"), "--services", "users")
    capsys.readouterr()
    assert code == 1
    system = json.loads((shop / "out" / "system.json").read_bytes())
    assert [s["service_name"] for s in system["services"]] == ["users"]
    assert system["comm_edges"] == []


def test_unknown_service_filter_is_tool_failure(shop, capsys):
    code = _run("--config", str(shop / "config.json"), "--services", "nope")
    captured = capsys.readouterr()
    assert code == 3
    assert "--services" in captured.err


def test_format_filter_controls_outputs(shop, capsys):
    code = _run("--config", str(shop / "config.json"), "--format", "text")
    capsys.readouterr()
    assert code == 2
    out = shop / "out"
    assert (out / "report.txt").exists()
    assert not (out / "system.json").exists()
    assert not (out / "graph-services.dot").exists()


def test_unknown_format_is_tool_failure(shop, capsys):
    code = _run("--config", str(shop / "config.json"), "--format", "pdf")
    captured = capsys.readouterr()
    assert code == 3
    assert "format" in captured.err


def test_out_override_redirects_outputs(shop, tmp_path, capsys):
    target = tmp_path / "elsewhere"
    code = _run("--config", str(shop / "config.json"), "--out", str(target))
    capsys.readouterr()
    assert code == 2
    assert (target / "system.json").exists()
    assert not (shop / "out").exists()


def test_auto_discovery_finds_service_dirs(shop, capsys):
    config = shop / "auto-config.json"
    config.write_text(
        json.dumps(
            {
                "services": "auto",
                "taxonomy_path": "taxonomy.txt",
                "compose_paths": ["docker-compose.yml"],
                "output_dir": "out-auto",
            }
        ),
        encoding="utf-8",
    )
    code = _run("--config", str(config))
    capsys.readouterr()
    assert code == 2
    system = json.loads((shop / "out-auto" / "system.json").read_bytes())
    assert [s["service_name"] for s in system["services"]] == [
        "orders",
        "shipping",
        "users",
    ]


def test_version_flag(capsys):
    import pytest

    with pytest.raises(SystemExit) as excinfo:
        _run("--version")
    assert excinfo.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_progress_goes_to_stderr(shop, capsys):
    _run("--config", str(shop / "config.json"))
    captured = capsys.readouterr()
    assert "[analyze]" in captured.err
    assert captured.out == ""


_TWO_CALLS_ONE_LINE = """
@Service
public class SyncService {
    private final RestTemplate restTemplate;

    public void pull() {
        restTemplate.getForObject("http://b/api/x/1", String.class); restTemplate.getForObject("http://b/api/x/1", String.class);
    }
}
"""

_TIED_CONTROLLERS = {
    "src/One.java": """
@RestController
@RequestMapping("/api/x")
public class One {
    @GetMapping("/{id}")
    public String get(@PathVariable("id") long id) {
        return "";
    }
}
""",
    "src/Two.java": """
@RestController
@RequestMapping("/api/x")
public class Two {
    @GetMapping("/{key}")
    public String get(@PathVariable("key") long key) {
        return "";
    }
}
""",
}


def test_two_identical_calls_on_one_line_get_one_w02_each(tmp_path, capsys):
    config = _write_project(
        tmp_path, {"a": {"src/Sync.java": _TWO_CALLS_ONE_LINE}, "b": _TIED_CONTROLLERS}
    )
    code = _run("--config", str(config))
    capsys.readouterr()
    assert code == 1
    report = json.loads((tmp_path / "out" / "report.json").read_bytes())
    w02 = [f for f in report["findings"] if f["rule_id"] == "W02"]
    assert len(w02) == 2
    for finding in w02:
        assert "ties between 2 endpoints" in finding["message"]
        assert finding["message"].count("(One.get)") == 1
        assert finding["message"].count("(Two.get)") == 1
        assert [s["line"] for s in finding["subjects"]] == [7]
    system = json.loads((tmp_path / "out" / "system.json").read_bytes())
    assert len(system["comm_edges"]) == 4


def _entity_source(package: str, fields: list[str]) -> str:
    members = "".join(f"    private String {name};\n" for name in fields)
    return f"package {package};\n\n@Entity\npublic class User {{\n{members}}}\n"


def test_entity_drift_compares_each_match_own_entities(tmp_path, capsys):
    # alpha holds two entities named User; each pairs with beta.User, and
    # W01 must read the fields of the User in that match, not the other one,
    # and say which file that User is in.
    config = _write_project(
        tmp_path,
        {
            "alpha": {
                "src/a/User.java": _entity_source("a", ["id", "name", "nickname"]),
                "src/b/User.java": _entity_source("b", ["id", "email", "phone"]),
            },
            "beta": {"src/User.java": _entity_source("beta", ["id", "name"])},
        },
    )
    assert _run("--config", str(config)) == 1
    capsys.readouterr()
    context_map = json.loads((tmp_path / "out" / "context-map.json").read_bytes())
    assert [(m["entity_a"], m["entity_b"]) for m in context_map["matches"]] == [
        ("User", "User"),
        ("User", "User"),
    ]
    text = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8")
    w01 = [line for line in text.splitlines() if line.startswith("W01 ")]
    assert w01 == [
        "W01 warning alpha, beta: entities alpha.User and beta.User match at score "
        "1.000 but their fields drift: alpha.User has unmatched field(s) nickname "
        "(src/a/User.java:4)",
        "W01 warning alpha, beta: entities alpha.User and beta.User match at score "
        "1.000 but their fields drift: alpha.User has unmatched field(s) email, phone; "
        "beta.User has unmatched field(s) name (src/b/User.java:4)",
    ]


_SELF_CALLER = """
@RestController
@RequestMapping("/api/items")
public class ItemController {
    private final RestTemplate restTemplate;
    private final KafkaTemplate<String, String> kafkaTemplate;

    @GetMapping("/{id}")
    public String get(@PathVariable("id") long id) {
        return "";
    }

    public void refresh(long id) {
        restTemplate.getForObject("http://a/api/items/" + id, String.class);
        kafkaTemplate.send("items.changed", "x");
    }

    @KafkaListener(topics = "items.changed")
    public void onChanged(String message) {
    }
}
"""

_SELF_CALL_COMPOSE = """
services:
  a:
    image: test/a:1
  b:
    image: test/b:1
    depends_on:
      - a
"""


def test_self_calls_are_written_but_are_no_dependency(tmp_path, capsys):
    (tmp_path / "docker-compose.yml").write_text(_SELF_CALL_COMPOSE, encoding="utf-8")
    config = _write_project(
        tmp_path,
        {"a": {"src/Items.java": _SELF_CALLER}, "b": {"src/Ctl.java": _CONTROLLER}},
        compose_paths=["docker-compose.yml"],
    )
    assert _run("--config", str(config)) == 1
    capsys.readouterr()
    out = tmp_path / "out"
    system = json.loads((out / "system.json").read_bytes())
    assert [(e["from_service"], e["to_service"]) for e in system["comm_edges"]] == [("a", "a")]
    assert system["event_edges"] == [
        {"publisher": "a", "subscriber": "a", "topic": "items.changed"}
    ]
    assert [(e["from_service"], e["to_service"]) for e in system["topology_edges"]] == [
        ("b", "a")
    ]
    report = json.loads((out / "report.json").read_bytes())
    topology = [f["message"] for f in report["findings"] if f["rule_id"] == "W04"]
    assert topology == [
        "the deployment declares b -> a but no call or event between them was observed"
    ]
    assert not [f for f in report["findings"] if f["rule_id"] == "S01"]
    coupling = report["coupling"]
    assert coupling["total_pairs"] == 0
    assert [(row["service"], row["ais"], row["ads"]) for row in coupling["services"]] == [
        ("a", 0, 0),
        ("b", 0, 0),
    ]


_NON_STRING_KEYS_COMPOSE = """
services:
  a:
    image: test/a:1
  b:
    depends_on: [a, 1]
  1:
    image: test/one:1
  ~:
    image: x
"""


def test_compose_service_keys_that_are_no_strings_are_read_as_their_text(tmp_path, capsys):
    (tmp_path / "docker-compose.yml").write_text(_NON_STRING_KEYS_COMPOSE, encoding="utf-8")
    config = _write_project(
        tmp_path,
        {"a": {"src/Items.java": _SELF_CALLER}, "b": {"src/Ctl.java": _CONTROLLER}},
        compose_paths=["docker-compose.yml"],
    )
    assert _run("--config", str(config)) == 1
    capsys.readouterr()
    system = json.loads((tmp_path / "out" / "system.json").read_bytes())
    assert [(e["from_service"], e["to_service"]) for e in system["topology_edges"]] == [
        ("b", "a")
    ]


def test_bad_arg_count_in_passthrough_document_is_skipped(tmp_path, capsys):
    from microweave.frontend import SourceTree, extract
    from microweave.laast import save_laast

    source = tmp_path / "source"
    (source / "src").mkdir(parents=True)
    (source / "src" / "Sync.java").write_text(_TWO_CALLS_ONE_LINE, encoding="utf-8")
    tree, _report = extract(SourceTree(service_name="a", root_dir=source))
    document = save_laast(tree.children[0]).decode("utf-8")
    assert document.count('"arg_count":"2"') == 2
    config = _write_project(
        tmp_path,
        {"a": {"src/sync.laast.json": document.replace('"arg_count":"2"', '"arg_count":"two"')}},
        conventions={"a": "LaastPassthrough"},
    )
    code = _run("--config", str(config))
    capsys.readouterr()
    assert code == 0
    ir = json.loads((tmp_path / "out" / "a.ir.json").read_bytes())
    assert ir["extraction_report"]["files_skipped"] == [
        {
            "file": "src/sync.laast.json",
            "reason": "invalid document: $.children[0].children[2].children[0]: "
            "attribute 'arg_count' of a remote call must be a decimal integer",
        }
    ]


def test_internal_fault_exits_3_with_one_line(shop, capsys, monkeypatch):
    import microweave.runner

    def broken_weave(*_args, **_kwargs):
        raise ValueError("woven\nwrong")

    monkeypatch.setattr(microweave.runner, "weave", broken_weave)
    code = _run("--config", str(shop / "config.json"))
    captured = capsys.readouterr()
    assert code == 3
    errors = [line for line in captured.err.splitlines() if not line.startswith("[analyze]")]
    assert errors == ["analyze: internal error: ValueError: woven wrong"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("encoder", ["save_service_ir", "comm_edge"])
def test_failure_in_the_middle_of_the_write_leaves_no_temp_file(
    shop, capsys, monkeypatch, encoder
):
    """The second ``.ir.json`` fails before its write starts; the second comm
    edge fails while ``system.json``'s table is being written."""
    import microweave.jsonio
    import microweave.runner

    if encoder == "save_service_ir":
        module, counted = microweave.runner, lambda record: True
    else:  # each comm edge is encoded on its own, as its table's object
        module, encoder = microweave.jsonio, "canonical_bytes"
        counted = lambda obj: isinstance(obj, dict) and "matched_url_template" in obj
    real = getattr(module, encoder)
    calls = []

    def fail_second(record):
        if counted(record):
            calls.append(record)
            if len(calls) == 2:
                raise ValueError("encoder\nfailed")
        return real(record)

    monkeypatch.setattr(module, encoder, fail_second)
    code = _run("--config", str(shop / "config.json"))
    captured = capsys.readouterr()
    assert code == 3
    errors = [line for line in captured.err.splitlines() if not line.startswith("[analyze]")]
    assert errors == ["analyze: internal error: ValueError: encoder failed"]
    names = sorted(p.name for p in (shop / "out").iterdir())
    assert not [name for name in names if name.endswith(".tmp")]
    assert "system.json" not in names
    assert "orders.ir.json" in names


def test_documented_example_ruleset_runs(tmp_path, capsys):
    docs = (Path(__file__).parents[1] / "docs" / "config.md").read_text(encoding="utf-8")
    example = next(block for block in docs.split("```json")[1:] if '"ruleset"' in block)
    ruleset = json.loads(example.split("```")[0])["ruleset"]
    config = _write_project(
        tmp_path,
        {"alpha": {"src/Client.java": _CLIENT}, "beta": {"src/Ctl.java": _CONTROLLER}},
        ruleset=ruleset,
    )
    code = _run("--config", str(config))
    capsys.readouterr()
    assert code == 0
    system = json.loads((tmp_path / "out" / "system.json").read_bytes())
    roles = {c["name"]: c["role"] for s in system["services"] for c in s["components"]}
    assert roles == {"SyncService": "Service", "ItemController": "Controller"}
    assert len(system["comm_edges"]) == 1


def test_source_file_named_in_bytes_that_are_not_utf8_is_skipped(tmp_path, capsys):
    config = _write_project(
        tmp_path,
        {"alpha": {"src/Client.java": _CLIENT}, "beta": {"src/Ctl.java": _CONTROLLER}},
    )
    try:
        (tmp_path / "beta" / "src" / "Old\udcff.java").write_text(_CONTROLLER, encoding="utf-8")
    except (OSError, UnicodeEncodeError) as exc:
        pytest.skip(f"this file system refuses a name that is not UTF-8: {exc}")
    code = _run("--config", str(config))
    captured = capsys.readouterr()
    assert code == 0
    assert "internal error" not in captured.err
    ir = json.loads((tmp_path / "out" / "beta.ir.json").read_bytes())
    assert ir["extraction_report"]["files_skipped"] == [
        {"file": "src/Old\\udcff.java", "reason": "file name is not utf-8"}]
    assert ir["extraction_report"]["warnings"] == [
        {"file": "src/Old\\udcff.java", "line": 0, "message": "skipped: file name is not utf-8"}]
    assert len(json.loads((tmp_path / "out" / "system.json").read_bytes())["comm_edges"]) == 1


def _auto_with_backslash_dir(shop: Path) -> dict:
    """Gives the fixture a source directory named ``a\\b`` and turns on auto
    discovery."""
    (shop / "a\\b").mkdir()
    (shop / "a\\b" / "Ctl.java").write_text(_CONTROLLER, encoding="utf-8")
    return {"services": "auto"}


def _auto_with_non_utf8_dir(shop: Path) -> dict:
    """Gives the fixture a source directory named with the bytes ``ok\\xff``,
    where the file system allows it, and turns on auto discovery."""
    try:
        os.mkdir(os.fsencode(shop) + b"/ok\xff")
    except (OSError, ValueError) as exc:
        pytest.skip(f"this file system refuses a name that is not UTF-8: {exc}")
    (shop / "ok\udcff" / "Ctl.java").write_text(_CONTROLLER, encoding="utf-8")
    return {"services": "auto"}


@pytest.mark.parametrize(
    "patch, argv, message",
    [
        ({"services": [{"name": "users", "root_dir": 5}]}, (),
         "services[0].root_dir must be a non-empty string"),
        ({"thresholds": {"tau": 2}}, (), "thresholds.tau must be within [0, 1]"),
        ({"checks": {"disable": ["E01", "W99"]}}, (), "checks.disable[1]: unknown rule id 'W99'"),
        ({"ruleset": [{"role": "wizard", "annotations": ["X"]}]}, (),
         "ruleset: rule 0: unknown role 'wizard'"),
        ({}, ("--services", "billing"), "--services names unknown service 'billing'"),
        ({}, ("--services", ","), "--services must name at least one service"),
        ({}, ("--services", ""), "--services must name at least one service"),
        ({}, ("--services", " , "), "--services must name at least one service"),
        ({}, ("--jobs", "2"), "unrecognized arguments: --jobs 2"),
        ({}, ("--format", "pdf"), "--format: unknown output family 'pdf'"),
        ({}, ("--format", ","), "--format must select at least one output family"),
        ({"thresholds": {"tua": 0.5}}, (), "thresholds.tua: unknown field"),
        ({"services": [{"name": "users", "root_dir": "users", "extra": 1}]}, (),
         "services[0].extra: unknown field"),
        ({"taxonomy": "taxonomy.txt"}, (), "taxonomy: unknown field"),
        ({"checks": {"enable": ["E01"]}}, (), "checks.enable: unknown field"),
        ({"ruleset": [{"component_role": "Service", "suffixes": ["Service"]}]}, (),
         "ruleset[0].component_role: unknown field"),
        ({"ruleset": [{"role": 5, "suffixes": ["Service"]}]}, (),
         "ruleset[0].role must be a string"),
        ({"ruleset": [{"role": "Service", "annotations": "Service"}]}, (),
         "ruleset[0].annotations must be an array of strings"),
        ({"ruleset": [{"role": "Service", "annotations": ["Service", 3]}]}, (),
         "ruleset[0].annotations must be an array of strings"),
        ({"ruleset": [{"role": "Service", "suffixes": "Service"}]}, (),
         "ruleset[0].suffixes must be an array of strings"),
        ({"ruleset": [{"role": "Service", "suffixes": ["Service"], "priority": 1.9}]}, (),
         "ruleset[0].priority must be an integer"),
        ({"ruleset": [{"role": "Service", "suffixes": ["Service"], "priority": "40"}]}, (),
         "ruleset[0].priority must be an integer"),
        ({"ruleset": [{"role": "Service", "suffixes": ["Service"], "priority": True}]}, (),
         "ruleset[0].priority must be an integer"),
        ("[" * 100_000, (), "config file nests too deeply to parse"),
        ('{"thresholds": {"tau": 1' + "0" * 4999 + "}}", (),
         "config file holds an integer with too many digits"),
        ({"thresholds": {"tau": 10**400}}, (), "thresholds.tau must be within [0, 1]"),
        ({"services": [{"name": "users", "root_dir": "us\0ers"}]}, (),
         "services[0].root_dir must not contain a NUL byte"),
        ({"services": "auto", "root": "a\0b"}, (), "root must not contain a NUL byte"),
        ({"taxonomy_path": "taxonomy\0.txt"}, (), "taxonomy_path must not contain a NUL byte"),
        ({"compose_paths": ["docker\0.yml"]}, (), "compose_paths[0] must not contain a NUL byte"),
        ({"output_dir": "o\0ut"}, (), "output_dir must not contain a NUL byte"),
        ({"services": [{"name": "../escaped", "root_dir": "users"}]}, (),
         "services[0].name must not be '.' or '..' or contain '/', '\\' or a NUL byte"),
        ({"services": [{"name": "users", "root_dir": "users"},
                       {"name": "Users", "root_dir": "users"}]}, (),
         "services: names 'users' and 'Users' differ only in case, so their output files "
         "would collide on a case-insensitive file system"),
        ({"services": [{"name": "..", "root_dir": "users"}]}, (),
         "services[0].name must not be '.' or '..' or contain '/', '\\' or a NUL byte"),
        (_auto_with_backslash_dir, (),
         "services auto-discovery: directory 'a\\\\b' cannot be a service name, which "
         "must not be '.' or '..' or contain '/', '\\' or a NUL byte"),
        (_auto_with_non_utf8_dir, (),
         "services auto-discovery: directory 'ok\\udcff' is not named in UTF-8"),
        ({"services": [{"name": "users", "root_dir": "users", "include_globs": ["../*.java"]}]},
         (), "services[0].include_globs[0] must be a non-empty relative pattern with no "
         "'..' segment"),
        ({"services": [{"name": "users", "root_dir": "users",
                        "include_globs": ["**/*.java", "/etc/*.java"]}]},
         (), "services[0].include_globs[1] must be a non-empty relative pattern with no "
         "'..' segment"),
        ({"services": [{"name": "users", "root_dir": "users", "include_globs": [""]}]},
         (), "services[0].include_globs[0] must be a non-empty relative pattern with no "
         "'..' segment"),
        ({"root": 5}, (), "root must be a string"),
    ],
    ids=["root_dir", "tau", "disable", "ruleset", "services", "services_comma",
         "services_empty", "services_blank", "jobs", "format", "format_empty",
         "thresholds_key", "service_key", "top_level_key", "checks_key", "rule_key",
         "rule_role_type", "rule_annotations_string", "rule_annotations_item",
         "rule_suffixes_string", "rule_priority_float", "rule_priority_string",
         "rule_priority_bool", "deep_nesting", "int_digit_limit", "tau_beyond_float",
         "root_dir_nul", "root_nul", "taxonomy_nul", "compose_nul", "output_dir_nul",
         "name_traversal", "name_case", "name_dotdot", "auto_name_backslash",
         "auto_name_not_utf8", "glob_parent",
         "glob_absolute", "glob_empty", "root_type"],
)
def test_configuration_error_line_names_field_once(shop, capsys, patch, argv, message):
    """``patch`` updates the fixture's config, or as a string replaces its text,
    or as a function prepares the fixture directory and returns the update."""
    if callable(patch):
        patch = patch(shop)
    if isinstance(patch, str):
        text = patch
    else:
        config = json.loads((shop / "config.json").read_text(encoding="utf-8"))
        config.update(patch)
        text = json.dumps(config)
    (shop / "config.json").write_text(text, encoding="utf-8")
    code = _run("--config", str(shop / "config.json"), *argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"analyze: configuration error: {message}\n"


def test_config_path_naming_a_directory_is_a_configuration_error(shop, capsys):
    code = _run("--config", str(shop))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == (
        f"analyze: configuration error: cannot read config file: "
        f"[Errno 21] Is a directory: {str(shop)!r}\n")


def test_out_path_naming_a_file_is_an_io_failure(shop, capsys):
    (shop / "taken").write_text("", encoding="utf-8")
    code = _run("--config", str(shop / "config.json"), "--out", str(shop / "taken"))
    captured = capsys.readouterr()
    assert code == 3
    errors = [line for line in captured.err.splitlines() if not line.startswith("[analyze]")]
    assert errors == [f"analyze: i/o failure: [Errno 17] File exists: {str(shop / 'taken')!r}"]


# "\ud800" and "\udfff" are lone surrogates, which no UTF-8 encode accepts.
_WORDS = st.sampled_from(
    ["auto", "SpringLike", "LaastPassthrough", "Service", "Controller", "E01", "S01",
     "warning", "error", "**/*.java", "x", "\ud800", "x\udfff"]
)
_PATHS = st.sampled_from([".", "a", "missing.txt"]) | st.text(alphabet="ab\0\udfff",
                                                              max_size=3)
_NUMBERS = st.integers() | st.floats() | st.sampled_from([0.5, 10**400])
_ANY = st.recursive(
    st.none() | st.booleans() | _NUMBERS | _WORDS | _PATHS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_WORDS | _PATHS, children, max_size=3),
    max_leaves=12,
)
_SERVICE = st.fixed_dictionaries({}, optional={
    "name": _WORDS | _ANY, "root_dir": _PATHS | _ANY,
    "include_globs": st.lists(_WORDS) | _ANY, "convention": _WORDS | _ANY, "extra": _ANY,
})
_RULE = st.fixed_dictionaries({}, optional={
    "role": _WORDS | _ANY, "annotations": st.lists(_WORDS) | _ANY,
    "suffixes": st.lists(_WORDS) | _ANY, "priority": _NUMBERS | _ANY,
})
_CONFIG = st.fixed_dictionaries({}, optional={
    "services": st.just("auto") | st.lists(_SERVICE, max_size=3) | _ANY,
    "root": _PATHS | _ANY,
    "taxonomy_path": _PATHS | _ANY,
    "compose_paths": st.lists(_PATHS, max_size=2) | _ANY,
    "thresholds": st.dictionaries(st.sampled_from(["tau", "tau_f", "theta", "x"]),
                                  _NUMBERS | _ANY, max_size=3) | _ANY,
    "ruleset": st.lists(_RULE, max_size=3) | _ANY,
    "checks": st.fixed_dictionaries({}, optional={
        "disable": st.lists(_WORDS | _ANY, max_size=3) | _ANY,
        "severity": st.dictionaries(_WORDS, _WORDS | _ANY, max_size=2) | _ANY,
        "enable": _ANY,
    }) | _ANY,
    "output_dir": _PATHS | _ANY,
    "extra": _ANY,
})


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config fuzz")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_CONFIG | _ANY)
def test_load_config_raises_only_config_error(fuzz_dir, document):
    path = fuzz_dir / "config.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    try:
        load_config(path)
    except ConfigError:
        pass


def _deep_document(levels: int) -> str:
    """A canonical CompilationUnit over a chain of Blocks, ``levels`` nodes
    deep with the root as level 1; built as text, since encoding it as a
    nested object would itself recurse once per level."""
    return ('{"kind":"CompilationUnit","children":['
            + '{"kind":"Block","children":[' * (levels - 2)
            + '{"kind":"Block"}' + "]}" * (levels - 1))


@pytest.mark.parametrize("levels", [500, 2_000, 100_000])
def test_too_deep_passthrough_document_is_skipped_with_one_warning(tmp_path, capsys, levels):
    config = _write_project(
        tmp_path,
        {"deep": {"deep.laast.json": _deep_document(levels)},
         "beta": {"src/Ctl.java": _CONTROLLER}},
        conventions={"deep": "LaastPassthrough"},
    )
    code = _run("--config", str(config))
    capsys.readouterr()
    assert code == 1
    report = json.loads((tmp_path / "out" / "report.json").read_bytes())
    assert {f["rule_id"] for f in report["findings"]} == {"W03"}
    extraction = json.loads((tmp_path / "out" / "deep.ir.json").read_bytes())["extraction_report"]
    reason = f"invalid document: document nests deeper than {MAX_DEPTH} levels"
    assert extraction["files_skipped"] == [{"file": "deep.laast.json", "reason": reason}]
    assert extraction["warnings"] == [
        {"file": "deep.laast.json", "line": 0, "message": f"skipped: {reason}"}]


_STARTUP_PROBE = """
import json, sys
import microweave.cli
from microweave.runner import load_config, run
config = load_config(sys.argv[1])
startup = sorted(sys.modules)
import yaml  # run imports it for the compose file only
before_run = set(sys.modules)
status = run(config)
print(json.dumps({"startup": startup, "run": sorted(set(sys.modules) - before_run)}))
"""


def test_startup_loads_no_dataclasses_and_run_loads_no_further_module(shop):
    """Run in a fresh interpreter, since the test runner imports
    ``dataclasses`` itself.  Every module ``run`` needs is loaded at start-up,
    so start-up cost cannot move into the run instead of going away."""
    src = Path(__file__).parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, str(shop / "config.json")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, check=False,
    )
    assert done.returncode == 0, done.stderr.decode()
    modules = json.loads(done.stdout)
    assert {"dataclasses", "inspect"}.isdisjoint(modules["startup"])
    assert modules["run"] == []


def test_outputs_do_not_depend_on_the_hash_seed(shop, tmp_path):
    """Run in fresh interpreters, each with its own string hash seed."""
    src = Path(__file__).parents[1] / "src"
    outputs = []
    for seed in ("0", "12345"):
        out = tmp_path / f"out-{seed}"
        done = subprocess.run(
            [sys.executable, "-m", "microweave", "--config", str(shop / "config.json"),
             "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            capture_output=True, check=False,
        )
        assert done.returncode == 2, done.stderr.decode()
        outputs.append({path.relative_to(out): path.read_bytes()
                        for path in out.rglob("*") if path.is_file()})
    assert len(outputs[0]) >= len(GOLDEN_FILES)
    assert outputs[0] == outputs[1]


def test_passthrough_documents_up_to_the_depth_limit_load_and_round_trip(tmp_path):
    """Run in a fresh interpreter: the limit is stated for the command line,
    whose stack is shallower than a test runner's."""
    documents = {f"d{levels}.laast.json": _deep_document(levels)
                 for levels in (MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1)}
    config = _write_project(tmp_path, {"deep": documents},
                            conventions={"deep": "LaastPassthrough"})
    src = Path(__file__).parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "microweave", "--config", str(config)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, check=False,
    )
    assert done.returncode == 0, done.stderr.decode()
    out = tmp_path / "out"
    kept = [documents[f"d{levels}.laast.json"] for levels in (MAX_DEPTH - 1, MAX_DEPTH)]
    expected = '{"kind":"CompilationUnit","name":"deep","children":[' + ",".join(kept) + "]}"
    assert (out / "deep.laast.json").read_bytes() == expected.encode()
    extraction = json.loads((out / "deep.ir.json").read_bytes())["extraction_report"]
    assert extraction["files_scanned"] == 2
    assert extraction["files_skipped"] == [{
        "file": f"d{MAX_DEPTH + 1}.laast.json",
        "reason": f"invalid document: document nests deeper than {MAX_DEPTH} levels",
    }]


def test_each_syntax_tree_is_written_before_weaving(shop, monkeypatch):
    import microweave.runner as runner

    out = shop / "out"
    present = []
    real_weave = runner.weave

    def weave_after_trees(*args, **kwargs):
        present.append(sorted(p.name for p in out.glob("*.laast.json")))
        return real_weave(*args, **kwargs)

    monkeypatch.setattr(runner, "weave", weave_after_trees)
    runner.run(load_config(shop / "config.json"), log=io.StringIO())
    assert present == [["orders.laast.json", "shipping.laast.json", "users.laast.json"]]


def test_text_only_run_encodes_no_syntax_tree_and_writes_no_json(shop, monkeypatch):
    import microweave.runner as runner

    saved = []
    monkeypatch.setattr(runner, "save_laast", lambda tree: saved.append(tree))
    code = runner.run(load_config(shop / "config.json"), formats={"text"}, log=io.StringIO())
    assert code == 2
    assert saved == []
    assert sorted(p.name for p in (shop / "out").iterdir()) == ["report.txt"]


# Hostile passthrough documents: deep, wide, wrong-typed, or holding huge
# strings.  Deep and wide ones are built as text: encoding a deep one as an
# object would recurse once per level.

_NODE_KINDS = st.sampled_from(
    ["CompilationUnit", "TypeDecl", "MethodDecl", "Param", "Annotation", "Call", "Literal",
     "Block", "Unknown", "Nope"])
_JSON_ANY = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)
_STRINGS = st.sampled_from(["CtlService", "get", "", "remote", "local", "GET", "/api/x/{id}",
                            "http://b/api/x", "2", "-1", "\ud800", "a\\b", "\0"])
_HUGE_STRINGS = st.builds(
    lambda piece, n: piece * n,
    st.sampled_from(["a", "9", "/", "{x}", "\ud800", "\udfff\ud83d", "é", "\0", "\n"]),
    st.sampled_from([1_000, 100_000, 1_000_000]),
)


@st.composite
def _hostile_node(draw, depth=0):
    node = {"kind": draw(_NODE_KINDS)}
    if draw(st.booleans()):
        node["name"] = draw(_STRINGS)
    if draw(st.booleans()):
        node["attributes"] = draw(st.dictionaries(
            st.sampled_from(["call_kind", "arg_count", "url_template", "http_method", "value",
                             "declared_type"]), _STRINGS, max_size=4))
    if draw(st.booleans()):
        line = draw(st.integers(min_value=-1, max_value=10**30))
        node["span"] = {"file": draw(_STRINGS), "line_start": line,
                        "line_end": line + draw(st.integers(-1, 3))}
    if depth < 3 and draw(st.booleans()):
        node["children"] = draw(st.lists(_hostile_node(depth + 1), max_size=3))
    if draw(st.integers(0, 4)) == 0:  # one member of the wrong type
        node[draw(st.sampled_from(["kind", "name", "attributes", "span", "children", "x"]))] = (
            draw(_JSON_ANY))
    return node


@st.composite
def _huge_string_document(draw):
    """A remote call one of whose strings is huge."""
    node = {"kind": "Call", "name": "get", "span": {"file": "A.java", "line_start": 1,
                                                   "line_end": 1},
            "attributes": {"call_kind": "remote", "http_method": "GET",
                           "url_template": "http://b/api/x/{id}", "arg_count": "1"}}
    huge = draw(_HUGE_STRINGS)
    where = draw(st.sampled_from(["name", "file", "key", "call_kind", "http_method",
                                  "url_template", "arg_count"]))
    if where == "name":
        node["name"] = huge
    elif where == "file":
        node["span"]["file"] = huge
    elif where == "key":
        node["attributes"][huge] = "x"
    else:
        node["attributes"][where] = huge
    return json.dumps({"kind": "CompilationUnit", "children": [
        {"kind": "TypeDecl", "name": "CtlService", "children": [
            {"kind": "MethodDecl", "name": "m", "children": [node]}]}]})


def _wide_document(width: int, child: dict) -> str:
    return ('{"kind":"CompilationUnit","children":['
            + ",".join([json.dumps(child)] * width) + "]}")


_HOSTILE_DOCUMENTS = st.one_of(
    st.builds(_deep_document, st.integers(min_value=2, max_value=3_000)),
    st.builds(lambda n: '{"kind":"Block","attributes":{"a":' + "[" * n + "]" * n + "}}",
              st.integers(min_value=1, max_value=100_000)),
    st.builds(_wide_document, st.sampled_from([1, 1_000, 20_000]), _hostile_node(depth=2)),
    _hostile_node().map(json.dumps),
    _huge_string_document(),
    _JSON_ANY.map(json.dumps),
)


@pytest.fixture(scope="module")
def hostile_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    _write_project(root, {"hostile": {"h.laast.json": "{}"}, "beta": {"src/Ctl.java": _CONTROLLER}},
                   conventions={"hostile": "LaastPassthrough"})
    return root


@settings(derandomize=True, deadline=None, max_examples=120)
@given(_HOSTILE_DOCUMENTS)
def test_hostile_passthrough_document_is_skipped_or_loaded_never_a_fault(hostile_dir, document):
    from microweave.errors import MicroweaveError
    from microweave.laast import load_laast

    (hostile_dir / "hostile" / "h.laast.json").write_text(document, encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = _run("--config", str(hostile_dir / "config.json"))
    errors = [line for line in stderr.getvalue().splitlines() if not line.startswith("[analyze]")]
    if code == 3:
        assert len(errors) == 1 and errors[0].startswith("analyze: configuration error:"), errors
        return
    assert code in (0, 1, 2) and not errors, errors
    try:
        load_laast(document.encode("utf-8"))
        reason = None
    except MicroweaveError as exc:
        reason = f"invalid document: {exc}"
    ir = json.loads((hostile_dir / "out" / "hostile.ir.json").read_bytes())
    skipped = ir["extraction_report"]["files_skipped"]
    assert skipped == ([] if reason is None else [{"file": "h.laast.json", "reason": reason}])


def _in_class(members: str) -> str:
    return f"@RestController\npublic class F {{\n{members}}}\n"


def _in_method(body: str) -> str:
    return _in_class(f"    @GetMapping(\"/a\")\n    public String get() {{\n{body}\n    }}\n")


def _nested_array_handler(levels: int, on_param: bool) -> str:
    value = "{" * levels + '"/x"' + "}" * levels
    if on_param:
        return _in_class(f'    @GetMapping("/a")\n    public String get(@RequestParam({value}) '
                         "String q) { return q; }\n")
    return _in_class(f"    @GetMapping(value = {value})\n"
                     '    public String get() { return ""; }\n')


_HOSTILE_JAVA = {
    "nested classes": "".join(f"class C{i} {{\n" for i in range(2_000)) + "}\n" * 2_000,
    "nested braces in a method body": _in_method("{" * 100_000 + "}" * 100_000),
    "nested parens in a client-call argument": _in_method(
        '        restTemplate.getForObject(' + "(" * 100_000 + '"http://beta/api/items/1"'
        + ")" * 100_000 + ", String.class);"),
    "nested generics": _in_class("    " + "Map<" * 20_000 + "String" + ">" * 20_000 + " m;\n"),
    "annotated parameters": _in_class(
        '    @GetMapping("/a")\n    public String get('
        + ", ".join(f'@RequestParam("p{i}") String p{i}' for i in range(5_000))
        + ") { return p0; }\n"),
    "string literal": _in_class('    String s = "' + "x" * 5_000_000 + '";\n'),
    "nested annotations": _in_class("    " + "@A(" * 5_000 + ")" * 5_000 + " int x;\n"),
    "annotations with an unclosed brace": _in_class("    @A(x = {)\n" * 4_000),
    "annotated fields with an unclosed brace": _in_class("    @A({) int x;\n" * 4_000),
    **{f"array annotation nested {levels} deep{on}": _nested_array_handler(levels, bool(on))
       for levels in (500, 2_000) for on in ("", " on a parameter")},
}


@pytest.mark.parametrize("shape", sorted(_HOSTILE_JAVA))
def test_hostile_java_source_ends_in_a_report(tmp_path, capsys, shape):
    config = _write_project(tmp_path, {"hostile": {"src/F.java": _HOSTILE_JAVA[shape]},
                                       "beta": {"src/Ctl.java": _CONTROLLER}})
    code = _run("--config", str(config))
    err = capsys.readouterr().err
    assert code in (0, 1, 2) and "internal error" not in err, err
