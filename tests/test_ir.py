from __future__ import annotations

import json

import pytest

from microweave.errors import DuplicateServiceError, MalformedDocument, SchemaViolation
from microweave.frontend import ExtractionReport, SourceTree, extract
from microweave.ir import (
    build_service_ir,
    derive_data_model,
    load_service_ir,
    save_service_ir,
)
from microweave.matchers import default_ruleset, run_matchers


def _build(tmp_path, files, service="svc"):
    root = tmp_path / service
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    tree, report = extract(SourceTree(service_name=service, root_dir=root))
    output = run_matchers(tree, default_ruleset(), service)
    return build_service_ir(output, report, service)


def test_internal_calls_resolve_unique_names(tmp_path):
    ir = _build(
        tmp_path,
        {
            "src/A.java": """
@Service
public class GreetService {
    private final NameService nameService;

    public String greet() {
        return hello(nameService.pick());
    }

    public String hello(String name) {
        return name;
    }
}
""",
            "src/B.java": """
@Service
public class NameService {
    public String pick() {
        return "x";
    }
}
""",
        },
    )
    assert set(ir.internal_calls) == {
        (("GreetService", "greet"), ("GreetService", "hello")),
        (("GreetService", "greet"), ("NameService", "pick")),
    }
    assert ir.internal_calls == sorted(ir.internal_calls)


def test_ambiguous_internal_call_warns_once_per_name(tmp_path):
    ir = _build(
        tmp_path,
        {
            "src/A.java": """
@Service
public class FirstService {
    public void act() {}
}
""",
            "src/B.java": """
@Service
public class SecondService {
    public void act() {}
}
""",
            "src/C.java": """
@Service
public class DriverService {
    private final FirstService firstService;

    public void run() {
        firstService.act();
    }

    public void rerun() {
        firstService.act();
    }
}
""",
        },
    )
    assert ir.internal_calls == []
    relevant = [w for w in ir.warnings if "ambiguous internal call" in w[2]]
    assert len(relevant) == 1
    assert "FirstService" in relevant[0][2] and "SecondService" in relevant[0][2]


def test_build_rejects_component_from_other_service(tmp_path):
    root = tmp_path / "one"
    (root / "src").mkdir(parents=True)
    (root / "src" / "A.java").write_text(
        "@Service\npublic class SoloService {\n}\n", encoding="utf-8"
    )
    tree, report = extract(SourceTree(service_name="one", root_dir=root))
    output = run_matchers(tree, default_ruleset(), "one")
    with pytest.raises(DuplicateServiceError):
        build_service_ir(output, report, "two")


def test_derive_data_model_relations(tmp_path):
    ir = _build(
        tmp_path,
        {
            "src/A.java": """
@Entity
public class Invoice {
    private long id;
    private Customer customer;
    private List<LineItem> items;
    private String memo;
}
""",
            "src/B.java": "@Entity\npublic class Customer {\n    private long id;\n}\n",
            "src/C.java": "@Entity\npublic class LineItem {\n    private long id;\n}\n",
        },
    )
    model = derive_data_model(ir)
    assert [e.name for e in model.entities] == ["Invoice", "Customer", "LineItem"]
    assert model.relations == [
        ("Invoice", "customer", "Customer"),
        ("Invoice", "items", "LineItem"),
    ]


def test_derive_data_model_ignores_foreign_types(tmp_path):
    ir = _build(
        tmp_path,
        {
            "src/A.java": """
@Entity
public class Ticket {
    private long id;
    private Venue venue;
}
"""
        },
    )
    model = derive_data_model(ir)
    assert model.relations == []


def _round_trip_ir(tmp_path):
    return _build(
        tmp_path,
        {
            "src/A.java": """
@RestController
@RequestMapping("/api/notes")
public class NoteController {
    private final NoteService noteService;

    @GetMapping("/{id}")
    public Note get(@PathVariable("id") long id) {
        return noteService.find(id);
    }
}
""",
            "src/B.java": """
@Service
public class NoteService {
    private final RestTemplate restTemplate;
    private final KafkaTemplate<String, String> kafkaTemplate;

    public Note find(long id) {
        return restTemplate.getForObject("http://archive/api/notes/" + id, Note.class);
    }

    public void announce(Note note) {
        kafkaTemplate.send("note.saved", note.toString());
    }
}
""",
            "src/C.java": "@Entity\npublic class Note {\n    private long id;\n}\n",
        },
    )


def test_save_load_round_trip_preserves_everything(tmp_path):
    ir = _round_trip_ir(tmp_path)
    blob = save_service_ir(ir)
    again = load_service_ir(blob)
    assert again == ir
    assert save_service_ir(again) == blob


def test_save_is_canonical_json(tmp_path):
    ir = _round_trip_ir(tmp_path)
    blob = save_service_ir(ir)
    assert not blob.endswith(b"\n")
    assert b": " not in blob
    obj = json.loads(blob)
    assert obj["service_name"] == "svc"


def test_load_rejects_bad_bytes():
    with pytest.raises(MalformedDocument, match="UTF-8"):
        load_service_ir(b"\xff\xfe")
    with pytest.raises(MalformedDocument, match="JSON"):
        load_service_ir(b"{not json")


def test_load_rejects_missing_key(tmp_path):
    ir = _round_trip_ir(tmp_path)
    obj = json.loads(save_service_ir(ir))
    del obj["endpoints"]
    with pytest.raises(SchemaViolation) as excinfo:
        load_service_ir(json.dumps(obj))
    assert "endpoints" in str(excinfo.value)
    assert "$" in str(excinfo.value)


def test_load_rejects_unknown_key(tmp_path):
    ir = _round_trip_ir(tmp_path)
    obj = json.loads(save_service_ir(ir))
    obj["favorite_color"] = "blue"
    with pytest.raises(SchemaViolation, match="favorite_color"):
        load_service_ir(json.dumps(obj))


@pytest.mark.parametrize(
    "location, value, message",
    [
        (("components", 0, "span", "line_start"), "three",
         "$.components[0].span.line_start: expected an integer"),
        (("endpoints", 0, "params", 0, "kind"), 5,
         "$.endpoints[0].params[0].kind: expected a string"),
        (("internal_calls", 0, "callee", "method"), None,
         "$.internal_calls[0].callee.method: expected a string"),
        (("extraction_report", "files_skipped"), [{"file": "src/X.java", "reason": 7}],
         "$.extraction_report.files_skipped[0].reason: expected a string"),
        (("warnings",), [{"file": "src/A.java", "line": "1", "message": "m"}],
         "$.warnings[0].line: expected an integer"),
    ],
    ids=["component_span", "endpoint_param", "internal_call", "skipped_file", "warning"],
)
def test_load_reports_nested_path(tmp_path, location, value, message):
    obj = json.loads(save_service_ir(_round_trip_ir(tmp_path)))
    target = obj
    for key in location[:-1]:
        target = target[key]
    target[location[-1]] = value
    with pytest.raises(SchemaViolation) as excinfo:
        load_service_ir(json.dumps(obj))
    assert str(excinfo.value) == message


def test_load_rejects_wrong_container_type(tmp_path):
    ir = _round_trip_ir(tmp_path)
    obj = json.loads(save_service_ir(ir))
    obj["remote_calls"] = {}
    with pytest.raises(SchemaViolation) as excinfo:
        load_service_ir(json.dumps(obj))
    assert "$.remote_calls" in str(excinfo.value)


def test_extraction_report_survives_round_trip(tmp_path):
    ir = _round_trip_ir(tmp_path)
    assert ir.extraction_report.files_scanned == 3
    again = load_service_ir(save_service_ir(ir))
    assert again.extraction_report == ir.extraction_report


def test_empty_ir_round_trip():
    from microweave.ir import ServiceIr

    ir = ServiceIr(service_name="void", extraction_report=ExtractionReport())
    assert load_service_ir(save_service_ir(ir)) == ir
