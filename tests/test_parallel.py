"""Building services in forked worker processes: the same outputs, stderr and
exit status as building them one after another, every child reaped, and no
fork where forking is unsafe or would not pay."""

from __future__ import annotations

import errno
import io
import json
import os
import pickle
import random
import signal
import threading
from pathlib import Path

import pytest

from conftest import GOLDEN_DIR, copy_shop, overlay_variant
from microweave import runner
from microweave.cli import main
from microweave.errors import MicroweaveError, SchemaViolation
from microweave.frontend import ExtractionReport
from microweave.ir import ServiceIr, save_service_ir
from microweave.laast import SourceSpan
from microweave.matchers import Component, Endpoint, EventOp, MethodSig, PlainType, RemoteCall
from microweave.record import Record
from microweave.runner import load_config

PROCESSES = 3


@pytest.fixture()
def forks(monkeypatch):
    """Every build forks into ``PROCESSES`` processes, whatever the source
    size; yields the pids this process forked."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(runner, "_usable_cpus", lambda: PROCESSES)
    monkeypatch.setattr(runner, "FORK_MIN_SOURCE_BYTES", 0)
    monkeypatch.setattr(os, "fork", fork)
    yield pids
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def _serial(monkeypatch):
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 1)


def _analyze(config: Path, out: Path, capsys) -> tuple[int, str, dict[str, bytes]]:
    """Exit status, stderr with the output path elided, and every file left
    in the output directory."""
    code = main(["--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err.replace(str(out), "OUT")
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return code, err, files


def _controller(service: str, handlers: int, callee: str) -> str:
    lines = ["package gen;", "", "@RestController", f'@RequestMapping("/api/{service}")',
             f"public class {service.capitalize()}Controller {{",
             "    private final RestTemplate restTemplate;"]
    for i in range(handlers):
        lines += [f'    @GetMapping("/items{i}/{{id}}")',
                  f'    public String items{i}(@PathVariable("id") long id) {{']
        if i % 4 == 0:
            lines.append("        return restTemplate.getForObject("
                         f'"http://{callee}/api/{callee}/items{i}/" + id, String.class);')
        else:
            lines.append(f'        return "items{i}" + id;')
        lines.append("    }")
    return "\n".join(lines + ["}"]) + "\n"


def _entity(service: str, rng: random.Random) -> str:
    fields = rng.sample(["id", "name", "email", "total", "status", "createdAt"], 3)
    body = "\n".join(f"    private String {f};" for f in fields)
    return f"package gen;\n\n@Entity\npublic class Customer{service[-1]} {{\n{body}\n}}\n"


def _generated_system(root: Path, services: int = 7, seed: int = 5) -> Path:
    """``services`` services in a ring, each a controller whose every fourth
    handler calls the next service, plus an entity; each service's result
    pickles to more than a pipe buffer holds."""
    rng = random.Random(seed)
    names = [f"svc{k}" for k in range(services)]
    for k, name in enumerate(names):
        src = root / name / "src"
        src.mkdir(parents=True)
        callee = names[(k + 1) % services]
        (src / "Controller.java").write_text(
            _controller(name, rng.randint(150, 250), callee), encoding="utf-8")
        (src / "Customer.java").write_text(_entity(name, rng), encoding="utf-8")
    config = root / "config.json"
    config.write_text(json.dumps({"services": [{"name": n, "root_dir": n} for n in names]}),
                      encoding="utf-8")
    return config


def _inputs(tmp_path: Path, which: str) -> Path:
    if which == "generated":
        return _generated_system(tmp_path / "gen")
    root = copy_shop(tmp_path / "shop")
    if which == "variant":
        overlay_variant(root)
    return root / "config.json"


@pytest.mark.parametrize("which", ["shop", "variant", "generated"])
def test_forked_and_serial_runs_are_identical(tmp_path, capsys, monkeypatch, forks, which):
    config = _inputs(tmp_path, which)
    forked = _analyze(config, tmp_path / "forked", capsys)
    assert len(forks) == PROCESSES - 1
    _serial(monkeypatch)
    serial = _analyze(config, tmp_path / "serial", capsys)
    assert len(forks) == PROCESSES - 1
    assert forked == serial
    files = forked[2]
    assert "system.json" in files
    if which == "shop":
        for golden in sorted(GOLDEN_DIR.iterdir()):
            assert files[golden.name] == golden.read_bytes(), golden.name


def _failing(monkeypatch, errors: dict[str, Exception]) -> None:
    """``run_matchers`` raises ``errors[service]`` for each service named."""
    real = runner.run_matchers

    def run_matchers(root, ruleset, name, **kwargs):
        if name in errors:
            raise errors[name]
        return real(root, ruleset, name, **kwargs)

    monkeypatch.setattr(runner, "run_matchers", run_matchers)


@pytest.mark.parametrize("errors", [
    # index 1 (first child) and 2 (second child) fail; index 1 wins
    {"shipping": SchemaViolation("expected a string", path="$.a"),
     "users": ValueError("second\nfailure")},
    # index 2 (second child), 3 (this process) and 4 (first child) fail
    {"svc2": ValueError("lowest\nindex"), "svc3": MicroweaveError("parent's own"),
     "svc4": OSError(5, "child i/o")},
    # an error that does not pickle whole still prints the same line
    {"svc5": type("Unpicklable", (Exception,), {})("local class")},
], ids=["shop", "generated", "unpicklable"])
def test_the_lowest_failing_service_decides_stderr_and_status(
    tmp_path, capsys, monkeypatch, forks, errors
):
    config = _inputs(tmp_path, "shop" if "shipping" in errors else "generated")
    _failing(monkeypatch, errors)
    forked = _analyze(config, tmp_path / "forked", capsys)
    assert forks
    _serial(monkeypatch)
    serial = _analyze(config, tmp_path / "serial", capsys)
    code, err, files = forked
    assert (code, err) == serial[:2]
    assert code == 3
    assert len([line for line in err.splitlines() if line.startswith("analyze:")]) == 1
    assert "Traceback" not in err
    assert not [name for name in files if name.endswith(".tmp")]
    assert "system.json" not in files


def test_a_write_failing_in_a_child_leaves_no_temp_file(tmp_path, capsys, monkeypatch, forks):
    config = _inputs(tmp_path, "generated")
    real = runner.save_laast

    def save_laast(tree):
        if tree.name != "svc4":
            return real(tree)

        def failing():
            yield b'{"kind":'
            raise ValueError("half written")

        return [b"", failing()]

    monkeypatch.setattr(runner, "save_laast", save_laast)
    code, err, files = _analyze(config, tmp_path / "out", capsys)
    assert forks
    assert code == 3
    assert err.splitlines()[-1] == "analyze: internal error: ValueError: half written"
    assert not [name for name in files if name.endswith(".tmp")]
    assert "svc4.laast.json" not in files


def _exit_with(status: int) -> None:
    os._exit(status)


def _kill_self(_status: int) -> None:
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("end, reason", [(_exit_with, "exit status 7"),
                                         (_kill_self, "killed by signal 9")])
def test_a_child_that_dies_ends_the_run_with_exit_3(
    tmp_path, capsys, monkeypatch, forks, end, reason
):
    """``svc4`` is the second service of the first child's share
    (1, 4, ...): it dies after building one service."""
    config = _inputs(tmp_path, "generated")
    real = runner.run_matchers
    parent = os.getpid()

    def run_matchers(root, ruleset, name, **kwargs):
        if name == "svc4" and os.getpid() != parent:
            end(7)
        return real(root, ruleset, name, **kwargs)

    monkeypatch.setattr(runner, "run_matchers", run_matchers)
    code, err, _files = _analyze(config, tmp_path / "out", capsys)
    assert forks
    assert code == 3
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if not line.startswith("[analyze]")]
    assert errors == [f"analyze: a worker process ended ({reason}) without sending the "
                      "results of services 'svc1', 'svc4'"]


def test_a_fork_that_fails_ends_the_run_with_exit_3(tmp_path, capsys, monkeypatch, forks):
    config = _inputs(tmp_path, "generated")
    forking = os.fork  # the fixture's, which records each child

    def fork():
        if forks:  # the second child
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return forking()

    monkeypatch.setattr(os, "fork", fork)
    code, err, files = _analyze(config, tmp_path / "out", capsys)
    assert len(forks) == 1
    assert code == 3
    errors = [line for line in err.splitlines() if not line.startswith("[analyze]")]
    assert errors == ["analyze: i/o failure: [Errno 11] Resource temporarily unavailable"]
    assert not [name for name in files if name.endswith(".tmp")]


def _square(n: int) -> int:
    return n * n


def _square_failing_at_5(n: int) -> int:
    if n == 5:
        raise ValueError("job 5")
    return n * n


def _square_killed_at_4(n: int) -> int:
    if n == 4:  # in the first child's stride (1, 4, 7), never in this process
        os.kill(os.getpid(), signal.SIGKILL)
    return n * n


@pytest.mark.parametrize("fn, done, failure", [
    (_square, 10, None),
    (_square_failing_at_5, 5, (ValueError, "job 5")),
    (_square_killed_at_4, 1, (MicroweaveError, "a worker process ended (killed by signal 9) "
                              "without sending the results of services '1', '4', '7'")),
])
def test_fork_map_returns_results_in_job_order_up_to_the_first_failure(forks, fn, done, failure):
    results, error = runner.fork_map(fn, list(range(10)), PROCESSES, name=str)
    assert len(forks) == PROCESSES - 1
    assert results == [n * n for n in range(done)]
    assert (error if error is None else (type(error), str(error))) == failure


def _no_fork():
    raise AssertionError("os.fork called")


def test_no_fork_below_the_size_gate(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "_usable_cpus", lambda: PROCESSES)
    monkeypatch.setattr(os, "fork", _no_fork)
    config = load_config(_inputs(tmp_path, "shop"))
    sizes = sum(p.stat().st_size for tree in config.services
                for p in runner.source_files(tree))
    assert sizes < runner.FORK_MIN_SOURCE_BYTES
    assert len(runner.build_system(config, log=io.StringIO()).services) == 3


def test_no_fork_while_a_second_thread_is_alive(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "_usable_cpus", lambda: PROCESSES)
    monkeypatch.setattr(runner, "FORK_MIN_SOURCE_BYTES", 0)
    monkeypatch.setattr(os, "fork", _no_fork)
    config = load_config(_inputs(tmp_path, "shop"))
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(10,))
    waiter.start()
    try:
        system = runner.build_system(config, log=io.StringIO())
    finally:
        release.set()
        waiter.join(10)
    assert not waiter.is_alive()
    assert len(system.services) == 3


def _record_types(value, found: set[type]) -> set[type]:
    """The record types in ``value``, however deeply nested."""
    if isinstance(value, Record) or hasattr(value, "_fields"):  # a NamedTuple
        found.add(type(value))
        value = value._values() if isinstance(value, Record) else list(value)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            _record_types(item, found)
    return found


def test_service_ir_survives_a_pickle_round_trip(shop_system):
    system, _golden = shop_system
    # The fixture classifies every type it declares.
    plain = ServiceIr("plain", plain_types=[PlainType("Util", "plain", SourceSpan("U.java", 1, 3))])
    types: set[type] = set()
    for ir in [*system.services, plain]:
        back = pickle.loads(pickle.dumps(ir, pickle.HIGHEST_PROTOCOL))
        assert back == ir
        assert _record_types(back, set()) == _record_types(ir, set())
        types |= _record_types(ir, set())
        assert save_service_ir(back) == save_service_ir(ir)
        methods = {c.name: c.methods for c in back.components}
        for endpoint in back.endpoints:
            assert any(endpoint.handler is m for m in methods[endpoint.owner])
    assert any(ir.endpoints for ir in system.services)
    assert types == {
        ServiceIr, Component, MethodSig, Endpoint, RemoteCall, EventOp, PlainType,
        ExtractionReport, SourceSpan,
    }
