"""The knob table, walked at both boundaries: the CLI and serve requests.

Every knob in :data:`repro.config.knobs.KNOBS` gets NaN, ±inf, a bool, a
negative number, a value one past each bound and wrong types. The CLI
must exit 2 with ``configuration error`` on stderr and nothing on stdout
before any command runs; a serve request must raise ``ConfigError``
(HTTP 400 over the wire). Both messages come from :func:`knobs.value`,
and each bound itself is accepted.
"""

import json
import math
import os
import threading
import urllib.error
import urllib.request

import pytest

from repro import cli
from repro.config.knobs import JOBS_CAP, KNOBS, value
from repro.core.explorer import Explorer
from repro.core.space import DesignSpace
from repro.errors import ConfigError
from repro.exec.cache import TraceCache
from repro.exec.runner import ParallelRunner
from repro.serve.server import ExplorationServer, ExplorationService, run_server

POINT = DesignSpace().feasible_points()[0].label

#: The words that set each knob on the CLI, up to and including its flag.
CLI = {
    "jobs": ["figure", "5", "--jobs"],
    "shards": ["rank", "--shards"],
    "sample": ["rank", "--sample"],
    "top": ["rank", "--top"],
    "retries": ["figure", "5", "--retries"],
    "job_timeout": ["figure", "5", "--job-timeout"],
    "fault_rates": ["faults", "--rates"],
    "port": ["serve", "--port"],
    "queue_depth": ["serve", "--queue-depth"],
    "deadline": ["serve", "--deadline"],
    "watchdog_budget": ["serve", "--watchdog-budget"],
}
#: Knobs no CLI text reaches through the table: ``--check`` is an argparse
#: ``choices`` flag built from the table, ``fidelity`` a request field only.
NOT_ON_CLI = {"check", "fidelity"}

#: A request setting each knob that serve requests carry.
SERVE = {
    "sample": lambda raw: {"rank": {"sample": raw}},
    "top": lambda raw: {"rank": {"top": raw}},
    "shards": lambda raw: {"rank": {"shards": raw}},
    "deadline": lambda raw: {"point": POINT, "deadline": raw},
    "fidelity": lambda raw: {"point": POINT, "fidelity": raw},
}


def _bad(name):
    """Values knob ``name`` must reject (a ``many`` knob gets each one
    as a one-item list, since a list is its own type)."""
    knob = KNOBS[name]
    values = [math.nan, math.inf, -math.inf, True, -1, "abc", [1]]
    if knob.kind is int:
        values += [knob.low - 1] + ([knob.high + 1] if knob.high is not None else [])
    elif knob.kind is float:
        values += [math.nextafter(knob.low, -math.inf), math.nextafter(knob.high, math.inf)]
    return [[v] for v in values] if knob.many else values


def _bounds(name):
    knob = KNOBS[name]
    if knob.choices:
        return list(knob.choices)
    return [b for b in (knob.low, knob.high) if b is not None]


def _text(raw):
    """The CLI spelling of a value."""
    if isinstance(raw, bool):
        return str(raw).lower()
    return repr(raw) if isinstance(raw, float) else str(raw)


def _rule_of(message):
    return message.split(" must be ", 1)[1].rsplit(", got ", 1)[0]


def _service():
    trace_cache = TraceCache()
    return ExplorationService(explorer_factory=lambda: Explorer(trace_cache=trace_cache))


def _post(server, body):
    """POST ``body`` to ``/v1/evaluate``: (status, decoded reply)."""
    request = urllib.request.Request(
        f"{server.address}/v1/evaluate", data=json.dumps(body).encode("utf-8"), method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture
def server():
    served = ExplorationServer(_service(), port=0)
    served.start()
    yield served
    served.stop()


CASES = [(name, raw) for name in KNOBS for raw in _bad(name)]
# The ``jobs`` cap's case goes last: list-valued cases are numbered by
# position (``deadline-raw81``), and a newer bound must not renumber them.
CASES.append(CASES.pop(CASES.index(("jobs", KNOBS["jobs"].high + 1))))


class TestTable:
    def test_every_knob_has_a_boundary(self):
        assert set(CLI) | NOT_ON_CLI == set(KNOBS)
        assert set(SERVE) <= set(KNOBS)

    def test_float_rules_say_finite(self):
        for name, knob in KNOBS.items():
            if knob.kind is float:
                assert "finite" in knob.rule, name

    @pytest.mark.parametrize("name, raw", CASES)
    def test_bad_values_raise_the_one_message(self, name, raw):
        with pytest.raises(ConfigError) as excinfo:
            value(name, raw, "where")
        assert str(excinfo.value).startswith(f"where must be {KNOBS[name].rule}, got ")

    @pytest.mark.parametrize("name", sorted(KNOBS))
    def test_bounds_are_accepted(self, name):
        for bound in _bounds(name):
            raw = [bound] if KNOBS[name].many else bound
            checked = value(name, raw, "where")
            assert checked == (tuple(raw) if KNOBS[name].many else bound)
            assert value(name, _text(bound), "where") == checked

    def test_none_only_where_declared(self):
        for name, knob in KNOBS.items():
            if knob.optional:
                assert value(name, None, "where") is None
            else:
                with pytest.raises(ConfigError):
                    value(name, None, "where")

    def test_auto_stays_symbolic(self):
        assert value("jobs", " AUTO ", "--jobs") == "auto"
        assert value("shards", "auto", "rank.shards") == "auto"
        with pytest.raises(ConfigError):
            value("top", "auto", "--top")

    def test_comma_text_is_a_list(self):
        assert value("fault_rates", "0.1,0.2", "fault rates") == (0.1, 0.2)
        with pytest.raises(ConfigError, match=r"got '1\.5'"):
            value("fault_rates", "0.1,1.5", "fault rates")


@pytest.fixture
def commands(monkeypatch):
    """Every subcommand but ``faults`` (whose ``--rates`` the command
    itself checks) replaced by a recorder: nothing runs, no server binds."""
    ran = []

    def record(args):
        ran.append(args)
        return 0

    for name in dir(cli):
        if name.startswith("_cmd_") and name != "_cmd_faults":
            monkeypatch.setattr(cli, name, record)
    return ran


class TestCLIBoundary:
    @pytest.mark.parametrize("name, raw", [c for c in CASES if c[0] in CLI])
    def test_bad_flag_is_exit_2(self, name, raw, commands, capsys):
        *words, flag = CLI[name]
        text = _text(raw[0] if KNOBS[name].many else raw)
        assert cli.main(words + [f"{flag}={text}"]) == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err
        assert f"must be {KNOBS[name].rule}, got {text!r}" in captured.err
        assert commands == []

    @pytest.mark.parametrize("name", sorted(set(CLI) - {"fault_rates"}))
    def test_bounds_reach_the_command(self, name, commands):
        *words, flag = CLI[name]
        for bound in _bounds(name):
            assert cli.main(words + [f"{flag}={_text(bound)}"]) == 0
            assert getattr(commands.pop(), name) == bound


class TestServeBoundary:
    @pytest.fixture
    def service(self):
        return _service()

    @pytest.mark.parametrize("name, raw", [c for c in CASES if c[0] in SERVE])
    def test_bad_field_is_a_config_error(self, name, raw, service, commands, capsys):
        with pytest.raises(ConfigError) as excinfo:
            service.evaluate(SERVE[name](raw))
        message = str(excinfo.value)
        assert message.endswith(f"must be {KNOBS[name].rule}, got {raw!r}")
        # The CLI states the same rule for the same knob.
        if name in CLI and name != "fault_rates":
            *words, flag = CLI[name]
            assert cli.main(words + [f"{flag}={_text(raw)}"]) == cli.EXIT_CONFIG_ERROR
            assert _rule_of(capsys.readouterr().err.strip()) == _rule_of(message)

    @pytest.mark.parametrize("name", sorted(SERVE))
    def test_bounds_are_accepted(self, name, service):
        for bound in _bounds(name):
            canonical = service._canonical(SERVE[name](bound))
            assert bound in (canonical.get(name), canonical.get("rank", {}).get(name))

    def test_each_bad_field_is_http_400(self, server):
        for name, make in SERVE.items():
            status, reply = _post(server, make(math.nan))
            assert (status, reply["error"]) == (400, "ConfigError"), name
            assert reply["detail"].endswith(f"must be {KNOBS[name].rule}, got nan")


class TestTimeoutMax:
    """A wait longer than ``threading.TIMEOUT_MAX`` overflows inside the
    lock; the table stops both time knobs there."""

    def test_cli_deadline_past_the_cap_is_exit_2(self, commands, capsys):
        assert cli.main(["serve", "--port", "0", "--deadline", "1e10"]) == cli.EXIT_CONFIG_ERROR
        assert "configuration error" in capsys.readouterr().err
        assert commands == []

    def test_cli_job_timeout_past_the_cap_is_exit_2(self, capsys):
        code = cli.main(["figure", "5", "--jobs", "2", "--job-timeout", "1e10"])
        assert code == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert "configuration error" in captured.err and captured.out == ""

    def test_request_deadline_past_the_cap_is_400(self, server):
        status, reply = _post(server, {"point": POINT, "deadline": 1e10})
        assert (status, reply["error"]) == (400, "ConfigError")
        # The cap itself waits like any other deadline.
        request = {"point": POINT, "kernels": ["reduction"], "deadline": threading.TIMEOUT_MAX}
        status, reply = _post(server, request)
        assert (status, reply["point"]) == (200, POINT)

    def test_job_timeout_at_the_cap_runs(self):
        with ParallelRunner(jobs=2, job_timeout=threading.TIMEOUT_MAX) as runner:
            assert runner.map(abs, [-1, -2, -3]) == [1, 2, 3]


class TestNoSideEffects:
    """A bad knob exits 2 before any store directory is created."""

    @pytest.mark.parametrize(
        "args",
        [
            ["serve", "--port", "0", "--queue-depth", "0"],
            ["rank", "--sample", "4", "--shards", "0"],
        ],
    )
    def test_store_is_not_created(self, args, tmp_path, capsys):
        root = tmp_path / "D"
        assert cli.main(args + ["--store", str(root)]) == cli.EXIT_CONFIG_ERROR
        assert "configuration error" in capsys.readouterr().err
        assert not root.exists()

    @pytest.mark.parametrize(
        "knob",
        [
            {"port": -1},
            {"jobs": 0},
            {"jobs": JOBS_CAP + 1},
            {"queue_depth": 0},
            {"deadline": 0},
            {"watchdog_budget": -1},
            {"retries": -1},
            {"job_timeout": math.inf},
        ],
    )
    def test_run_server_leaves_no_store(self, knob, tmp_path):
        root = tmp_path / "D"
        with pytest.raises(ConfigError):
            run_server(**{"port": 0, "store_path": str(root), **knob})
        assert not root.exists()


class TestJobsCap:
    """``jobs`` stops at a multiple of the host's cores, never below 4;
    one past it is refused before any worker pool exists."""

    @pytest.fixture
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a ParallelRunner was built")

        monkeypatch.setattr(ParallelRunner, "__init__", refuse)

    def test_cap_is_a_multiple_of_the_cores(self):
        cores = os.cpu_count() or 1
        assert JOBS_CAP >= 4 and JOBS_CAP % cores == 0
        assert str(JOBS_CAP) in KNOBS["jobs"].rule

    def test_value_stops_at_the_cap(self):
        assert value("jobs", JOBS_CAP, "--jobs") == JOBS_CAP
        assert value("jobs", str(JOBS_CAP), "--jobs") == JOBS_CAP
        with pytest.raises(ConfigError, match=rf"1\.\.{JOBS_CAP}"):
            value("jobs", JOBS_CAP + 1, "--jobs")

    @pytest.mark.parametrize(
        "words",
        [
            ["rank"],
            ["figure", "5"],
            ["faults", "--sample", "2"],
            ["serve", "--port", "0"],
        ],
    )
    def test_main_refuses_one_past_the_cap(self, words, no_pool, capsys):
        code = cli.main(words + ["--jobs", str(JOBS_CAP + 1)])
        assert code == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--jobs must be {KNOBS['jobs'].rule}" in captured.err
