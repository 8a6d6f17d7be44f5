"""The CLI's option surface, pinned as data.

Every parser's bare parse — the namespace a command sees when no option
is given — is pinned as a literal dict, handler name included. Unlike
help text, this does not depend on the Python version's argparse
formatting, so it holds wherever the tests run.
"""

import argparse

import pytest

import repro.__main__ as cli


class _Parsed(Exception):
    """Carries the top-level parser and its namespace out of ``main``."""


def _bare_parse(monkeypatch, command):
    """``main([command])`` stopped right after parsing."""
    parse_args = argparse.ArgumentParser.parse_args

    def capture(self, args=None, namespace=None):
        raise _Parsed(self, parse_args(self, args, namespace))

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(_Parsed) as parsed:
        cli.main([command])
    parser, namespace = parsed.value.args
    values = vars(namespace)
    values["handler"] = values["handler"].__name__
    return parser, values


_TELEMETRY = {
    "events_out": None,
    "faults": None,
    "mem_stats": False,
    "metrics_format": "json",
    "metrics_out": None,
    "progress": False,
    "scrape_interval": 500.0,
    "series_out": None,
}

_CAMPAIGN = {
    "concurrency": 1,
    "discard_checkpoint": False,
    "domains": 400,
    "exit_code_on_partial": False,
    "handler": "cmd_campaign",
    "max_restarts": 3,
    "resolvers": 40,
    "seed": 7,
    "stall_timeout": 60.0,
    "state_dir": None,
    "tlds": 120,
    "workers": 1,
    **_TELEMETRY,
}

BARE_PARSES = {
    "study": {"command": "study", **_CAMPAIGN},
    "scan": {"command": "scan", **_CAMPAIGN},
    "survey": {"command": "survey", **_CAMPAIGN},
    "trace": {
        "command": "trace",
        "domains": 60,
        "handler": "cmd_trace",
        "label": "trace1",
        "policy": "legacy",
        "qname": "it-150.rfc9276-in-the-wild.com",
        "seed": 7,
        "tlds": 40,
        "trace_out": None,
        **_TELEMETRY,
    },
    "attack": {
        "command": "attack",
        "domains": 60,
        "guard": "guarded",
        "handler": "cmd_attack",
        "queries": 6,
        "seed": 7,
        "tlds": 40,
        **_TELEMETRY,
    },
    "serve": {
        "auth_port": None,
        "capacity": 64,
        "command": "serve",
        "domains": 40,
        "duration": 0.0,
        "guard": "guarded",
        "handler": "cmd_serve",
        "host": "127.0.0.1",
        "max_pending": 128,
        "no_attack": False,
        "pending_timeout": 5.0,
        "policy": "legacy",
        "port": 5300,
        "seed": 7,
        "tcp_idle_timeout": 10.0,
        "tcp_max_connections": 64,
        "tlds": 12,
        **_TELEMETRY,
    },
    "loadgen": {
        "attack_ratio": 0.0,
        "command": "loadgen",
        "domains": 40,
        "duration": 5.0,
        "handler": "cmd_loadgen",
        "host": "127.0.0.1",
        "json_out": None,
        "port": 5300,
        "qps": 200.0,
        "seed": 7,
        "timeout": 3.0,
        "tlds": 12,
        "unique_ratio": 0.3,
    },
    "soak": {
        "attack_qps": 250.0,
        "benign_qps": 120.0,
        "command": "soak",
        "domains": 40,
        "handler": "cmd_soak",
        "json_out": None,
        "p99_limit_ms": 5000.0,
        "phase_seconds": 5.0,
        "rss_limit_mb": 400.0,
        "seed": 7,
        "tlds": 12,
    },
    "timeline": {"command": "timeline", "handler": "cmd_timeline"},
    "guidance": {"command": "guidance", "handler": "cmd_guidance"},
}


@pytest.mark.parametrize("command", sorted(BARE_PARSES))
def test_bare_parse_of_each_command(monkeypatch, command):
    __, values = _bare_parse(monkeypatch, command)
    assert values == BARE_PARSES[command]


def test_top_level_parser(monkeypatch, capsys):
    parser, __ = _bare_parse(monkeypatch, "guidance")
    # What a bare parse of the top level would hold, had it no required
    # command: every action's default that argparse would set.
    defaults = {
        action.dest: action.default
        for action in parser._actions
        if action.default is not argparse.SUPPRESS
    }
    assert defaults == {"command": None}
    (commands,) = [
        action.choices for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert list(commands) == [
        "study", "scan", "survey", "trace", "attack",
        "serve", "loadgen", "soak", "timeline", "guidance",
    ]
    monkeypatch.undo()
    with pytest.raises(SystemExit) as exited:
        cli.main([])
    assert exited.value.code == 2
    assert "the following arguments are required: command" in capsys.readouterr().err
