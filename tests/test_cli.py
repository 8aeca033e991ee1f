"""Tests for the ``python -m repro`` command-line demos."""

from __future__ import annotations

import json
import socket

import pytest

from repro.__main__ import _sweep_backend, build_parser, cmd_sweep, main
from repro.dispatch import SerialBackend, SocketBackend


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["fame"])
        assert args.nodes == 20 and args.channels == 2 and args.strength == 1
        assert args.adversary == "schedule"

    def test_unknown_adversary_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fame", "--adversary", "nope"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["gauntlet", "--adversary", "random"],
            ["groupkey", "--pairs", "2"],
            ["service", "--pairs", "2"],
        ],
        ids=" ".join,
    )
    def test_a_flag_the_demo_would_ignore_exits_2(self, argv, capsys):
        # gauntlet runs every adversary; groupkey and service run no
        # pair exchange: neither flag would change a byte of output.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in (
            capsys.readouterr().err
        )


class TestCommands:
    def test_fame_command(self, capsys):
        assert main(["fame", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "f-AME:" in out
        assert "disruptability" in out

    def test_fame_null_adversary_all_delivered(self, capsys):
        assert main(["fame", "--adversary", "null"]) == 0
        out = capsys.readouterr().out
        assert "5/5 pairs delivered" in out

    def test_gauntlet_command(self, capsys):
        assert main(["gauntlet", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "worst cover" in out and "OK" in out

    def test_groupkey_command(self, capsys):
        assert main(["groupkey", "-n", "18", "--adversary", "random"]) == 0
        out = capsys.readouterr().out
        assert "key fingerprint" in out

    def test_service_command(self, capsys):
        assert main(["service", "-n", "18", "--adversary", "random"]) == 0
        out = capsys.readouterr().out
        assert "per-message cost" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["fame", "-n", "3"],
            ["groupkey", "-n", "5"],
            ["service", "-n", "5"],
            ["gauntlet", "-n", "3"],
        ],
    )
    def test_unrunnable_shape_exits_2_without_traceback(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {argv[0]}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fame", "-n", "20", "--pairs", "-3"],
            ["gauntlet", "-n", "20", "--pairs", "0"],
            ["sweep", "-n", "18", "--pairs", "-3", "--trials", "2"],
        ],
    )
    def test_non_positive_pairs_exits_2_before_any_trial(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"repro {argv[0]}: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_too_many_channels_exits_2(self, capsys):
        assert main(["fame", "--channels", "257"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro fame: ") and "256" in err
        assert "Traceback" not in err

    def test_montecarlo_defaults(self):
        args = build_parser().parse_args(["montecarlo"])
        assert args.handler is cmd_sweep and args.command == "montecarlo"
        assert args.trials == 100 and args.workers == 1
        assert args.workloads == ["fame"] and args.batch_size is None

    def test_montecarlo_default_trials_are_whp_informative(self):
        from repro.analysis.stats import min_informative_trials

        args = build_parser().parse_args(["montecarlo"])
        assert args.trials >= min_informative_trials(args.nodes[0])

    def test_montecarlo_singular_flags_parse(self):
        args = build_parser().parse_args(
            ["montecarlo", "--workload", "groupkey", "--adversary", "null",
             "--strength", "2"]
        )
        assert args.workloads == ["groupkey"]
        assert args.adversaries == ["null"] and args.strengths == [2]

    def test_montecarlo_reports_json_sweep(self, capsys):
        assert main(
            ["montecarlo", "--trials", "4", "-n", "18", "--seed", "7"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["totals"]["trials"] == 4
        [point] = report["points"]
        assert "wilson_low" in point["success_rate"]
        assert "histogram" in point["disruptability"]
        # 4 trials cannot resolve a 1/18 claim: reported, not confirmed.
        assert point["whp"]["claim_holds"] is None
        assert point["whp"]["informative"] is False

    def test_montecarlo_json_out_writes_file_and_one_line(
        self, capsys, tmp_path
    ):
        assert main(
            ["montecarlo", "--trials", "4", "-n", "18", "--seed", "7"]
        ) == 0
        stdout_report = json.loads(capsys.readouterr().out)
        out = tmp_path / "mc.json"
        assert main(
            ["montecarlo", "--trials", "4", "-n", "18", "--seed", "7",
             "--json-out", str(out)]
        ) == 0
        summary = capsys.readouterr().out
        assert summary.count("\n") == 1  # a single line on stdout
        assert summary.startswith("sweep: 1 points x 4 trials")
        assert "whp uninformative" in summary and str(out) in summary
        text = out.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == stdout_report

    def test_montecarlo_workers_do_not_change_report(self, capsys):
        assert main(
            ["montecarlo", "--trials", "4", "-n", "18", "--seed", "7",
             "--workers", "2"]
        ) == 0
        parallel = capsys.readouterr().out
        assert main(
            ["montecarlo", "--trials", "4", "-n", "18", "--seed", "7"]
        ) == 0
        assert capsys.readouterr().out == parallel

    def test_montecarlo_writes_the_same_bytes_as_sweep(self, tmp_path):
        grid = ["--trials", "4", "-n", "18", "--seed", "7", "--workers", "2",
                "--workload", "fame", "--adversary", "schedule"]
        for command in ("montecarlo", "sweep"):
            assert main(
                [command, *grid, "--json-out", str(tmp_path / command)]
            ) == 0
        assert (tmp_path / "montecarlo").read_bytes() == (
            tmp_path / "sweep"
        ).read_bytes()

    def test_montecarlo_unrunnable_config_exits_2(self, capsys):
        # f-AME needs n >= 17 here; the trial's typed error is a usage
        # error, not exit 1 ("whp claim failed").
        assert main(["montecarlo", "-n", "5", "--trials", "1"]) == 2
        assert "repro montecarlo:" in capsys.readouterr().err


class TestSweepCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.nodes == [20] and args.adversaries == ["schedule"]
        assert args.workers == 1 and not args.no_spawn_workers
        assert args.trials == 100
        assert args.journal is None and not args.resume
        assert args.batch_size is None  # adaptive unless pinned

    def test_backend_follows_workers(self):
        def backend(*argv):
            return _sweep_backend(build_parser().parse_args(["sweep", *argv]))

        assert isinstance(backend(), SerialBackend)
        pool = backend("--workers", "4")
        assert isinstance(pool, SocketBackend) and pool.workers == 4
        assert pool.spawn_workers
        # Listening for remote workers needs the coordinator, even at one.
        remote = backend("--no-spawn-workers", "--bind", "127.0.0.1:7411")
        assert isinstance(remote, SocketBackend) and not remote.spawn_workers
        assert (remote.host, remote.port) == ("127.0.0.1", 7411)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--workers", "0"],
            ["-j", "0"],
            ["--workers", "-2"],
            ["--workers", "0", "--no-spawn-workers"],
        ],
    )
    def test_unrunnable_worker_count_exits_2(self, capsys, argv):
        assert main(["sweep", "-n", "18", "--trials", "1", *argv]) == 2
        assert "workers" in capsys.readouterr().err

    def test_unrunnable_grid_exits_2_at_every_worker_count(self, capsys):
        # The grid is rejected before any backend starts, so forked
        # workers never see it and both runs print the same line.
        errors = []
        for workers in ("1", "2"):
            argv = ["sweep", "--nodes", "5", "--trials", "2"]
            assert main([*argv, "--workers", workers]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0] == (
            "repro sweep: f-AME in regime base with t=1 and proposal size "
            "2 needs n >= 17 (got n=5)\n"
        )

    def test_batch_size_flag_parses(self):
        args = build_parser().parse_args(
            ["sweep", "--workers", "2", "--batch-size", "16"]
        )
        assert args.batch_size == 16

    def test_grid_axes_parse_comma_lists(self):
        args = build_parser().parse_args(
            ["sweep", "--nodes", "18,24", "--adversaries", "null,sweep"]
        )
        assert args.nodes == [18, 24]
        assert args.adversaries == ["null", "sweep"]

    def test_bad_axis_value_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--nodes", "18,x"])

    def test_unknown_adversary_exits_2(self, capsys):
        assert main(["sweep", "--adversaries", "nope", "--trials", "1"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_sweep_reports_grid(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        assert main(
            ["sweep", "--nodes", "18", "--adversaries", "schedule,null",
             "--trials", "2", "--seed", "7", "--pairs", "4",
             "--json-out", str(out)]
        ) == 0
        summary = capsys.readouterr().out
        assert summary.count("\n") == 1 and "sweep:" in summary
        report = json.loads(out.read_text())
        assert report["totals"]["points"] == 2
        assert report["totals"]["trials"] == 4
        assert [p["point_index"] for p in report["points"]] == [0, 1]
        # backend-shape-free report
        assert "workers" not in report["points"][0]

    def test_journal_cut_mid_record_then_resume_matches_uninterrupted(
        self, tmp_path
    ):
        grid = ["sweep", "--nodes", "18", "--trials", "3", "--seed", "7",
                "--pairs", "4"]
        ref = tmp_path / "ref.json"
        journal = tmp_path / "sweep.jsonl"
        assert main(grid + ["--journal", str(journal),
                            "--json-out", str(ref)]) == 0
        # What a kill mid-append leaves: a record and part of the next.
        header, first, second, _ = journal.read_text().splitlines()
        journal.write_text(f"{header}\n{first}\n{second[:40]}")
        resumed = tmp_path / "resumed.json"
        assert main(
            grid + ["--journal", str(journal), "--resume",
                    "--json-out", str(resumed)]
        ) == 0
        assert resumed.read_bytes() == ref.read_bytes()

    def test_existing_journal_without_resume_exits_2(self, capsys, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        grid = ["sweep", "--nodes", "18", "--trials", "1", "--seed", "7",
                "--journal", str(journal)]
        assert main(grid) == 0
        capsys.readouterr()
        assert main(grid) == 2
        assert "--resume" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tamper",
        [
            "tampered-field",
            "other-randomness",
            "journal-version-1",
            "corrupt-interior-line",
        ],
    )
    def test_refused_journal_exits_2_with_one_line(
        self, capsys, tmp_path, tamper
    ):
        grid = ["sweep", "--nodes", "18", "--trials", "3", "--seed", "7",
                "--pairs", "4"]
        journal = tmp_path / "sweep.jsonl"
        assert main(grid + ["--journal", str(journal)]) == 0
        capsys.readouterr()
        header, first, second, _ = journal.read_text().splitlines()
        fields = json.loads(header)
        if tamper == "tampered-field":
            record = json.loads(first)
            record["cover"] = len(record["failed_pairs"]) + 1
            first, named = json.dumps(record), "line 2 record.cover"
        elif tamper == "other-randomness":
            fields["randomness"], named = 1, "randomness version 1"
        elif tamper == "journal-version-1":
            fields["journal_version"], named = 1, "is version 1"
        else:
            first, named = first[:-5], "line 2 is corrupt"
        journal.write_text(
            "\n".join([json.dumps(fields), first, second]) + "\n"
        )
        assert main(grid + ["--journal", str(journal), "--resume"]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("repro sweep: journal ") and named in line

    def test_resume_without_journal_exits_2_before_any_trial(
        self, capsys, monkeypatch, tmp_path
    ):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(SerialBackend, "_execute", no_trials)
        out = tmp_path / "sweep.json"
        argv = ["sweep", "--nodes", "18", "--trials", "1", "--resume",
                "--json-out", str(out)]
        assert main(argv) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == "repro sweep: resume needs a journal_path to replay"
        assert not out.exists()

    def test_progress_lines_on_stderr(self, capsys, tmp_path):
        assert main(
            ["sweep", "--nodes", "18", "--trials", "2", "--seed", "7",
             "--progress", "--json-out", str(tmp_path / "s.json")]
        ) == 0
        err = capsys.readouterr().err
        assert "point 1/1" in err


class TestWorkerCommand:
    def test_connect_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])

    def test_unreachable_coordinator_exits_1(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(
            ["worker", "--connect", f"127.0.0.1:{port}",
             "--retry-seconds", "0.2"]
        ) == 1

    def test_malformed_endpoint_exits_2(self, capsys):
        assert main(["worker", "--connect", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err


class _NoSockets:
    """Stands in for the transport's ``socket`` module: a refused flag
    exits before any socket opens (the parent bound or dialed with these
    values, and a NaN or infinite one never stopped)."""

    def __getattr__(self, name):
        raise AssertionError(f"socket.{name} reached")


@pytest.mark.parametrize(
    "argv",
    [
        ["worker", "--retry-seconds", "nan"],
        ["worker", "--retry-seconds", "inf"],
        ["worker", "--retry-seconds", "-1"],
        ["serve", "--idle-timeout", "nan"],
        ["serve", "--idle-timeout", "inf"],
        ["serve", "--idle-timeout", "0"],
        ["serve", "--idle-timeout", "-1"],
        ["serve", "--max-sessions", "0"],
    ],
    ids=" ".join,
)
def test_flag_that_spins_or_refuses_everything_exits_2(
    argv, capsys, monkeypatch
):
    from repro.dispatch import socket_pool

    monkeypatch.setattr(socket_pool, "socket", _NoSockets())
    flag = "--connect" if argv[0] == "worker" else "--bind"
    assert main([*argv, flag, "127.0.0.1:9"]) == 2
    [line] = capsys.readouterr().err.splitlines()
    named = argv[1].lstrip("-").replace("-", "_")
    assert line.startswith(f"repro {argv[0]}: {named} must be ")


@pytest.mark.parametrize("port", ["99999", "-5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--workers", "2", "--bind"],
        ["serve", "--bind"],
        ["worker", "--connect"],
        ["serve-client", "list", "--connect"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_of_range_port_exits_2(argv, port, capsys):
    assert main([*argv, f"127.0.0.1:{port}"]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"repro {argv[0]}: endpoint '127.0.0.1:{port}' has a port "
        "outside 0-65535\n"
    )


@pytest.fixture
def busy_listener():
    """A listening socket: its port is in use until it closes."""
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        yield listener


def _no_forks(*_args):
    raise AssertionError("a worker forked before the bind was checked")


@pytest.mark.parametrize("host", ["busy", "unresolvable"])
@pytest.mark.parametrize(
    "argv",
    [["sweep", "--workers", "2", "--bind"], ["serve", "--bind"]],
    ids=lambda argv: argv[0],
)
def test_unbindable_endpoint_exits_2(
    argv, host, busy_listener, capsys, monkeypatch
):
    monkeypatch.setattr(SocketBackend, "_spawn", _no_forks)
    port = busy_listener.getsockname()[1]
    endpoint = f"127.0.0.1:{port}" if host == "busy" else "256.1.1.1:0"
    assert main([*argv, endpoint]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"repro {argv[0]}: cannot bind {endpoint}: ")


def test_unbindable_sweep_resumes_from_its_journal(
    busy_listener, tmp_path, capsys
):
    """The journal header is written before the bind fails, so the same
    command with ``--resume`` runs once the port is free."""
    port = busy_listener.getsockname()[1]
    argv = [
        "sweep", "--nodes", "18", "--trials", "2", "--seed", "7",
        "--pairs", "4", "--workers", "2", "--bind", f"127.0.0.1:{port}",
        "--journal", str(tmp_path / "sweep.jsonl"),
        "--json-out", str(tmp_path / "socket.json"),
    ]
    assert main(argv) == 2
    busy_listener.close()
    assert main([*argv, "--resume"]) == 0
    assert main(
        ["sweep", "--nodes", "18", "--trials", "2", "--seed", "7",
         "--pairs", "4", "--json-out", str(tmp_path / "serial.json")]
    ) == 0
    assert (tmp_path / "socket.json").read_bytes() == (
        tmp_path / "serial.json"
    ).read_bytes()


class TestLintCommand:
    """Exit-code contract of ``python -m repro lint`` (0 / 1 / 2)."""

    def write(self, tmp_path, name, source):
        path = tmp_path / name
        path.write_text(source, encoding="utf-8")
        return path

    def test_clean_tree_exits_0(self, tmp_path, capsys):
        self.write(tmp_path, "ok.py", "VALUE = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_seeded_violation_exits_1(self, tmp_path, capsys):
        # The permanent stand-in for the "CI goes red on a violation"
        # demonstration: a synthetic DET001 file must fail the run.
        self.write(
            tmp_path, "bad.py", "import random\nx = random.random()\n"
        )
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "bad.py:2:" in out

    def test_unknown_path_exits_2(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "missing")]) == 2
        assert "repro lint:" in capsys.readouterr().err

    def test_json_out_written_even_on_findings(self, tmp_path):
        bad = self.write(
            tmp_path, "bad.py", "import random\nx = random.random()\n"
        )
        out_path = tmp_path / "report.json"
        assert (
            main(["lint", str(bad), "--json-out", str(out_path)]) == 1
        )
        document = json.loads(out_path.read_text(encoding="utf-8"))
        assert document["clean"] is False
        assert document["findings"][0]["rule"] == "DET001"

    def test_list_rules_exits_0(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DET001" in out and "WIRE001" in out
        assert "allowlisted: repro.rng" in out
