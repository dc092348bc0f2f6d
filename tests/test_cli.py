"""Tests for the command-line interface."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def _children_of(pid: int) -> dict:
    """``{pid: command line}`` of ``pid``'s child processes, read from
    /proc."""
    found = {}
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except (OSError, ValueError, IndexError):
            continue
        if ppid == pid:
            found[int(entry)] = cmdline
    return found


def _workers_of(pid: int) -> list:
    """The pids of ``pid``'s worker processes (its children but the
    multiprocessing resource tracker)."""
    return [
        child for child, cmdline in _children_of(pid).items()
        if b"resource_tracker" not in cmdline
    ]


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_flow_defaults(self):
        args = build_parser().parse_args(["flow", "n100"])
        assert args.benchmark == "n100"
        assert args.mode == "power_aware"
        assert args.iterations == 1500

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["flow", "n9999"])

    def test_sweep_is_not_a_command(self, capsys):
        """``sweep`` was ``batch --seeds N -j 1`` without the store; it
        is gone, and ``batch`` covers it."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "n100", "--runs", "3"])
        assert "invalid choice: 'sweep'" in capsys.readouterr().err
        args = build_parser().parse_args(["batch", "n100", "--seeds", "3", "-j", "1"])
        assert args.seeds == 3 and args.processes == 1

    def test_enqueue_requires_queue_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["enqueue", "n100"])
        args = build_parser().parse_args(
            ["enqueue", "n100", "--queue-dir", "/tmp/q", "--seeds", "4"]
        )
        assert args.queue_dir == "/tmp/q"
        assert args.seeds == 4
        assert args.modes == ["power_aware", "tsc_aware"]

    def test_work_defaults(self):
        args = build_parser().parse_args(["work", "--queue-dir", "/tmp/q"])
        assert args.workers == 1
        assert args.lease_ttl == pytest.approx(300.0)
        assert args.max_jobs is None

    def test_sweep_status_flags(self):
        args = build_parser().parse_args(
            ["sweep-status", "--queue-dir", "/tmp/q", "--merge"]
        )
        assert args.merge is True
        assert args.json is False

    def test_work_watch_flag(self):
        args = build_parser().parse_args(
            ["work", "--queue-dir", "/tmp/q", "--watch"]
        )
        assert args.watch is True

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.workers == 2
        assert args.store is None
        assert args.queue_threshold is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_serve_workers_mark_the_process_as_a_pool(self, monkeypatch, workers):
        """Concurrent inline jobs share this process's cores, so with more
        than one worker thread nested parallelism stays serial."""
        import repro.service
        from repro.core.parallel import IN_POOL_ENV, fanout_cores

        # restored on teardown, whatever the command sets
        monkeypatch.delenv(IN_POOL_ENV, raising=False)
        before = fanout_cores()
        seen = []

        def fake_run(state, host, port):
            seen.append(fanout_cores())
            state._executor.shutdown()
            return 0

        monkeypatch.setattr(repro.service, "run", fake_run)
        assert main(["serve", "--workers", str(workers)]) == 0
        assert seen == [1 if workers > 1 else before]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["work", "--lease-ttl", "0"], "lease_ttl must be positive"),
            (["work", "--backoff", "-1"], "retry_backoff must be >= 0"),
            (["sweep-status", "--lease-ttl", "-1"], "lease_ttl must be positive"),
        ],
    )
    def test_invalid_queue_settings_print_an_error(self, tmp_path, argv, message):
        """A queue setting WorkQueue refuses ends the command with an
        ``error:`` line, not a ValueError traceback."""
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + ["--queue-dir", str(tmp_path / "q")] + argv[1:])
        assert exc.value.code == f"error: {message}"

    def test_serve_threshold_without_queue_dir_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--queue-threshold", "100"])

    @pytest.mark.parametrize("command", [["flow", "n100"], ["explore"]])
    def test_no_incremental_flag_is_gone(self, command):
        # refactorizing each candidate is the default; the flag that
        # selected it was removed
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--no-incremental"])

    @pytest.mark.parametrize("command", [
        ["batch", "n100"], ["work", "--queue-dir", "/tmp/q"],
    ])
    def test_cache_dir_flag_is_gone(self, command, capsys):
        # workers reuse calibrated fast models in memory; nothing to point
        # at a directory
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(command + ["--cache-dir", "X"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["cholmod", "compiled_triangular", "multigrid"])
    def test_removed_thermal_backends_rejected(self, backend, capsys):
        """The size rule alone picks the thermal solver: the flag is an
        unrecognized argument on every subcommand that once took it."""
        for command in (
            ["flow", "n100"], ["batch", "n100"], ["enqueue", "n100", "--queue-dir", "q"],
            ["work", "--queue-dir", "q"], ["serve"], ["explore"],
        ):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(command + ["--thermal-backend", backend])
            assert exc.value.code == 2
            assert "unrecognized arguments: --thermal-backend" in capsys.readouterr().err

    def test_old_jobspec_with_incremental_still_parses(self):
        from repro.api import JobSpec
        from repro.core.schema import SchemaWarning

        doc = dict(JobSpec(benchmark="n100").to_json(), incremental=False)
        with pytest.warns(SchemaWarning, match="incremental"):
            assert JobSpec.from_json(doc) == JobSpec(benchmark="n100")


class TestCommands:
    def test_benchmarks_listing(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        for name in ("n100", "ibm07"):
            assert name in out

    def test_explore_small(self, capsys):
        assert main(["explore", "--grid", "12"]) == 0
        out = capsys.readouterr().out
        assert "globally_uniform" in out
        assert "findings:" in out

    def test_flow_small(self, capsys):
        assert main([
            "flow", "n100", "--iterations", "60", "--grid", "16", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "r1=" in out and "power=" in out

    def test_flow_tsc_prints_candidates_scored(self, monkeypatch, capsys):
        """The mitigation line counts the candidates the loop scored, and
        its rounds, as the run's own report states them."""
        from dataclasses import replace

        from repro.core import flow

        insert = flow.insert_dummy_tsvs
        reports = []

        def short_insertion(floorplan, config, *args, **kwargs):
            config = replace(config, samples=8, max_rounds=2)
            reports.append(insert(floorplan, config, *args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(flow, "insert_dummy_tsvs", short_insertion)
        assert main([
            "flow", "n100", "--mode", "tsc_aware", "--iterations", "60",
            "--grid", "16", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        (report,) = reports
        scored = report.woodbury_candidates + report.refactorized_candidates
        assert scored >= report.rounds >= 1
        assert (
            f"mitigation: {scored} candidates scored over {report.rounds} round(s)"
            in out
        )
        assert "factorized" not in out


class TestQueueCommands:
    def test_enqueue_work_status_round_trip(self, tmp_path, capsys, monkeypatch):
        """The multi-host verbs end-to-end on one tiny sweep.  The
        in-process worker counts as a pool worker only while it runs: the
        environment it returns to is the one it was called from."""
        from repro.core.parallel import IN_POOL_ENV

        monkeypatch.delenv(IN_POOL_ENV, raising=False)
        qdir = str(tmp_path / "q")
        argv = ["enqueue", "n100", "--modes", "power_aware", "--seeds", "1",
                "--iterations", "25", "--grid", "12", "--queue-dir", qdir]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "enqueued 1 new jobs" in out
        # enqueue is idempotent
        assert main(argv) == 0
        assert "enqueued 0 new jobs" in capsys.readouterr().out

        assert main(["sweep-status", "--queue-dir", qdir]) == 0
        out = capsys.readouterr().out
        assert "1 jobs" in out and "pending 1" in out

        before = dict(os.environ)
        assert main(["work", "--queue-dir", qdir]) == 0
        assert dict(os.environ) == before
        out = capsys.readouterr().out
        assert "completed 1 job(s)" in out

        assert main(["sweep-status", "--queue-dir", qdir, "--merge"]) == 0
        out = capsys.readouterr().out
        assert "completed 1" in out and "pending 0" in out

        from repro.core.store import ResultsStore

        merged = ResultsStore(qdir).completed()
        assert len(merged) == 1
        (metrics,) = merged.values()
        assert metrics.benchmark == "n100"

    def test_watch_pool_stops_at_max_jobs(self, tmp_path, capsys):
        """Two watch workers capped at one job each drain a two-job queue
        in child processes and then exit."""
        qdir = str(tmp_path / "q")
        assert main(["enqueue", "n100", "--modes", "power_aware", "--seeds", "2",
                     "--iterations", "25", "--grid", "12", "--queue-dir", qdir]) == 0
        assert main(["work", "--queue-dir", qdir, "--workers", "2", "--watch",
                     "--max-jobs", "1"]) == 0
        assert "watched queue now: 2/2 completed" in capsys.readouterr().out

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="lists children via /proc")
    def test_interrupting_the_watch_parent_alone_stops_its_workers(self, tmp_path):
        """SIGINT to the parent of a two-worker watch pool, and to no
        worker, still leaves no worker running once the parent exits."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "work", "--queue-dir",
             str(tmp_path / "q"), "--workers", "2", "--watch"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            # a shell starts background jobs with SIGINT ignored; restore
            # the default a terminal's Ctrl-C meets
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
            # a process group of its own, so a failing run is cleaned up
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while len(workers := _workers_of(proc.pid)) < 2:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.1)
            time.sleep(2.0)  # let the workers reach their polling loop
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=60)
            survivors = [pid for pid in workers if _running(pid)]
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # nothing left to clean up
            proc.wait()
        assert proc.returncode == 0, out
        assert b"stopping workers" in out
        assert not survivors

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="lists children via /proc")
    def test_terminating_the_watch_parent_stops_its_workers(self, tmp_path):
        """SIGTERM to the parent of a two-worker watch pool, and to no
        worker, takes the Ctrl-C path: within seconds neither worker nor
        the resource tracker is left running."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "work", "--queue-dir",
             str(tmp_path / "q"), "--workers", "2", "--watch"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while len(_workers_of(proc.pid)) < 2:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.1)
            time.sleep(2.0)  # let the workers reach their polling loop
            children = list(_children_of(proc.pid))
            proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 10
            while (survivors := [pid for pid in children if _running(pid)]):
                if time.monotonic() > deadline:
                    os.killpg(proc.pid, signal.SIGKILL)  # they hold its stdout
                    break
                time.sleep(0.1)
            out, _ = proc.communicate(timeout=60)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # nothing left to clean up
            proc.wait()
        assert not survivors, out
        assert proc.returncode == 0, out
        assert b"stopping workers" in out

    def test_work_on_empty_queue_errors(self, tmp_path, capsys):
        assert main(["work", "--queue-dir", str(tmp_path / "empty")]) == 1
        assert "is empty" in capsys.readouterr().out

    def test_enqueue_rejects_zero_seeds(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["enqueue", "n100", "--seeds", "0",
                  "--queue-dir", str(tmp_path)])

    def test_enqueue_rejects_bad_iterations(self, tmp_path):
        # validation now happens at JobSpec construction, before any
        # queue file is written
        with pytest.raises(SystemExit, match="iterations"):
            main(["enqueue", "n100", "--iterations", "0",
                  "--queue-dir", str(tmp_path)])

    def test_runtime_mitigation_pairs_with_tsc_mode_only(self, capsys):
        """The batch/enqueue grid pairs dvfs and combined with tsc_aware
        alone (only the TSC flow runs mitigation) and says so."""
        from repro.cli import _build_jobs

        args = build_parser().parse_args(
            ["batch", "n100", "--seeds", "2",
             "--mitigation-modes", "static", "dvfs", "combined"]
        )
        jobs = _build_jobs(args)
        assert "run only with tsc_aware" in capsys.readouterr().out
        pairs = sorted({(job.mode, job.mitigation_mode) for job in jobs})
        assert pairs == [
            ("power_aware", "static"),
            ("tsc_aware", "combined"),
            ("tsc_aware", "dvfs"),
            ("tsc_aware", "static"),
        ]
        assert len(jobs) == 4 * 2
        args = build_parser().parse_args(
            ["batch", "n100", "--modes", "tsc_aware", "--mitigation-modes", "dvfs"]
        )
        assert [job.mitigation_mode for job in _build_jobs(args)] == ["dvfs", "dvfs"]
        assert "note" not in capsys.readouterr().out
        args = build_parser().parse_args(
            ["batch", "n100", "--modes", "power_aware", "--mitigation-modes", "dvfs"]
        )
        with pytest.raises(SystemExit, match="need --modes tsc_aware"):
            _build_jobs(args)

    @pytest.mark.parametrize("mode", ["power_aware", "tsc_aware"])
    @pytest.mark.parametrize("mitigation_mode", ["static", "dvfs", "combined"])
    def test_grid_keeps_exactly_the_pairs_a_flow_accepts(self, mode, mitigation_mode):
        """``_build_jobs`` keeps a (mode, mitigation mode) pair exactly
        when ``FlowConfig`` accepts it."""
        from repro.cli import _build_jobs
        from repro.core.config import FlowConfig
        from repro.mitigation.dummy_tsv import MitigationConfig

        try:
            FlowConfig(mode=mode, mitigation=MitigationConfig(mode=mitigation_mode))
            accepted = True
        except ValueError:
            accepted = False
        args = build_parser().parse_args(
            ["batch", "n100", "--seeds", "1", "--modes", mode,
             "--mitigation-modes", mitigation_mode]
        )
        try:
            kept = [(job.mode, job.mitigation_mode) for job in _build_jobs(args)]
        except SystemExit:
            kept = []
        assert kept == ([(mode, mitigation_mode)] if accepted else [])

    def test_flow_rejects_runtime_mitigation_outside_tsc_mode(self):
        with pytest.raises(SystemExit, match="needs mode 'tsc_aware'"):
            main(["flow", "n100", "--mitigation-mode", "dvfs", "--iterations", "5"])

    def test_sweep_status_lists_stored_degradations(self, tmp_path, capsys):
        """A degradation counted in a stored record shows in the text
        status report."""
        import dataclasses

        from test_store import _metrics

        from repro.core.store import ResultsStore

        qdir = tmp_path / "q"
        metrics = dataclasses.replace(
            _metrics(), degradations={"spectral.no_convergence": 1}
        )
        ResultsStore(qdir).append("n100|power_aware|seed0", metrics)
        main(["sweep-status", "--queue-dir", str(qdir)])
        out = capsys.readouterr().out
        assert "degradations survived" in out
        assert "spectral.no_convergence" in out

    def test_sweep_status_json_document(self, tmp_path, capsys):
        """--json prints the GET /v1/queue/status payload; a healthy —
        even empty — queue exits 0."""
        import json

        qdir = str(tmp_path / "q")
        assert main(["sweep-status", "--queue-dir", qdir, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == 0
        assert doc["healthy"] is True

        assert main(["enqueue", "n100", "--modes", "power_aware",
                     "--seeds", "1", "--iterations", "25", "--grid", "12",
                     "--queue-dir", qdir]) == 0
        capsys.readouterr()
        assert main(["sweep-status", "--queue-dir", qdir, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pending"] == 1 and doc["completed"] == 0
        from repro.api import queue_status

        assert doc == json.loads(json.dumps(queue_status(qdir)))
