"""End-to-end command-line checks: config validation and exit codes, output
determinism, and agreement between the CLI's emitted numbers and the library
calls they wrap. All invocations run in-process through cli.main."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dropsim as ds
from dropsim import cli, simulate
from dropsim.threshold import write_curve_csv


def _write_json(path, doc):
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def _sim_config(workers=4, base=1.0, noise=None, m=3, tau=1.5, iterations=50,
                t_comm=0.2, seed=0, **extra):
    doc = {
        "fleet": {
            "workers": workers,
            "base_mean": base,
            "noise": noise or {"kind": "normal", "loc": 0.0, "std": 0.1},
        },
        "m_per_step": m,
        "t_comm": t_comm,
        "iterations": iterations,
        "seed": seed,
    }
    if tau is not None:
        doc["tau"] = tau
    doc.update(extra)
    return doc


class TestSimulate:
    def test_minimal_noiseless_unity(self, tmp_path, capsys):
        cfg = _write_json(tmp_path / "c.json", {
            "fleet": {"workers": 1, "base_mean": 1.0, "noise": {"kind": "none"}},
            "m_per_step": 1,
        })
        rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["s_eff"] == 1.0
        assert summary["drop_rate"] == 0.0
        assert "s_eff 1.0000" in capsys.readouterr().out

    def test_seed_flag_byte_identical(self, tmp_path):
        cfg = _write_json(tmp_path / "c.json", _sim_config())
        for name in ("a", "b"):
            rc = cli.main(["simulate", "--config", cfg, "--seed", "42",
                           "--out", str(tmp_path / name)])
            assert rc == 0
        for fname in ("records.csv", "summary.json"):
            assert (tmp_path / "a" / fname).read_bytes() == \
                (tmp_path / "b" / fname).read_bytes()

    def test_seed_flag_changes_draws(self, tmp_path):
        cfg = _write_json(tmp_path / "c.json", _sim_config())
        cli.main(["simulate", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "a")])
        cli.main(["simulate", "--config", cfg, "--seed", "2", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "records.csv").read_bytes() != \
            (tmp_path / "b" / "records.csv").read_bytes()

    def test_records_csv_stamp_and_header(self, tmp_path):
        doc = _sim_config(iterations=4)
        cfg = _write_json(tmp_path / "c.json", doc)
        cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        lines = (tmp_path / "o" / "records.csv").read_text().splitlines()
        assert lines[0] == f"# config_hash={cli._config_hash(doc)} version={ds.__version__}"
        assert lines[1] == "iteration,worker,T_n,stop_time,completed"
        assert len(lines) == 2 + 4 * 4  # one row per worker-iteration

    def test_auto_tau_matches_library_pipeline(self, tmp_path):
        doc = _sim_config(tau="auto", warmup_iterations=40, iterations=30, seed=5)
        cfg = _write_json(tmp_path / "c.json", doc)
        rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        fleet = ds.FleetSpec.homogeneous(
            4, ds.WorkerLatencyModel(1.0, ds.NormalNoise(0.0, 0.1)))
        # The documented warmup stream of auto_tau, apart from the measured
        # run's RngStream(5, 0).
        warm = ds.run_detailed(ds.SimConfig(fleet, 3, 0.2, None, 40, 5),
                               rng=ds.RngStream(5, simulate.AUTO_TAU_STREAM))
        tau = ds.select_threshold(ds.TraceTensor(warm.trace, warm.comm_times)).tau_star
        assert summary["tau"] == tau
        assert tau == simulate.auto_tau(ds.SimConfig(fleet, 3, 0.2, None, 30, 5), 40)

    def test_auto_tau_is_not_scored_on_its_warmup(self, tmp_path):
        # tau* used to be fitted on the measured run's own first iterations.
        doc = _sim_config(tau="auto", warmup_iterations=40, iterations=30, seed=5)
        cfg = _write_json(tmp_path / "c.json", doc)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        measured = np.loadtxt(tmp_path / "o" / "records.csv", delimiter=",",
                              skiprows=2)[:, 2]
        fleet = ds.FleetSpec.homogeneous(
            4, ds.WorkerLatencyModel(1.0, ds.NormalNoise(0.0, 0.1)))
        warm = ds.run_detailed(ds.SimConfig(fleet, 3, 0.2, None, 40, 5),
                               rng=ds.RngStream(5, simulate.AUTO_TAU_STREAM))
        warm_t = warm.records.compute_times.ravel()
        assert measured.size == 30 * 4 and warm_t.size == 40 * 4
        assert not np.isin(measured, warm_t).any()

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = _write_json(tmp_path / "c.json", _sim_config(bogus=1))
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown key(s) ['bogus']" in capsys.readouterr().err

    def test_missing_key_exits_2(self, tmp_path, capsys):
        cfg = _write_json(tmp_path / "c.json", {"m_per_step": 1})
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "missing required key(s) ['fleet']" in capsys.readouterr().err

    def test_malformed_json_exits_2_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "fleet": {,}\n}\n')
        assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:2:13:" in err

    @pytest.mark.parametrize("extra, message", [
        ({"tau": "auto", "warmup_iterations": "x"}, "warmup_iterations must be"),
        ({"tau": "auto", "warmup_iterations": 0}, "warmup_iterations must be"),
        ({"tau": "abc"}, "tau must be"),
        ({"tau": -1.0}, "tau must be"),
        ({"tau": [1.0]}, "tau must be"),
    ])
    def test_bad_tau_or_warmup_exits_2(self, tmp_path, capsys, extra, message):
        doc = _sim_config(**{"tau": None, **extra})
        cfg = _write_json(tmp_path / "c.json", doc)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [True]])
    def test_non_bool_boundary_flag_exits_2(self, tmp_path, capsys, value):
        doc = _sim_config(stop_at_accumulation_boundary=value)
        cfg = _write_json(tmp_path / "c.json", doc)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "stop_at_accumulation_boundary must be true or false" in \
            capsys.readouterr().err

    def test_boundary_flag_booleans_pick_the_stop(self, tmp_path):
        # One worker, three 0.45 s micro-batches, tau 1.0: without boundary
        # mode the worker stops at tau, with it at the last finished batch.
        stops = {}
        for flag in (False, True):
            doc = _sim_config(workers=1, base=0.45, noise={"kind": "none"},
                              tau=1.0, iterations=1, t_comm=0.0,
                              stop_at_accumulation_boundary=flag)
            cfg = _write_json(tmp_path / f"{flag}.json", doc)
            assert cli.main(["simulate", "--config", cfg,
                             "--out", str(tmp_path / str(flag))]) == 0
            stops[flag] = json.loads((tmp_path / str(flag) / "summary.json")
                                     .read_text())["mean_step_drop"]
        assert stops == {False: 1.0, True: 0.9}

    def test_nothing_completing_reports_zero_throughput(self, tmp_path, capsys):
        # Boundary mode, T_c = 0, and every 1 s micro-batch ends past tau:
        # no worker counts one, so every step takes no time and does no work.
        doc = _sim_config(noise={"kind": "none"}, tau=0.5, t_comm=0.0, iterations=5,
                          stop_at_accumulation_boundary=True)
        cfg = _write_json(tmp_path / "c.json", doc)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert [summary[k] for k in ("mean_completed", "mean_step_drop", "s_eff",
                                     "throughput", "throughput_base")] == \
            [0.0, 0.0, 0.0, 0.0, 4.0]
        assert "s_eff 0.0000" in capsys.readouterr().out

    def test_unknown_noise_kind_exits_2(self, tmp_path, capsys):
        cfg = _write_json(tmp_path / "c.json",
                          _sim_config(noise={"kind": "cauchy"}))
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown noise kind 'cauchy'" in capsys.readouterr().err


class TestLocalSgdMode:
    def test_mode_flag_runs_and_reports(self, tmp_path, capsys):
        doc = _sim_config(workers=8, base=0.1, noise={"kind": "none"}, m=1,
                          tau=None, iterations=400,
                          local_sgd={"sync_period": 4, "straggler_prob": 0.04,
                                     "straggler_delay": 1.0, "server_size": 8})
        cfg = _write_json(tmp_path / "c.json", doc)
        rc = cli.main(["simulate", "--config", cfg, "--mode", "local-sgd",
                       "--seed", "3", "--out", str(tmp_path / "o")])
        assert rc == 0
        rep = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert rep["mode"] == "local-sgd"
        assert rep["local_sgd_speedup"] > 1.0
        assert rep["dropcompute_speedup"] > 1.0
        assert rep["tau"] > 0.0
        assert "local-sgd speedup" in capsys.readouterr().out

    @pytest.mark.parametrize("tau", [-1.0, 0, "0.5", "abc", True, [1.0]])
    def test_bad_threshold_exits_2(self, tmp_path, capsys, tau):
        doc = _sim_config(workers=8, base=0.1, noise={"kind": "none"}, m=1,
                          tau=None, iterations=200,
                          local_sgd={"sync_period": 2, "tau": tau})
        cfg = _write_json(tmp_path / "c.json", doc)
        assert cli.main(["simulate", "--config", cfg, "--mode", "local-sgd",
                         "--out", str(tmp_path / "o")]) == 2
        assert "tau must be None or a number > 0" in capsys.readouterr().err
        assert not (tmp_path / "o" / "summary.json").exists()

    @pytest.mark.parametrize("iterations", [-5, 3])
    def test_fewer_iterations_than_a_sync_period_exits_2(self, tmp_path, capsys, iterations):
        doc = _sim_config(workers=8, base=0.1, noise={"kind": "none"}, m=1,
                          tau=None, iterations=iterations, local_sgd={"sync_period": 4})
        cfg = _write_json(tmp_path / "c.json", doc)
        assert cli.main(["simulate", "--config", cfg, "--mode", "local-sgd",
                         "--out", str(tmp_path / "o")]) == 2
        assert "invalid local_sgd config: iterations must cover at least one sync period" \
            in capsys.readouterr().err
        assert not (tmp_path / "o" / "summary.json").exists()

    def test_synchronous_fields_are_optional_and_ignored(self, tmp_path):
        bare = {"fleet": {"workers": 8, "base_mean": 0.1, "noise": {"kind": "none"}},
                "iterations": 200, "local_sgd": {"sync_period": 2}}
        full = {**bare, "m_per_step": 64, "t_comm": 5.0, "tau": 0.001,
                "warmup_iterations": 3, "stop_at_accumulation_boundary": True}
        for name, doc in (("bare", bare), ("full", full)):
            cfg = _write_json(tmp_path / f"{name}.json", doc)
            assert cli.main(["simulate", "--config", cfg, "--mode", "local-sgd",
                             "--out", str(tmp_path / name)]) == 0
        reports = [json.loads((tmp_path / name / "summary.json").read_text())
                   for name in ("bare", "full")]
        for rep in reports:
            del rep["config_hash"]
        assert reports[0] == reports[1]

    def test_determinism(self, tmp_path):
        doc = _sim_config(workers=8, base=0.1, noise={"kind": "none"}, m=1,
                          tau=None, iterations=200, local_sgd={"sync_period": 2})
        cfg = _write_json(tmp_path / "c.json", doc)
        for name in ("a", "b"):
            cli.main(["simulate", "--config", cfg, "--mode", "local-sgd",
                      "--seed", "7", "--out", str(tmp_path / name)])
        assert (tmp_path / "a" / "summary.json").read_bytes() == \
            (tmp_path / "b" / "summary.json").read_bytes()


class TestSelectThreshold:
    def _write_trace(self, tmp_path, tensor, comm=None):
        trace_path = tmp_path / "trace.csv"
        ds.write_trace_csv(str(trace_path), np.asarray(tensor, dtype=float))
        comm_path = None
        if comm is not None:
            comm_path = tmp_path / "comm.csv"
            ds.write_comm_csv(str(comm_path), np.asarray(comm, dtype=float))
        return trace_path, comm_path

    def test_constant_trace_anchor(self, tmp_path, capsys):
        tensor = np.full((4, 2, 3), 0.5)
        trace, comm = self._write_trace(tmp_path, tensor, np.full(4, 0.2))
        rc = cli.main(["select-threshold", "--trace", str(trace),
                       "--comm", str(comm), "--out", str(tmp_path / "o")])
        assert rc == 0
        out = capsys.readouterr().out.split()
        tau_star, s_eff = float(out[1]), float(out[3])
        assert tau_star > 1.5  # past the full accumulation time
        assert s_eff == 1.0

    def test_straggler_fixture_matches_library(self, tmp_path, capsys):
        gen = ds.RngStream(13).generator()
        tensor = np.abs(gen.normal(0.45, 0.05, (30, 6, 4))) + 1e-3
        tensor[:, 0, :] *= 2.0  # one persistently slow worker
        comm = np.full(30, 0.3)
        trace, comm_path = self._write_trace(tmp_path, tensor, comm)
        rc = cli.main(["select-threshold", "--trace", str(trace),
                       "--comm", str(comm_path), "--out", str(tmp_path / "o")])
        assert rc == 0
        oracle = ds.select_threshold(ds.TraceTensor(tensor, comm))
        out = capsys.readouterr().out.split()
        assert float(out[1]) == oracle.tau_star
        assert float(out[3]) == pytest.approx(oracle.s_eff_at_tau_star(), abs=1e-6)
        assert oracle.s_eff_at_tau_star() > 1.0
        lines = (tmp_path / "o" / "curve.csv").read_text().splitlines()
        assert lines[1] == "tau,s_eff,drop_rate,step_speedup"
        library = tmp_path / "library.csv"
        write_curve_csv(library, oracle, f"trace=trace.csv version={ds.__version__}")
        assert (tmp_path / "o" / "curve.csv").read_bytes() == library.read_bytes()

    def test_trace_written_at_twice_the_times_doubles_tau_star(self, tmp_path, capsys):
        gen = ds.RngStream(21).generator()
        tensor = gen.lognormal(-2.0, 0.5, (40, 8, 4))
        tensor[:, 3, :] *= 3.0
        comm = gen.uniform(0.1, 0.3, 40)
        tau = []
        for scale in (1.0, 2.0):
            (tmp_path / str(scale)).mkdir()
            trace, comm_path = self._write_trace(tmp_path / str(scale), tensor * scale,
                                                 comm * scale)
            assert cli.main(["select-threshold", "--trace", str(trace), "--comm",
                             str(comm_path), "--out", str(tmp_path / str(scale) / "o")]) == 0
            tau.append(capsys.readouterr().out.split()[1])
        assert tau[1] == repr(2.0 * float(tau[0]))

    def test_missing_comm_warns_and_defaults(self, tmp_path, capsys):
        # Rows of 300 cells, longer than the default grid of at most 257 points.
        tensor = ds.RngStream(5).generator().lognormal(-2.0, 0.5, (3, 60, 5))
        trace, _ = self._write_trace(tmp_path, tensor)
        rc = cli.main(["select-threshold", "--trace", str(trace),
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        captured = capsys.readouterr()
        assert "assuming T_c = 0" in captured.err
        library = tmp_path / "library.csv"
        write_curve_csv(library, ds.select_threshold(ds.TraceTensor(tensor)),
                        f"trace=trace.csv version={ds.__version__}")
        assert (tmp_path / "o" / "curve.csv").read_bytes() == library.read_bytes()

    # Grids with fewer and with more points than a row's 100 cells.
    @pytest.mark.parametrize("points", [3, 400])
    def test_grid_file_matches_library(self, tmp_path, capsys, points):
        gen = ds.RngStream(8).generator()
        tensor = gen.lognormal(-2.0, 0.5, (3, 20, 5))
        comm = gen.uniform(0.1, 0.3, 3)
        trace, comm_path = self._write_trace(tmp_path, tensor, comm)
        grid = gen.uniform(0.05, 1.5, points)
        grid_path = tmp_path / "grid.txt"
        grid_path.write_text("".join(f"{v!r}\n" for v in grid.tolist()))
        rc = cli.main(["select-threshold", "--trace", str(trace), "--comm", str(comm_path),
                       "--grid", str(grid_path), "--out", str(tmp_path / "o")])
        assert rc == 0
        library = tmp_path / "library.csv"
        write_curve_csv(library, ds.select_threshold(ds.TraceTensor(tensor, comm), grid),
                        f"trace=trace.csv version={ds.__version__}")
        assert (tmp_path / "o" / "curve.csv").read_bytes() == library.read_bytes()

    def test_comm_length_mismatch_exits_2(self, tmp_path, capsys):
        tensor = np.full((3, 2, 2), 0.4)
        trace, comm = self._write_trace(tmp_path, tensor, np.full(5, 0.2))
        rc = cli.main(["select-threshold", "--trace", str(trace),
                       "--comm", str(comm), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {comm}: 5 iterations, the trace has 3\n"

    def test_comm_length_mismatch_names_the_file(self, tmp_path, capsys, monkeypatch):
        trace, _ = self._write_trace(tmp_path, np.full((1, 2, 2), 0.4))
        ds.write_comm_csv(str(tmp_path / "c3.csv"), np.full(2, 0.2))
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["select-threshold", "--trace", "trace.csv", "--comm", "c3.csv",
                       "--out", "o"])
        assert rc == 2
        assert capsys.readouterr().err == "error: c3.csv: 2 iterations, the trace has 1\n"
        assert not (tmp_path / "o").exists()

    def test_line_break_in_trace_name_stays_in_the_comment(self, tmp_path, capsys):
        trace = tmp_path / "a\nb\r.csv"
        ds.write_trace_csv(str(trace), np.full((2, 2, 2), 0.5))
        assert cli.main(["select-threshold", "--trace", str(trace),
                         "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "curve.csv").read_text().splitlines()
        assert lines[0] == f"# trace=a\\nb\\r.csv version={ds.__version__}"
        assert lines[1] == "tau,s_eff,drop_rate,step_speedup"

    @pytest.mark.skipif(sys.getfilesystemencoding() != "utf-8",
                        reason="0xff decodes under this file system encoding")
    def test_undecodable_byte_in_trace_name_is_escaped_in_the_comment(self, tmp_path,
                                                                      capsys):
        trace = tmp_path / os.fsdecode(b"tr\xff.csv")
        ds.write_trace_csv(str(trace), np.full((2, 2, 2), 0.5))
        assert cli.main(["select-threshold", "--trace", str(trace),
                         "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "curve.csv").read_text().splitlines()
        assert lines[0] == f"# trace=tr\\xff.csv version={ds.__version__}"
        assert lines[1] == "tau,s_eff,drop_rate,step_speedup"

    def test_commands_read_through_the_names_perfbench_patches(self, tmp_path,
                                                               capsys, monkeypatch):
        # perfbench's tracer times the trace and comm reads by wrapping
        # cli.read_trace_csv and cli.read_comm_csv; each must be the one call
        # select-threshold reads its file with.
        calls = {"read_trace_csv": 0, "read_comm_csv": 0}
        for name in calls:
            def counted(path, _read=getattr(cli, name), _name=name):
                calls[_name] += 1
                return _read(path)
            monkeypatch.setattr(cli, name, counted)
        trace, comm = self._write_trace(tmp_path, np.full((2, 2, 2), 0.5), np.zeros(2))
        assert cli.main(["select-threshold", "--trace", str(trace), "--comm", str(comm),
                         "--out", str(tmp_path / "o")]) == 0
        assert calls == {"read_trace_csv": 1, "read_comm_csv": 1}

    def test_explicit_grid_file(self, tmp_path, capsys):
        tensor = np.full((2, 2, 2), 0.5)
        trace, comm = self._write_trace(tmp_path, tensor, np.zeros(2))
        grid = tmp_path / "grid.txt"
        grid.write_text("# candidate thresholds\n0.6\n1.2\n")
        rc = cli.main(["select-threshold", "--trace", str(trace),
                       "--comm", str(comm), "--grid", str(grid),
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        lines = (tmp_path / "o" / "curve.csv").read_text().splitlines()
        assert len(lines) == 2 + 2

    def test_bad_grid_line_exits_2(self, tmp_path, capsys):
        tensor = np.full((2, 2, 2), 0.5)
        trace, _ = self._write_trace(tmp_path, tensor)
        grid = tmp_path / "grid.txt"
        grid.write_text("0.6\nnot-a-number\n")
        rc = cli.main(["select-threshold", "--trace", str(trace),
                       "--grid", str(grid), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert ":2: not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["0_5", "1_000", "\u0661.5"])
    def test_grid_line_float_would_misread_exits_2(self, tmp_path, capsys, line):
        # float() reads these as 5.0, 1000.0 and 1.5
        trace, _ = self._write_trace(tmp_path, np.full((2, 2, 2), 0.5))
        grid = tmp_path / "grid.txt"
        grid.write_text(f"0.6\n{line}\n", encoding="utf-8")
        rc = cli.main(["select-threshold", "--trace", str(trace),
                       "--grid", str(grid), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1] == \
            f"error: {grid}:2: not a number: {line!r}"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, lineno", [
        ("nan\n", 1), ("-1\n", 1), ("0\n", 1), ("inf\n", 1), ("1e400\n", 1),
        ("# grid\n0.6\nnan\n1.2\n", 3),
    ])
    def test_non_positive_or_non_finite_grid_value_exits_2(self, tmp_path, capsys,
                                                          text, lineno):
        tensor = np.full((2, 2, 2), 0.5)
        trace, _ = self._write_trace(tmp_path, tensor)
        grid = tmp_path / "grid.txt"
        grid.write_text(text)
        rc = cli.main(["select-threshold", "--trace", str(trace),
                       "--grid", str(grid), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{grid}:{lineno}: threshold must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad, reason", [
        pytest.param("missing-grid", "No such file or directory", id="missing-grid"),
        pytest.param("undecodable-grid", "'utf-8' codec can't decode byte 0xff",
                     id="undecodable-grid"),
        pytest.param("undecodable-trace", "'utf-8' codec can't decode byte 0xff",
                     id="undecodable-trace"),
    ])
    def test_unreadable_input_exits_2_naming_it(self, tmp_path, capsys, bad, reason):
        trace, _ = self._write_trace(tmp_path, np.full((2, 2, 2), 0.5))
        grid = tmp_path / "grid.txt"
        if bad == "undecodable-grid":
            grid.write_bytes(b"0.6\n\xff\n")
        elif bad == "undecodable-trace":
            trace.write_bytes(trace.read_bytes() + b"# \xff\n")
        path = trace if bad == "undecodable-trace" else grid
        rc = cli.main(["select-threshold", "--trace", str(trace), "--grid", str(grid),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"error: {path}: {reason}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


_TRACE_ROWS = ["iteration,worker,micro_batch,latency_seconds",
               "0,0,0,0.5", "0,0,1,0.5", "1,0,0,0.5", "1,0,1,0.5"]
_COMM_ROWS = ["iteration,T_c_seconds", "0,0.1", "1,0.1"]


def _replace_line(lines, lineno, text):
    return lines[:lineno - 1] + [text] + lines[lineno:]


@pytest.mark.parametrize("trace_lines, comm_lines, where", [
    pytest.param(_replace_line(_TRACE_ROWS, 4, "1,w,0,0.5"), _COMM_ROWS,
                 "trace.csv:4:", id="non-numeric-id"),
    pytest.param(_replace_line(_TRACE_ROWS, 3, "0,0,1.0,0.5"), _COMM_ROWS,
                 "trace.csv:3:", id="float-id"),
    pytest.param(_replace_line(_TRACE_ROWS, 5, "1,0,1,inf"), _COMM_ROWS,
                 "trace.csv:5:", id="inf-latency"),
    pytest.param(_replace_line(_TRACE_ROWS, 5, "0,0,1,0.5"), _COMM_ROWS,
                 "trace.csv:5:", id="duplicate-row"),
    pytest.param(_TRACE_ROWS[:3] + ["2,0,0,0.5", "2,0,1,0.5"], _COMM_ROWS,
                 "trace.csv:4:", id="id-gap"),
    pytest.param(["# recorded trace", _TRACE_ROWS[0], "", _TRACE_ROWS[1], "# note",
                  "0,0,1", *_TRACE_ROWS[3:]], _COMM_ROWS,
                 "trace.csv:6:", id="bad-row-after-comment"),
    pytest.param(_TRACE_ROWS, _COMM_ROWS[:2] + ["1"], "comm.csv:3:", id="short-comm-row"),
    pytest.param(_TRACE_ROWS, _COMM_ROWS[:2] + ["5,0.1"], "comm.csv:3:",
                 id="out-of-range-comm-id"),
])
def test_malformed_trace_input_exits_2_with_line(tmp_path, capsys, trace_lines,
                                                 comm_lines, where):
    trace, comm = tmp_path / "trace.csv", tmp_path / "comm.csv"
    trace.write_text("\n".join(trace_lines) + "\n")
    comm.write_text("\n".join(comm_lines) + "\n")
    rc = cli.main(["select-threshold", "--trace", str(trace), "--comm", str(comm),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert where in capsys.readouterr().err


class TestScaleSweep:
    def _sweep_doc(self, **extra):
        doc = {
            "fleet": {
                "workers": 2,  # template size; the sweep overrides it
                "base_mean": 1.0,
                "noise": {"kind": "normal", "loc": 0.225, "std": 0.2236},
            },
            "m_per_step": 6,
            "t_comm": 0.5,
            "iterations": 150,
            "warmup_iterations": 80,
            "seed": 17,
            "n_list": [8, 32, 128],
            "tau": "auto",
        }
        doc.update(extra)
        return doc

    def test_zero_noise_all_unity(self, tmp_path):
        doc = self._sweep_doc(fleet={"workers": 2, "base_mean": 1.0,
                                     "noise": {"kind": "none"}},
                              iterations=40, warmup_iterations=20)
        cfg = _write_json(tmp_path / "c.json", doc)
        rc = cli.main(["scale-sweep", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        rows = [r for r in (tmp_path / "o" / "sweep.csv").read_text().splitlines()
                if r and not r.startswith("#")][1:]
        for row in rows:
            cells = row.split(",")
            assert float(cells[4]) == 1.0  # s_eff
            assert float(cells[6]) == 1.0  # s_eff_analytic

    def test_sim_matches_analytic_column_within_5pct(self, tmp_path):
        doc = self._sweep_doc(n_list=[8, 64, 512, 2048], m_per_step=12,
                              iterations=250, warmup_iterations=100)
        cfg = _write_json(tmp_path / "c.json", doc)
        rc = cli.main(["scale-sweep", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        rows = [r for r in (tmp_path / "o" / "sweep.csv").read_text().splitlines()
                if r and not r.startswith("#")][1:]
        assert len(rows) == 4
        for row in rows:
            cells = row.split(",")
            s_sim, s_analytic = float(cells[4]), float(cells[6])
            assert abs(s_sim - s_analytic) / s_analytic <= 0.05

    def test_nothing_completing_reports_zero_throughput(self, tmp_path):
        doc = self._sweep_doc(fleet={"workers": 2, "base_mean": 1.0,
                                     "noise": {"kind": "none"}},
                              t_comm=0.0, tau=0.5, stop_at_accumulation_boundary=True,
                              iterations=5, n_list=[2, 4])
        cfg = _write_json(tmp_path / "c.json", doc)
        assert cli.main(["scale-sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rows = [r.split(",") for r in (tmp_path / "o" / "sweep.csv").read_text().splitlines()
                if r and not r.startswith("#")][1:]
        assert [(row[0], float(row[3]), float(row[4])) for row in rows] == \
            [("2", 0.0, 0.0), ("4", 0.0, 0.0)]  # n_workers, throughput_drop, s_eff

    @pytest.mark.parametrize("extra, s_eff", [
        ({"tau": 0.5, "stop_at_accumulation_boundary": True}, 0.0),
        ({"tau": 2.5, "t_comm": 0.3}, 0.7678571428571429),
    ])
    def test_zero_noise_analytic_column_follows_tau(self, tmp_path, extra, s_eff):
        # Deterministic micro-batches of 1 s: the closed form counts those
        # finishing strictly under tau, as the simulation does.
        doc = self._sweep_doc(fleet={"workers": 2, "base_mean": 1.0,
                                     "noise": {"kind": "none"}},
                              m_per_step=4, t_comm=0.0, iterations=5, n_list=[2, 4])
        doc.update(extra)
        cfg = _write_json(tmp_path / "c.json", doc)
        assert cli.main(["scale-sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rows = [r.split(",") for r in (tmp_path / "o" / "sweep.csv").read_text().splitlines()
                if r and not r.startswith("#")][1:]
        assert [(float(row[4]), float(row[6])) for row in rows] == [(s_eff, s_eff)] * 2

    def test_nonpositive_model_mean_exits_2_before_writing(self, tmp_path, capsys):
        # Every draw sits at the positive floor, so the simulation runs, but
        # the closed form has no answer for a model mean of -2.
        doc = self._sweep_doc(fleet={"workers": 2, "base_mean": 1.0,
                                     "noise": {"kind": "normal", "loc": -3.0, "std": 0.1}},
                              tau=1.5, iterations=5, n_list=[2, 4])
        cfg = _write_json(tmp_path / "c.json", doc)
        assert cli.main(["scale-sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "mu must be > 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unsorted_n_list_exits_2(self, tmp_path, capsys):
        cfg = _write_json(tmp_path / "c.json", self._sweep_doc(n_list=[32, 8, 128]))
        assert cli.main(["scale-sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "strictly ascending" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        ({"tau": "abc"}, "tau must be"),
        ({"tau": 0}, "tau must be"),
        ({"warmup_iterations": "x"}, "warmup_iterations must be"),
        ({"warmup_iterations": None}, "warmup_iterations must be"),
        ({"stop_at_accumulation_boundary": "false"}, "stop_at_accumulation_boundary"),
        ({"stop_at_accumulation_boundary": 1}, "stop_at_accumulation_boundary"),
    ])
    def test_bad_tau_or_warmup_exits_2(self, tmp_path, capsys, extra, message):
        cfg = _write_json(tmp_path / "c.json", self._sweep_doc(**extra))
        assert cli.main(["scale-sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    def test_stamp_line_present(self, tmp_path):
        doc = self._sweep_doc(iterations=30, warmup_iterations=20, n_list=[2, 4])
        cfg = _write_json(tmp_path / "c.json", doc)
        cli.main(["scale-sweep", "--config", cfg, "--out", str(tmp_path / "o")])
        first = (tmp_path / "o" / "sweep.csv").read_text().splitlines()[0]
        assert first.startswith("# config_hash=")
        assert f"version={ds.__version__}" in first


class TestSgdBench:
    def _bench_doc(self, **extra):
        doc = {
            "problem": {"kind": "quadratic", "dimension": 10, "smoothness": 1.0,
                        "sigma": 1.0, "distance": 10.0},
            "schedule": {"kind": "per_worker_bernoulli", "b_max": 100,
                         "n_workers": 10, "p_drop": 0.1},
            "k_total": 20000,
            "seeds": 20,
            "theorem": "both",
            "seed": 3,
        }
        doc.update(extra)
        return doc

    def test_default_grid_passes(self, tmp_path, capsys):
        cfg = _write_json(tmp_path / "c.json", self._bench_doc())
        rc = cli.main(["sgd-bench", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "convex: empirical" in out and "nonconvex: empirical" in out
        assert "FAIL" not in out
        rep = json.loads((tmp_path / "o" / "report.json").read_text())
        assert {"config_hash", "version", "results"} <= set(rep)
        for entry in rep["results"]:
            assert entry["pass"] is True
            assert entry["empirical"] <= entry["bound"]
            assert {"K", "seeds", "eta", "margin"} <= set(entry)

    def test_staged_sigma_mismatch_fails(self, tmp_path, capsys):
        # Declared sigma ten times smaller than the injected noise: the
        # nonconvex check must catch it and flip the exit code.
        doc = self._bench_doc(k_total=100000, theorem="nonconvex")
        doc["problem"]["actual_sigma"] = 10.0
        cfg = _write_json(tmp_path / "c.json", doc)
        rc = cli.main(["sgd-bench", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out
        rep = json.loads((tmp_path / "o" / "report.json").read_text())
        assert rep["results"][0]["pass"] is False

    def test_negative_actual_sigma_exits_2_without_a_report(self, tmp_path, capsys):
        doc = self._bench_doc(theorem="convex")
        doc["problem"]["actual_sigma"] = -10.0
        cfg = _write_json(tmp_path / "c.json", doc)
        assert cli.main(["sgd-bench", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "actual_sigma" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_single_seed_notes_insufficiency(self, tmp_path):
        cfg = _write_json(tmp_path / "c.json", self._bench_doc(theorem="convex"))
        rc = cli.main(["sgd-bench", "--config", cfg, "--seeds", "1",
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        rep = json.loads((tmp_path / "o" / "report.json").read_text())
        entry = rep["results"][0]
        assert entry["seeds"] == 1
        assert "note" in entry and "seed" in entry["note"]

    def test_convex_theorem_requires_quadratic(self, tmp_path, capsys):
        doc = self._bench_doc(theorem="convex")
        doc["problem"] = {"kind": "logistic_synthetic"}
        cfg = _write_json(tmp_path / "c.json", doc)
        assert cli.main(["sgd-bench", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "quadratic" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", [{"distance": 1e16}, {"sigma": 1e160}])
    def test_extreme_finite_quadratic_gets_a_finite_report(self, tmp_path, problem):
        # A gradient of about 1e15, or a noise level whose square overflows,
        # is still a valid problem with a finite answer.
        doc = self._bench_doc(k_total=1000, seeds=3, theorem="convex")
        doc["problem"].update(problem)
        cfg = _write_json(tmp_path / "c.json", doc)
        assert cli.main(["sgd-bench", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        text = (tmp_path / "o" / "report.json").read_text()
        assert "NaN" not in text and "Infinity" not in text
        entry = json.loads(text)["results"][0]
        assert all(math.isfinite(entry[k]) for k in ("empirical", "empirical_stderr", "bound"))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_run_exits_2_without_a_report(self, tmp_path, capsys):
        # The loss at distance 1e200 overflows to inf, and inf <= inf must
        # not read as a pass.
        doc = self._bench_doc(k_total=1000, seeds=3, theorem="convex")
        doc["problem"]["distance"] = 1e200
        cfg = _write_json(tmp_path / "c.json", doc)
        assert cli.main(["sgd-bench", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "overflowed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_report_bytes_reproducible(self, tmp_path):
        cfg = _write_json(tmp_path / "c.json", self._bench_doc(
            k_total=5000, seeds=5, theorem="convex"))
        for name in ("a", "b"):
            rc = cli.main(["sgd-bench", "--config", cfg, "--seed", "9",
                           "--out", str(tmp_path / name)])
            assert rc == 0
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command, doc", [
    ("simulate", _sim_config(iterations=5)),
    ("scale-sweep", _sim_config(iterations=5, n_list=[2])),
    ("sgd-bench", {"problem": {"kind": "quadratic"}, "schedule": {"kind": "none", "b_max": 10},
                   "k_total": 100, "seeds": 2}),
])
def test_seed_flag_outside_64_bits_exits_2(tmp_path, capsys, command, doc, seed):
    # The random streams mask seeds to 64 bits: 2**64 would replay seed 0.
    cfg = _write_json(tmp_path / "c.json", doc)
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--config", cfg, "--seed", seed, "--out", str(tmp_path / "o")])
    assert exit_.value.code == 2
    assert "--seed: must be an integer in [0, 2^64)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# Small runs of every command but synchronous simulate, which
# test_out_naming_a_file_exits_2 lists first; doc None stands for a trace.
_WRITE_CASES = [
    ("simulate --mode local-sgd", _sim_config(workers=2, base=0.1, noise={"kind": "none"},
                                              m=1, tau=None, iterations=20,
                                              local_sgd={"sync_period": 2})),
    ("select-threshold", None),
    ("scale-sweep", _sim_config(tau=2.5, iterations=5, n_list=[2])),
    ("sgd-bench", {"problem": {"kind": "quadratic"}, "schedule": {"kind": "none", "b_max": 10},
                   "k_total": 100, "seeds": 2}),
]


def _command_argv(tmp_path, command, doc) -> list:
    """command's arguments but --out, with its input written under tmp_path."""
    if doc is None:
        ds.write_trace_csv(str(tmp_path / "trace.csv"), np.full((2, 2, 2), 0.5))
        return [*command.split(), "--trace", str(tmp_path / "trace.csv")]
    return [*command.split(), "--config", _write_json(tmp_path / "c.json", doc)]


@pytest.mark.parametrize("command, doc", [*_WRITE_CASES,
                                          ("simulate", _sim_config(iterations=5))])
def test_failed_write_leaves_no_directory(tmp_path, monkeypatch, command, doc):
    # Each command makes its output directories for its writes alone, so a
    # write that fails removes the directories it made. Synchronous simulate
    # streams records.csv first; its failed summary write must take the
    # records with it.
    argv = _command_argv(tmp_path, command, doc)

    def fail(path, text):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_atomic_write", fail)
    with pytest.raises(OSError, match="disk full"):
        cli.main([*argv, "--out", str(tmp_path / "o" / "deeper")])
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command, doc", [("simulate", _sim_config(iterations=5)),
                                          *_WRITE_CASES])
def test_out_naming_a_file_exits_2(tmp_path, capsys, command, doc, under):
    # mkdir raises FileExistsError or NotADirectoryError here; either is the
    # user's path, not a failed run, so it exits 2 and writes nothing.
    argv = _command_argv(tmp_path, command, doc)
    blocker = tmp_path / "f"
    blocker.write_text("kept\n")
    before = sorted(tmp_path.rglob("*"))
    out = blocker / "sub" if under else blocker
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert f"error: {out}: cannot make the output directory: " in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before
    assert blocker.read_text() == "kept\n"


def test_cli_import_leaves_scipy_unloaded():
    # scipy costs about half a second of start-up and 17 MB of RSS; the
    # normal CDF now comes from math.erfc, so even a call leaves it unloaded.
    # statistics (for phi_inv) loads fractions and decimal, about 7 ms of
    # start-up, so it waits for the first phi_inv call.
    src = Path(ds.__file__).resolve().parents[1]
    code = ("import sys, dropsim.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "dropsim.phi_cdf(0.5)\n"
            "print('scipy.special' in sys.modules)\n"
            "print([m for m in ('statistics', 'fractions', 'decimal') if m in sys.modules])\n"
            "print(dropsim.phi_inv(0.5))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.split("\n")[:4] == ["[]", "False", "[]", "0.0"]


def test_cli_import_leaves_the_parse_pool_unloaded():
    # concurrent.futures loads logging, about 7 ms of start-up; the trace
    # reader imports it when it first starts a parse pool.
    src = Path(ds.__file__).resolve().parents[1]
    code = "import sys, dropsim.cli\nprint('concurrent.futures' in sys.modules)\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout == "False\n"


def test_all_four_commands_leave_scipy_unloaded(tmp_path):
    # scipy is a test dependency only. The scale-sweep's simulated-delay
    # noise takes the censored moments and the closed-form speedup, which
    # need the normal CDF; the logistic sgd-bench solves for its optimum.
    ds.write_trace_csv(str(tmp_path / "trace.csv"),
                       ds.RngStream(3).generator().lognormal(0.0, 0.3, (20, 4, 3)))
    sweep = _sim_config(workers=2, noise={"kind": "simulated_delay"}, tau="auto",
                        iterations=8, n_list=[2, 4], warmup_iterations=4)
    sweep["fleet"]["noise_mode"] = "additive_scaled_by_mean"
    bench = {"problem": {"kind": "logistic_synthetic", "dimension": 3, "n_samples": 32},
             "schedule": {"kind": "none", "b_max": 10},
             "k_total": 1000, "seeds": 2, "theorem": "nonconvex"}
    commands = [
        ["simulate", "--config", _write_json(tmp_path / "sim.json", _sim_config(iterations=5))],
        ["select-threshold", "--trace", str(tmp_path / "trace.csv")],
        ["scale-sweep", "--config", _write_json(tmp_path / "sweep.json", sweep)],
        ["sgd-bench", "--config", _write_json(tmp_path / "bench.json", bench)],
    ]
    code = ("import sys, dropsim.cli\n"
            f"for i, argv in enumerate({commands!r}):\n"
            "    assert dropsim.cli.main([*argv, '--out', f'{sys.argv[1]}/o{i}']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = Path(ds.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert all((tmp_path / f"o{i}").is_dir() for i in range(4))


def test_package_imports_only_numpy_and_the_standard_library():
    package = Path(ds.__file__).resolve().parent
    third_party = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            third_party.update(f"{path.name}: {name}" for name in names
                               if name.split(".")[0] not in sys.stdlib_module_names
                               and name.split(".")[0] != "numpy")
    assert sorted(third_party) == []
