import csv
import hashlib
import json
import math
import os

import pytest

from conicflow import cli
from conicflow.marked_sphere import Divisor
from conftest import shipped_divisor, skew_factors_from_third_solve
from oracles import read_trace


@pytest.fixture()
def divisor_file(tmp_path):
    def write(name, divisor):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(divisor.to_dict()))
        return str(p)

    return write


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def tiny_config(tmp_path, divisor, **kv):
    dp = tmp_path / "div.json"
    dp.write_text(json.dumps(divisor.to_dict()))
    params = {
        "divisor": "div.json",
        "n_lat": 32,
        "n_lon": 64,
        "epsilon": 0.1,
        "dt": 0.02,
        "t_max": 0.5,
        "sample_every": 0.1,
        "auto_stop": "false",
    }
    params.update(kv)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in params.items()))
    return str(cfg)


class TestClassify:
    def test_stable_line(self, capsys, divisor_file):
        path = divisor_file("stable", shipped_divisor("stable"))
        code, out, _ = run_cli(capsys, "classify", path)
        assert code == 0
        assert "Stable" in out and "chi=0.5" in out and "alpha=1" in out

    def test_semistable_prediction(self, capsys, divisor_file):
        path = divisor_file("ss", shipped_divisor("semistable"))
        code, out, _ = run_cli(capsys, "classify", path)
        assert code == 0
        assert "SemiStable" in out
        assert "beta_inf=(0.6, 0.6)" in out

    def test_unstable_conditional(self, capsys, divisor_file):
        path = divisor_file("u", shipped_divisor("unstable"))
        code, out, _ = run_cli(capsys, "classify", path, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["class"] == "Unstable"
        assert data["predicted_limit"]["conditional"] is True

    def test_malformed_file_exits_nonzero(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "classify", str(bad))
        assert code == 1
        assert "divisor" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "classify", "/nonexistent/d.json")
        assert code == 1


class TestSolitonTable:
    def test_unstable_two_rows(self, capsys, divisor_file):
        path = divisor_file("u", shipped_divisor("unstable"))
        code, out, _ = run_cli(capsys, "soliton-table", path, "--json")
        assert code == 0
        data = json.loads(out)
        assert len(data["entries"]) == 2
        assert data["threshold"] == pytest.approx(data["entries"][1]["mu"])
        assert data["entries"][0]["partition"] == [2]

    def test_not_unstable_warns(self, capsys, divisor_file):
        path = divisor_file("s4", Divisor([0.4, 0.4, 0.4, 0.4]))
        code, out, err = run_cli(capsys, "soliton-table", path)
        assert code == 0
        assert err == "warning: divisor is Stable, not unstable\n"

    def test_caveats_on_stderr(self, capsys, divisor_file):
        # the k < 3 caveat comes first, then the class; a divisor with no
        # table prints only its error
        code, _, err = run_cli(capsys, "soliton-table", divisor_file("k2", Divisor([0.4, 0.4])))
        assert code == 0
        assert err.splitlines() == [
            "warning: divisor has k=2 < 3 marked points; the convergence theorems assume k >= 3",
            "warning: divisor is SemiStable, not unstable",
        ]
        code, _, err = run_cli(capsys, "soliton-table",
                               divisor_file("u", shipped_divisor("unstable")))
        assert (code, err) == (0, "")
        code, _, err = run_cli(capsys, "soliton-table",
                               divisor_file("s", shipped_divisor("stable")))
        assert code == 1
        assert err.startswith("error: no soliton table") and "warning" not in err

    def test_threshold_undefined(self, capsys, divisor_file):
        path = divisor_file("one", Divisor([0.1, 0.1, 0.9]))
        code, out, _ = run_cli(capsys, "soliton-table", path)
        assert code == 0
        assert "undefined" in out

    def test_table_written_to_file(self, capsys, divisor_file, tmp_path):
        path = divisor_file("u", shipped_divisor("unstable"))
        out_path = tmp_path / "table.json"
        code, _, _ = run_cli(capsys, "soliton-table", path, "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["threshold_defined"]


class TestBadDivisorFile:
    @pytest.mark.parametrize("text, msg", [
        ('{"weights": ["1/0", "1/2"]}', "bad weight"),
        ('{"weights": [null, 0.5]}', "bad weight"),
        ('{"weights": [0.3, 0.4], "positions": [[null, 0, 1], [1, 0, 0]]}', "non-finite"),
    ], ids=["zero_denominator", "null_weight", "null_position"])
    @pytest.mark.parametrize("command", ["classify", "soliton-table", "run"])
    def test_usage_error(self, capsys, tmp_path, command, text, msg):
        cfg = tiny_config(tmp_path, shipped_divisor("stable"))
        div = tmp_path / "div.json"
        div.write_text(text)
        argv = ["run", "--config", cfg] if command == "run" else [command, str(div)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error:") and msg in err

    @pytest.mark.parametrize("command, text, msg", [
        ("soliton-table", json.dumps(shipped_divisor("stable").to_dict()), "no valid partitions"),
        ("classify", '{"weights": []}', "at least one marked point"),
        ("soliton-table", '{"weights": []}', "at least one marked point"),
    ], ids=["soliton-table-stable", "classify-empty", "soliton-table-empty"])
    def test_divisor_without_an_answer(self, capsys, tmp_path, command, text, msg):
        # a well-formed divisor that has no class or no soliton table is an
        # input error: exit 1 with one line, not a traceback
        div = tmp_path / "div.json"
        div.write_text(text)
        code, out, err = run_cli(capsys, command, str(div))
        assert code == 1 and out == ""
        assert err.startswith("error:") and msg in err


class TestRun:
    def test_run_produces_artifacts(self, capsys, tmp_path):
        cfg = tiny_config(tmp_path, shipped_divisor("stable"))
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "run", "--config", cfg, "--out", str(out_dir))
        assert code in (0, 3)  # short horizon may be Undecided
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["status"] == "completed"
        assert (out_dir / "trace.csv").exists()
        assert (out_dir / "u_final.csv").exists()
        assert (out_dir / "report.json").exists()
        assert manifest["config_hash"]
        assert manifest["unit_constants"]["round_area"] == 2.0
        assert manifest["unit_constants"]["laplacian_scale"] == pytest.approx(1.0 / (4 * math.pi))
        # the samples in the trace, and the distance rows they made
        monitors = manifest["monitors"]
        assert monitors["samples"] == len(read_trace(str(out_dir / "trace.csv"))["time"])
        assert 3 * monitors["samples"] <= monitors["distance_rows"] <= 8 * monitors["samples"]

    @pytest.mark.parametrize("fault", ["nan", "raise"])
    def test_non_finite_monitor_fails_run(self, capsys, tmp_path, monkeypatch, fault):
        from conicflow import functionals as fn

        real = fn.f_beta
        calls = []

        def f_beta(state, *args, **kwargs):
            calls.append(state.t)
            if len(calls) < 2:
                return real(state, *args, **kwargs)
            if fault == "raise":
                raise RuntimeError("monitor broke")
            return math.nan

        monkeypatch.setattr(fn, "f_beta", f_beta)
        cfg = tiny_config(tmp_path, shipped_divisor("semistable"))
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "run", "--config", cfg, "--out", str(out_dir))
        assert code == 2
        if fault == "raise":
            status, n_rows = "failed: RuntimeError: monitor broke", 1
        else:
            status, n_rows = "failed: non-finite monitor f_beta at t = 0.1", 2
        assert json.loads((out_dir / "manifest.json").read_text())["status"] == status
        assert status in out
        trace = read_trace(str(out_dir / "trace.csv"))
        assert len(calls) == 2 and len(trace["time"]) == n_rows
        assert math.isfinite(trace["f_beta"][0])
        if fault == "nan":
            assert math.isnan(trace["f_beta"][1])

    def test_trace_byte_identical_across_runs(self, capsys, tmp_path):
        cfg = tiny_config(tmp_path, shipped_divisor("unstable"), initial="bump", seed=5)
        d1, d2 = tmp_path / "o1", tmp_path / "o2"
        run_cli(capsys, "run", "--config", cfg, "--out", str(d1))
        run_cli(capsys, "run", "--config", cfg, "--out", str(d2))
        assert (d1 / "trace.csv").read_bytes() == (d2 / "trace.csv").read_bytes()
        m1 = json.loads((d1 / "manifest.json").read_text())
        m2 = json.loads((d2 / "manifest.json").read_text())
        assert m1["trace_sha256"] == m2["trace_sha256"]

    def test_overrides(self, capsys, tmp_path):
        cfg = tiny_config(tmp_path, shipped_divisor("stable"))
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "run", "--config", cfg, "--out", str(out_dir),
            "--epsilon", "0.12", "--tmax", "0.3", "--dt", "0.01",
        )
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["eps"] == 0.12
        assert manifest["config"]["t_max"] == 0.3

    def test_bad_config_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 3\n")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert "unknown key" in err

    def test_bad_resolution_flag(self, capsys, tmp_path):
        cfg = tiny_config(tmp_path, shipped_divisor("stable"))
        code, _, err = run_cli(capsys, "run", "--config", cfg, "--resolution", "64")
        assert code == 1

    @pytest.mark.parametrize("flags, msg", [
        (("--resolution", "8x16"), "resolution too small"),
        (("--dt", "-1"), "dt and t_max must be positive"),
        (("--epsilon", "0.001", "--resolution", "64x128"), "cone core unresolved"),
        (("--resolution", "64x1"), "must sit at the poles"),
        (("--tmax", "inf"), "t_max must be finite"),
        (("--dt", "nan"), "dt must be finite"),
        (("--tmax", "1e300", "--dt", "1e-10"), "t_max / dt must be finite"),
    ], ids=["coarse_grid", "negative_dt", "unresolved_eps", "offpole_axisymmetric",
            "infinite_tmax", "nan_dt", "overflowing_step_count"])
    def test_bad_run_input_is_usage_error(self, capsys, tmp_path, flags, msg):
        cfg = tiny_config(tmp_path, Divisor([0.3, 0.4]))  # two marks on the equator
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "run", "--config", cfg, "--out", str(out_dir), *flags)
        assert code == 1
        assert err.startswith("error:") and msg in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("divisor, initial, msg", [
        (Divisor([0.3, 0.6], [[1, 0, 0], [0, 1, 0]]), "soliton", "two marked points antipodal"),
        (Divisor([0.5] * 4), "zero", "weights sum to 2"),
    ], ids=["soliton_start_off_the_antipode", "chi_zero"])
    def test_divisor_the_run_cannot_take_is_usage_error(self, capsys, tmp_path, divisor,
                                                        initial, msg):
        # the soliton profile would put the lighter cone at the antipode of
        # the heavier one, not where the divisor puts it; at chi = 0 the
        # functionals divide by zero
        cfg = tiny_config(tmp_path, divisor, initial=initial)
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "run", "--config", cfg, "--out", str(out_dir))
        assert code == 1
        assert err.startswith("error:") and msg in err
        assert not out_dir.exists()

    def test_non_finite_config_value_is_usage_error(self, capsys, tmp_path):
        cfg = tiny_config(tmp_path, shipped_divisor("stable"), epsilon="inf")
        code, _, err = run_cli(capsys, "run", "--config", cfg, "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith("error:") and "eps must be finite" in err
        assert not (tmp_path / "out").exists()

    def test_solver_stall_fails_run(self, capsys, tmp_path, monkeypatch):
        # from the third step on, every factor the stepper builds is off by
        # a factor 2.5: refinement diverges, the refactorized fallback
        # leaves a relative residual of 2.25, and the run must fail on it
        steps = skew_factors_from_third_solve(monkeypatch)
        cfg = tiny_config(tmp_path, shipped_divisor("semistable"), sample_every=0.02)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "run", "--config", cfg, "--out", str(out_dir))
        assert code == 2
        status = json.loads((out_dir / "manifest.json").read_text())["status"]
        assert status.startswith("failed: implicit solve stalled at relative residual")
        assert status in out
        trace = read_trace(str(out_dir / "trace.csv"))
        assert len(steps) == 3 and len(trace["time"]) == 3  # t = 0 and steps 1, 2

    def test_usage_error_on_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1


class TestReport:
    def test_report_recomputes_verdict(self, capsys, tmp_path):
        cfg = tiny_config(tmp_path, shipped_divisor("stable"), t_max=1.0)
        out_dir = tmp_path / "out"
        run_cli(capsys, "run", "--config", cfg, "--out", str(out_dir))
        code, out, _ = run_cli(capsys, "report", str(out_dir))
        assert code in (0, 3)
        assert "verdict:" in out
        assert "f_beta:" in out

    @pytest.mark.parametrize("fail", [False, True], ids=["completed", "failed"])
    def test_report_json_is_the_runs_report(self, capsys, tmp_path, monkeypatch, fail):
        # the verdict reads the final state alone, so `report` rebuilds the
        # run's report.json byte for byte from u_final.csv and the manifest;
        # the 1-D two-point run takes the w_gap branch, and the failed one
        # stops between samples
        from conftest import shipped_config_path

        if fail:
            skew_factors_from_third_solve(monkeypatch)
        out_dir = tmp_path / "out"
        code, run_out, _ = run_cli(capsys, "run", "--config", shipped_config_path("soliton_axis"),
                                   "--resolution", "4096x1", "--epsilon", "6e-4",
                                   "--tmax", "0.1", "--out", str(out_dir))
        assert code == (2 if fail else 3)
        run_report = (out_dir / "report.json").read_text()
        assert "w_gap" in json.loads(run_report)["residuals"]
        code, out, _ = run_cli(capsys, "report", str(out_dir), "--json", str(tmp_path / "r.json"))
        assert code == 3
        assert (tmp_path / "r.json").read_text() == run_report
        assert out.startswith(run_out.split("\nstatus: ")[0] + "\n")

    def test_run_whose_exclusion_balls_cover_the_sphere_is_kept(self, capsys, tmp_path):
        # at eps 0.5 the exclusion radius 2 eps reaches every node: the
        # verdict has no curvature statistics and is Undecided, and the run
        # is still written
        from conftest import shipped_config_path

        out_dir = tmp_path / "out"
        code, run_out, _ = run_cli(capsys, "run", "--config", shipped_config_path("stable"),
                                   "--epsilon", "0.5", "--tmax", "0.02",
                                   "--resolution", "32x64", "--out", str(out_dir))
        assert code == 3
        for name in ("trace.csv", "u_final.csv", "manifest.json", "report.json"):
            assert (out_dir / name).is_file()
        run_report = (out_dir / "report.json").read_text()
        data = json.loads(run_report)
        assert data["verdict"] == "Undecided" and data["curvature"] is None
        assert "cover every node" in data["caveats"]["no_curvature_statistics"]
        code, out, _ = run_cli(capsys, "report", str(out_dir), "--json", str(tmp_path / "r.json"))
        assert code == 3
        assert (tmp_path / "r.json").read_text() == run_report
        assert out.startswith(run_out.split("\nstatus: ")[0] + "\n")

    def test_report_missing_dir(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "report", str(tmp_path / "nope"))
        assert code == 1

    def test_report_mismatched_field_is_usage_error(self, capsys, tmp_path):
        cfg = tiny_config(tmp_path, shipped_divisor("stable"), t_max=0.2)
        out_dir = tmp_path / "out"
        run_cli(capsys, "run", "--config", cfg, "--out", str(out_dir))
        u_path = out_dir / "u_final.csv"
        rows = u_path.read_text().splitlines(keepends=True)
        u_path.write_text("".join(rows[:-5]))
        code, _, err = run_cli(capsys, "report", str(out_dir))
        assert code == 1
        assert "2043 values, expected 2048" in err


    @pytest.mark.parametrize("damage, msg", [
        ("truncated", "cannot read run"),
        ("not_an_object", "cannot read run"),
        ("missing_config", "lacks the key 'config'"),
        ("negative_dt", "dt and t_max must be positive"),
        ("null_divisor", "divisor must be a Divisor, got None"),
    ], ids=["truncated", "not_an_object", "missing_config", "negative_dt", "null_divisor"])
    def test_report_bad_manifest_is_usage_error(self, capsys, tmp_path, damage, msg):
        cfg = tiny_config(tmp_path, shipped_divisor("stable"), t_max=0.2)
        out_dir = tmp_path / "out"
        run_cli(capsys, "run", "--config", cfg, "--out", str(out_dir))
        man = out_dir / "manifest.json"
        if damage == "truncated":
            man.write_text(man.read_text()[:100])
        elif damage == "not_an_object":
            man.write_text("[1, 2]")
        else:
            data = json.loads(man.read_text())
            if damage == "missing_config":
                del data["config"]
            elif damage == "null_divisor":
                data["config"]["divisor"] = None
            else:
                data["config"]["dt"] = -1
            man.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "report", str(out_dir))
        assert code == 1
        assert err.startswith("error:") and msg in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["u_final.csv", "trace.csv"])
    def test_report_checks_output_hashes(self, capsys, tmp_path, name):
        import hashlib

        cfg = tiny_config(tmp_path, shipped_divisor("stable"), t_max=0.2, snapshot_every=0.1)
        out_dir = tmp_path / "out"
        run_cli(capsys, "run", "--config", cfg, "--out", str(out_dir))
        manifest = json.loads((out_dir / "manifest.json").read_text())
        fields = sorted(p.name for p in out_dir.glob("u_*.csv"))
        assert len(fields) == 3  # u_final.csv and two snapshots
        assert sorted(manifest["field_sha256"]) == fields
        for f in fields:
            digest = hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
            assert manifest["field_sha256"][f] == digest
        # cut inside the last value: the row count and the format still hold
        path = out_dir / name
        path.write_bytes(path.read_bytes()[:-12])
        code, _, err = run_cli(capsys, "report", str(out_dir))
        assert code == 1
        assert f"{name}' does not match the SHA-256" in err


class TestSweep:
    def test_sweep_aggregates(self, capsys, tmp_path):
        cfg = tiny_config(tmp_path, shipped_divisor("stable"), t_max=0.2)
        sweep = tmp_path / "sweep.cfg"
        sweep.write_text("config = run.cfg\nsweep_epsilon = 0.1, 0.12\nsweep_seed = 3\n")
        out = tmp_path / "sw"
        code, msg, _ = run_cli(capsys, "sweep", "--config", str(sweep), "--out", str(out))
        assert code == 0
        rows = (out / "aggregate.csv").read_text().strip().splitlines()
        assert len(rows) == 3  # header + 2 runs
        assert "epsilon" in rows[0] and "seed" in rows[0]
        manifest = json.loads((out / "run_epsilon0.1_seed3" / "manifest.json").read_text())
        assert manifest["config"]["eps"] == 0.1 and manifest["config"]["seed"] == 3
        # every run records the SHA-256 of the base config file, as ``run`` does
        with open(cfg, "rb") as fh:
            assert manifest["config_hash"] == hashlib.sha256(fh.read()).hexdigest()
        # each row carries its run's solver counters, as in its manifest
        for row in csv.DictReader(rows):
            solver = json.loads((out / row["run"] / "manifest.json").read_text())["solver"]
            assert 0 < solver["factorizations"] <= solver["backsolves"]
            assert int(row["factorizations"]) == solver["factorizations"]
            assert int(row["backsolves"]) == solver["backsolves"]
            assert int(row["stall_refactorizations"]) == solver["stall_refactorizations"]

    def test_row_of_a_run_without_curvature_statistics(self, capsys, tmp_path):
        # at eps 0.5 the exclusion balls cover every node: the run completes
        # Undecided and its row leaves the statistic's cell empty
        tiny_config(tmp_path, shipped_divisor("stable"), t_max=0.02)
        sweep = tmp_path / "sweep.cfg"
        sweep.write_text("config = run.cfg\nsweep_epsilon = 0.5, 0.3\n")
        out = tmp_path / "sw"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(sweep), "--out", str(out))
        assert code == 0
        with open(out / "aggregate.csv") as fh:
            rows = {row["run"]: row for row in csv.DictReader(fh)}
        assert sorted(rows) == ["run_epsilon0.3", "run_epsilon0.5"]
        for row in rows.values():
            assert (row["status"], row["verdict"]) == ("completed", "Undecided")
        assert rows["run_epsilon0.5"]["sup_dev_half_chi"] == ""
        assert float(rows["run_epsilon0.3"]["sup_dev_half_chi"]) > 0

    def test_empty_sweep_rejected(self, capsys, tmp_path):
        cfg = tiny_config(tmp_path, shipped_divisor("stable"))
        sweep = tmp_path / "sweep.cfg"
        sweep.write_text("config = run.cfg\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(sweep))
        assert code == 1
        assert "empty sweep" in err

    def test_unknown_sweep_key_rejected(self, capsys, tmp_path):
        sweep = tmp_path / "sweep.cfg"
        for key in ("sweep_gamma", "sweep_divisor"):
            sweep.write_text(f"config = run.cfg\n{key} = 1, 2\n")
            code, _, err = run_cli(capsys, "sweep", "--config", str(sweep))
            assert code == 1
            assert f"unknown key {key!r}" in err

    def test_workers_capped_at_run_count(self, capsys, tmp_path, monkeypatch):
        # a recorder stands in for the pool, so no worker process starts
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        tiny_config(tmp_path, shipped_divisor("stable"), t_max=0.04)
        sweep = tmp_path / "sweep.cfg"
        sweep.write_text("config = run.cfg\nsweep_seed = 1, 2\n")
        out = tmp_path / "sw"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(sweep), "--out", str(out),
                             "--workers", "500")
        assert code == 0
        assert sizes == [2]
        rows = list(csv.DictReader((out / "aggregate.csv").read_text().splitlines()))
        assert [r["status"] for r in rows] == ["completed", "completed"]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, capsys, tmp_path, monkeypatch, workers):
        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", None)
        tiny_config(tmp_path, shipped_divisor("stable"))
        sweep = tmp_path / "sweep.cfg"
        sweep.write_text("config = run.cfg\nsweep_seed = 1, 2\n")
        out = tmp_path / "sw"
        code, _, err = run_cli(capsys, "sweep", "--config", str(sweep), "--out", str(out),
                               "--workers", workers)
        assert code == 1
        assert "--workers must be at least 1" in err
        assert not out.exists()

    def test_bad_sweep_value_rejected(self, capsys, tmp_path, monkeypatch):
        # no --out: a rejected sweep must not leave its default directory
        monkeypatch.chdir(tmp_path)
        tiny_config(tmp_path, shipped_divisor("stable"), initial="bump")
        sweep = tmp_path / "sweep.cfg"
        for line, msg in (("sweep_seed = 1, x", "invalid literal"),
                          ("sweep_initial = zero, sine", "unknown initial condition"),
                          ("sweep_t_max = 0.1, inf", "t_max must be finite"),
                          ("sweep_dt = 1e-310", "t_max / dt must be finite"),
                          # one value once typed: both runs would write run_dt0.05
                          ("sweep_dt = 0.05, 0.050", "line 2: repeated value 0.05"),
                          ("sweep_seed = 1, 2, 01", "line 2: repeated value 1"),
                          ("sweep_dt = 0.5\nsweep_dt = 0.25", "line 3: duplicate key 'sweep_dt'"),
                          ("config = run.cfg\nsweep_seed = 1", "line 2: duplicate key 'config'"),
                          # values that only the run's set-up rejects: grid,
                          # background and initial field
                          ("sweep_epsilon = 0.1, 0.001", "cone core unresolved"),
                          ("sweep_n_lat = 32, 8", "resolution too small"),
                          ("sweep_n_lon = 64, 1", "at most 2 marked points"),
                          ("sweep_seed = 3, -1", "expected non-negative integer")):
            sweep.write_text(f"config = run.cfg\n{line}\n")
            code, _, err = run_cli(capsys, "sweep", "--config", str(sweep))
            assert code == 1
            assert msg in err
            assert not (tmp_path / "sweep_out").exists()


class TestShippedConfigs:
    def test_shipped_configs_parse(self):
        import conicflow
        from conicflow import flow as fl

        base = os.path.join(os.path.dirname(conicflow.__file__), "configs")
        for name in ("stable", "semistable", "unstable", "soliton_axis"):
            cfg = fl.parse_config_file(os.path.join(base, f"{name}.cfg"))
            assert cfg.divisor.k >= 2
            assert cfg.axisymmetric == (name == "soliton_axis")
            # a manifest holds the config as JSON; reading it back is exact
            assert fl.FlowConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


class TestProfilesExport:
    def test_soliton_table_profiles_csv(self, capsys, divisor_file, tmp_path):
        path = divisor_file("u", shipped_divisor("unstable"))
        prof_dir = tmp_path / "profiles"
        code, _, _ = run_cli(capsys, "soliton-table", path, "--profiles", str(prof_dir))
        assert code == 0
        files = sorted(os.listdir(prof_dir))
        assert len(files) == 2
        header = (prof_dir / files[0]).read_text().splitlines()[0]
        assert header == "x,phi,R,theta"

    def test_profile_rows_are_the_specs_closed_forms(self, capsys, divisor_file, tmp_path):
        # each file samples its table entry at 256 evenly spaced x in [-1, 1]
        import numpy as np

        from conicflow import soliton as sol

        d = shipped_divisor("unstable")
        prof_dir = tmp_path / "profiles"
        code, _, _ = run_cli(capsys, "soliton-table", divisor_file("u", d),
                             "--profiles", str(prof_dir))
        assert code == 0
        entries = sol.mu_table(d).entries
        x = np.linspace(-1.0, 1.0, 256)
        for i, spec in enumerate(entries):
            name = f"profile_{i + 1}_bp{spec.beta_p:g}_bq{spec.beta_q:g}.csv"
            rows = (prof_dir / name).read_text().splitlines()[1:]
            assert len(rows) == 256
            columns = (x, spec.phi_of(x), spec.curvature_of(x), spec.theta_of(x))
            assert rows == [",".join(f"{v:.17g}" for v in vals) for vals in zip(*columns)]

    def test_weights_near_one_write_finite_profiles(self, capsys, divisor_file, tmp_path):
        # c ~ 1000: sinh c overflows, so theta's normalizer takes its
        # asymptote; (0.1, 0.2, 0.9995) has c ~ 700 and keeps the closed form
        prof_dir = tmp_path / "profiles"
        for weights in ([0.0005, 0.9995], [0.1, 0.2, 0.9995]):
            code, _, _ = run_cli(capsys, "soliton-table", divisor_file("d", Divisor(weights)),
                                 "--profiles", str(prof_dir))
            assert code == 0
        files = sorted(os.listdir(prof_dir))
        assert len(files) == 2
        for name in files:
            rows = (prof_dir / name).read_text().splitlines()[1:]
            assert len(rows) == 256
            assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
