import json

import pytest
from click.testing import CliRunner

from kcmlab import kcm
from kcmlab.cli import main
from kcmlab.families import builtin_family
from kcmlab.harness import exact_report


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    result = runner.invoke(main, args, **kw)
    if result.exit_code != 0 and result.exception:
        import traceback

        traceback.print_exception(*result.exc_info)
    return result


class TestClassify:
    def test_east1d(self, runner):
        result = invoke(runner, ["classify", "--family", "east1d"])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["classification"] == "SupercriticalRooted"
        assert out["arcs"]

    def test_duarte_without_arcs(self, runner):
        result = invoke(runner, ["classify", "--family", "duarte", "--no-arcs"])
        out = json.loads(result.output)
        assert out["classification"] == "NotSupercritical"
        assert "arcs" not in out

    def test_bad_family_is_clean_error(self, runner):
        for command in (["classify"], ["kcm-run", "--q", "0.3"]):
            result = runner.invoke(main, command + ["--family", "nope"])
            assert result.exit_code == 1
            lines = result.output.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("Error:")
            assert all(name in lines[0] for name in ("east1d", "east2d", "duarte"))
            assert "Traceback" not in result.output


class TestBootstrapClose:
    def test_sorted_site_lines(self, runner):
        result = invoke(
            runner,
            ["bootstrap-close", "--family", "duarte", "--sites", "0,1;0,0;1,5"],
        )
        assert result.exit_code == 0
        lines = result.stdout.strip().splitlines()
        sites = [tuple(map(int, ln.split(","))) for ln in lines]
        assert sites == sorted(sites)
        assert set(sites) >= {(0, 0), (0, 1), (1, 5)}
        assert "rounds=" in result.stderr
        assert "touched_cap=false" in result.stderr

    def test_input_file(self, runner, tmp_path):
        p = tmp_path / "seed.txt"
        p.write_text("# a comment\n0,0\n")
        result = invoke(runner, ["bootstrap-close", "--family", "duarte", "--input", str(p)])
        assert result.stdout.strip() == "0,0"

    def test_missing_seed(self, runner):
        result = runner.invoke(main, ["bootstrap-close", "--family", "east1d"])
        assert result.exit_code != 0

    @pytest.mark.parametrize("sites, entry", [
        ("1", "'1'"), ("1,a", "'1,a'"), ("0,0;1,2,3", "'1,2,3'"), ("0,0; 4 ;1,5", "'4'"),
    ])
    def test_bad_site_is_named(self, runner, sites, entry):
        result = runner.invoke(main, ["bootstrap-close", "--family", "duarte", "--sites", sites])
        assert result.exit_code == 1
        assert result.output == f"Error: --sites: expected 'x,y' integers, got {entry}\n"


class TestBootstrapTime:
    def test_json_shape(self, runner):
        result = invoke(
            runner,
            ["bootstrap-time", "--family", "duarte", "--q", "0.4",
             "--box", "8", "--trials", "10", "--seed", "1"],
        )
        out = json.loads(result.output)
        assert set(out) == {"median", "q1", "q3", "censored", "trials"}
        assert out["trials"] == 10

    def test_censored_median_is_null(self, runner):
        fam = '{"name":"stuck","rules":[[[1,0],[2,0]]]}'
        result = invoke(
            runner,
            ["bootstrap-time", "--family", fam, "--q", "0.01",
             "--box", "3", "--trials", "5", "--seed", "1"],
        )
        out = json.loads(result.output)
        assert out["median"] is None


class TestKcmRun:
    def test_csv_to_stdout(self, runner):
        result = invoke(
            runner,
            ["kcm-run", "--family", "east1d", "--q", "0.4", "--box", "4x1",
             "--trials", "5", "--tmax", "100", "--seed", "3"],
        )
        lines = result.stdout.splitlines()
        assert lines[0].startswith("# kcm-lab v")
        assert lines[0].endswith("seed=3")
        assert lines[1] == "trial,seed,q,tau0,censored,events,legal_updates"
        assert len(lines) == 2 + 5
        row = lines[2].split(",")
        assert row[0] == "0" and row[1] == "3"
        float(row[3])  # tau0 parses
        summary = result.stderr.strip().splitlines()[-1]
        assert "median=" in summary
        events = sum(int(line.split(",")[5]) for line in lines[2:])
        assert f" events={events} " in summary
        assert summary.endswith(f"backend={kcm.backend()}")

    def test_backend_names_the_fallback(self, runner, monkeypatch):
        monkeypatch.setattr(kcm, "_event_loop", kcm._event_loop_lists)
        result = invoke(
            runner,
            ["kcm-run", "--family", "east1d", "--q", "0.4", "--box", "4x1",
             "--trials", "3", "--tmax", "100", "--seed", "3"],
        )
        assert result.exit_code == 0
        assert result.stderr.strip().splitlines()[-1].endswith("backend=python")

    def test_csv_to_file(self, runner, tmp_path):
        out = tmp_path / "runs.csv"
        result = invoke(
            runner,
            ["kcm-run", "--family", "east1d", "--q", "0.4", "--box", "4x1",
             "--trials", "5", "--tmax", "100", "--seed", "3", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert out.read_text().splitlines()[1].startswith("trial,")

    def test_bad_box(self, runner):
        result = runner.invoke(
            main, ["kcm-run", "--family", "east1d", "--q", "0.4", "--box", "four"]
        )
        assert result.exit_code != 0
        assert "WxH" in result.output or "WxH" in (result.stderr or "")


class TestExact:
    def test_report_shape(self, runner):
        result = invoke(runner, ["exact", "--family", "east1d", "--q", "0.3", "--box", "3x1"])
        out = json.loads(result.output)
        assert set(out) == {"gap", "t_rel", "e_mu_tau0", "ratio_check", "residuals"}
        assert out["ratio_check"] is True
        assert out["gap"] > 0

    def test_small_q_succeeds(self, runner):
        result = invoke(runner, ["exact", "--family", "east1d", "--q", "0.03", "--box", "8x1"])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert abs(out["e_mu_tau0"] - 343287.72299353481505) <= 1e-9 * out["e_mu_tau0"]

    def test_rectangle_matches_harness(self, runner):
        result = invoke(runner, ["exact", "--family", "duarte", "--q", "0.3", "--box", "3x3"])
        assert json.loads(result.output) == exact_report(builtin_family("duarte"), 3, 0.3)

    @pytest.mark.parametrize("args, message", [
        (["--box", "15x1", "--q", "0.3"], "exceeds cap"),
        (["--box", "4x1", "--q", "1.5"], "q must lie in (0,1)"),
    ])
    def test_bad_input_is_clean_error(self, runner, args, message):
        result = runner.invoke(main, ["exact", "--family", "east1d", *args])
        assert result.exit_code == 1
        lines = result.output.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("Error: ")
        assert message in lines[0]


class TestOutOfRangeInput:
    @pytest.mark.parametrize("args, message", [
        (["kcm-run", "--family", "east1d", "--q", "1.5"], "q must lie in (0,1)"),
        (["bootstrap-time", "--family", "duarte", "--q", "1.5", "--box", "4"],
         "q must lie in (0,1]"),
        (["sweep", "--kind", "kcm", "--family", "east1d", "--q", "1.5", "--box", "4"],
         "q=1.5 outside (0,1)"),
        (["sweep", "--kind", "kcm", "--family", "duarte", "--q", "0.3", "--box", "0"],
         "box must be >= 1"),
        (["duarte-phi", "--n-columns", "3", "--ell", "2", "--q", "1.5"],
         "q must lie in [0,1]"),
        (["duarte-phi", "--n-columns", "300", "--ell", "2"],
         "N = 300 columns hold 27089700 sites, above the limit of 4194304"),
        (["bootstrap-time", "--family", "duarte", "--q", "0.2", "--box", "100000",
          "--trials", "1"],
         "box 100000 holds 40000400001 cells, above the limit of 134217728"),
        # a row whose origin is frozen while the row below it moves: with an
        # unchecked t_max of nan its trial would never end
        (["kcm-run", "--family", '{"name":"wb","rules":[[[-1,0],[1,0]]]}', "--box", "3x2",
          "--q", "0.3", "--trials", "20", "--seed", "1", "--tmax", "nan"],
         "t_max must be finite and positive, got nan"),
        # refused before any cell runs, not written into the manifest
        (["sweep", "--kind", "kcm", "--family", "east1d", "--q", "0.3", "--box", "4",
          "--tmax", "inf"],
         "t_max must be finite and positive, got inf"),
    ], ids=["kcm-run", "bootstrap-time", "sweep", "sweep-box", "duarte-phi",
            "duarte-phi-oversized", "bootstrap-time-oversized", "kcm-run-tmax-nan",
            "sweep-tmax-inf"])
    def test_one_line_error(self, runner, tmp_path, args, message):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(main, args)
        assert result.exit_code == 1
        lines = result.output.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("Error: ")
        assert message in lines[0]


class TestSmallCommands:
    def test_east_barrier(self, runner):
        result = invoke(runner, ["east-barrier", "--ell", "7"])
        assert json.loads(result.output) == {"ell": 7, "barrier": 3}

    def test_an_reach(self, runner):
        result = invoke(runner, ["an-reach", "--family", "east2d", "--n", "2"])
        out = json.loads(result.output)
        assert out["origin_infectable"] is False
        assert out["reachable_states"] == 18


class TestDuartePhi:
    def test_sampled_profile_shape(self, runner):
        result = invoke(
            runner,
            ["duarte-phi", "--n-columns", "3", "--ell", "2", "--q", "0.3",
             "--seed", "4", "--n1", "1", "--n2", "2"],
        )
        out = json.loads(result.output)
        assert set(out) == {"phi", "droplets", "b1", "b2"}
        assert len(out["phi"]) == 3
        assert all(c in "UD" for c in out["phi"])
        assert out["b1"]["n"] == 1
        assert out["b2"]["n"] == 2

    def test_input_file_all_occupied(self, runner, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        result = invoke(
            runner,
            ["duarte-phi", "--n-columns", "3", "--ell", "2", "--input", str(p)],
        )
        out = json.loads(result.output)
        assert out["phi"] == "DDD"
        assert out["droplets"] == []
        assert out["b1"]["hit"] is False
        assert out["b2"]["hit"] is False
        assert out["b2"]["witness"] is None

    @pytest.mark.parametrize("flag", ["--n1", "--n2"])
    def test_event_scales_below_one_rejected(self, runner, flag):
        result = runner.invoke(
            main, ["duarte-phi", "--n-columns", "3", "--ell", "2", flag, "0"]
        )
        assert result.exit_code == 2
        assert f"Error: Invalid value for '{flag}': 0 is not in the range x>=1." in result.output
        assert '"b1"' not in result.output

    def test_input_outside_region(self, runner, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("99,99\n")
        result = runner.invoke(
            main, ["duarte-phi", "--n-columns", "3", "--ell", "2", "--input", str(p)]
        )
        assert result.exit_code != 0

    def test_malformed_input_line_is_named(self, runner, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("# a comment\n-2,1\n\n-1,0;-1,x\n")
        result = runner.invoke(
            main, ["duarte-phi", "--n-columns", "3", "--ell", "2", "--input", str(p)]
        )
        assert result.exit_code == 1
        assert result.output == f"Error: {p} line 4: expected 'x,y' integers, got '-1,x'\n"


class TestSweepAndFit:
    def test_sweep_then_fit(self, runner, tmp_path):
        out_dir = tmp_path / "sweep"
        result = invoke(
            runner,
            ["sweep", "--kind", "bootstrap", "--family", "east1d",
             "--q", "0.5", "--q", "0.4", "--q", "0.3", "--q", "0.25",
             "--box", "32", "--trials", "40", "--seed", "6",
             "--out-dir", str(out_dir)],
        )
        assert result.exit_code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        csv_path = tmp_path / "medians.csv"
        rows = ["q,time"]
        for cell in manifest["cells"]:
            rows.append(f"{cell['q']},{cell['summary']['median']}")
        csv_path.write_text("\n".join(rows) + "\n")
        fit_res = invoke(runner, ["fit", "--input", str(csv_path)])
        out = json.loads(fit_res.output)
        assert set(out) == {"fits", "winner", "n_points", "excluded"}
        assert set(out["fits"]) == {
            "log_sq", "inv_q", "log_sq_over_q", "log_4_over_q_sq"
        }

    def test_kcm_run_equals_sweep_csv(self, runner, tmp_path):
        # both commands write the trial CSV through one code path
        common = ["--family", "east1d", "--q", "0.35", "--trials", "12",
                  "--tmax", "500", "--seed", "9"]
        run = invoke(runner, ["kcm-run", "--box", "6x1", *common])
        assert run.exit_code == 0
        result = invoke(runner, ["sweep", "--kind", "kcm", "--box", "6",
                                 "--out-dir", str(tmp_path), *common])
        assert result.exit_code == 0
        assert run.stdout == (tmp_path / "kcm_q0.3500.csv").read_text()

    def test_fit_rejects_sweep_csv(self, runner, tmp_path):
        result = invoke(runner, ["sweep", "--kind", "kcm", "--family", "east1d",
                                 "--q", "0.4", "--box", "4", "--trials", "3",
                                 "--tmax", "50", "--out-dir", str(tmp_path)])
        assert result.exit_code == 0
        csv_path = tmp_path / "kcm_q0.4000.csv"
        fit_res = runner.invoke(main, ["fit", "--input", str(csv_path)])
        assert fit_res.exit_code == 1
        lines = fit_res.output.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("Error: ")
        assert "line 2" in lines[0] and "'q,time'" in lines[0]
        assert "trial,seed" in lines[0]

    @pytest.mark.parametrize("rows, message", [
        (["0.4,2", "0,3", "0.2,8"], "q must lie in (0,1), got 0.0"),
        (["0.3,1", "0.3,2", "0.3,4"], "need >= 2 distinct q, have only q=0.3"),
    ], ids=["q-zero", "one-q"])
    def test_fit_bad_points_are_one_line_errors(self, runner, tmp_path, rows, message):
        csv_path = tmp_path / "medians.csv"
        csv_path.write_text("\n".join(["q,time", *rows]) + "\n")
        result = runner.invoke(main, ["fit", "--input", str(csv_path)])
        assert result.exit_code == 1
        assert result.output == f"Error: {message}\n"

    def test_sweep_partial_failure_exits_nonzero(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["sweep", "--kind", "exact", "--family", "east1d",
             "--q", "0.3", "--box", "15", "--out-dir", str(tmp_path)],
        )
        assert result.exit_code == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "partial-failure"
        assert manifest["backend"] == kcm.backend()
        assert manifest["cells"][0]["error_type"] == "StateSpaceError"


class TestConfigFile:
    def test_flat_config_supplies_defaults(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "east1d", "ell": 5}))
        result = invoke(runner, ["--config", str(cfg), "east-barrier"])
        assert json.loads(result.output) == {"ell": 5, "barrier": 3}

    def test_sectioned_config(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "east-barrier": {"ell": 3},
            "classify": {"family": "east1d"},
        }))
        result = invoke(runner, ["--config", str(cfg), "east-barrier"])
        assert json.loads(result.output)["barrier"] == 2
        result = invoke(runner, ["--config", str(cfg), "classify"])
        assert json.loads(result.output)["classification"] == "SupercriticalRooted"

    def test_flags_override_config(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ell": 3}))
        result = invoke(runner, ["--config", str(cfg), "east-barrier", "--ell", "7"])
        assert json.loads(result.output) == {"ell": 7, "barrier": 3}

    @pytest.mark.parametrize("text", ["[1, 2]", '"x"', "3", "null"])
    def test_config_that_is_not_an_object_is_clean_error(self, runner, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        result = runner.invoke(main, ["--config", str(cfg), "east-barrier", "--ell", "3"])
        assert result.exit_code == 1
        lines = result.output.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("Error: ")
        assert "config must be a JSON object" in lines[0]

    def test_version(self, runner):
        result = invoke(runner, ["--version"])
        assert "kcm-lab" in result.output
