"""Tests for the wavebench command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.predictor import clear_prediction_cache


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_predict_arguments(self):
        args = build_parser().parse_args(
            ["predict", "--app", "chimaera-240", "--cores", "1024", "--htile", "2"]
        )
        assert args.app == "chimaera-240"
        assert args.cores == 1024
        assert args.htile == 2.0
        assert args.platform == "cray-xt4"

    def test_scaling_parses_core_list(self):
        args = build_parser().parse_args(
            ["scaling", "--app", "sweep3d-1b", "--cores", "1024,2048,4096"]
        )
        assert args.cores == [1024, 2048, 4096]

    def test_htile_parses_value_list(self):
        args = build_parser().parse_args(
            ["htile", "--app", "chimaera-240", "--cores", "4096", "--values", "1,2,4"]
        )
        assert args.values == [1.0, 2.0, 4.0]

    @pytest.mark.parametrize(
        "command",
        [
            ["predict", "--app", "lu-classA", "--cores", "16", "--method", "exact"],
            ["predict", "--app", "lu-classA", "--cores", "16", "--mtbf", "1e4"],
            ["predict", "--app", "lu-classA", "--cores", "16",
             "--checkpoint-interval", "2e3"],
            ["platform", "describe", "--mtbf", "1e4"],
            ["platform", "describe", "--checkpoint-interval", "2e3"],
        ],
        ids=["method", "mtbf", "checkpoint-interval", "describe-mtbf",
             "describe-checkpoint-interval"],
    )
    def test_alias_flags_rejected(self, command):
        """``--backend`` and ``--faults`` are the one spelling of each setting."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(command)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "command",
        [
            ["htile", "--app", "chimaera-240", "--cores", "64"],
            ["optimize", "--app", "chimaera-240"],
            ["scaling", "--app", "lu-classA", "--cores", "4"],
            ["campaign", "run", "--name", "paper-validation"],
        ],
        ids=["htile", "optimize", "scaling", "campaign-run"],
    )
    def test_workers_is_the_only_pool_flag(self, command):
        assert build_parser().parse_args(command + ["--workers", "2"]).workers == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--executor", "process"])


class TestCommands:
    def test_predict_outputs_summary(self, capsys):
        assert main(["predict", "--app", "chimaera-240", "--cores", "1024"]) == 0
        out = capsys.readouterr().out
        assert "chimaera" in out
        assert "time_per_time_step_s" in out

    def test_predict_unknown_app_fails_helpfully(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", "--app", "not-a-benchmark", "--cores", "64"])
        assert "chimaera-240" in str(excinfo.value)

    @pytest.mark.parametrize(
        "command",
        [
            ["predict", "--app", "chimaera-240", "--cores", "64"],
            ["validate", "--app", "chimaera-240", "--cores", "64"],
            ["htile", "--app", "chimaera-240", "--cores", "64"],
            ["scaling", "--app", "chimaera-240", "--cores", "64"],
            ["pingpong"],
            ["platform", "describe"],
        ],
        ids=["predict", "validate", "htile", "scaling", "pingpong", "platform-describe"],
    )
    def test_unknown_platform_fails_helpfully(self, command):
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--platform", "zzz"])
        assert str(excinfo.value).startswith("unknown platform 'zzz'")
        assert "cray-xt4-quad-chip" in str(excinfo.value)

    def test_predict_nonpositive_cores_fails_helpfully(self):
        with pytest.raises(SystemExit, match="total_cores must be positive"):
            main(["predict", "--app", "chimaera-240", "--cores", "0"])

    def test_predict_htile_is_realised_like_campaigns(self, capsys):
        """Sweep3D heights come from integral ``mk`` blocking: 2.5 prices
        as the spec re-tiled to 2.5, and 2.2 is refused, as ``htile`` and
        campaigns refuse it."""
        from repro.apps.workloads import sweep3d_20m
        from repro.backends.service import predict_one
        from repro.platforms import cray_xt4

        assert main(["predict", "--app", "sweep3d-20m", "--cores", "16",
                     "--htile", "2.5", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        direct = predict_one(sweep3d_20m().with_htile(2.5), cray_xt4(), total_cores=16)
        assert record == json.loads(json.dumps(direct.summary()))
        with pytest.raises(SystemExit, match="Htile=2.2 is not representable"):
            main(["predict", "--app", "sweep3d-20m", "--cores", "16", "--htile", "2.2"])

    def test_htile_unrealisable_value_fails_helpfully(self):
        with pytest.raises(SystemExit, match="Htile=2.2 is not representable"):
            main(["htile", "--app", "sweep3d-20m", "--cores", "16", "--values", "1,2.2"])

    def test_table3_lists_benchmarks(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "nsweeps" in out and "nfull" in out and "ndiag" in out
        assert "chimaera" in out and "sweep3d" in out

    def test_htile_reports_optimum(self, capsys):
        assert main(
            ["htile", "--app", "chimaera-240", "--cores", "4096", "--values", "1,2,4"]
        ) == 0
        out = capsys.readouterr().out
        assert "optimal Htile" in out

    def test_scaling_table(self, capsys):
        assert main(["scaling", "--app", "sweep3d-1b", "--cores", "1024,4096"]) == 0
        out = capsys.readouterr().out
        assert "1024" in out and "4096" in out

    def test_scaling_on_worker_processes_matches_serial(self, capsys):
        command = ["scaling", "--app", "lu-classA", "--platform", "cray-xt4",
                   "--cores", "4,16,64", "--backend", "simulator"]
        assert main(command) == 0
        serial = capsys.readouterr().out
        # Forked workers would inherit the parent's memo; start them cold.
        clear_prediction_cache()
        assert main(command + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_pingpong_recovers_parameters(self, capsys):
        assert main(["pingpong", "--repetitions", "2"]) == 0
        out = capsys.readouterr().out
        assert "G (us/byte)" in out
        assert "0.0004" in out or "4.0000e-04" in out

    def test_validate_small_configuration(self, capsys):
        assert main(
            ["validate", "--app", "lu-classA", "--platform", "cray-xt4-1core", "--cores", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "error (%)" in out

    def test_workrate_measures_kernels(self, capsys):
        pytest.importorskip("numpy")
        assert main(["workrate", "--cells", "4", "--repetitions", "1"]) == 0
        out = capsys.readouterr().out
        assert "transport-sweep" in out
        assert "ssor-lower-sweep" in out


class TestOptimize:
    def test_parser_accepts_axis_flags(self):
        args = build_parser().parse_args(
            ["optimize", "--app", "chimaera-240", "--cores", "256,1024",
             "--htiles", "1,2,4", "--strategy", "golden-section", "--budget", "512"]
        )
        assert args.cores == [256, 1024]
        assert args.htiles == [1.0, 2.0, 4.0]
        assert args.strategy == "golden-section"
        assert args.budget == 512

    def test_optimize_prints_best_configuration(self, capsys):
        assert main(
            ["optimize", "--app", "chimaera-240", "--cores", "256",
             "--htiles", "1,2,4", "--pareto"]
        ) == 0
        out = capsys.readouterr().out
        assert "Htile=2" in out
        assert "model evaluations" in out
        assert "Pareto front" in out

    def test_optimize_requires_a_space_or_app(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["optimize", "--cores", "64"])
        assert "--space" in str(excinfo.value)

    def test_optimize_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["optimize", "--app", "chimaera-240", "--cores", "64",
                  "--htiles", "1,2", "--strategy", "annealing"])
        assert "golden-section" in str(excinfo.value)

    def test_optimize_rejects_impossible_budget(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["optimize", "--app", "chimaera-240", "--cores", "64",
                  "--htiles", "1,2", "--budget", "2"])
        assert "budget" in str(excinfo.value)

    def test_optimize_loads_space_files(self, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(
            {"app": "lu-classA", "total_cores": [16, 64], "htiles": [1, 2]}
        ))
        assert main(["optimize", "--space", str(path), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["space_size"] == 4
        assert record["evaluations"] == 4

    def test_optimize_cli_recovers_htile_study_optimum(self, capsys):
        """Acceptance flow: the CLI's golden-section optimum sits within one
        grid step of htile_study's exhaustive optimum (Sweep3D, cray-xt4)."""
        from functools import partial

        from repro.analysis.htile import htile_study
        from repro.campaigns.spec import apply_htile
        from repro.apps.workloads import sweep3d_20m
        from repro.platforms import cray_xt4

        grid = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0]
        assert main(
            ["optimize", "--app", "sweep3d-20m", "--platform", "cray-xt4",
             "--cores", "4096", "--htiles", "1,2,3,4,5,6,8,10",
             "--strategy", "golden-section", "--json"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        cli_best = record["best"]["point"]["htile"]
        exhaustive = htile_study(
            partial(apply_htile, sweep3d_20m()), cray_xt4(), 4096, grid
        ).optimal.htile
        assert abs(grid.index(cli_best) - grid.index(exhaustive)) <= 1
        # The guided search really did evaluate fewer candidates.
        assert record["evaluations"] < record["space_size"]


class TestBackendFlag:
    def test_predict_with_simulator_backend(self, capsys):
        assert main(
            ["predict", "--app", "lu-classA", "--platform", "cray-xt4-1core",
             "--cores", "4", "--backend", "simulator"]
        ) == 0
        out = capsys.readouterr().out
        assert "simulator" in out

    def test_predict_analytic_exact_backend(self, capsys):
        assert main(
            ["predict", "--app", "chimaera-240", "--cores", "64",
             "--backend", "analytic-exact", "--json"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["backend"] == "analytic-exact"

    def test_unknown_backend_fails(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", "--app", "chimaera-240", "--cores", "64",
                  "--backend", "psychic"])
        assert str(excinfo.value).startswith("unknown backend 'psychic'")
        assert "analytic-fast" in str(excinfo.value)

    def test_validate_rejects_simulator_self_comparison(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["validate", "--app", "chimaera-240", "--cores", "64",
                  "--backend", "simulator"])
        assert "itself" in str(excinfo.value)

    def test_scaling_accepts_backend(self, capsys):
        assert main(
            ["scaling", "--app", "sweep3d-1b", "--cores", "1024,4096",
             "--backend", "analytic-exact"]
        ) == 0
        assert "4096" in capsys.readouterr().out

    def test_htile_accepts_backend(self, capsys):
        assert main(
            ["htile", "--app", "chimaera-240", "--cores", "4096",
             "--values", "1,2", "--backend", "analytic-fast"]
        ) == 0
        assert "optimal Htile" in capsys.readouterr().out


class TestJsonOutput:
    def test_predict_json_is_machine_readable(self, capsys):
        assert main(
            ["predict", "--app", "chimaera-240", "--cores", "1024", "--json"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["application"] == "chimaera"
        assert record["processors"] == 1024
        assert record["backend"] == "analytic-fast"
        assert record["time_per_time_step_s"] > 0

    def test_validate_json_is_machine_readable(self, capsys):
        assert main(
            ["validate", "--app", "lu-classA", "--platform", "cray-xt4-1core",
             "--cores", "4", "--json"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["total_cores"] == 4
        assert record["model_us"] > 0
        assert record["simulated_us"] > 0
        assert abs(record["relative_error"]) < 1.0


class TestCampaignSpecErrors:
    """A bad ``--spec FILE`` ends in a one-line exit, not a traceback."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "not valid JSON"),
            (
                json.dumps(
                    {
                        "name": "legacy",
                        "apps": ["lu-classA"],
                        "platforms": ["cray-xt4"],
                        "total_cores": [4],
                        "compute_noise": 0.05,
                    }
                ),
                'noise_models: ["sampled:0.05"]',
            ),
            (None, "No such file"),
        ],
        ids=["invalid-json", "retired-compute-noise", "missing-file"],
    )
    def test_campaign_run_spec_error_exits(self, tmp_path, text, message):
        spec_file = tmp_path / "spec.json"
        if text is not None:
            spec_file.write_text(text, encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "run", "--spec", str(spec_file),
                  "--store", str(tmp_path / "store")])
        assert message in str(excinfo.value.code)
