"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


#: a non-integer or out-of-range value per integer flag, and the flag
#: the usage error must name
_BAD_INTEGER_FLAGS = [
    (["required-queries", "--n", "0"], "--n"),
    (["required-queries", "--n", "100", "--k", "3", "--trials", "0"],
     "--trials"),
    (["required-queries", "--k", "-1"], "--k"),
    (["required-queries", "--max-m", "0"], "--max-m"),
    (["required-queries", "--check-every", "0"], "--check-every"),
    (["required-queries", "--gamma", "2.5"], "--gamma"),
    (["required-queries", "--seed", "-1"], "--seed"),
    (["required-queries", "--workers", "-2"], "--workers"),
    (["fig2", "--n-points", "0"], "--n-points"),
    (["fig2", "--trials", "many"], "--trials"),
    (["robustness_degradation", "--m", "0"], "--m"),
    (["robustness_loss", "--max-delay", "-1"], "--max-delay"),
    (["robustness_comm", "--n-values", "64", "0"], "--n-values"),
    (["ablation_design", "--m-points", "0"], "--m-points"),
    (["serve", "--port", "70000"], "--port"),
    (["serve", "--max-batch", "0"], "--max-batch"),
]


class TestParser:
    def test_requires_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_figure(self):
        # The socket-backend worker and the threshold-search
        # subcommands were removed: they are now as unknown as any
        # other command.
        for argv in (["fig99"], ["worker", "serve"], ["threshold"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_accepts_options(self):
        args = build_parser().parse_args(
            ["fig2", "--trials", "3", "--n-max", "500", "--seed", "7"]
        )
        assert args.figure == "fig2"
        assert args.trials == 3
        assert args.n_max == 500
        assert args.seed == 7

    def test_workers_flag(self):
        assert build_parser().parse_args(["fig2"]).workers is None
        args = build_parser().parse_args(["fig2", "--workers", "4"])
        assert args.workers == 4

    def test_backend_flag(self):
        # every sweep subcommand exposes --backend with the engine's
        # shared backend constants
        from repro.experiments.scheduler import BACKENDS

        for command in ("fig2", "fig6", "required-queries"):
            assert build_parser().parse_args([command]).backend is None
            for backend in BACKENDS:
                args = build_parser().parse_args(
                    [command, "--backend", backend]
                )
                assert args.backend == backend
        for backend in ("quantum", "socket"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["fig6", "--backend", backend])

    def test_ablation_design_subcommand(self):
        args = build_parser().parse_args(["ablation_design", "--trials", "4"])
        assert args.figure == "ablation_design"
        assert args.trials == 4
        args = build_parser().parse_args(
            ["ablation_design", "--n-values", "200", "400", "--m-points", "6"]
        )
        assert args.n_values == [200, 400]
        assert args.m_points == 6
        # the shared fig2-7 grid flags do not apply and are rejected
        # rather than silently ignored
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablation_design", "--n-max", "5000"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablation_design", "--full-scale"])

    def test_all_runs_paper_figures_only(self, monkeypatch):
        # `repro all` regenerates fig2-fig7; the design ablation runs
        # only by name (it has its own grid and ignores the n flags).
        import repro.cli as cli

        ran = []

        def fake_run_figure(name, **kwargs):
            ran.append(name)
            from repro.experiments.figures import FigureResult

            return FigureResult(figure=name, description="", params={})

        monkeypatch.setattr(cli, "run_figure", fake_run_figure)
        assert main(["all", "--trials", "1"]) == 0
        assert ran == ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7"]

    def test_figure_algorithms_flag(self):
        args = build_parser().parse_args(["fig2", "--algorithms", "greedy", "amp"])
        assert args.algorithms == ["greedy", "amp"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig2", "--algorithms", "distributed"])

    def test_robustness_degradation_subcommand(self):
        args = build_parser().parse_args(
            [
                "robustness_degradation", "--fault-kind", "flip",
                "--fault-rate", "0.0", "0.01", "--algorithms", "greedy",
                "twostage", "--n", "200", "--m", "120",
            ]
        )
        assert args.figure == "robustness_degradation"
        assert args.fault_kind == "flip"
        assert args.fault_rate == [0.0, 0.01]
        assert args.algorithms == ["greedy", "twostage"]
        assert args.n == 200 and args.m == 120
        # the fig2-7 grid flags do not apply and are rejected
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["robustness_degradation", "--n-max", "5000"]
            )

    def test_robustness_loss_subcommand(self):
        args = build_parser().parse_args(
            [
                "robustness_loss", "--drop", "0.0", "0.5", "--delay", "0.1",
                "--max-delay", "2",
            ]
        )
        assert args.figure == "robustness_loss"
        assert args.drop == [0.0, 0.5]
        assert args.delay == 0.1
        assert args.max_delay == 2

    def test_robustness_comm_subcommand(self):
        args = build_parser().parse_args(
            ["robustness_comm", "--n-values", "64", "128", "--m-fraction",
             "0.5"]
        )
        assert args.figure == "robustness_comm"
        assert args.n_values == [64, 128]
        assert args.m_fraction == 0.5

    @pytest.mark.parametrize("bad", ["-0.1", "1.5", "nan", "two"])
    def test_fault_rates_are_validated_probabilities(self, bad):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["robustness_loss", "--drop", bad])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["robustness_degradation", "--fault-rate", bad]
            )

    def test_robustness_kind_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["robustness_degradation", "--fault-kind", "gamma-ray"]
            )

    def test_required_queries_defaults(self):
        args = build_parser().parse_args(["required-queries"])
        assert args.command == "required-queries"
        assert args.algorithm == "greedy"
        assert args.check_every == 1
        assert args.max_m is None
        assert args.workers is None

    def test_required_queries_amp_options(self):
        args = build_parser().parse_args(
            ["required-queries", "--algorithm", "amp", "--check-every", "8",
             "--max-m", "500", "--workers", "2", "--channel", "gaussian",
             "--lam", "2.0"]
        )
        assert args.algorithm == "amp"
        assert args.check_every == 8
        assert args.max_m == 500
        assert args.workers == 2
        assert args.channel == "gaussian"

    def test_algorithm_choices_come_from_shared_constants(self):
        # required-queries accepts exactly the required-m-capable
        # algorithms.
        from repro.experiments.runner import REQUIRED_QUERIES_ALGORITHMS

        for algorithm in REQUIRED_QUERIES_ALGORITHMS:
            args = build_parser().parse_args(
                ["required-queries", "--algorithm", algorithm]
            )
            assert args.algorithm == algorithm
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["required-queries", "--algorithm", "distributed"]
            )

    @pytest.mark.parametrize(
        "flag, bad",
        [
            ("--p", "1.5"),
            ("--p", "1.0"),
            ("--p", "nan"),
            ("--q", "-0.1"),
            ("--lam", "nan"),
            ("--lam", "inf"),
            ("--lam", "-1"),
        ],
    )
    def test_channel_flags_fail_at_parse_time(self, flag, bad, capsys):
        # A bad channel parameter exits 2 with a usage line before any
        # trial runs, instead of a ValueError traceback mid-sweep.
        with pytest.raises(SystemExit) as exc:
            main(["required-queries", flag, bad])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {flag}" in err


    @pytest.mark.parametrize(
        "argv, flag", _BAD_INTEGER_FLAGS,
        ids=[" ".join(argv) for argv, _ in _BAD_INTEGER_FLAGS],
    )
    def test_integer_flags_fail_at_parse_time(self, argv, flag, capsys):
        # A bad integer exits 2 with a usage line before any trial runs,
        # instead of a ValueError traceback from the library.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {flag}" in err

    def test_bad_environment_variable_exits_2_with_its_message(
        self, monkeypatch, capsys
    ):
        # A ConfigError from a REPRO_* variable is reported like a bad
        # flag: one line on stderr and exit status 2, no traceback.
        from repro.experiments.parallel import WORKERS_ENV

        monkeypatch.setenv(WORKERS_ENV, "1.5")
        rc = main(["required-queries", "--n", "100", "--k", "3",
                   "--trials", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (
            f"repro: error: {WORKERS_ENV} must be an integer >= 0, "
            "got '1.5'\n"
        )


class TestMain:
    def test_fig2_tiny(self, capsys):
        rc = main(["fig2", "--trials", "1", "--n-min", "60", "--n-max", "120",
                   "--n-points", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "p=0.1" in out

    def test_fig7_tiny_with_save(self, tmp_path, capsys):
        rc = main(["fig7", "--trials", "2", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "fig7.json").exists()
        assert (tmp_path / "fig7.csv").exists()

    def test_robustness_degradation_end_to_end(self, tmp_path, capsys):
        rc = main(
            [
                "robustness_degradation", "--trials", "3", "--n", "150",
                "--fault-rate", "0.0", "0.6", "--out", str(tmp_path),
                "--plot",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "robustness_degradation" in out
        assert "twostage" in out
        assert "fault_rate" in out
        assert (tmp_path / "robustness_degradation.json").exists()
        assert (tmp_path / "robustness_degradation.csv").exists()

    def test_robustness_loss_tiny(self, capsys):
        rc = main(
            ["robustness_loss", "--trials", "2", "--n", "48", "--m", "90",
             "--drop", "0.0", "0.4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "lossy-broadcast" in out
        assert "mean_dropped" in out

    def test_required_queries_amp_tiny(self, tmp_path, capsys):
        rc = main(
            ["required-queries", "--algorithm", "amp", "--n", "120", "--k",
             "3", "--channel", "noiseless", "--trials", "2", "--check-every",
             "4", "--max-m", "300", "--out", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "amp" in out
        assert "required_m_median" in out
        saved = tmp_path / "required_queries_amp.json"
        assert saved.exists()
        from repro.experiments.storage import load_required_queries_sample

        assert load_required_queries_sample(saved).algorithm == "amp"

    def test_required_queries_engines_agree(self, capsys):
        import repro
        from repro.utils.rng import spawn_seeds

        from reference import required_queries_amp_linear

        common = ["required-queries", "--algorithm", "amp", "--n", "100",
                  "--k", "3", "--channel", "z", "--p", "0.1", "--trials",
                  "2", "--check-every", "4", "--max-m", "200"]
        assert main(common) == 0
        out = capsys.readouterr().out
        # the reported stopping m's are the brute-force scan's
        runs = required_queries_amp_linear(
            100, 3, repro.ZChannel(0.1), spawn_seeds(2022, 2),
            check_every=4, max_m=200,
        )
        values = [r.required_m for r in runs if r.succeeded]
        assert ["values", str(values)] in [
            line.split(None, 1) for line in out.splitlines()
        ]
        # --engine and --kernel are gone from every subcommand
        for command in (common, ["fig6"]):
            for flag in (["--engine", "legacy"], ["--kernel", "numpy"]):
                with pytest.raises(SystemExit):
                    build_parser().parse_args(command + flag)

    def test_fig2_tiny_sharded_matches_serial(self, tmp_path, capsys):
        common = ["fig2", "--trials", "2", "--n-min", "60", "--n-max", "120",
                  "--n-points", "2"]
        rc = main(common + ["--out", str(tmp_path / "serial")])
        out_serial = capsys.readouterr().out
        assert rc == 0
        rc = main(common + ["--workers", "2", "--out", str(tmp_path / "sharded")])
        out_sharded = capsys.readouterr().out
        assert rc == 0
        serial = (tmp_path / "serial" / "fig2.csv").read_text()
        sharded = (tmp_path / "sharded" / "fig2.csv").read_text()
        assert serial == sharded


class TestRobustnessFlags:
    def test_checkpoint_and_auth_token_parse(self):
        # --auth-token authenticates the decode service's wire only;
        # the sweep subcommands have no wire and reject it.
        for command in ("fig2", "required-queries"):
            args = build_parser().parse_args([command])
            assert args.checkpoint is None
            args = build_parser().parse_args(
                [command, "--checkpoint", "/tmp/ckpt"]
            )
            assert args.checkpoint == "/tmp/ckpt"
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--auth-token", "s3"])
        args = build_parser().parse_args(["serve", "--auth-token", "s3"])
        assert args.auth_token == "s3"

    def test_checkpoint_flag_writes_and_resumes(self, tmp_path, capsys,
                                                monkeypatch):
        from repro.experiments.checkpoint import CHECKPOINT_ENV

        # setenv-then-delenv (not bare delenv) so monkeypatch records
        # an undo even when the var starts absent: main() exports the
        # flag into os.environ, which must not leak past this test.
        monkeypatch.setenv(CHECKPOINT_ENV, "sentinel")
        monkeypatch.delenv(CHECKPOINT_ENV)
        common = ["fig2", "--trials", "1", "--n-min", "60", "--n-max",
                  "120", "--n-points", "2"]
        ckpt = tmp_path / "ckpt"
        assert main(common + ["--checkpoint", str(ckpt)]) == 0
        out_first = capsys.readouterr().out
        assert any(ckpt.glob("plan-*/manifest.json"))
        # Second run restores every cell from the checkpoint and
        # reports identically.
        assert main(common + ["--checkpoint", str(ckpt)]) == 0
        out_resumed = capsys.readouterr().out
        assert (out_first.split("completed")[0]
                == out_resumed.split("completed")[0])

    def test_serve_bind_failure_exits_nonzero(self, capsys):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen()
        port = blocker.getsockname()[1]
        try:
            rc = main(["serve", "--port", str(port)])
        finally:
            blocker.close()
        assert rc == 1
        assert "[serve] error:" in capsys.readouterr().err
