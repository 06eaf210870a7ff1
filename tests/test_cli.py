"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import _COMMANDS, build_parser, main


class TestParser:
    def test_known_commands(self):
        parser = build_parser()
        for cmd in (
            "fig16", "fig17", "fig18", "fig19", "table1",
            "ablations", "scaling", "sensitivity", "info",
        ):
            args = parser.parse_args([cmd])
            assert args.command == cmd

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["info"])
        assert args.seed == 2023
        assert args.steps == 200
        assert args.output is None
        assert args.node == 1
        assert args.iteration == 3

    def test_recover_command_parses(self):
        args = build_parser().parse_args(
            ["recover", "--node", "3", "--iteration", "2", "--json", "x.json"]
        )
        assert args.command == "recover"
        assert args.node == 3
        assert args.iteration == 2

    def test_help_renders(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        assert "--baseline" in out and "--force-impl" in out
        assert "recover" in out

    def test_scoped_help_names_known_commands(self):
        """An option documented "for `X`" names only real commands.

        Every ``;``-separated clause of a help text that starts with
        ``for `` scopes the option to the backticked commands before its
        colon; each must be a subcommand, so retiring a command cannot
        leave its options' help pointing at it.
        """
        scoped = {}
        for action in build_parser()._actions:
            for clause in (action.help or "").split(";"):
                clause = clause.strip()
                if clause.startswith("for `"):
                    head = clause.split(":", 1)[0]
                    scoped.setdefault(action.dest, []).extend(
                        re.findall(r"`([^`]+)`", head)
                    )
        assert {"baseline", "force_impl", "smoke", "chaos"} <= set(scoped)
        for dest, names in scoped.items():
            unknown = sorted(set(names) - set(_COMMANDS))
            assert not unknown, f"--{dest} help names {unknown}"


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "4x4x4-C" in out and "10x10x10-125F" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "lut.model" in out

    def test_fig19_short(self, capsys):
        assert main(["fig19", "--steps", "10"]) == 0
        out = capsys.readouterr().out
        assert "rel err" in out

    def test_output_file(self, tmp_path, capsys):
        path = str(tmp_path / "out.txt")
        assert main(["info", "--output", path]) == 0
        capsys.readouterr()
        with open(path) as fh:
            assert "FASDA design points" in fh.read()

    def test_fig18(self, capsys):
        assert main(["fig18"]) == 0
        out = capsys.readouterr().out
        assert "Fig 18(A)" in out and "Fig 18(B)" in out

    def test_sensitivity(self, capsys):
        assert main(["sensitivity"]) == 0
        out = capsys.readouterr().out
        assert "C/A gain" in out

    @pytest.mark.parametrize(
        "argv,sizes",
        [
            ([], (64, 12)),
            # An option set to another subcommand's default is still set.
            (["--batch-k", "256"], (256, 12)),
            (["--batch-steps", "30"], (64, 30)),
            (["--batch-k", "8", "--batch-steps", "5"], (8, 5)),
        ],
    )
    def test_jobs_chaos_sizes(self, argv, sizes, monkeypatch):
        import repro.harness.faultsweep as fs

        seen = []

        def stub_soak(k_jobs, steps, **kwargs):
            seen.append((k_jobs, steps))
            raise RuntimeError("stub")

        monkeypatch.setattr(fs, "run_job_soak", stub_soak)
        with pytest.raises(RuntimeError, match="stub"):
            main(["jobs", "--chaos"] + argv)
        assert seen == [sizes]

    def test_recover_smoke(self, tmp_path, capsys, monkeypatch):
        import repro.cli as cli_mod
        import repro.harness.faultsweep as fs

        # Keep the CLI smoke cheap: stub the heavy soak, run the demo.
        real_soak = fs.run_node_soak

        def tiny_soak(n_steps=4, seeds=(2023,), **kwargs):
            return real_soak(
                mtbfs=(3.0,), intervals=(2,), n_steps=3, seeds=(seeds[0],)
            )

        monkeypatch.setattr(fs, "run_node_soak", tiny_soak)
        path = str(tmp_path / "FAULTS_nodes.json")
        assert main(["recover", "--json", path]) == 0
        out = capsys.readouterr().out
        assert "bitwise identical" in out
        assert "watchdog" in out
        import json

        doc = json.load(open(path))
        assert doc["unrecovered"] == 0
        assert doc["demo"]["bitwise_identical"]
