"""Tests for the ``figures`` command plumbing (not the full experiments).

``figures --set`` runs the paper's figure tables under a non-default
WAN model or placement policy: each ``network.*``/``scheduler.*``
override compiles through ``ScenarioSpec().replace(...)`` into the
``MetadataConfig`` every config-taking figure receives.
"""

import pytest

from repro import cli
from repro.cli import main

CONFIG_FIGURES = ("fig5", "fig6", "fig7", "fig8", "fig10")


class _FakeResult:
    def render(self):
        return "FAKE-TABLE"


@pytest.fixture
def calls(monkeypatch):
    """Replace every figure runner with a fake recording its kwargs."""
    seen = {}
    for name in ("fig1", "fig3", *CONFIG_FIGURES):

        def fake(_name=name, **kwargs):
            seen[_name] = kwargs
            return _FakeResult()

        monkeypatch.setattr(cli, f"run_{name}", fake)
    return seen


class TestFiguresStructure:
    def test_quick_and_full_cover_same_figures(self, calls):
        for quick in (True, False):
            for name, fn in cli.FIGURES.items():
                fn(quick, None)
        assert set(calls) == set(cli.FIGURES)

    def test_figures_render_into_stdout(self, calls, capsys):
        assert main(["figures", "--quick", "--only", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "=== fig5 ===" in out
        assert "FAKE-TABLE" in out

    def test_no_set_passes_no_config(self, calls, capsys):
        assert main(["figures", "--quick"]) == 0
        for name in CONFIG_FIGURES:
            assert calls[name]["config"] is None


class TestFiguresSet:
    def test_bandwidth_model_reaches_each_figure_config(self, calls, capsys):
        assert (
            main(
                ["figures", "--quick", "--set", "network.bandwidth_model=fair"]
            )
            == 0
        )
        for name in CONFIG_FIGURES:
            assert calls[name]["config"].bandwidth_model == "fair", name
        # fig1 and fig3 probe fixed configurations of their own.
        assert "config" not in calls["fig1"]
        assert "config" not in calls["fig3"]

    def test_scheduler_with_fair_network(self, calls, capsys):
        argv = [
            "figures", "--quick", "--only", "fig10",
            "--set", "scheduler.name=bandwidth_aware",
            "--set", "network.bandwidth_model=fair",
        ]
        assert main(argv) == 0
        config = calls["fig10"]["config"]
        assert config.scheduler == "bandwidth_aware"
        assert config.bandwidth_model == "fair"

    def test_scheduler_alone_keeps_network_defaults(self, calls, capsys):
        argv = [
            "figures", "--quick", "--only", "fig10",
            "--set", "scheduler.name=hybrid",
        ]
        assert main(argv) == 0
        config = calls["fig10"]["config"]
        assert config.scheduler == "hybrid"
        assert config.bandwidth_model is None

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("scheduler.hybrid_locality_weight=2.0",
             "require scheduler.name='hybrid'"),
            ("scheduler.bw_pending_penalty=0.5",
             "scheduler.bw_pending_penalty requires"),
            ("network.egress_cap_mb=10", "network.bandwidth_model='fair'"),
            ("network.rpc_flow_weight=x", "network.rpc_flow_weight"),
        ],
    )
    def test_cross_field_errors_exit_2(self, calls, capsys, setting, message):
        rc = main(["figures", "--quick", "--set", setting])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not calls

    @pytest.mark.parametrize(
        "setting", ["n_nodes=8", "strategy.name=dr", "scheduler.input_site=east-us"]
    )
    def test_other_paths_exit_2_naming_the_path(
        self, calls, capsys, setting
    ):
        rc = main(["figures", "--quick", "--set", setting])
        assert rc == 2
        assert repr(setting.partition("=")[0]) in capsys.readouterr().err
        assert not calls

    def test_value_list_exits_2(self, calls, capsys):
        rc = main(
            ["figures", "--quick", "--set", "network.bandwidth_model=slots,fair"]
        )
        assert rc == 2
        assert "repro.cli sweep" in capsys.readouterr().err
