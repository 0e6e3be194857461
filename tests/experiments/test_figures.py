"""Smoke + property tests for the figure experiments at reduced scale.

Full-scale shape checks live in the benchmarks; here we verify the
experiment plumbing (series shapes, rendering, reference data) quickly.
"""

import pytest

from repro.experiments.fig1_latency import PLACEMENTS, run_fig1
from repro.experiments.fig5_makespan import run_fig5
from repro.experiments.fig6_progress import run_fig6
from repro.experiments.fig7_throughput import run_fig7
from repro.experiments.fig8_scalability import run_fig8
from repro.experiments.fig10_workflows import run_fig10
from repro.experiments.scenarios import TABLE_I
from repro.metadata.config import MetadataConfig
from repro.metadata.controller import StrategyName


class TestFig1:
    def test_distance_ordering(self):
        r = run_fig1(file_counts=(50, 200))
        assert r.times["same site"][-1] < r.times["same region"][-1]
        assert r.times["same region"][-1] < r.times["distant region"][-1]

    def test_linear_growth(self):
        r = run_fig1(file_counts=(100, 400))
        for label in PLACEMENTS:
            ratio = r.times[label][1] / r.times[label][0]
            assert 3.0 < ratio < 5.0  # 4x files -> ~4x time

    def test_remote_ratio_order_of_magnitude(self):
        r = run_fig1(file_counts=(100,))
        assert r.ratio(100, "distant region") > 10

    def test_render_contains_checks(self):
        out = r = run_fig1(file_counts=(50,)).render()
        assert "Fig. 1" in out and "[" in out


class TestFig5:
    def test_series_shapes(self, fast_config):
        r = run_fig5(
            ops_per_node=(20, 50), n_nodes=8, config=fast_config, seed=1
        )
        assert set(r.mean_node_time) == set(StrategyName.all())
        for series in r.mean_node_time.values():
            assert len(series) == 2
            assert series[0] < series[1]  # more ops, more time
        assert r.aggregate_ops == [160, 400]

    def test_gain_computation(self, fast_config):
        r = run_fig5(ops_per_node=(30,), n_nodes=8, config=fast_config)
        g = r.gain_vs_centralized(StrategyName.HYBRID)
        assert -2.0 < g < 1.0


class TestFig6:
    def test_progress_curves_monotone(self, fast_config):
        r = run_fig6(n_nodes=8, ops_per_node=60, config=fast_config)
        for series in r.curves.values():
            assert all(a <= b for a, b in zip(series, series[1:]))

    def test_site_times_present(self, fast_config):
        r = run_fig6(n_nodes=8, ops_per_node=40, config=fast_config)
        assert len(r.site_times[StrategyName.HYBRID]) == 4

    def test_speedup_positive(self, fast_config):
        r = run_fig6(n_nodes=8, ops_per_node=60, config=fast_config)
        assert r.speedup() > 0


class TestFig7:
    def test_throughput_series(self, fast_config):
        r = run_fig7(
            node_counts=(4, 8), ops_per_node=40, config=fast_config
        )
        for strat in StrategyName.all():
            assert len(r.throughput[strat]) == 2
            assert all(t > 0 for t in r.throughput[strat])

    def test_decentralized_scales(self, fast_config):
        r = run_fig7(
            node_counts=(4, 16), ops_per_node=60, config=fast_config
        )
        assert r.scaling_ratio(StrategyName.DECENTRALIZED) > 1.5


class TestFig8:
    def test_fixed_total_ops(self, fast_config):
        r = run_fig8(
            node_counts=(4, 8), total_ops=400, config=fast_config
        )
        for strat in StrategyName.all():
            assert len(r.completion[strat]) == 2

    def test_more_nodes_faster_decentralized(self, fast_config):
        r = run_fig8(
            node_counts=(4, 16), total_ops=800, config=fast_config
        )
        dn = r.completion[StrategyName.DECENTRALIZED]
        assert dn[1] < dn[0]


class TestFig10:
    def test_small_run_structure(self, fast_config):
        r = run_fig10(
            scenarios=("SS",),
            workflows=("buzzflow",),
            n_nodes=8,
            config=fast_config,
        )
        for strat in StrategyName.all():
            assert ("buzzflow", "SS", strat) in r.makespan
            assert r.makespan[("buzzflow", "SS", strat)] > 0
        assert r.best_strategy("buzzflow", "SS") in StrategyName.all()

    def test_gain_vs_centralized(self, fast_config):
        r = run_fig10(
            scenarios=("SS",),
            workflows=("buzzflow",),
            n_nodes=8,
            config=fast_config,
        )
        g = r.gain("buzzflow", "SS", StrategyName.CENTRALIZED)
        assert g == pytest.approx(0.0)


class TestScenarios:
    def test_table1_settings(self):
        assert TABLE_I["SS"].ops_per_task == 100
        assert TABLE_I["SS"].compute_time == 1.0
        assert TABLE_I["CI"].ops_per_task == 200
        assert TABLE_I["CI"].compute_time == 5.0
        assert TABLE_I["MI"].ops_per_task == 1000
        assert TABLE_I["MI"].compute_time == 1.0

    def test_totals(self):
        assert TABLE_I["SS"].paper_total_buzzflow == 7_200
        assert TABLE_I["CI"].paper_total_buzzflow == 14_400
        assert TABLE_I["MI"].paper_total_buzzflow == 72_000
        assert TABLE_I["SS"].paper_total_montage == 16_000
        assert TABLE_I["CI"].paper_total_montage == 32_000
