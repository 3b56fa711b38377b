"""Integration tests: every experiment driver runs (fast profile) and its
output satisfies the paper's shape targets.

These reuse the on-disk ground-truth cache, so repeated runs are quick; a
cold run performs the underlying simulations once.
"""

import math

import numpy as np
import pytest

from repro.experiments.runner import run_experiment

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def results():
    """Run every experiment once (fast profile) and share the results."""
    ids = [
        "table1",
        "table2",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "accuracy",
        "percentiles",
        "caching",
        "delay",
        "recalibration",
        "serving",
    ]
    return {experiment_id: run_experiment(experiment_id, fast=True) for experiment_id in ids}


class TestTable1:
    def test_gradient_near_paper_value(self, results):
        # m = 0.14 in the paper (7s think time).
        assert results["table1"].data["gradient"] == pytest.approx(0.143, abs=0.01)

    def test_gradient_error_small(self, results):
        assert results["table1"].data["gradient_error"] < 0.08

    def test_three_servers_parameterised(self, results):
        assert len(results["table1"].data["parameters"]) == 3

    def test_lower_parameters_positive(self, results):
        for _server, _origin, c_l, lambda_l, _lu, _cu in results["table1"].data["parameters"]:
            assert c_l > 0
            assert lambda_l > 0


class TestTable2:
    def test_demands_near_design_values(self, results):
        rows = {row[0]: row for row in results["table2"].data["rows"]}
        assert rows["browse"][1] == pytest.approx(5.376, rel=0.1)  # app ms
        assert rows["browse"][3] == pytest.approx(1.14, rel=0.06)  # db calls
        assert rows["buy"][3] == pytest.approx(2.0, rel=0.06)

    def test_buy_heavier_than_browse(self, results):
        rows = {row[0]: row for row in results["table2"].data["rows"]}
        assert rows["buy"][1] > rows["browse"][1]
        assert rows["buy"][2] > rows["browse"][2]


class TestFig2:
    def test_curves_for_all_servers(self, results):
        assert set(results["fig2"].data["curves"]) == {
            "AppServS",
            "AppServF",
            "AppServVF",
        }

    def test_measured_response_grows_with_load(self, results):
        for curve in results["fig2"].data["curves"].values():
            measured = curve["measured"]
            assert measured[-1] > measured[0] * 10

    def test_throughput_ordering_s_f_vf(self, results):
        curves = results["fig2"].data["curves"]
        s = max(curves["AppServS"]["measured_tput"])
        f = max(curves["AppServF"]["measured_tput"])
        vf = max(curves["AppServVF"]["measured_tput"])
        assert s < f < vf

    def test_max_throughputs_near_paper(self, results):
        curves = results["fig2"].data["curves"]
        assert max(curves["AppServS"]["measured_tput"]) == pytest.approx(86, rel=0.08)
        assert max(curves["AppServF"]["measured_tput"]) == pytest.approx(186, rel=0.08)
        assert max(curves["AppServVF"]["measured_tput"]) == pytest.approx(320, rel=0.08)


class TestFig3:
    def test_lower_accuracy_below_upper(self, results):
        data = results["fig3"].data
        lower = [v for v in data["lower"] if not math.isnan(v)]
        upper = [v for v in data["upper"] if not math.isnan(v)]
        assert np.mean(lower) < np.mean(upper)

    def test_lower_accuracy_improves_with_x(self, results):
        data = results["fig3"].data
        lower = [v for v in data["lower"] if not math.isnan(v)]
        # Paper: roughly linear increase => last > first.
        assert lower[-1] > lower[0]

    def test_upper_accuracy_high_and_flat(self, results):
        data = results["fig3"].data
        upper = [v for v in data["upper"] if not math.isnan(v)]
        assert min(upper) > 0.85
        assert max(upper) - min(upper) < 0.15


class TestFig4:
    def test_mix_lowers_lqn_max_throughput(self, results):
        observations = dict(results["fig4"].data["mix_observations"])
        assert observations[0.25] < observations[0.0]

    def test_predictions_track_measurements(self, results):
        for buy in (0.0, 0.25):
            curve = results["fig4"].data[f"curve@{buy}"]
            for predicted, measured in zip(curve["predicted"], curve["measured"]):
                # Shape-level agreement everywhere on the curve.
                assert predicted == pytest.approx(measured, rel=1.0)


class TestResourceManagerFigures:
    def test_fig5_failures_decrease_with_slack(self, results):
        data = results["fig5"].data
        mean_failures = {
            slack: np.mean(data[f"failures@{slack}"]) for slack in (0.9, 1.0, 1.1)
        }
        assert mean_failures[1.1] <= mean_failures[1.0] <= mean_failures[0.9]

    def test_fig5_slack_11_zero_failures(self, results):
        assert max(results["fig5"].data["failures@1.1"]) == pytest.approx(0.0, abs=0.5)

    def test_fig6_usage_increases_with_load(self, results):
        usage = results["fig6"].data["usage@1.0"]
        assert usage[-1] > usage[0]

    def test_fig6_usage_increases_with_slack(self, results):
        data = results["fig6"].data
        assert np.mean(data["usage@1.1"]) >= np.mean(data["usage@0.9"]) - 1e-9

    def test_fig7_endpoints(self, results):
        rows = results["fig7"].data["rows"]  # sorted by decreasing slack
        top_slack = rows[0]
        zero_slack = rows[-1]
        assert top_slack[1] == pytest.approx(0.0, abs=0.5)  # no failures
        assert zero_slack[1] == pytest.approx(100.0)  # all rejected
        assert zero_slack[2] == pytest.approx(results["fig7"].data["su_max"], abs=1.0)

    def test_fig7_failures_monotone_as_slack_drops(self, results):
        rows = results["fig7"].data["rows"]
        failures = [r[1] for r in rows]
        assert all(b >= a - 1e-9 for a, b in zip(failures, failures[1:]))

    def test_fig8_savings_grow_as_slack_drops(self, results):
        rows = results["fig8"].data["rows"]
        savings = [r[2] for r in rows]
        assert savings[-1] >= savings[0]


class TestAccuracySummary:
    def test_paper_ordering_historical_beats_lqn(self, results):
        data = results["accuracy"].data
        assert data["historical.established.mrt"] > data["layered_queuing.established.mrt"]
        assert data["historical.new.mrt"] > data["layered_queuing.new.mrt"]

    def test_throughput_accuracy_high_for_all(self, results):
        data = results["accuracy"].data
        for method in ("historical", "layered_queuing", "hybrid"):
            assert data[f"{method}.established.tput"] > 0.9

    def test_hybrid_tracks_lqn(self, results):
        data = results["accuracy"].data
        assert data["hybrid.established.mrt"] == pytest.approx(
            data["layered_queuing.established.mrt"], abs=0.1
        )

    def test_magnitudes_in_paper_ballpark(self, results):
        data = results["accuracy"].data
        assert 0.75 < data["historical.established.mrt"] < 1.0
        assert 0.4 < data["layered_queuing.established.mrt"] < 0.9


class TestPercentiles:
    def test_all_methods_reasonably_accurate(self, results):
        data = results["percentiles"].data
        for key, value in data.items():
            if key in ("scale_b",):
                continue
            assert value > 0.5, key

    def test_scale_calibrated(self, results):
        assert results["percentiles"].data["scale_b"] > 0


class TestCaching:
    def test_historical_method_models_cache(self, results):
        assert results["caching"].data["historical_accuracy"] > 0.3

    def test_one_shot_lqn_inconsistent(self, results):
        assert results["caching"].data["inconsistency"] > 0.1

    def test_fixed_point_matches_measured_miss_rate(self, results):
        data = results["caching"].data
        assert data["fixed_point_miss"] == pytest.approx(data["measured_miss"], abs=0.15)

    def test_fixed_point_response_accurate(self, results):
        assert results["caching"].data["fixed_point_accuracy"] > 0.6


class TestDelay:
    def test_lqn_orders_of_magnitude_slower(self, results):
        data = results["delay"].data
        assert data["lqn_delay_s"] > 100 * data["historical_delay_s"]

    def test_tighter_criterion_costs_more(self, results):
        rows = results["delay"].data["criterion_rows"]
        # rows ordered loosest -> tightest criterion.
        assert rows[-1][2] > rows[0][2]  # iterations grow

    def test_capacity_query_needs_many_solves(self, results):
        assert results["delay"].data["lqn_capacity_solves"] > 3

    def test_hybrid_startup_then_fast(self, results):
        data = results["delay"].data
        assert data["startup_delay_s"] > data["hybrid_delay_s"] * 10


class TestDelayTiming:
    """``_time_predictions``: passes interleaved across methods, fastest kept."""

    def test_each_method_reports_its_fastest_pass(self):
        from repro.experiments.delay import _time_predictions

        calls_seen: list[tuple[str, int]] = []
        # A fake clock read at the start and end of every pass: the passes
        # (a, b, a, b, a, b) last 6, 2, 3, 4, 5 and 1 s.
        ticks = iter([0.0, 6.0, 6.0, 8.0, 8.0, 11.0, 11.0, 15.0, 15.0, 20.0, 20.0, 21.0])

        def stub(name):
            return lambda n: calls_seen.append((name, n))

        delays = _time_predictions(
            {"a": (stub("a"), 2), "b": (stub("b"), 4)}, passes=3, timer=lambda: next(ticks)
        )
        # a's passes took 6, 3 and 5 s for 2 calls; b's 2, 4 and 1 s for 4.
        assert delays == {"a": 3.0 / 2, "b": 1.0 / 4}
        order = [name for name, _ in calls_seen]
        assert order == (["a"] * 2 + ["b"] * 4) * 3
        # Every pass asks for the same spread of client counts.
        assert [n for name, n in calls_seen if name == "b"][:4] == [400, 401, 402, 403]

    def test_a_single_slow_pass_does_not_move_the_figure(self):
        from repro.experiments.delay import _time_predictions

        ticks = iter([0.0, 9.0, 9.0, 10.0, 10.0, 11.0])  # 9 s, then 1 s, then 1 s
        delays = _time_predictions(
            {"m": (lambda n: None, 1)}, passes=3, timer=lambda: next(ticks)
        )
        assert delays == {"m": 1.0}


class TestRecalibration:
    def test_established_accuracy_good_at_50_samples(self, results):
        data = results["recalibration"].data
        established, _new = data["ns=50,pts=2"]
        assert established > 0.75

    def test_small_budgets_already_accurate(self, results):
        """The paper's actual claim: accuracy is good even with very little
        data (point-to-point monotonicity in n_s is too noise-sensitive to
        assert with the fast profile's two replications)."""
        data = results["recalibration"].data
        for key in ("ns=10,pts=2", "ns=50,pts=2"):
            established, _ = data[key]
            assert established > 0.75, (key, established)


class TestServing:
    def test_warm_cache_lqn_serving_at_least_10x_faster_than_cold(self, results):
        cold, warm = results["serving"].data["cold_warm"]["layered_queuing"]
        assert cold / warm >= 10.0

    def test_metrics_export_nonzero_after_concurrent_load(self, results):
        for name, metrics in results["serving"].data["metrics"].items():
            assert metrics["latency.p50_s"] > 0.0, name
            assert metrics["latency.p95_s"] >= metrics["latency.p50_s"], name
            assert metrics["latency.p99_s"] >= metrics["latency.p95_s"], name
            assert metrics["cache.hit_rate"] > 0.0, name
            assert metrics["requests"] > 0, name

    def test_degradation_counts_nonzero_under_impossible_deadline(self, results):
        degradation = results["serving"].data["degradation"]
        assert degradation["degraded"] > 0
        assert degradation["degraded.timeout"] > 0
        assert degradation["degraded"] >= degradation["degraded.timeout"]

    def test_thread_sweep_covered_per_service(self, results):
        rows = results["serving"].data["rows"]
        by_service: dict[str, set[int]] = {}
        for row in rows:
            by_service.setdefault(row[0], set()).add(row[1])
        assert len(by_service) == 3
        for threads in by_service.values():
            assert threads == {1, 4, 16}


class TestRendering:
    def test_every_experiment_renders_text(self, results):
        for experiment_id, result in results.items():
            assert isinstance(result.rendered, str) and len(result.rendered) > 50, experiment_id
            assert result.experiment_id == experiment_id
