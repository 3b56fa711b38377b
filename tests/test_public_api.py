"""Smoke tests over the package's public API surface."""

import importlib
import pkgutil

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    """Every name in every ``repro.*`` module's ``__all__`` is defined."""
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name.rsplit(".", 1)[-1] != "__main__"
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 100
    assert missing == []


def test_quickstart_flow():
    """The README quickstart must keep working end-to-end."""
    calibration = repro.calibrate_from_simulator(
        repro.APP_SERV_F, clients_per_type=150, duration_s=20.0, warmup_s=5.0, seed=4
    )
    predictor = repro.HybridPredictor.from_parameters(
        calibration.to_model_parameters(),
        [repro.APP_SERV_S, repro.APP_SERV_F, repro.APP_SERV_VF],
    )
    prediction = predictor.predict_mrt_ms("AppServS", 500)
    assert prediction > 0.0


def test_subpackages_importable():
    import repro.analysis
    import repro.caching
    import repro.distribution
    import repro.experiments
    import repro.historical
    import repro.hybrid
    import repro.lqn
    import repro.prediction
    import repro.resource_manager
    import repro.servers
    import repro.service
    import repro.simulation
    import repro.util
    import repro.workload  # noqa: F401


def test_experiment_registry_complete():
    from repro.experiments.runner import EXPERIMENTS

    expected = {
        "table1",
        "table2",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig7_cost",
        "accuracy",
        "percentiles",
        "caching",
        "delay",
        "recalibration",
        "chaos",
        "workloads",
        "overload",
    }
    assert set(EXPERIMENTS) == expected


def test_runner_list_mode(capsys):
    from repro.experiments.runner import main

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "fig8" in out


def test_runner_unknown_experiment():
    import pytest

    from repro.experiments.runner import run_experiment

    with pytest.raises(KeyError):
        run_experiment("fig99")


def test_report_generator(tmp_path):
    from repro.experiments.report import generate_report, main

    report, timings = generate_report(fast=True, experiment_ids=["table2"])
    assert "Regenerated results" in report
    assert "table2" in report and "```" in report
    assert set(timings) == {"table2"}

    out = tmp_path / "digest.md"
    assert main([str(out), "--only", "table2"]) == 0
    assert out.exists() and "table2" in out.read_text()


def test_report_unknown_id_rejected():
    import pytest

    from repro.experiments.report import generate_report

    with pytest.raises(KeyError):
        generate_report(experiment_ids=["fig99"])
