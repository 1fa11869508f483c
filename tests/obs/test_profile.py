"""Profiling = a metrics diff: zero new measurement on the hot path."""

import pytest

from repro.obs import clock
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ProfileReport, profile_block


def _registry():
    registry = MetricsRegistry()
    steps = registry.counter("steps_total", "steps", labels=("outcome",))
    phases = registry.histogram(
        "sisd_beam_phase_seconds", "beam phases", labels=("phase",)
    )
    return registry, steps, phases


class TestDeltas:
    def test_only_moved_samples_appear(self):
        registry, steps, phases = _registry()
        steps.labels("mined").inc(5)  # pre-existing activity
        with profile_block(registry) as report:
            steps.labels("mined").inc(2)
            phases.labels("score").observe(0.5)
        deltas = report.deltas()
        assert deltas["steps_total"] == {("mined",): 2.0}
        assert deltas["sisd_beam_phase_seconds_sum"] == {("score",): 0.5}
        assert deltas["sisd_beam_phase_seconds_count"] == {("score",): 1.0}

    def test_idle_block_has_no_deltas(self):
        registry, steps, _ = _registry()
        steps.labels("mined").inc()
        with profile_block(registry) as report:
            pass
        assert report.deltas() == {}

    def test_wall_elapsed_reads_the_clock_seam(self):
        registry, _, _ = _registry()
        with clock.fixed(50.0) as advance:
            with profile_block(registry) as report:
                advance(1.25)
        assert report.elapsed == pytest.approx(1.25)


class TestPhaseSeconds:
    def test_sums_beam_and_step_phase_families(self):
        registry, _, phases = _registry()
        step_phases = registry.histogram(
            "sisd_step_phase_seconds", "step phases", labels=("phase",)
        )
        with profile_block(registry) as report:
            phases.labels("score").observe(0.5)
            phases.labels("score").observe(0.25)
            step_phases.labels("location").observe(1.0)
        assert report.phase_seconds() == pytest.approx(
            {"score": 0.75, "location": 1.0}
        )


class TestFormat:
    def test_folds_histograms_into_one_row(self):
        registry, steps, phases = _registry()
        with profile_block(registry) as report:
            steps.labels("mined").inc(3)
            phases.labels("score").observe(0.5)
        text = report.format()
        assert "profile:" in text
        assert "steps_total" in text
        assert "sisd_beam_phase_seconds" in text
        assert "x1" in text  # one observation folded into the _sum row
        assert "_count" not in text

    def test_idle_block_renders_a_placeholder(self):
        registry, _, _ = _registry()
        with profile_block(registry) as report:
            pass
        assert "(no instrumented activity)" in report.format()

    def test_str_matches_format(self):
        registry, steps, _ = _registry()
        with profile_block(registry) as report:
            steps.labels("mined").inc()
        assert str(report) == report.format()


class TestManualCapture:
    def test_start_stop_round(self):
        registry, steps, _ = _registry()
        report = ProfileReport(registry).start()
        steps.labels("replayed").inc()
        report.stop()
        assert report.deltas()["steps_total"] == {("replayed",): 1.0}


class TestWorkspaceHook:
    def test_profile_keeps_the_result_bit_identical(self):
        from repro.api import Workspace
        from repro.spec import MiningSpec

        spec = MiningSpec.build(
            "synthetic", n_iterations=1, beam_width=6, max_depth=2, top_k=10
        )
        workspace = Workspace()
        plain = workspace.mine(spec)
        assert workspace.last_profile is None
        profiled = workspace.mine(spec, profile=True)
        report = workspace.last_profile
        assert report is not None
        assert report.elapsed > 0.0
        assert "sisd_beam_phase_seconds" in report.format()
        assert len(plain.iterations) == len(profiled.iterations)
        for a, b in zip(plain.iterations, profiled.iterations):
            assert a.location.description == b.location.description
            assert a.location.score.ic == b.location.score.ic

    def test_profile_callable_receives_the_rendered_table(self):
        from repro.api import Workspace
        from repro.spec import MiningSpec

        spec = MiningSpec.build(
            "synthetic", n_iterations=1, beam_width=6, max_depth=2, top_k=10
        )
        seen: list[str] = []
        Workspace().mine(spec, profile=seen.append)
        assert len(seen) == 1
        assert "profile:" in seen[0]

    def test_profile_reports_spread_search_counters(self):
        from repro.api import Workspace
        from repro.spec import MiningSpec

        spec = MiningSpec.build(
            "synthetic", kind="spread", n_iterations=1, beam_width=6,
            max_depth=2, top_k=10,
        )
        workspace = Workspace()
        result = workspace.mine(spec, profile=True)
        assert result.iterations[0].spread is not None
        report = workspace.last_profile
        deltas = report.deltas()
        # Four random restarts plus six eigenvector starts.
        assert deltas["sisd_spread_starts_total"] == {(): 10.0}
        assert deltas["sisd_spread_ascent_iterations_total"][()] > 0
        assert "sisd_spread_ascent_iterations_total" in report.format()
