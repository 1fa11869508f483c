"""Tests of the benchmark harness itself (not of the program).

    python3 -m pytest -q perfbench/tests
"""

from dataclasses import replace

import pytest

from repro.obs.trace import Span

import common
import compare
import gate
import spans


# ---------------------------------------------------------------------- #
# Tail percentile
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "n, label",
    [(5, "max"), (19, "max"), (20, "p50"), (40, "p75"), (90, "p75"),
     (100, "p90"), (200, "p95"), (1000, "p95"), (9000, "p95"), (10000, "p99.9")],
)
def test_tail_is_highest_ladder_step_with_ten_beyond(n, label):
    values = [float(v) for v in range(1, n + 1)]
    got, value = common.tail(values)
    assert got == label
    if label == "max":
        assert value == n
    else:
        assert sum(1 for v in values if v > value) >= common.TAIL_MIN_BEYOND


def test_tail_counts_samples_strictly_beyond():
    # Ties at the top leave nothing beyond any percentile: fall back to max.
    assert common.tail([1.0] * 50) == ("max", 1.0)


def test_quartiles_match_statistics_module():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    q1, median, q3 = common.quartiles(values)
    assert median == 3.5
    assert q1 < median < q3
    assert common.quartiles([2.0]) == (2.0, 2.0, 2.0)


# ---------------------------------------------------------------------- #
# Self-time arithmetic
# ---------------------------------------------------------------------- #
def _span(i, name, start, end, parent=None, op=1):
    return Span(name=name, trace_id=str(op), span_id=str(i),
                parent_id=None if parent is None else str(parent),
                started=start, ended=end)


def test_children_are_clipped_to_the_parent_interval():
    records = [
        _span(1, "op", 0.0, 10.0),
        _span(2, "child", 8.0, 14.0, parent=1),       # runs past its parent
        _span(3, "grandchild", 12.0, 13.0, parent=2),  # wholly outside
    ]
    out = spans.self_times(records)
    assert out["clipped"]["2"] == (8.0, 10.0)
    assert out["spans"] == {"1": 8.0, "2": 2.0, "3": 0.0}
    assert sum(out["spans"].values()) == 10.0


def test_overlapping_children_are_covered_once():
    records = [
        _span(1, "op", 0.0, 10.0),
        _span(2, "a", 1.0, 5.0, parent=1),
        _span(3, "b", 4.0, 6.0, parent=1),
    ]
    assert spans.self_times(records)["spans"]["1"] == pytest.approx(5.0)


def test_rollups_count_as_child_time_and_are_capped():
    records = [_span(1, "op", 0.0, 10.0), _span(2, "child", 0.0, 4.0, parent=1)]
    rollups = [
        {"name": "many", "parent": "1", "trace": "1", "busy_s": 3.0, "calls": 5, "items": 0},
        {"name": "more", "parent": "1", "trace": "1", "busy_s": 9.0, "calls": 1, "items": 0},
    ]
    out = spans.self_times(records, rollups)
    assert out["spans"]["1"] == 0.0
    assert [busy for _, busy in out["rollups"]] == [3.0, 3.0]


def test_layer_table_sums_to_the_operation_time():
    records = [
        _span(1, "iteration", 0.0, 10.0, op=1),
        _span(2, "beam.run", 1.0, 7.0, parent=1, op=1),
        _span(3, "score", 2.0, 3.0, parent=2, op=1),
        _span(4, "iteration", 20.0, 24.0, op=2),
        _span(5, "beam.run", 20.0, 22.0, parent=4, op=2),
        _span(6, "store.put", 5.0, 6.0, op=3),  # outside any operation
    ]
    rollups = [{"name": "lang.refine", "parent": "2", "trace": "1", "busy_s": 2.0,
                "calls": 1, "items": 10}]
    table = spans.layer_table(records, rollups, root="iteration")
    assert table["ops"] == 2
    assert table["op_mean_s"] == 7.0
    assert sum(table["layers"].values()) == pytest.approx(7.0)
    assert table["layers"]["score"] == 0.5
    assert table["layers"]["lang.refine"] == 1.0
    assert "store.put" not in table["layers"]


def test_recorder_nests_spans_and_rollups_per_thread():
    import threading

    recorder = spans.SpanRecorder()
    with recorder.span("op", root=True) as root:
        with recorder.span("child") as child:
            recorder.add_rollup("tiny", 0.0, items=2)
        other = []
        thread = threading.Thread(target=lambda: other.append(recorder.span("x").__enter__()))
        thread.start()
        thread.join()
    assert child.parent_id == root.span_id and child.trace_id == root.trace_id
    entry = recorder.rollups[(child.span_id, "tiny")]
    assert entry["trace"] == root.trace_id and entry["items"] == 2
    # Another thread does not see this thread's open span.
    assert other[0].parent_id is None and other[0].trace_id != root.trace_id


def test_recorder_collects_the_programs_spans_of_an_operation():
    from repro.obs.trace import TRACER, current

    recorder = spans.SpanRecorder()
    with recorder.span("op", root=True) as root:
        TRACER.record("program.phase", 0.0, 1.0, current())
    recorder.harvest(root.trace_id)
    (span,) = recorder.program
    assert span.name == "program.phase" and span.parent_id == root.span_id


def test_probes_restore_the_originals():
    class Target:
        def work(self, x):
            return x + 1

        def gen(self, n):
            yield from range(n)

    original_work, original_gen = Target.work, Target.gen
    recorder = spans.SpanRecorder()
    with spans.Probes() as probes:
        probes.patch(Target, "work", spans.span_wrapper(recorder, "work"))
        probes.patch(Target, "gen", spans.generator_rollup_wrapper(recorder, "gen"))
        assert Target().work(1) == 2
        assert list(Target().gen(3)) == [0, 1, 2]
    assert Target.work is original_work and Target.gen is original_gen
    assert [s.name for s in recorder.spans] == ["work"]
    (entry,) = recorder.rollups.values()
    assert entry["calls"] == 1 and entry["items"] == 3


# ---------------------------------------------------------------------- #
# Compare verdicts
# ---------------------------------------------------------------------- #
BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def test_verdict_within_bound():
    change = [v * 1.03 for v in BASE]
    assert compare.verdict(BASE, change, 0.1, "lower") == "within"


def test_verdict_worse_beyond_bound():
    change = [v * 1.2 for v in BASE]
    assert compare.verdict(BASE, change, 0.1, "lower") == "worse"
    # The same numbers are an improvement when higher is better.
    assert compare.verdict(BASE, change, 0.1, "higher") == "better"


def test_verdict_better_needs_paired_wins_beyond_the_base_spread():
    change = [v * 0.9 for v in BASE]
    pairs = list(zip(BASE, change))
    assert compare.verdict(BASE, change, 0.25, "lower", pairs) == "better"
    # A median shift smaller than the base's own spread is not a gain.
    noisy = [0.8, 1.2, 0.9, 1.1, 1.0, 0.85, 1.15, 0.95, 1.05, 1.0]
    nudged = [v - 0.01 for v in noisy]
    assert compare.verdict(noisy, nudged, 0.25, "lower", list(zip(noisy, nudged))) == "within"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert compare.verdict(noisy, noisy, 0.1, "lower") == "unresolved"
    # ... unless every run of the change beats every run of the parent.
    assert compare.verdict(noisy, [v / 10 for v in noisy], 0.1, "lower") == "better"


def test_verdict_worse_on_a_large_regression_of_a_noisy_metric():
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    # Every change run is worse than every base run.
    assert compare.verdict(noisy, [v * 3 for v in noisy], 0.25, "lower") == "worse"
    assert compare.verdict(noisy, [v / 4 for v in noisy], 0.25, "higher") == "worse"
    # Runs overlap, but the median is worse by more than bound + spread.
    shifted = [v + 1.5 for v in noisy]
    assert compare.verdict(noisy, shifted, 0.25, "lower") == "worse"
    # A shift inside the spread stays unresolved.
    assert compare.verdict(noisy, [v + 0.1 for v in noisy], 0.25, "lower") == "unresolved"


# ---------------------------------------------------------------------- #
# Correctness gate
# ---------------------------------------------------------------------- #
RECORD = {"description": "a <= 1", "size": 10, "si": 12.5,
          "direction": [0.6, 0.8], "variance": 2.0}


def test_identical_records_pass():
    assert gate.record_problems(dict(RECORD), RECORD) == []
    nudged = dict(RECORD, si=RECORD["si"] * (1 + 1e-12))
    assert gate.record_problems(nudged, RECORD) == []


@pytest.mark.parametrize("field, value", [
    ("description", "a <= 2"),
    ("size", 11),
    ("si", 12.5 + 1e-6),
    ("direction", [0.8, 0.6]),
    ("variance", 2.1),
    ("si", float("nan")),
])
def test_perturbed_record_is_flagged(field, value):
    assert gate.record_problems(dict(RECORD, **{field: value}), RECORD)


@pytest.fixture(scope="module")
def synthetic_run():
    from repro.datasets import make_synthetic
    from repro.search.config import SearchConfig
    from repro.search.miner import SubgroupDiscovery

    dataset = make_synthetic(0)
    config = SearchConfig(beam_width=4, max_depth=2, top_k=10)

    def factory():
        return SubgroupDiscovery(dataset, config=config)

    miner = factory()
    return factory, [miner.step(kind="spread") for _ in range(2)]


def test_rescore_accepts_the_beams_own_results(synthetic_run):
    factory, iterations = synthetic_run
    assert gate.rescore_problems(factory, iterations) == [[], []]


def test_rescore_flags_a_perturbed_score_or_description(synthetic_run):
    from repro.interest.si import PatternScore

    factory, iterations = synthetic_run
    first, second = iterations
    score = second.location.score
    bad_score = replace(
        second,
        location=replace(second.location, score=PatternScore(ic=score.ic * 1.001, dl=score.dl)),
    )
    problems = gate.rescore_problems(factory, [first, bad_score])
    assert problems[0] == [] and problems[1]
    bad_description = replace(
        first, location=replace(first.location, description=second.location.description)
    )
    assert gate.rescore_problems(factory, [bad_description])[0]


def test_service_gate_holds_jobs_to_the_shipped_references():
    import service

    dataset_seed, n = next(iter(service.reference_specs(0).items()))
    shipped = gate.References("service-mixed").expected(dataset_seed, 1)
    assert shipped is not None

    def job(**change):
        return {"kind": "cold", "dataset_seed": dataset_seed, "n": 1, "error": None,
                "client": 0, "doc": "{}", "iterations": [dict(shipped, **change)]}

    assert service._check([job()])[1] == 0
    for change in ({"si": shipped["si"] * (1 + 1e-7)},
                   {"description": shipped["description"] + " x"}):
        attempted, failed, problems = service._check([job(**change)])
        assert failed == 1 and any("reference" in p for p in problems)


# ---------------------------------------------------------------------- #
# The benchmark's declaration and the harness agree
# ---------------------------------------------------------------------- #
def test_benchmark_json_matches_the_harness():
    import run

    spec = common.load_benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == common.PER_LAYER_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_service_plans_are_deterministic_and_disjoint():
    import itertools

    import service

    def take(seed, client, n=200):
        return list(itertools.islice(service.job_plan(seed, client), n))

    assert take(3, 0) == take(3, 0)
    assert take(3, 0) != take(4, 0)
    cold = [{s for kind, s, _ in take(3, c) if kind == "cold"} for c in (0, 1)]
    assert not cold[0] & cold[1]
    plan = take(3, 0)
    assert {kind for kind, _, _ in plan} == {"cold", "resubmit", "extend"}
    assert max(n for _, _, n in plan) <= service.MAX_ITERATIONS
    # Past the first block every block of jobs holds the mix exactly
    # (an extension with nothing left to extend becomes a resubmit).
    later = [kind for kind, _, _ in plan[service.MIX_BLOCK:]]
    blocks = len(later) // service.MIX_BLOCK
    mix = dict(service.MIX)
    assert later.count("cold") == mix["cold"] * blocks
    assert later.count("extend") <= mix["extend"] * blocks
    assert later.count("resubmit") + later.count("extend") == (
        mix["resubmit"] + mix["extend"]) * blocks
    seen = set()
    for kind, dataset_seed, n in plan:
        # Resubmits repeat a spec this client already ran; extensions
        # lengthen one it already ran.
        if kind == "resubmit":
            assert (dataset_seed, n) in seen
        if kind == "extend":
            assert (dataset_seed, n - 1) in seen
        seen.add((dataset_seed, n))


# ---------------------------------------------------------------------- #
# Speed probe: reference seconds
# ---------------------------------------------------------------------- #
def _probe(samples):
    import speed

    probe = speed.SpeedProbe()
    probe.samples = list(samples)
    return probe


def test_scale_subtracts_probe_time_and_applies_the_kernel_ratio():
    import speed

    ref = speed.REFERENCE_KERNEL_S
    # Three samples inside [0, 10], each twice the reference kernel time.
    probe = _probe([(1.0, 2 * ref), (5.0, 2 * ref), (9.0, 2 * ref), (20.0, 9 * ref)])
    assert probe.kernel_s(0.0, 10.0) == 2 * ref
    assert probe.scale(10.0, 0.0, 10.0) == pytest.approx((10.0 - 6 * ref) / 2)


def test_scale_is_steady_when_the_machine_slows_uniformly():
    import speed

    ref = speed.REFERENCE_KERNEL_S
    fast = _probe([(t / 10, ref) for t in range(100)])
    slow = _probe([(t / 10, 2 * ref) for t in range(100)])
    # 41 samples fall in [1, 5] and 81 in [1, 9]. The same work takes
    # twice the wall time where the kernel does, plus the probe's runs.
    work = 4.0 - 41 * ref
    slow_wall = 2 * work + 81 * 2 * ref
    assert fast.scale(4.0, 1.0, 5.0) == pytest.approx(work)
    assert slow.scale(slow_wall, 1.0, 9.0) == pytest.approx(work)


def test_kernel_s_takes_the_median_and_falls_back_to_neighbours():
    import speed

    probe = _probe([(1.0, 1.0), (2.0, 1.0), (3.0, 50.0), (10.0, 3.0), (11.0, 5.0)])
    # One preempted sample does not move the median.
    assert probe.kernel_s(0.5, 3.5) == 1.0
    # Nothing inside (4, 9): the nearest samples on both sides stand in.
    assert probe.kernel_s(4.0, 9.0) == pytest.approx(3.0)
    assert len(probe.within(4.0, 9.0)) == 0
    assert len(speed.SpeedProbe().samples) == 0
    with pytest.raises(ValueError):
        speed.SpeedProbe().kernel_s(0.0, 1.0)


def test_to_reference_scales_times_and_rates_but_not_counts():
    import speed

    metrics = {
        "a_s": common.metric(2.0, "s"),
        "b_us": common.metric(4.0, "us"),
        "rate": common.metric(10.0, "1/s"),
        "n": common.metric(7.0, "count"),
        "share": common.metric(0.5, "ratio"),
    }
    out = speed.to_reference(metrics, 0.5)
    assert [out[k]["value"] for k in metrics] == [1.0, 2.0, 20.0, 7.0, 0.5]
    assert all(out[k]["unit"] == metrics[k]["unit"] for k in metrics)


def test_sampling_runs_the_kernel_on_a_timer_and_restores_the_handler():
    import signal
    import time

    import speed

    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    with probe.sampling(period=0.01):
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(probe.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_job_counter_reads_memory_once_at_its_mark():
    import service

    counter = service.JobCounter(at=3)
    for _ in range(2):
        counter.add()
    assert counter.peak_rss_mb is None
    counter.add()
    first = counter.peak_rss_mb
    assert first and first > 0
    counter.add()
    assert counter.peak_rss_mb == first and counter.done == 4
