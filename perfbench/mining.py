"""The mining workloads: consecutive ``SubgroupDiscovery.step`` calls at
the paper's §III settings (beam 40, depth 4, top 150, four percentile
split points), serially in this process.

A run repeats *episodes* until its time is up: an episode builds a
fresh miner and takes ``episode`` consecutive steps. One sample is an
episode's mean seconds per iteration, so every sample covers the same
iterations and ``iteration_s``, the median sample, does not depend on
how many episodes fit in the run.

The whole run, set-up blocks included, runs under a timer-driven
:class:`speed.SpeedProbe`, and every reported time is in reference
seconds (see :mod:`speed`): each iteration and each set-up is scaled by
the kernel samples taken while it ran.
"""

from __future__ import annotations

import gc
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from repro.datasets import make_crime, make_mammals, make_water
from repro.lang.refinement import RefinementOperator
from repro.model.background import BackgroundModel
from repro.model.patterns import SpreadConstraint
from repro.obs.profile import ProfileReport
from repro.search import miner as miner_module
from repro.search.beam import LocationBeamSearch, LocationICScorer
from repro.search.config import SearchConfig
from repro.search.miner import SubgroupDiscovery
from repro.search.spread import SpreadObjective

import common
import gate
import spans
import speed

#: §III settings, spelled out rather than inherited from the defaults.
PAPER_CONFIG = SearchConfig(
    beam_width=40, max_depth=4, top_k=150, n_split_points=4,
    split_strategy="percentile",
)

#: setup_s is the median over set-up blocks spread through the run, so
#: that, like iteration_s, it averages the machine's speed over the run
#: instead of sampling one moment of it: a block after the warm-up
#: build, then one before each iteration once 1/SETUP_BLOCKS of the run
#: has passed since the last. A block repeats the set-up for
#: SETUP_BLOCK_SECONDS, at least SETUP_BLOCK_MIN times.
SETUP_BLOCKS = 8
SETUP_BLOCK_SECONDS = 0.2
SETUP_BLOCK_MIN = 2
#: The traced run times one block this long, at least SETUP_MIN builds.
SETUP_SECONDS = 1.0
SETUP_MIN = 11


@dataclass(frozen=True)
class MiningWorkload:
    name: str
    make: Callable
    kind: str
    #: Consecutive iterations per episode.
    episode: int
    #: Mine a new dataset in every episode. For workloads whose cost
    #: depends on the patterns the data holds, one run then averages
    #: over many datasets instead of measuring one seed's patterns.
    data_per_episode: bool = False

    def miner(self, dataset) -> SubgroupDiscovery:
        return SubgroupDiscovery(dataset, config=PAPER_CONFIG)

    def dataset_seed(self, seed: int, episode: int) -> int:
        """Seed of the dataset that episode ``episode`` of run ``seed`` mines."""
        return seed * DATASETS_PER_SEED + episode if self.data_per_episode else seed


#: Dataset seeds reserved per run seed by ``data_per_episode`` workloads.
DATASETS_PER_SEED = 1000

WORKLOADS = {
    w.name: w
    for w in (
        # Candidate counts barely move with the seed: one dataset per run.
        MiningWorkload("crime-location", make_crime, "location", 2),
        MiningWorkload("mammals-location", make_mammals, "location", 2),
        # Iteration 1 scores on the uniform-covariance path; once its
        # spread pattern is assimilated, iteration 2 takes the slow path.
        # Spread search cost follows the patterns found, hence new data
        # per episode.
        MiningWorkload("water-spread", make_water, "spread", 2, data_per_episode=True),
    )
}


def _setup_block(workload: MiningWorkload, seed: int, seconds: float, minimum: int,
                 recorder=None) -> tuple[list[tuple[float, float, float]], list[float]]:
    """Time dataset + miner builds of the run's first dataset.

    Returns ``(setups, make_times)``: each whole set-up as ``(CPU
    seconds, wall start, wall end)`` (see :data:`common.setup_clock`;
    the interval is for the speed probe), and wall seconds of each
    dataset build. With a ``recorder`` every set-up is a traced
    operation.
    """
    setups, makes = [], []
    began = perf_counter()
    while len(setups) < minimum or perf_counter() - began < seconds:
        with recorder.span("setup", root=True) if recorder else nullcontext():
            cpu_started = common.setup_clock()
            started = perf_counter()
            dataset = workload.make(workload.dataset_seed(seed, 0))
            made = perf_counter()
            workload.miner(dataset)
            ended = perf_counter()
            cpu_done = common.setup_clock()
        setups.append((cpu_done - cpu_started, started, ended))
        makes.append(made - started)
    return setups, makes


def _warm_up(workload: MiningWorkload, seed: int):
    """The run's first dataset, built once with a miner before any timing."""
    dataset = workload.make(workload.dataset_seed(seed, 0))
    workload.miner(dataset)
    return dataset


def _step(miner: SubgroupDiscovery, kind: str):
    """One iteration; returns ``((wall seconds, start, end), iteration)``."""
    gc.collect()
    started = perf_counter()
    iteration = miner.step(kind=kind)
    ended = perf_counter()
    return (ended - started, started, ended), iteration


def _check(workload, seed, episodes) -> tuple[int, int, list[str]]:
    """Gate every iteration; returns (attempted, failed, problems)."""
    refs = gate.References(workload.name)
    attempted = failed = 0
    problems: list[str] = []
    first = [gate.iteration_record(it) for it in episodes[0]["iterations"]] if episodes else []
    for e, episode in enumerate(episodes):
        iterations = episode["iterations"]
        dataset = episode["dataset"]
        attempted += workload.episode
        failed += workload.episode - len(iterations)  # steps that raised
        if episode["error"]:
            problems.append(f"episode {e + 1}: {episode['error']}")
        rescored = gate.rescore_problems(lambda: workload.miner(dataset), iterations)
        for k, iteration in enumerate(iterations, start=1):
            record = gate.iteration_record(iteration)
            found = list(rescored[k - 1])
            want = refs.expected(workload.dataset_seed(seed, e), k)
            if want is not None:
                found += [f"reference: {p}" for p in gate.record_problems(record, want)]
            if e and not workload.data_per_episode and k <= len(first):
                found += [f"repeat: {p}" for p in gate.record_problems(record, first[k - 1])]
            if found:
                failed += 1
                problems.extend(f"episode {e + 1} iteration {k}: {p}" for p in found)
    return attempted, failed, problems


def _episode_dataset(workload, seed, episodes, dataset):
    """The dataset of the next episode (the set-up's for the first)."""
    if not episodes or not workload.data_per_episode:
        return dataset
    return workload.make(workload.dataset_seed(seed, len(episodes)))


def _episode(workload, dataset, before_step=None) -> dict:
    """One episode from a fresh miner; ``before_step()`` runs before each step.

    ``intervals`` holds each step's ``(wall seconds, start, end)``;
    :func:`run` turns them into reference seconds (``times``).
    """
    miner = workload.miner(dataset)
    episode = {"dataset": dataset, "iterations": [], "intervals": [], "error": None}
    for _ in range(workload.episode):
        if before_step is not None:
            before_step()
        try:
            interval, iteration = _step(miner, workload.kind)
        except Exception as exc:  # counted as a failed operation
            episode["error"] = f"{type(exc).__name__}: {exc}"
            break
        episode["intervals"].append(interval)
        episode["iterations"].append(iteration)
    return episode


def run(workload_name: str, seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics."""
    workload = WORKLOADS[workload_name]
    probe = speed.SpeedProbe()
    setups: list[tuple[float, float, float]] = []
    last_block = None

    def setup_block():
        nonlocal last_block
        if last_block is None or perf_counter() - last_block >= seconds / SETUP_BLOCKS:
            setups.extend(
                _setup_block(workload, seed, SETUP_BLOCK_SECONDS, SETUP_BLOCK_MIN)[0]
            )
            last_block = perf_counter()

    episodes = []
    with probe.sampling():
        dataset = _warm_up(workload, seed)
        setup_block()
        began = perf_counter()
        while not episodes or perf_counter() - began < seconds:
            dataset = _episode_dataset(workload, seed, episodes, dataset)
            episodes.append(_episode(workload, dataset, setup_block))
            if episodes[-1]["error"] and not episodes[-1]["iterations"]:
                break
    for episode in episodes:
        episode["times"] = [probe.scale(*interval) for interval in episode["intervals"]]
    setup_times = [probe.scale(*setup) for setup in setups]
    attempted, failed, problems = _check(workload, seed, episodes)
    metrics = _end_to_end(episodes, setup_times)
    times = [t for episode in episodes for t in episode["times"]]
    samples = _samples(episodes)
    wall = [
        sum(s for s, _, _ in e["intervals"]) / len(e["intervals"])
        for e in episodes if e["intervals"]
    ]
    notes = {
        "samples": len(samples),
        "iterations": len(times),
        "op_times": times,
        "wall_op_times": [s for e in episodes for s, _, _ in e["intervals"]],
        "wall_iteration_s": common.quartiles(wall)[1] if wall else None,
        "kernel_s": probe.run_kernel_s(),
        "probe_samples": len(probe.samples),
        "episodes": len(episodes),
        "iterations_per_episode": workload.episode,
        "setups": len(setup_times),
        "tail_percentile": "max" if samples else "none",
        "problems": problems[:20],
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes}


def _samples(episodes: list[dict]) -> list[float]:
    """One sample per episode: its mean seconds per iteration."""
    return [sum(e["times"]) / len(e["times"]) for e in episodes if e["times"]]


def _end_to_end(episodes: list[dict], setup_times: list[float]) -> dict:
    unit = common.END_TO_END_UNITS
    times = [t for episode in episodes for t in episode["times"]] or [float("nan")]
    samples = _samples(episodes) or [float("nan")]
    median = common.quartiles(samples)[1]
    return {
        # On a mining workload the operation a user waits for is one
        # iteration, so the job latency metrics read iteration times.
        "iteration_s": common.metric(median, unit["iteration_s"]),
        "job_s_p50": common.metric(median, unit["job_s_p50"]),
        # The slowest episode. A run holds 2 to ~21 episodes, too few
        # for the tail ladder: on water-spread it flipped between p50
        # and the maximum as the episode count crossed 20.
        "job_s_tail": common.metric(max(samples), unit["job_s_tail"]),
        "jobs_per_s": common.metric(len(times) / sum(times), unit["jobs_per_s"]),
        "setup_s": common.metric(common.quartiles(setup_times)[1], unit["setup_s"]),
        "peak_rss_mb": common.metric(common.peak_rss_mb(), unit["peak_rss_mb"]),
    }


# ---------------------------------------------------------------------- #
# Traced run
# ---------------------------------------------------------------------- #
def _install_setup_probes(probes: spans.Probes, recorder: spans.SpanRecorder) -> None:
    probes.patch(RefinementOperator, "__init__", spans.span_wrapper(recorder, "lang.init"))
    probes.patch(
        BackgroundModel,
        "from_targets",
        lambda original: classmethod(
            spans.span_wrapper(recorder, "model.fit")(original.__func__)
        ),
    )


def _install_step_probes(probes: spans.Probes, recorder: spans.SpanRecorder) -> None:
    def score_tags(args, kwargs, result):
        scorer, masks = args[0], args[1]
        slow = any(isinstance(c, SpreadConstraint) for c in scorer.model.constraints)
        return {"rows": int(len(masks)), "slow": slow}

    probes.patch(
        RefinementOperator, "refinements",
        spans.generator_rollup_wrapper(recorder, "lang.refine"),
    )
    probes.patch(RefinementOperator, "mask_of", spans.rollup_wrapper(recorder, "lang.mask_of"))
    probes.patch(LocationBeamSearch, "run", spans.span_wrapper(recorder, "beam.run"))
    probes.patch(
        LocationICScorer, "score_masks", spans.span_wrapper(recorder, "score", score_tags)
    )
    probes.patch(
        BackgroundModel, "assimilate",
        spans.span_wrapper(
            recorder, "model.assimilate", lambda a, k, r: {"blocks": a[0].n_blocks}
        ),
    )
    probes.patch(
        miner_module, "find_spread_direction",
        spans.span_wrapper(
            recorder, "spread.find",
            lambda a, k, r: {"starts": r.n_starts, "iterations": r.n_iterations},
        ),
    )
    objective = spans.rollup_wrapper(recorder, "spread.objective")
    probes.patch(SpreadObjective, "value", objective)
    probes.patch(SpreadObjective, "value_and_grad", objective)


def run_traced(workload_name: str, seed: int, seconds: float) -> dict:
    """Traced run: per-layer metrics, the layer table and the span file.

    Each episode steps two miners in lock step: ``plain`` untraced and
    ``traced`` with every probe installed. They do identical work, so
    the ratio of their total iteration times is the tracing overhead.
    The run is sampled by a speed probe throughout, and the per-layer
    times are scaled to reference seconds by the run's median kernel
    time (:func:`speed.to_reference`).
    """
    workload = WORKLOADS[workload_name]
    speed_probe = speed.SpeedProbe()
    with speed_probe.sampling():
        outcome = _traced(workload, seed, seconds)
    outcome["metrics"] = speed.to_reference(
        outcome["metrics"], speed.REFERENCE_KERNEL_S / speed_probe.run_kernel_s()
    )
    outcome["notes"]["kernel_s"] = speed_probe.run_kernel_s()
    return outcome


def _traced(workload: MiningWorkload, seed: int, seconds: float) -> dict:
    recorder = spans.SpanRecorder()
    dataset = _warm_up(workload, seed)
    with spans.Probes() as probes:
        _install_setup_probes(probes, recorder)
        _, make_times = _setup_block(workload, seed, SETUP_SECONDS, SETUP_MIN, recorder)
    plain_times: list[float] = []
    traced_times: list[float] = []
    phases: dict[str, float] = {}
    candidates = 0.0
    blocks: list[int] = []
    pool_size = 0
    episodes = []
    untraced_diff = 0
    began = perf_counter()
    while not episodes or perf_counter() - began < seconds:
        dataset = _episode_dataset(workload, seed, episodes, dataset)
        plain = workload.miner(dataset)
        traced = workload.miner(dataset)
        pool_size = len(traced.operator)
        episode = {"dataset": dataset, "iterations": [], "times": [], "error": None}
        episodes.append(episode)
        for _ in range(workload.episode):
            try:
                (seconds_plain, _, _), plain_iteration = _step(plain, workload.kind)
                gc.collect()
                report = ProfileReport()
                with spans.Probes() as probes:
                    _install_step_probes(probes, recorder)
                    report.start()
                    try:
                        with recorder.span("iteration", root=True) as root:
                            started = perf_counter()
                            iteration = traced.step(kind=workload.kind)
                    finally:
                        elapsed = perf_counter() - started
                        report.stop()
                recorder.harvest(root.trace_id)
            except Exception as exc:  # counted as a failed operation
                episode["error"] = f"{type(exc).__name__}: {exc}"
                break
            plain_times.append(seconds_plain)
            # The probes must not change what the program computes.
            untraced_diff += bool(gate.record_problems(
                gate.iteration_record(iteration), gate.iteration_record(plain_iteration)
            ))
            traced_times.append(elapsed)
            episode["iterations"].append(iteration)
            blocks.append(traced.model.n_blocks)
            for name, value in report.phase_seconds().items():
                phases[name] = phases.get(name, 0.0) + value
            candidates += sum(report.deltas().get("sisd_beam_candidates_total", {}).values())
        if episode["error"] and not episode["iterations"]:
            break
    attempted, failed, problems = _check(workload, seed, episodes)
    if untraced_diff:
        failed += untraced_diff
        problems.append(f"{untraced_diff} traced iterations differ from untraced ones")

    recorded = recorder.spans
    setup_traces = {s.trace_id for s in recorded if s.name == "setup" and s.parent_id is None}
    setup_spans = [s for s in recorded if s.trace_id in setup_traces]
    step_spans = [s for s in recorded if s.trace_id not in setup_traces]
    step_rollups = [r for r in recorder.rollups.values()
                    if r["trace"] is not None and r["trace"] not in setup_traces]
    table = spans.layer_table(step_spans, step_rollups, root="iteration")
    metrics = _layer_metrics(
        step_spans, step_rollups, table, setup_spans, make_times,
        phases, candidates, blocks, pool_size, plain_times, traced_times,
    )
    common.OUT.mkdir(parents=True, exist_ok=True)
    trace_path = common.OUT / f"trace-{workload.name}-seed{seed}.jsonl"
    recorder.write_jsonl(trace_path)
    print(spans.format_layer_table(
        table, f"{workload.name} seed {seed}: self time per traced iteration (wall)"
    ), file=sys.stderr)
    notes = {
        "samples": len(traced_times),
        "trace_file": str(trace_path.relative_to(common.ROOT)),
        "layer_self_s": table["layers"],
        "problems": problems[:20],
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes}


def _layer_metrics(step_spans, step_rollups, table, setup_spans, make_times,
                   phases, candidates, blocks, pool_size, plain_times, traced_times) -> dict:
    n = max(len(traced_times), 1)
    by_name: dict[str, list] = {}
    for s in step_spans:
        by_name.setdefault(s.name, []).append(s)
    rollups: dict[str, dict] = {}
    for entry in step_rollups:
        total = rollups.setdefault(entry["name"], {"busy_s": 0.0, "calls": 0, "items": 0})
        for key in total:
            total[key] += entry[key]

    def duration(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def setup_median(name):
        values = [s.duration for s in setup_spans if s.name == name]
        return common.quartiles(values)[1] if values else 0.0

    refine = rollups.get("lang.refine", {"busy_s": 0.0, "calls": 0, "items": 0})
    score_spans = by_name.get("score", [])
    # Span tags are strings (repro.obs.trace.Span.tag).
    score_rows = sum(int(s.tags["rows"]) for s in score_spans)
    slow = [s for s in score_spans if s.tags["slow"] == "True"]
    spread_spans = by_name.get("spread.find", [])
    beam_run = duration("beam.run")
    values = {
        "datasets.make_s": common.quartiles(make_times)[1],
        "lang.init_s": setup_median("lang.init"),
        "model.fit_s": setup_median("model.fit"),
        "lang.refine_s": refine["busy_s"] / n,
        "lang.mask_of_calls": rollups.get("lang.mask_of", {"calls": 0})["calls"] / n,
        "lang.refinements": refine["items"] / n,
        "lang.yield_ratio": (
            refine["items"] / (refine["calls"] * pool_size) if refine["calls"] and pool_size else 0.0
        ),
        "beam.run_s": beam_run / n,
        "beam.self_s": table["layers"].get("beam.run", 0.0),
        "beam.candidates": candidates / n,
        "beam.admit_ratio": candidates / refine["items"] if refine["items"] else 0.0,
        "beam.candidates_per_s": candidates / beam_run if beam_run else 0.0,
        "beam.phase.candidate_gen_s": phases.get("candidate_gen", 0.0) / n,
        "beam.phase.score_s": phases.get("score", 0.0) / n,
        "beam.phase.merge_s": phases.get("merge", 0.0) / n,
        "beam.phase.prune_s": phases.get("prune", 0.0) / n,
        "score.s": duration("score") / n,
        "score.calls": len(score_spans) / n,
        "score.rows": score_rows / n,
        "score.us_per_row": duration("score") / score_rows * 1e6 if score_rows else 0.0,
        "score.slow_path_rows": sum(int(s.tags["rows"]) for s in slow) / n,
        "score.slow_path_s": sum(s.duration for s in slow) / n,
        "model.assimilate_s": duration("model.assimilate") / n,
        "model.assimilations": len(by_name.get("model.assimilate", ())) / n,
        "model.blocks": sum(blocks) / len(blocks) if blocks else 0.0,
        "spread.find_s": duration("spread.find") / n,
        "spread.objective_evals": rollups.get("spread.objective", {"calls": 0})["calls"] / n,
        "spread.starts": sum(int(s.tags.get("starts", 0)) for s in spread_spans) / n,
        "spread.ascent_iterations": sum(
            int(s.tags.get("iterations", 0)) for s in spread_spans
        ) / n,
        "trace.op_s": sum(traced_times) / n,
        "trace.overhead_frac": (
            sum(traced_times) / sum(plain_times) - 1.0 if traced_times else 0.0
        ),
    }
    return {
        name: common.metric(values.get(name, 0.0), unit)
        for name, unit in common.PER_LAYER_UNITS.items()
    }
