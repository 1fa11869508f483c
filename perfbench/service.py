"""The ``service-mixed`` workload: a mining server under a closed loop.

An in-process :class:`~repro.server.MiningServer` with its defaults
(thread backend, 2 workers) and a durable store directory is driven by
``min(2, nproc)`` :class:`~repro.client.RemoteWorkspace` client threads;
each sends its next job only after the previous result arrived. Every
client follows its own seeded plan of three job kinds:

- **cold**: a socio spec with a small beam that no cache has seen; it
  writes to the store and mines;
- **resubmit**: an exact copy of one of the client's recent specs,
  answered from the result cache, so it costs only the wire;
- **extend**: one of the client's recent specs with one more iteration;
  the belief cache replays the shared prefix and mines one step.

The proportions of the three kinds (:data:`MIX`) are an assumption;
no recorded traffic backs them.

Every reported time is in reference seconds (see :mod:`speed`): the
loop runs in short segments, and the jobs and server boots of a
segment are scaled by speed-probe bursts run between segments, when
no client or server thread is busy.

Every result is checked: against the references recorded for the
first :data:`REFERENCE_JOBS` jobs of each client's plan on the shipped
seeds, against an in-process ``Workspace`` mining of the same spec,
and, for repeated specs, byte for byte against the first result of
that spec on the same server.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import sys
import tempfile
import threading
from time import perf_counter

from repro.api import Workspace
from repro.client import RemoteError, RemoteWorkspace
from repro.obs.console import scrape
from repro.server import MiningServer
from repro.server import wire
from repro.spec import MiningSpec
from repro.store import JobStore

import common
import gate
import spans
import speed

#: Load generators: never more than the CPUs the run may use.
MAX_CLIENTS = 2
#: Search settings of every job: small, so a job costs ~0.1 s.
JOB_SEARCH = {"beam_width": 8, "max_depth": 2, "top_k": 10}
#: Longest spec an extension may create.
MAX_ITERATIONS = 3
#: Jobs of each kind in every block of MIX_BLOCK consecutive jobs of a
#: plan (shuffled within the block). An assumption, not a measurement:
#: no recorded traffic supports these proportions. They were chosen so
#: that the median latency falls inside the mined jobs' mode (~100 ms)
#: rather than on the gap to the cache hits (~10 ms). The traced run
#: reports the latency of each kind, since job_s_p50 barely sees the
#: cache hits. Exact counts per block keep the mix the same in every
#: run: with independent draws the share of cache hits ranged from 24%
#: to 32% between seeds and moved jobs_per_s with it.
MIX = (("cold", 5), ("resubmit", 2), ("extend", 3))
MIX_BLOCK = sum(count for _, count in MIX)
#: Resubmits and extensions pick from this many of the client's latest specs.
RECENT = 8
#: Jobs per client whose cold specs have recorded references
#: (``reference/service-mixed.json``). A 20-s run sends ~250 per client.
REFERENCE_JOBS = 320
#: The closed loop runs in SEGMENTS equal parts, short enough that the
#: machine's speed seldom changes within one: a segment's jobs are
#: scaled by the speed-probe bursts before and after it. Before each
#: segment, servers are booted (and stopped) for BOOT_BLOCK_SECONDS, at
#: least BOOT_MIN times; setup_s is the median of all those boots.
#: Each timed boot reopens one durable store, created by an untimed
#: boot: a restart. Creating a fresh store per boot was dominated by
#: file creation and fsync, whose cost on a shared virtual disk rose
#: from run to run (1.6 to 4 ms CPU over five consecutive runs).
SEGMENTS = 20
BOOT_BLOCK_SECONDS = 0.05
BOOT_MIN = 3
#: peak_rss_mb is the peak resident memory when the loop has completed
#: this many jobs: a fixed amount of work. The server and the harness
#: hold ~25 KB more per completed job, and a run completes 270 to 920
#: jobs with the machine's speed, so the peak at the end of the run
#: spread by 13% between runs of the same code.
RSS_JOBS = 200
#: Seconds one request or result wait may take before the job fails.
REQUEST_TIMEOUT = 60.0


def clients() -> int:
    return max(1, min(MAX_CLIENTS, common.nproc()))


def job_plan(seed: int, client: int):
    """Endless deterministic ``(kind, dataset_seed, n_iterations)`` plan.

    Cold dataset seeds are unique per (run seed, client, job), so no
    two clients ever submit the same spec. A resubmit or extension with
    nothing to repeat becomes a cold job; an extension whose recent
    specs are all at ``MAX_ITERATIONS`` becomes a resubmit.
    """
    rng = random.Random(f"service-mixed:{seed}:{client}")
    block = [kind for kind, count in MIX for _ in range(count)]
    recent: list[tuple[int, int]] = []
    longest: dict[int, int] = {}
    for job in range(10**9):
        if job % MIX_BLOCK == 0:
            rng.shuffle(block)
        kind = block[job % MIX_BLOCK] if recent else "cold"
        extendable = [s for s, _ in recent[-RECENT:] if longest[s] < MAX_ITERATIONS]
        if kind == "extend" and not extendable:
            kind = "resubmit"
        if kind == "cold":
            dataset_seed, n = 1_000_000 * seed + 100_000 * client + job, 1
        elif kind == "extend":
            dataset_seed = rng.choice(extendable)
            n = longest[dataset_seed] + 1
        else:
            dataset_seed, n = rng.choice(recent[-RECENT:])
        yield kind, dataset_seed, n
        longest[dataset_seed] = max(longest.get(dataset_seed, 0), n)
        recent.append((dataset_seed, n))


def reference_specs(seed: int) -> dict[int, int]:
    """Cold dataset seeds of the first ``REFERENCE_JOBS`` jobs of every
    client's plan, each with the most iterations the plan asks of it."""
    longest: dict[int, int] = {}
    for client in range(MAX_CLIENTS):
        for _, dataset_seed, n in itertools.islice(job_plan(seed, client), REFERENCE_JOBS):
            longest[dataset_seed] = max(longest.get(dataset_seed, 0), n)
    return longest


def spec_of(dataset_seed: int, n_iterations: int) -> MiningSpec:
    return MiningSpec.build(
        "socio", dataset_seed=dataset_seed, n_iterations=n_iterations, **JOB_SEARCH
    )


def _boot(store) -> tuple[MiningServer, object]:
    """A server with the defaults and the durable store ``store``, serving."""
    server = MiningServer(port=0, store=store)
    return server, server.run_in_thread()


def _new_store(store_root) -> str:
    return tempfile.mkdtemp(prefix="store-", dir=store_root)


def _boot_block(store) -> list[tuple[float, float, float]]:
    """Servers booted on ``store`` and stopped, for ``BOOT_BLOCK_SECONDS``.

    Returns each boot's ``(CPU seconds, wall start, wall end)`` (see
    :data:`common.setup_clock`; the interval is for the speed probe).
    """
    times: list[tuple[float, float, float]] = []
    began = perf_counter()
    while len(times) < BOOT_MIN or perf_counter() - began < BOOT_BLOCK_SECONDS:
        wall_started = perf_counter()
        started = common.setup_clock()
        _, handle = _boot(store)
        times.append((common.setup_clock() - started, wall_started, perf_counter()))
        handle.stop()
    return times


class JobCounter:
    """Jobs completed across client threads; reads the peak resident
    memory once when the count reaches ``at``."""

    def __init__(self, at: int = RSS_JOBS) -> None:
        self.at = at
        self.done = 0
        self.peak_rss_mb: float | None = None
        self._lock = threading.Lock()

    def add(self) -> None:
        with self._lock:
            self.done += 1
            if self.done == self.at:
                self.peak_rss_mb = common.peak_rss_mb()


def _client_loop(url, plan, deadline, limit, out, recorder, counter=None):
    """One closed-loop client; appends one record per job to ``out``.

    ``plan`` is the client's :func:`job_plan`; a job is drawn from it
    only when it will be sent, so a plan can go on in a later call.
    """
    remote = RemoteWorkspace(url, timeout=REQUEST_TIMEOUT)
    job = 0
    while perf_counter() < deadline and (limit is None or job < limit):
        kind, dataset_seed, n = next(plan)
        job += 1
        spec = spec_of(dataset_seed, n)
        record = {"kind": kind, "dataset_seed": dataset_seed, "n": n, "error": None}
        started = perf_counter()
        try:
            if recorder:
                with recorder.span("job", root=True):
                    with recorder.span("client.submit"):
                        job_id = remote.submit(spec)
                    with recorder.span("client.result") as result_span:
                        result = remote.result(job_id, timeout=REQUEST_TIMEOUT)
                    if kind != "resubmit":
                        recorder.add_rollup(
                            "engine.mine", result.elapsed_seconds, parent=result_span
                        )
            else:
                result = remote.result(remote.submit(spec), timeout=REQUEST_TIMEOUT)
        except Exception as exc:  # a failed job is counted, not fatal
            record["error"] = f"{type(exc).__name__}: {exc}"
            record["http_error"] = isinstance(exc, RemoteError) and exc.status >= 400
            result = None
        record["latency"] = perf_counter() - started
        if result is not None:
            record["elapsed"] = result.elapsed_seconds
            record["doc"] = json.dumps(wire.job_result_to_wire(result), sort_keys=True)
            record["iterations"] = [gate.iteration_record(it) for it in result.iterations]
        out.append(record)
        if counter is not None:
            counter.add()


def _plans(seed: int) -> list:
    return [job_plan(seed, c) for c in range(clients())]


def _drive(url, plans, seconds, limits=None, recorder=None,
           counter=None) -> tuple[list[dict], float]:
    """Run every client's loop; returns (job records, wall seconds).

    Client ``c`` follows ``plans[c]``. Without ``limits`` the clients
    stop at the deadline; with them, client ``c`` runs exactly
    ``limits[c]`` jobs (bounded by 3x the deadline). Every completed
    job is added to ``counter``.
    """
    outs = [[] for _ in plans]
    deadline = perf_counter() + (seconds if limits is None else 3 * seconds)
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(url, plan, deadline, None if limits is None else limits[c], outs[c],
                  recorder, counter),
            name=f"perfbench-client-{c}",
            daemon=True,
        )
        for c, plan in enumerate(plans)
    ]
    started = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=3 * seconds + 2 * REQUEST_TIMEOUT)
    wall = perf_counter() - started
    stuck = [t.name for t in threads if t.is_alive()]
    if stuck:
        raise RuntimeError(f"client threads did not finish: {stuck}")
    for c, out in enumerate(outs):
        for record in out:
            record["client"] = c
    return [record for out in outs for record in out], wall


def _check(records) -> tuple[int, int, list[str]]:
    """Gate every job against the recorded references, a local mining
    and earlier identical jobs."""
    recorded = gate.References("service-mixed")
    problems: list[str] = []
    failed = 0
    longest: dict[int, int] = {}
    for record in records:
        if record["error"] is None:
            longest[record["dataset_seed"]] = max(
                longest.get(record["dataset_seed"], 0), record["n"]
            )
    references = {}
    with Workspace() as local:
        for dataset_seed, n in longest.items():
            result = local.mine(spec_of(dataset_seed, n))
            references[dataset_seed] = [gate.iteration_record(it) for it in result.iterations]
    first_doc: dict[tuple[int, int], str] = {}
    for record in records:
        found = []
        if record["error"] is not None:
            found.append(record["error"])
        else:
            # Timings inside a result differ between servers, so byte
            # identity holds within one server's (one phase's) jobs.
            key = (record.get("phase"), record["dataset_seed"], record["n"])
            want = references[record["dataset_seed"]][: record["n"]]
            if len(record["iterations"]) != record["n"]:
                found.append(f"{len(record['iterations'])} iterations, asked {record['n']}")
            for k, (got, ref) in enumerate(zip(record["iterations"], want), start=1):
                found += [f"iteration {k}: {p}" for p in gate.record_problems(got, ref)]
                shipped = recorded.expected(record["dataset_seed"], k)
                if shipped is not None:
                    found += [
                        f"iteration {k}: reference: {p}"
                        for p in gate.record_problems(got, shipped)
                    ]
            if key in first_doc and record["doc"] != first_doc[key]:
                found.append("repeated spec's result differs from its first result")
            first_doc.setdefault(key, record["doc"])
        if found:
            failed += 1
            problems.extend(
                f"client {record['client']} {record['kind']} socio:{record['dataset_seed']}"
                f" x{record['n']}: {p}" for p in found
            )
    return len(records), failed, problems


def _end_to_end(records, wall, boot_times, peak_rss_mb) -> dict:
    """Metrics of reference-second records (``latency``, ``elapsed``)."""
    unit = common.END_TO_END_UNITS
    ok = [r for r in records if r["error"] is None]
    latencies = [r["latency"] for r in ok] or [float("nan")]
    cold = [r["elapsed"] / r["n"] for r in ok if r["kind"] == "cold"] or [float("nan")]
    return {
        # Server-side seconds per mined iteration of the cold jobs.
        "iteration_s": common.metric(common.quartiles(cold)[1], unit["iteration_s"]),
        "job_s_p50": common.metric(common.quartiles(latencies)[1], unit["job_s_p50"]),
        "job_s_tail": common.metric(common.tail(latencies)[1], unit["job_s_tail"]),
        "jobs_per_s": common.metric(len(ok) / wall, unit["jobs_per_s"]),
        "setup_s": common.metric(common.quartiles(boot_times)[1], unit["setup_s"]),
        "peak_rss_mb": common.metric(peak_rss_mb, unit["peak_rss_mb"]),
    }


def kind_latency_p50(records) -> dict[str, float]:
    """Median client latency of each job kind (0.0 for a kind not run)."""
    return {
        kind: common.quartiles(
            [r["latency"] for r in records if r["kind"] == kind and r["error"] is None] or [0.0]
        )[1]
        for kind, _ in MIX
    }


def _notes(records, problems) -> dict:
    ok = [r["latency"] for r in records if r["error"] is None]
    kinds: dict[str, int] = {}
    for r in records:
        kinds[r["kind"]] = kinds.get(r["kind"], 0) + 1
    recorded = gate.References("service-mixed")
    return {
        "samples": len(records),
        "clients": clients(),
        "jobs_by_kind": kinds,
        "latency_p50_by_kind": kind_latency_p50(records),
        "reference_checked": sum(
            1 for r in records if recorded.expected(r["dataset_seed"], 1) is not None
        ),
        "tail_percentile": common.tail(ok)[0] if ok else "none",
        "problems": problems[:20],
    }


def run(workload_name: str, seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics."""
    common.OUT.mkdir(parents=True, exist_ok=True)
    store_root = tempfile.mkdtemp(prefix="service-", dir=common.OUT)
    probe = speed.SpeedProbe()
    counter = JobCounter()
    boots: list[tuple[float, float, float]] = []
    segments: list[tuple[list[dict], float, float, float]] = []
    try:
        boot_store = _new_store(store_root)
        _boot(boot_store)[1].stop()  # creates the store; not timed
        server, handle = _boot(_new_store(store_root))
        try:
            plans = _plans(seed)
            for _ in range(SEGMENTS):
                probe.burst()
                boots += _boot_block(boot_store)
                probe.burst()
                started = perf_counter()
                done, segment_wall = _drive(
                    server.url, plans, seconds / SEGMENTS, counter=counter
                )
                segments.append((done, segment_wall, started, perf_counter()))
            probe.burst()
        finally:
            handle.stop()
    finally:
        shutil.rmtree(store_root, ignore_errors=True)
    records: list[dict] = []
    wall = 0.0
    for done, segment_wall, started, ended in segments:
        factor = probe.factor(started, ended)
        for record in done:
            record["wall_latency"] = record["latency"]
            record["latency"] *= factor
            if "elapsed" in record:
                record["elapsed"] *= factor
        records += done
        wall += segment_wall * factor
    boot_times = [probe.scale(*boot) for boot in boots]
    peak = counter.peak_rss_mb if counter.peak_rss_mb is not None else common.peak_rss_mb()
    attempted, failed, problems = _check(records)
    notes = _notes(records, problems)
    notes.update(
        kernel_s=probe.run_kernel_s(),
        wall_job_s_p50=common.quartiles(
            [r["wall_latency"] for r in records if r["error"] is None] or [0.0]
        )[1],
        wall_jobs_per_s=sum(1 for r in records if r["error"] is None)
        / max(sum(seg[1] for seg in segments), 1e-9),
        rss_at_jobs=counter.at if counter.peak_rss_mb is not None else len(records),
        run_peak_rss_mb=common.peak_rss_mb(),
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": _end_to_end(records, wall, boot_times, peak),
        "notes": notes,
    }


def _counter(samples, name, skip_route=None) -> float:
    return sum(
        value for labels, value in samples.get(name, ())
        if skip_route is None or labels.get("route") != skip_route
    )


def _traced_quarter(server, seed, seconds, limits, recorder, deltas) -> list[dict]:
    """Drive one server with spans recorded; adds its counters to ``deltas``."""
    service = server.service
    before = scrape(server.url)
    result_before, belief_before = service.cache_stats, service.belief_cache.stats
    with spans.Probes() as probes:
        probes.patch(JobStore, "put", spans.span_wrapper(recorder, "store.put"))
        done, _ = _drive(server.url, _plans(seed), seconds, limits, recorder)
    after = scrape(server.url)
    result_after, belief_after = service.cache_stats, service.belief_cache.stats
    for key, name in (("wait_sum", "sisd_queue_wait_seconds_sum"),
                      ("wait_count", "sisd_queue_wait_seconds_count")):
        deltas[key] += _counter(after, name) - _counter(before, name)
    deltas["requests"] += _counter(after, "sisd_http_requests_total", "/metrics") - _counter(
        before, "sisd_http_requests_total", "/metrics"
    )
    for key, (a, b) in (("result", (result_before, result_after)),
                        ("belief", (belief_before, belief_after))):
        deltas[key][0] += b.hits - a.hits
        deltas[key][1] += b.misses - a.misses
    return done


#: Order of the traced run's quarters; ABBA cancels a linear drift in
#: machine speed out of the overhead estimate.
TRACED_QUARTERS = ("plain", "traced", "traced", "plain")


def run_traced(workload_name: str, seed: int, seconds: float) -> dict:
    """Traced run: per-layer metrics, the layer table and the span file.

    Four quarters, each on a fresh server and store, replay the same
    plans job for job: untraced, traced, traced, untraced. The first
    quarter runs for a quarter of ``seconds`` and sets the job count
    of the others. The ratio of the traced and untraced median
    latencies is the tracing overhead. The latency of each job kind
    comes from the untraced quarters. Speed-probe bursts run around
    every quarter, and the per-layer times are scaled to reference
    seconds by the run's median kernel time
    (:func:`speed.to_reference`).
    """
    common.OUT.mkdir(parents=True, exist_ok=True)
    store_root = tempfile.mkdtemp(prefix="service-", dir=common.OUT)
    probe = speed.SpeedProbe()
    recorder = spans.SpanRecorder()
    records: list[dict] = []
    limits = None
    deltas = {"wait_sum": 0.0, "wait_count": 0.0, "requests": 0.0,
              "result": [0, 0], "belief": [0, 0]}
    try:
        for quarter, phase in enumerate(TRACED_QUARTERS):
            probe.burst()
            server, handle = _boot(_new_store(store_root))
            try:
                if phase == "plain":
                    done, _ = _drive(server.url, _plans(seed), seconds / 4, limits)
                else:
                    done = _traced_quarter(server, seed, seconds / 4, limits, recorder, deltas)
            finally:
                handle.stop()
            if limits is None:
                limits = [sum(1 for r in done if r["client"] == c) for c in range(clients())]
            for record in done:
                record["phase"] = f"{quarter}-{phase}"
            records += done
        probe.burst()
    finally:
        shutil.rmtree(store_root, ignore_errors=True)
    attempted, failed, problems = _check(records)

    plain = [r for r in records if r["phase"].endswith("plain")]
    traced = [r for r in records if r["phase"].endswith("traced")]
    jobs = max(len(traced), 1)
    ok = [r for r in traced if r["error"] is None]
    mined = [r for r in ok if r["kind"] != "resubmit"]
    plain_p50 = common.quartiles([r["latency"] for r in plain if r["error"] is None] or [0.0])[1]
    traced_p50 = common.quartiles([r["latency"] for r in ok] or [0.0])[1]
    puts = [s for s in recorder.spans if s.name == "store.put"]
    by_kind = kind_latency_p50(plain)

    def ratio(pair):
        return pair[0] / (pair[0] + pair[1]) if pair[0] + pair[1] else 0.0

    values = {
        "service.queue_wait_s": (
            deltas["wait_sum"] / deltas["wait_count"] if deltas["wait_count"] else 0.0
        ),
        "service.mine_s": common.quartiles([r["elapsed"] for r in mined] or [0.0])[1],
        "wire.overhead_s": common.quartiles(
            [r["latency"] - r["elapsed"] for r in mined] or [0.0]
        )[1],
        "server.requests_per_job": deltas["requests"] / jobs,
        "server.http_errors": sum(1 for r in traced if r.get("http_error")),
        "cache.result_hit_ratio": ratio(deltas["result"]),
        "cache.belief_hit_ratio": ratio(deltas["belief"]),
        "job.cold_s_p50": by_kind["cold"],
        "job.resubmit_s_p50": by_kind["resubmit"],
        "job.extend_s_p50": by_kind["extend"],
        "store.put_s": sum(s.duration for s in puts) / len(puts) if puts else 0.0,
        "store.puts": len(puts) / jobs,
        "trace.op_s": traced_p50,
        "trace.overhead_frac": traced_p50 / plain_p50 - 1.0 if plain_p50 else 0.0,
    }
    metrics = speed.to_reference(
        {
            name: common.metric(values.get(name, 0.0), unit)
            for name, unit in common.PER_LAYER_UNITS.items()
        },
        speed.REFERENCE_KERNEL_S / probe.run_kernel_s(),
    )
    table = spans.layer_table(recorder.spans, recorder.rollups.values(), root="job")
    trace_path = common.OUT / f"trace-{workload_name}-seed{seed}.jsonl"
    recorder.write_jsonl(trace_path)
    print(spans.format_layer_table(
        table, f"{workload_name} seed {seed}: self time per traced job (wall)"
    ), file=sys.stderr)
    notes = _notes(traced, problems)
    notes.update(
        trace_file=str(trace_path.relative_to(common.ROOT)),
        layer_self_s=table["layers"],
        untraced_jobs=len(plain),
        kernel_s=probe.run_kernel_s(),
        quarters=list(TRACED_QUARTERS),
    )
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes}
