"""Drives one workload: set-up, warm-up, timed slots, checks, metrics.

One caller offers the traffic as a closed loop: it waits for each
decision call (``offer_many()`` per slot, or ``offer()`` per request on
``single_offers`` workloads) before making the next. A deployment is
set up (timed as ``setup_s``), the warm-up slots are driven untimed
until occupancy is steady (checked, see :meth:`Run.check_occupancy`),
and the remaining slots are timed as one window. A run times a fixed
number of windows (:meth:`Workload.windows`); each decides the identical
offers from the identical state, so their decision-derived values must
repeat exactly. Timings are scaled to a reference machine speed, timed
with :func:`calibrate` before every slot, and each slot's and each
call's time is the median over the windows. In a traced run, windows
alternate between untraced and traced, which gives the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import math
import multiprocessing
import pickle
import sys
import time
import traceback
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from statistics import fmean, median
from typing import Any

import numpy as np

import repro.core.greedy as greedy_module
import repro.experiments.scenario as scenario_module
import repro.plan.api as plan_api
from repro.baselines.quickg import make_quickg
from repro.core.olive import OliveAlgorithm
from repro.registry import algorithm_registry, event_profile_registry
from repro.scenarios.events import capacity_invariant_gap
from repro.serve import EmbedderService
from repro.shard import ShardedEmbedderService
from repro.sim.engine import SimulationResult
from repro.sim.metrics import cost_breakdown, rejection_rate
from repro.sim.session import SimulationSession
from repro.utils.rng import child_rng, make_rng

from tracing import Tracer, traced_attribute
from workloads import DEPLOY_SEED, Workload, offered_traffic

#: Bound on the warm-up check: started empty at half the warm-up, the
#: deployment's occupancy (active demand per slot) over the timed slots
#: may differ from the full warm-up's by this mean relative gap.
MAX_OCCUPANCY_GAP = 0.05
#: Median :func:`calibrate` time on the reference machine (README). A
#: run's timings are scaled by its own median over this (to the power
#: ``Workload.speed_exponent``), so that they read as on that machine: a
#: shared VM's speed moves by up to 1.9x for minutes at a time.
CALIBRATION_REFERENCE_S = 4.5e-4
#: Bound on ``capacity_invariant_gap`` after every single-process window,
#: relative to the largest element capacity. Residuals are updated
#: incrementally in float64, so the gap grows by rounding: CittaStudi's
#: 1.8e6 capacities (ulp 2.3e-10) show ~6e-9 after 330 slots, while a
#: lost release would leave a whole demand (>= 0.1) behind.
MAX_RELATIVE_CAPACITY_GAP = 1e-12
#: Decision classes of ``offer()`` latency, in precedence order.
DECISION_CLASSES = ("rejected", "preempting", "planned", "borrowed", "greedy")


@dataclass
class Deployment:
    scenario: Any
    service: Any


@dataclass
class Window:
    """What one drive over a slot range produced."""

    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    decisions: list = field(default_factory=list)
    #: Wall seconds and number of offers of every decision call.
    calls: list[tuple[float, int]] = field(default_factory=list)
    #: Wall seconds of every slot, advance included; the last entry is
    #: the final advance that closes the window.
    slot_walls: list[float] = field(default_factory=list)
    #: Decision class of every call of a single-offer window, kept once
    #: the decisions themselves are released after the checks.
    classes: list[str] = field(default_factory=list)
    #: Peak resident memory (MB) of this process while the window ran.
    peak_rss_mb: float = 0.0
    #: :func:`calibrate` seconds, timed before every slot.
    calibration: list[float] = field(default_factory=list)

    @property
    def offers_per_s(self) -> float:
        return (self.attempted - self.failed) / self.wall

    def latency(self, q: float) -> float:
        return percentile(self.calls, q)


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def event_schedule(workload: Workload, scenario, seed: int):
    if workload.events is None:
        return None
    return event_profile_registry.create(
        workload.events, scenario, child_rng(make_rng(seed), "events")
    )


def set_up(workload: Workload, seed: int, tracer: Tracer | None) -> Deployment:
    """From config to a service ready for its first offer."""
    config = workload.config()
    needs_plan = algorithm_registry.get(workload.algorithm).needs_plan
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(traced_attribute(
                tracer, scenario_module, "compute_plan", "plan.compute"
            ))
            stack.enter_context(
                traced_attribute(tracer, plan_api, "solve_lp", "lp.solve")
            )
        with _span(tracer, "scenario.build"):
            scenario = scenario_module.build_scenario(
                config, DEPLOY_SEED, with_plan=needs_plan
            )
    if workload.shards:
        with _span(tracer, "shard.boot"):
            service = ShardedEmbedderService(
                scenario, workload.algorithm, workload.shards,
                workers="process",
            )
        return Deployment(scenario, service)
    algorithm = algorithm_registry.create(workload.algorithm, scenario)
    session = SimulationSession(
        algorithm, (), workload.horizon,
        events=event_schedule(workload, scenario, seed),
    )
    return Deployment(scenario, EmbedderService(session))


def reference_service(workload: Workload, scenario, seed: int):
    """The same deployment on the frozen scalar reference engine."""
    if workload.algorithm == "QUICKG":
        algorithm = make_quickg(
            scenario.substrate, scenario.apps, scenario.efficiency,
            use_fast_greedy=False,
        )
    elif workload.algorithm == "OLIVE":
        algorithm = OliveAlgorithm(
            scenario.substrate, scenario.apps, scenario.plan,
            efficiency=scenario.efficiency, use_fast_greedy=False,
        )
    else:
        raise ValueError(f"no reference engine for {workload.algorithm}")
    session = SimulationSession(
        algorithm, (), workload.horizon,
        events=event_schedule(workload, scenario, seed),
    )
    return EmbedderService(session)


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python kernel (dict reads and
    writes, integer arithmetic): the machine's speed of the moment."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(2000):
        table[i & 255] = table.get(i & 127, 0) + i
        total += i * i
    return time.perf_counter() - start


def drive(service, traffic, start: int, stop: int, single: bool,
          calibrated: bool = False) -> Window:
    """Offer slots ``[start, stop)`` as one waiting caller; with
    ``calibrated``, time :func:`calibrate` before every slot (outside
    the slot's wall time)."""
    window = Window()
    clock = time.perf_counter
    for slot in range(start, stop):
        if calibrated:
            window.calibration.append(calibrate())
        slot_began = clock()
        service.advance_to(slot)
        run = traffic.get(slot, ())
        window.attempted += len(run)
        if single:
            for request in run:
                t0 = clock()
                try:
                    decision = service.offer(request)
                except Exception:
                    window.failed += 1
                    traceback.print_exc(file=sys.stderr)
                    continue
                window.calls.append((clock() - t0, 1))
                window.decisions.append(decision)
        elif run:
            t0 = clock()
            try:
                decisions = service.offer_many(run)
            except Exception:
                window.failed += len(run)
                traceback.print_exc(file=sys.stderr)
            else:
                window.calls.append((clock() - t0, len(run)))
                window.decisions.extend(decisions)
        window.slot_walls.append(clock() - slot_began)
    closing = clock()
    service.advance_to(stop)
    window.slot_walls.append(clock() - closing)
    window.wall = sum(window.slot_walls)
    return window


def decision_class(decision) -> str:
    if not decision.accepted:
        return "rejected"
    if decision.preempted:
        return "preempting"
    if decision.planned:
        return "planned"
    if decision.borrowed:
        return "borrowed"
    return "greedy"


def decision_counts(decisions) -> dict[str, int]:
    counts = dict.fromkeys(DECISION_CLASSES, 0)
    preempted = 0
    for decision in decisions:
        counts[decision_class(decision)] += 1
        preempted += len(decision.preempted)
    out = {f"olive.{name}": n for name, n in counts.items()}
    out["olive.preempted"] = preempted
    return out


def decision_digest(decisions) -> str:
    digest = hashlib.sha256()
    for d in decisions:
        embedding = d.embedding
        digest.update(repr((
            d.request.id, d.accepted, d.planned, d.borrowed, d.via_greedy,
            d.cost_per_slot.hex(), tuple(r.id for r in d.preempted),
            None if embedding is None else (
                tuple(embedding.node_map.items()),
                tuple(embedding.link_paths.items()),
            ),
        )).encode())
    return digest.hexdigest()


def percentile(calls: list[tuple[float, int]], q: float) -> float:
    """Nearest-rank percentile over offers; each call's offers share
    the call's latency, since each waits for the whole call."""
    total = sum(n for _, n in calls)
    rank = max(1, math.ceil(q * total))
    seen = 0
    for latency, n in sorted(calls):
        seen += n
        if seen >= rank:
            return latency
    raise ValueError("no samples")


def peak_rss_mb(pid: int | str = "self") -> float:
    """A process's peak resident set since its last reset (Linux)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError(f"no VmHWM for process {pid}")


def reset_peak_rss() -> None:
    """Restart this process's peak resident set from its current one."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def children_peak_rss_mb() -> float:
    """Sum of the live child processes' peak resident sets (Linux)."""
    total = 0.0
    for child in multiprocessing.active_children():
        try:
            total += peak_rss_mb(child.pid)
        except OSError:
            continue
    return total


def merged_result(workload: Workload, finished) -> SimulationResult:
    """The sharded frontend's decision stream with summed shard costs."""
    per_shard = finished.per_shard
    return SimulationResult(
        algorithm_name=workload.algorithm,
        num_slots=workload.horizon,
        decisions=list(finished.decisions),
        preemptions=[p for r in per_shard for p in r.preemptions],
        requested_demand=sum(r.requested_demand for r in per_shard),
        allocated_demand=sum(r.allocated_demand for r in per_shard),
        resource_cost=sum(r.resource_cost for r in per_shard),
        runtime_seconds=0.0,
    )


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.failures: list[str] = []
        self.setup_times: list[float] = []
        self.windows: list[Window] = []
        self.traced_windows: list[Window] = []
        self.records: list[dict] = []
        self.layers: list[dict[str, float]] = []
        self.setup_layers: list[dict[str, float]] = []
        self.children_rss_mb = 0.0
        self.batch_backend = ""
        self.traffic: dict = {}
        #: Active demand per slot of the first timed window's deployment,
        #: warm-up included, and of one started empty at half the warm-up.
        self.occupancy: np.ndarray | None = None
        self.half_occupancy: np.ndarray | None = None

    def fail(self, message: str) -> None:
        self.failures.append(message)

    # -- the run ---------------------------------------------------------

    def execute(self) -> None:
        """Set up, warm up, then time the workload's number of windows.

        A single-process deployment is warmed up once; every timed window
        then replays the same slots from a pickled copy of the warmed-up
        service. The sharded frontend has no snapshot, so each of its
        windows is a full cycle of set-up, warm-up and timed slots. The
        other set-ups that ``setup_s`` needs are spread between windows.
        """
        count = self.workload.windows(self.seconds)
        if self.tracer is not None:
            count = max(count, 2)
        # Drawn before the first set-up, so that every set-up (and every
        # fork of a shard worker) starts from the same process state.
        self.traffic = offered_traffic(
            scenario_module.build_scenario(
                self.workload.config(), DEPLOY_SEED, with_plan=False
            ),
            self.seed,
        )
        snapshot = b""
        scenario = None
        if not self.workload.shards:
            deployment = self.warmed_up(self.timed_setup())
            scenario = deployment.scenario
            # Unpickling copies the warmed-up service faster than a
            # SessionSnapshot restore, which deep-copies it.
            snapshot = pickle.dumps(
                deployment.service, pickle.HIGHEST_PROTOCOL
            )
            del deployment
            self.half_occupancy = self.half_warmed_occupancy()
        for index in range(count):
            traced = self.tracer is not None and index % 2 == 1
            if self.workload.shards:
                deployment = self.timed_setup()
                try:
                    self.warmed_up(deployment)
                    window = self.timed_window(
                        deployment.scenario, deployment.service, traced
                    )
                finally:
                    self.close(deployment)
                # Not held while the next set-up forks its workers.
                del deployment
            else:
                # Collect the previous replay's copy first, so the
                # window's resident set holds one copy of the service.
                gc.collect()
                window = self.timed_window(
                    scenario, pickle.loads(snapshot), traced,
                    held_mb=len(snapshot) / 2**20,
                )
            (self.traced_windows if traced else self.windows).append(window)
            # Spread the set-ups between windows, so that they sample the
            # machine over the whole run.
            setups = self.workload.setups
            while len(self.setup_times) < setups * (index + 1) / count:
                self.close(self.timed_setup())

    def timed_setup(self) -> Deployment:
        tracer = self.tracer
        mark = tracer.mark() if tracer is not None else 0
        gc.collect()
        start = time.perf_counter()
        deployment = set_up(self.workload, self.seed, tracer)
        self.setup_times.append(time.perf_counter() - start)
        if tracer is not None:
            self.setup_layers.append(
                {n: s["self_s"] for n, s in tracer.summary(mark).items()}
            )
        return deployment

    def close(self, deployment: Deployment) -> None:
        if self.workload.shards:
            self.children_rss_mb = max(
                self.children_rss_mb, children_peak_rss_mb()
            )
            deployment.service.close()

    def warmed_up(self, deployment: Deployment) -> Deployment:
        """Drive the warm-up slots untimed; check the leading decisions.

        A sharded deployment skips its per-slot checkpoints while it
        warms up (its timed slots take them again): they only copy the
        state the timed slots start from.
        """
        workload = self.workload
        service = deployment.service
        every = service.checkpoint_every if workload.shards else 0
        if workload.shards:
            service.checkpoint_every = 0
        warm = drive(
            service, self.traffic, 0, workload.warmup_slots,
            workload.single_offers,
        )
        if workload.shards:
            service.checkpoint_every = every
        if warm.failed:
            self.fail(f"{warm.failed} warm-up offers raised")
        if workload.reference_slots and not self.records:
            self.check_reference(deployment, warm)
        return deployment

    def half_warmed_occupancy(self) -> np.ndarray:
        """Active demand per slot of a deployment started empty at half
        the warm-up and driven to the end of the timed slots, untimed."""
        workload = self.workload
        deployment = self.timed_setup()
        drive(
            deployment.service, self.traffic, workload.warmup_slots // 2,
            workload.horizon, workload.single_offers,
        )
        return np.asarray(deployment.service.result().allocated_demand)

    def timed_window(self, scenario, service, traced: bool,
                     held_mb: float = 0.0) -> Window:
        """Drive the timed slots; ``held_mb`` is the harness's own
        memory that stays resident meanwhile (the replay snapshot)."""
        workload = self.workload
        tracer = self.tracer if traced else None
        before = self.counters(service)
        if tracer is not None:
            self.instrument(service, tracer)
        gc.collect()
        reset_peak_rss()
        with ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(traced_attribute(
                    tracer, greedy_module, "indexed_capacity_dijkstra",
                    "paths.dijkstra",
                ))
                mark = tracer.mark()
            start, stop = workload.window
            window = drive(
                service, self.traffic, start, stop, workload.single_offers,
                calibrated=True,
            )
        window.peak_rss_mb = peak_rss_mb() - held_mb
        if tracer is not None:
            self.layers.append(self.layer_metrics(
                tracer.summary(mark), window, service
            ))
        self.record(scenario, service, window, before)
        return window

    # -- checks ----------------------------------------------------------

    def check_reference(self, deployment: Deployment, warm: Window) -> None:
        """Leading decisions must equal the frozen reference engine's."""
        slots = self.workload.reference_slots
        reference = drive(
            reference_service(self.workload, deployment.scenario, self.seed),
            self.traffic, 0, slots, self.workload.single_offers,
        )
        fast = [d for d in warm.decisions if d.request.arrival < slots]
        if reference.failed or fast != reference.decisions:
            self.fail(
                f"decisions of slots [0, {slots}) differ from the reference "
                "engine"
            )

    def check_occupancy(self) -> None:
        """The warm-up must have forgotten the empty start.

        Started empty at half the warm-up instead of at slot 0, the
        deployment must reach the same occupancy over the timed slots
        (within :data:`MAX_OCCUPANCY_GAP`); a full warm-up is then at
        least as close to steady state. The sharded tier serves
        ``scale-greedy``'s traffic with the same warm-up and is not
        checked separately.
        """
        gap = occupancy_gap(self)
        if gap is not None and gap > MAX_OCCUPANCY_GAP:
            self.fail(
                f"occupancy over the timed slots still depends on the "
                f"warm-up: gap {gap:.3f} > {MAX_OCCUPANCY_GAP}"
            )

    def counters(self, service) -> dict:
        if self.workload.shards:
            stats = service.cross_shard_stats()
            return {"attempts": stats["attempts"], "commits": stats["commits"]}
        stats = service.algorithm.greedy_context.stats()
        self.batch_backend = stats["batch_backend"]
        return stats

    def record(self, scenario, service, window: Window,
               before: dict) -> None:
        """Check the window's outputs; keep its decision-derived values."""
        workload = self.workload
        if window.failed:
            self.fail(f"{window.failed} timed offers raised")
        if len(window.decisions) != window.attempted - window.failed:
            self.fail("a timed offer got no decision")
        record: dict[str, Any] = {"offers": window.attempted}
        if workload.shards:
            finished = service.finish()
            offered = [
                r.id for slot in range(workload.horizon)
                for r in self.traffic.get(slot, ())
            ]
            if [d.request.id for d in finished.decisions] != offered:
                self.fail("sharded offers were not each decided exactly once")
            stats = finished.cross_shard
            if stats["ledger_reserved"] != (
                stats["ledger_committed"] + stats["ledger_aborted"]
            ):
                self.fail(f"boundary ledger does not balance: {stats}")
            if stats["ledger_released"] > stats["ledger_committed"]:
                self.fail(f"boundary ledger released > committed: {stats}")
            result = merged_result(workload, finished)
            record["shard.cross_attempts"] = (
                stats["attempts"] - before["attempts"]
            )
            record["shard.cross_commits"] = stats["commits"] - before["commits"]
        else:
            residual = service.algorithm.residual
            scale = max(
                max(residual.node_capacity), max(residual.link_capacity)
            )
            gap = capacity_invariant_gap(service.algorithm)
            if not gap <= MAX_RELATIVE_CAPACITY_GAP * scale:
                self.fail(f"capacity invariant gap {gap:.3g} at scale {scale}")
            result = service.result()
            stats = service.algorithm.greedy_context.stats()
            for key in ("cache_hits", "cache_misses", "direct_routes",
                        "mode_switches", "batch_rows", "batch_fallbacks",
                        "batch_chunks"):
                record[f"greedy.{key}"] = stats[key] - before[key]
            start = workload.warmup_slots
            record["events.applied"] = result.num_events
            record["events.disrupted"] = sum(
                1 for _, slot in result.disruptions if slot >= start
            )
            record["serve.shed"] = service.metrics.shed
        if self.occupancy is None:
            self.occupancy = np.asarray(result.allocated_demand, dtype=float)
            self.check_occupancy()
        record["rejection_rate"] = rejection_rate(result, workload.window)
        record["total_cost"] = cost_breakdown(
            result, scenario.substrate, scenario.apps, workload.window
        ).total
        record.update(decision_counts(window.decisions))
        record["digest"] = decision_digest(window.decisions)
        if self.records and record != self.records[0]:
            self.fail("decision-derived values differ between windows")
        self.records.append(record)
        if workload.single_offers:
            window.classes = [decision_class(d) for d in window.decisions]
        window.decisions = []

    # -- tracing ---------------------------------------------------------

    def instrument(self, service, tracer: Tracer) -> None:
        """Wrap the layers' public entry points on this deployment."""
        wrap = tracer.wrap
        if self.workload.shards:
            service.offer_many = wrap("shard.offer", service.offer_many)
            service.advance_to = wrap("shard.advance", service.advance_to)
            service.checkpoint_workers = wrap(
                "shard.checkpoint", service.checkpoint_workers
            )
            return
        service.offer = wrap("serve.offer", service.offer)
        service.offer_many = wrap("serve.offer", service.offer_many)
        service.advance_to = wrap("serve.advance", service.advance_to)
        session = service.session
        session.begin_slot = wrap("session.slot", session.begin_slot)
        session.close_slot = wrap("session.slot", session.close_slot)
        session.process = wrap("session.process", session.process)
        session.process_many = wrap("session.process", session.process_many)
        algorithm = session.algorithm
        algorithm.process = wrap("olive.process", algorithm.process)
        algorithm.process_many = wrap("olive.process", algorithm.process_many)
        algorithm.apply_events = wrap("events.apply", algorithm.apply_events)
        context = algorithm.greedy_context
        context.embed = wrap("greedy.embed", context.embed)

    def layer_metrics(self, spans: dict, window: Window,
                      service) -> dict[str, float]:
        def self_s(name: str) -> float:
            return spans.get(name, {}).get("self_s", 0.0)

        def calls(name: str) -> int:
            return spans.get(name, {}).get("calls", 0)

        covered = sum(entry["self_s"] for entry in spans.values())
        out = {
            "trace.coverage_ratio": covered / window.wall,
            "serve.offer_s": self_s("serve.offer"),
            "serve.advance_s": self_s("serve.advance"),
            "session.slot_s": self_s("session.slot"),
            "session.process_s": self_s("session.process"),
            "olive.process_s": self_s("olive.process"),
            "greedy.embed_s": self_s("greedy.embed"),
            "greedy.embed_calls": calls("greedy.embed"),
            "paths.dijkstra_s": self_s("paths.dijkstra"),
            "paths.dijkstra_calls": calls("paths.dijkstra"),
            "events.apply_s": self_s("events.apply"),
            "shard.offer_s": self_s("shard.offer"),
            "shard.advance_s": self_s("shard.advance"),
            "shard.checkpoint_s": self_s("shard.checkpoint"),
        }
        if self.workload.shards:
            # The frontend keeps the latest per-shard checkpoint payloads.
            out["shard.checkpoint_bytes"] = sum(
                len(payload) for payload in service._checkpoints
            )
        return out


def window_slowdown(window: Window) -> float:
    """Median of the window's :func:`calibrate` times over the
    reference's: above 1 when the machine ran slower than the reference
    machine while the window ran."""
    return median(window.calibration) / CALIBRATION_REFERENCE_S


def run_slowdown(windows: list[Window]) -> float:
    """:func:`window_slowdown` over all the windows' samples together."""
    samples = [c for window in windows for c in window.calibration]
    return median(samples) / CALIBRATION_REFERENCE_S


def speed_factor(run: Run, windows: list[Window]) -> float:
    """What the run's wall times are divided by to read as on the
    reference machine: :func:`run_slowdown` to the power of the
    workload's ``speed_exponent``."""
    return run_slowdown(windows) ** run.workload.speed_exponent


def median_window(windows: list[Window]) -> Window:
    """The window of median ``offers_per_s`` (the upper one of an even
    count)."""
    ranked = sorted(windows, key=lambda w: w.offers_per_s)
    return ranked[len(ranked) // 2]


def median_calls(windows: list[Window],
                 factor: float) -> list[tuple[float, int]]:
    """Each decision call's latency, the median over the windows, over
    ``factor``, with its offers. Every window makes the same calls
    (their decisions are checked equal), so one slow call in one window,
    which would be a whole window's p99 on a workload with a few large
    calls, does not set the figure."""
    return [
        (median(latency for latency, _ in calls) / factor, calls[0][1])
        for calls in zip(*(w.calls for w in windows))
    ]


def median_rate(windows: list[Window], factor: float) -> float:
    """Offers per second over the timed slots, each slot's wall time
    being the median over the windows (see :func:`median_calls`), times
    ``factor``."""
    wall = sum(
        median(slots) for slots in zip(*(w.slot_walls for w in windows))
    )
    first = windows[0]
    return (first.attempted - first.failed) / wall * factor


def occupancy_gap(run: Run) -> float | None:
    """Mean relative gap over the timed slots between the occupancy of
    the full and of the half warm-up (None where it is not measured)."""
    if run.occupancy is None or run.half_occupancy is None:
        return None
    start, stop = run.workload.window
    full = run.occupancy[start:stop]
    half = run.half_occupancy[start:stop]
    return float(np.abs(full - half).mean() / full.mean())


def occupancy_report(run: Run) -> dict:
    """Occupancy (active demand per slot) relative to its timed mean."""
    start, stop = run.workload.window
    timed = run.occupancy[start:stop]
    mean = timed.mean()
    middle = len(timed) // 2
    return {
        "timed_mean_demand": float(mean),
        "warmup_gap": occupancy_gap(run),
        "timed_drift": float((timed[middle:].mean() - timed[:middle].mean())
                             / mean),
        "curve": [round(float(x / mean), 3) for x in run.occupancy[:stop]],
    }


def wall_timings(run: Run) -> dict[str, float]:
    """The timings as measured on this machine, before calibration."""
    return {
        "offers_per_s": median(w.offers_per_s for w in run.windows),
        "offer_p50_us": median(w.latency(0.50) for w in run.windows) * 1e6,
        "offer_p99_us": median(w.latency(0.99) for w in run.windows) * 1e6,
        "setup_s": median(run.setup_times),
    }


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    """Timings calibrated to the reference machine's speed (see
    :func:`speed_factor`): each slot's and each call's time the median
    over the windows, ``setup_s`` the median set-up. The rest is as
    measured."""
    record = run.records[0]
    factor = speed_factor(run, run.windows)
    setup = median(run.setup_times) / factor
    # The first window's: later ones add the harness's record of the
    # earlier windows' call latencies to the same replayed work.
    peak = run.windows[0].peak_rss_mb
    calls = median_calls(run.windows, factor)
    return {
        "offers_per_s": (median_rate(run.windows, factor), "1/s"),
        "offer_p50_us": (percentile(calls, 0.50) * 1e6, "us"),
        "offer_p99_us": (percentile(calls, 0.99) * 1e6, "us"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak + run.children_rss_mb, "MB"),
        "rejection_rate": (record["rejection_rate"], "ratio"),
        "total_cost": (record["total_cost"], "cost"),
    }


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """Layer metrics of the median traced window; offers/s as in
    :func:`end_to_end`."""
    record = run.records[0]
    middle = median_window(run.traced_windows)
    layers = run.layers[run.traced_windows.index(middle)]
    setup = {}
    for name in ("scenario.build", "plan.compute", "lp.solve", "shard.boot"):
        setup[name] = fmean(s.get(name, 0.0) for s in run.setup_layers)
    factor = speed_factor(run, run.windows + run.traced_windows)
    untraced = median_rate(run.windows, factor)
    traced = median_rate(run.traced_windows, factor)
    rows = record.get("greedy.batch_rows", 0)
    fallbacks = record.get("greedy.batch_fallbacks", 0)
    hits = record.get("greedy.cache_hits", 0)
    misses = record.get("greedy.cache_misses", 0)
    attempts = record.get("shard.cross_attempts", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "scenario.build_s": (setup["scenario.build"], "s"),
        "plan.compute_s": (setup["plan.compute"], "s"),
        "lp.solve_s": (setup["lp.solve"], "s"),
        "serve.offer_s": (layers["serve.offer_s"], "s"),
        "serve.advance_s": (layers["serve.advance_s"], "s"),
        "serve.shed": (record.get("serve.shed", 0), "count"),
        "session.slot_s": (layers["session.slot_s"], "s"),
        "session.process_s": (layers["session.process_s"], "s"),
        "olive.process_s": (layers["olive.process_s"], "s"),
    }
    for name in DECISION_CLASSES + ("preempted",):
        out[f"olive.{name}"] = (record[f"olive.{name}"], "count")
    out.update({
        "greedy.embed_s": (layers["greedy.embed_s"], "s"),
        "greedy.embed_calls": (layers["greedy.embed_calls"], "count"),
        "greedy.cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "greedy.direct_routes": (record.get("greedy.direct_routes", 0), "count"),
        "greedy.mode_switches": (record.get("greedy.mode_switches", 0), "count"),
        "batch.rows": (rows, "count"),
        "batch.fallbacks": (fallbacks, "count"),
        "batch.useful_ratio": (ratio(rows, rows + fallbacks), "ratio"),
        "batch.chunks": (record.get("greedy.batch_chunks", 0), "count"),
        "paths.dijkstra_calls": (layers["paths.dijkstra_calls"], "count"),
        "paths.dijkstra_s": (layers["paths.dijkstra_s"], "s"),
        "events.applied": (record.get("events.applied", 0), "count"),
        "events.disrupted": (record.get("events.disrupted", 0), "count"),
        "events.apply_s": (layers["events.apply_s"], "s"),
        "shard.boot_s": (setup["shard.boot"], "s"),
        "shard.offer_s": (layers["shard.offer_s"], "s"),
        "shard.advance_s": (layers["shard.advance_s"], "s"),
        "shard.checkpoint_s": (layers["shard.checkpoint_s"], "s"),
        "shard.checkpoint_bytes": (
            layers.get("shard.checkpoint_bytes", 0.0), "bytes"
        ),
        "shard.cross_attempts": (attempts, "count"),
        "shard.cross_commit_ratio": (
            ratio(record.get("shard.cross_commits", 0), attempts), "ratio"
        ),
        "trace.offers_per_s": (traced, "1/s"),
        "trace.overhead_ratio": ((untraced - traced) / untraced, "ratio"),
        "trace.coverage_ratio": (layers["trace.coverage_ratio"], "ratio"),
    })
    return out


def class_latencies(run: Run) -> dict[str, tuple[int, float, float]]:
    """``offer()`` latency per decision class: (samples, p50 s, p99 s),
    pooled over every window for the sample counts, calibrated as in
    :func:`end_to_end`."""
    by_class: dict[str, list[tuple[float, int]]] = {
        name: [] for name in DECISION_CLASSES
    }
    factor = speed_factor(run, run.windows)
    for window in run.windows:
        for (latency, n), name in zip(window.calls, window.classes):
            by_class[name].append((latency / factor, n))
    return {
        name: (len(calls), percentile(calls, 0.5), percentile(calls, 0.99))
        for name, calls in by_class.items() if calls
    }
