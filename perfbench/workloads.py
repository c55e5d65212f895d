"""The benchmark's workloads, their deployments and their offered traffic.

A workload fixes a deployment — topology, application catalogue,
planning history, plan and algorithm, all built from
:data:`DEPLOY_SEED` — and a slot horizon split into untimed warm-up
slots (until occupancy is steady) and timed slots.

Traffic is the paper's online process. The per-slot arrival counts are
the deployment trace's own online phase (its MMPP realisation), so the
offered load over time is part of the workload; the benchmark's
``--seed`` draws the requests themselves: Zipf ingress over edge
datacenters from the deployment's popularity map, application,
N(mu, sigma) demand and exponential duration — the distribution the
plan was computed from. Fixing the load profile matters: at
utilization 1.0 the rejection rate is steep in load, and a 300-slot
MMPP window varies its mean load by ~9% between realisations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import scale_config
from repro.utils.rng import make_rng
from repro.workload.request import Request
from repro.workload.trace import _draw_requests_for_slot

#: Seed of every deployment (catalogue, history, plan); see module doc.
DEPLOY_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    topology: str
    algorithm: str
    arrivals_per_node: float
    warmup_slots: int
    timed_slots: int
    #: Leading slots whose decisions are compared with the frozen
    #: reference engine (``use_fast_greedy=False``); 0 for the sharded
    #: tier, which is checked through its frontend and ledger instead.
    reference_slots: int
    #: The single-chain ``scale`` mix and short history of fig_scale
    #: (four-app mixes make PLAN-VNE intractable past ~200 nodes).
    scale_mix: bool = False
    #: Serve each request with its own ``offer()`` call instead of one
    #: ``offer_many()`` per slot.
    single_offers: bool = False
    events: str | None = None
    shards: int = 0
    #: Seconds of ``--seconds`` that one timed window stands for. It
    #: fixes how many windows a run times, so that a faster program is
    #: not measured with more repeats (README: *Timed windows*).
    nominal_window_s: float = 1.0
    #: Set-ups per run, ``setup_s`` being their median; cheap set-ups
    #: are noisy, so they are repeated more.
    setups: int = 4
    #: How the workload's wall times follow the machine's speed: the
    #: slope of log offers/s on log ``harness.run_slowdown`` across runs
    #: on the reference machine (README: *Calibration*). The timings are
    #: divided by the run's slowdown to this power.
    speed_exponent: float = 1.0

    def windows(self, seconds: float) -> int:
        """The fixed number of timed windows for a ``seconds`` budget."""
        return max(1, round(seconds / self.nominal_window_s))

    @property
    def horizon(self) -> int:
        return self.warmup_slots + self.timed_slots

    @property
    def window(self) -> tuple[int, int]:
        return (self.warmup_slots, self.horizon)

    def config(self) -> ExperimentConfig:
        base = ExperimentConfig.bench(topology=self.topology)
        if self.scale_mix:
            base = scale_config(base)
        return base.with_(
            arrivals_per_node=self.arrivals_per_node,
            online_slots=self.horizon,
            measure_start=self.warmup_slots,
            measure_stop=self.horizon,
            repetitions=1,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="churn-offer",
            why="the paper's CittaStudi OLIVE with its plan, under link "
            "degradation, one offer() per request: plan/LP set-up, scalar "
            "decisions, capacity writes invalidating cached paths, per-offer "
            "latency",
            topology="CittaStudi",
            algorithm="OLIVE",
            arrivals_per_node=4.0,
            warmup_slots=50,
            timed_slots=150,
            reference_slots=8,
            single_offers=True,
            events="degradation",
            nominal_window_s=2.0,
        ),
        Workload(
            name="scale-greedy",
            why="tiered-x:400 QUICKG (no plan), one offer_many() per slot: "
            "capacity-constrained routing, PathCache and batch kernel do "
            "nearly all the work",
            topology="tiered-x:400",
            algorithm="QUICKG",
            arrivals_per_node=0.35,
            warmup_slots=50,
            timed_slots=16,
            reference_slots=2,
            scale_mix=True,
            nominal_window_s=2.0,
            setups=20,
            # The batch kernel's numpy work slows less than pure Python.
            speed_exponent=0.75,
        ),
        Workload(
            name="shard-k2",
            why="scale-greedy's deployment and traffic served by "
            "ShardedEmbedderService, K=2 process workers, kbalanced, "
            "per-slot checkpoints: the only repro.shard workload",
            topology="tiered-x:400",
            algorithm="QUICKG",
            arrivals_per_node=0.35,
            warmup_slots=50,
            timed_slots=16,
            reference_slots=0,
            scale_mix=True,
            shards=2,
            nominal_window_s=4.0,
            setups=8,
            # Checkpoint pickling and pipes to the workers slow less than
            # pure Python.
            speed_exponent=0.7,
        ),
    )
}


def offered_traffic(scenario, seed: int) -> dict[int, list[Request]]:
    """The offered requests by arrival slot; bodies drawn from ``seed``.

    Each slot is drawn by the trace generator's own per-slot sampler,
    so the traffic follows the distribution the plan was computed from.
    """
    counts = Counter(r.arrival for r in scenario.online_requests())
    edges = scenario.substrate.edge_nodes
    popularity = np.array(
        [scenario.trace.node_popularity[v] for v in edges]
    )
    rng = make_rng(seed)
    traffic: dict[int, list[Request]] = {}
    next_id = 0
    for slot in sorted(counts):
        traffic[slot] = _draw_requests_for_slot(
            slot, counts[slot], next_id, edges, popularity,
            len(scenario.apps), scenario.trace.config, rng,
        )
        next_id += counts[slot]
    return traffic
