"""The four benchmark workloads: seeded inputs, execution, outcome checks.

Each workload is an infinite, stratified input stream.  ``unit(seed, i)``
is a pure function of the seed and the index, with every random choice
drawn through ``derive_seed``, and consecutive indices cycle through the
workload's grid so that any prefix of the stream covers the grid evenly.
That keeps the measured mix, and hence the metrics, steady across seeds.
The library receives only the generated specs and t_D sequences.

``run(unit, compiled)`` executes one unit and returns its canonical
outcome: a JSON-ready list that holds no wall time, so equal inputs give
equal outcomes on every engine, traced or not.  ``check(unit, outcome)``
returns why an outcome is wrong, or ``None``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from typing import Any, Dict, List, Optional, Sequence

from repro.algorithms.consensus_ct import ct_consensus_algorithm
from repro.algorithms.consensus_omega import omega_consensus_algorithm
from repro.algorithms.consensus_perfect import perfect_consensus_algorithm
from repro.algorithms.consensus_tree import (
    TreeConsensusProcess,
    tree_consensus_algorithm,
)
from repro.cache import ResultStore
from repro.detectors.perfect import perfect_output
from repro.faults import FaultPlan
from repro.ioa.composition import Composition
from repro.runner import BatchRunner, ExperimentSpec
from repro.runner import spec as spec_module
from repro.runner.seeds import derive_seed
from repro.system.channel import make_channels
from repro.system.environment import ConsensusEnvironment
from repro.system.fault_pattern import crash_action
from repro.tree.hooks import HookSearch
from repro.tree.tagged_tree import TaggedTreeGraph
from repro.tree.valence import ValenceAnalysis, decision_extractor_for_processes

# -- chaos-consensus ---------------------------------------------------------

CHAOS_STACKS = (
    ("Omega", omega_consensus_algorithm, "omega"),
    ("EvS", ct_consensus_algorithm, "evs"),
    ("P", perfect_consensus_algorithm, "p"),
)
CHAOS_SIZES = (3, 5)
CHAOS_DROPS = (0.0, 0.05, 0.15, 0.3)
CHAOS_DUPLICATES = (0.0, 0.1)
#: Unsolved runs exhaust this budget; solved ones take at most ~370
#: steps.  The number of unsolved runs a seed draws varies by ~5%, and
#: at 8000 steps (50x a solved run's cost) that swung a run's throughput
#: by more than 10% from seed to seed.  At 1000 the tail is still ~3x
#: the median.
CHAOS_MAX_STEPS = 1000
#: The step budget of the chaos specs the sweep-rerun workload draws.
SHORT_CHAOS_MAX_STEPS = 500
CHAOS_CELLS = (
    len(CHAOS_STACKS) * len(CHAOS_SIZES) * len(CHAOS_DROPS)
    * len(CHAOS_DUPLICATES) * 2
)


def chaos_spec(
    seed: int, index: int, tag: str = "", max_steps: int = CHAOS_MAX_STEPS
) -> ExperimentSpec:
    """Consensus spec ``index`` of the chaos stream rooted at ``seed``.

    The grid cell cycles with the index, drop rate fastest, so every run
    of 24 consecutive units covers each (stack, n, drop) once; the
    fault schedule, proposals and crash come from the unit seed.
    """
    cell = index % CHAOS_CELLS
    drop = CHAOS_DROPS[cell % 4]
    n = CHAOS_SIZES[(cell // 4) % 2]
    stack, algorithm, detector = CHAOS_STACKS[(cell // 8) % 3]
    duplicate = CHAOS_DUPLICATES[(cell // 24) % 2]
    crash = (cell // 48) % 2 == 1
    unit_seed = derive_seed(seed, "chaos", index)
    locations = tuple(range(n))
    crashes = None
    if crash:
        victim = derive_seed(unit_seed, "victim") % n
        crashes = {victim: 1 + derive_seed(unit_seed, "crash-step") % 60}
    plan = None
    if drop or duplicate:
        plan = FaultPlan.uniform(drop_p=drop, duplicate_p=duplicate)
    return ExperimentSpec(
        algorithm=algorithm,
        detector=detector,
        locations=locations,
        proposals={
            i: derive_seed(unit_seed, "proposal", i) % 2 for i in locations
        },
        crashes=crashes,
        f=(n - 1) // 2,
        seed=unit_seed,
        max_steps=max_steps,
        fault_plan=plan,
        label=(
            f"chaos|{stack}|n{n}|d{drop}|u{duplicate}|"
            f"{'crash' if crash else 'nocrash'}|{tag}{index}"
        ),
    )


# -- timed-conformance -------------------------------------------------------

TIMED_IMPLEMENTATIONS = ("heartbeat", "ping-pong", "leader-lease")
TIMED_TIMEOUTS = (2, 3, 5, 8)
TIMED_DROPS = (0.0, 0.1, 0.3, 1.0)
TIMED_JITTERS = (1, 2, 3)
#: Run length is the cost of a timed run (it never stops early), so the
#: five horizons put the median inside the 1000-step group and the 95th
#: percentile inside the 2000-step group, not on a boundary between two.
TIMED_HORIZONS = (250, 500, 1000, 1500, 2000)
SHORT_TIMED_HORIZONS = (250, 500)
TIMED_LOCATIONS = (0, 1, 2)


def timed_spec(
    seed: int,
    index: int,
    tag: str = "",
    horizons: Sequence[int] = TIMED_HORIZONS,
) -> ExperimentSpec:
    """Timed-detector spec ``index`` of the stream rooted at ``seed``.

    Horizon cycles fastest, then implementation, drop, timeout and
    jitter; 7 in 10 runs crash one location in the first half.
    """
    cell = index
    horizon = horizons[cell % len(horizons)]
    cell //= len(horizons)
    implementation = TIMED_IMPLEMENTATIONS[cell % 3]
    drop = TIMED_DROPS[(cell // 3) % 4]
    timeout = TIMED_TIMEOUTS[(cell // 12) % 4]
    jitter = TIMED_JITTERS[(cell // 48) % 3]
    unit_seed = derive_seed(seed, "timed", index)
    crashes = None
    if derive_seed(unit_seed, "crash") % 10 < 7:
        victim = TIMED_LOCATIONS[derive_seed(unit_seed, "victim") % 3]
        crashes = {
            victim: 1 + derive_seed(unit_seed, "crash-step") % (horizon // 2)
        }
    return ExperimentSpec(
        detector=implementation,
        locations=TIMED_LOCATIONS,
        problem="timed-detector",
        crashes=crashes,
        seed=unit_seed,
        max_steps=horizon,
        timed={"timeout": timeout, "lease": timeout + 4, "delay": {"jitter": jitter}},
        fault_plan=FaultPlan.uniform(drop_p=drop) if drop else None,
        label=(
            f"timed|{implementation}|t{timeout}|d{drop}|j{jitter}|h{horizon}|"
            f"{tag}{index}"
        ),
    )


def spec_outcome(result) -> List[Any]:
    """The canonical outcome of one executed spec (no wall time)."""
    conformance = result.conformance or {}
    return [
        result.label,
        result.solved,
        result.fd_ok,
        result.consensus_ok,
        sorted([k, v] for k, v in result.decisions.items()),
        result.steps,
        result.messages_sent,
        conformance.get("violation_index"),
    ]


def check_spec_outcome(spec: ExperimentSpec, outcome: List[Any]) -> Optional[str]:
    """The semantic check every chaos and timed outcome must pass."""
    _label, solved, fd_ok, _ok, _decisions, steps, _msgs, violation = outcome
    if spec.problem == "consensus":
        if spec.fault_plan is None and not solved:
            return "a run without a fault plan did not solve consensus"
        return None
    params = spec.resolve_timed()
    if (
        spec.detector == "ping-pong"
        and spec.fault_plan is None
        and params.timeout < 2 * params.delay.max_total - 1
    ):
        # Below the round-trip bound P's strong accuracy must fail, and
        # the oracle must pin the violation to an output event.
        if fd_ok or violation is None or violation >= steps:
            return (
                "sub-bound ping-pong run was not flagged at an exact "
                f"violation index (fd_ok={fd_ok}, index={violation})"
            )
    return None


class _SpecWorkload:
    """A workload whose unit is one ``run_spec`` call."""

    jobs = 1

    def prepare(self, seed: int, workdir: str, template: str = "") -> None:
        """Nothing to set up beyond the imports."""

    def run(self, unit: ExperimentSpec, compiled: bool) -> List[Any]:
        # ``run_spec`` is looked up on its module at call time, so a
        # traced repetition's wrapper sees the call.
        spec = dataclasses.replace(unit, compiled=compiled)
        return spec_outcome(spec_module.run_spec(spec))

    def check(self, unit: ExperimentSpec, outcome: List[Any]) -> Optional[str]:
        return check_spec_outcome(unit, outcome)


class ChaosConsensus(_SpecWorkload):
    name = "chaos-consensus"

    def unit(self, seed: int, index: int) -> ExperimentSpec:
        return chaos_spec(seed, index)


class TimedConformance(_SpecWorkload):
    name = "timed-conformance"

    def unit(self, seed: int, index: int) -> ExperimentSpec:
        return timed_spec(seed, index)


# -- tree-hooks --------------------------------------------------------------

TREE_LOCATIONS = (0, 1)
TREE_ROUNDS = (4, 5, 6, 7, 8, 9, 10)


@dataclasses.dataclass(frozen=True)
class TreeInput:
    """One perfect-detector t_D for the 2-location tree consensus."""

    label: str
    fd_sequence: tuple


def tree_input(seed: int, index: int) -> TreeInput:
    """t_D ``index``: 4-10 rounds of P outputs, at most one crash.

    A crash (2 draws in 3) hits a seed-drawn victim at a seed-drawn
    round; from then on the survivor suspects it, as P requires.
    """
    rounds = TREE_ROUNDS[index % len(TREE_ROUNDS)]
    unit_seed = derive_seed(seed, "tree", index)
    draw = derive_seed(unit_seed, "victim") % 3
    victim = TREE_LOCATIONS[draw] if draw < len(TREE_LOCATIONS) else None
    crash_round = derive_seed(unit_seed, "crash-round") % rounds
    events = []
    crashed: tuple = ()
    for r in range(rounds):
        if victim is not None and r == crash_round:
            events.append(crash_action(victim))
            crashed = (victim,)
        events.extend(
            perfect_output(i, crashed) for i in TREE_LOCATIONS if i not in crashed
        )
    return TreeInput(
        label=f"tree|r{rounds}|v{victim}|c{crash_round}|{index}",
        fd_sequence=tuple(events),
    )


class TreeHooks:
    name = "tree-hooks"
    jobs = 1

    def prepare(self, seed: int, workdir: str, template: str = "") -> None:
        """Nothing to set up beyond the imports."""

    def unit(self, seed: int, index: int) -> TreeInput:
        return tree_input(seed, index)

    def run(self, unit: TreeInput, compiled: bool) -> List[Any]:
        algorithm = tree_consensus_algorithm(TREE_LOCATIONS)
        composition = Composition(
            list(algorithm.automata())
            + make_channels(TREE_LOCATIONS)
            + [ConsensusEnvironment(TREE_LOCATIONS)],
            name="tree-system",
        )
        graph = TaggedTreeGraph(
            composition, unit.fd_sequence, max_vertices=500_000, compiled=compiled
        )
        valence = ValenceAnalysis(
            graph,
            decision_extractor_for_processes(
                composition, algorithm.automata(), TreeConsensusProcess.decision
            ),
        )
        counts = valence.counts()
        report = HookSearch(graph, valence, TREE_LOCATIONS).report()
        return [
            unit.label,
            graph.num_vertices,
            counts["bivalent"],
            counts["univalent"],
            counts["undetermined"],
            valence.root_valence().describe(),
            report.num_hooks,
            sorted(report.critical_locations),
            report.theorem59_holds,
        ]

    def check(self, unit: TreeInput, outcome: List[Any]) -> Optional[str]:
        if outcome[5] != "bivalent":
            return f"root is {outcome[5]}, not bivalent (Proposition 51)"
        if not outcome[8]:
            return "Theorem 59 does not hold"
        return None


# -- sweep-rerun -------------------------------------------------------------

#: Specs stored in the template store; each sweep re-asks for four.
SWEEP_POOL = 32
SWEEP_OLD = 4
SWEEP_NEW = 4
SWEEP_JOBS = 2
OUTCOMES_FILE = "outcomes.json"


def _short_spec(seed: int, index: int, tag: str) -> ExperimentSpec:
    """Short-horizon spec ``index``: chaos and timed specs alternate."""
    if index % 2 == 0:
        return chaos_spec(seed, index // 2, tag, SHORT_CHAOS_MAX_STEPS)
    return timed_spec(seed, index // 2, tag, SHORT_TIMED_HORIZONS)


def pool_specs(seed: int) -> List[ExperimentSpec]:
    """The specs the sweep-rerun template store holds."""
    root = derive_seed(seed, "sweep-pool")
    return [_short_spec(root, k, "pool") for k in range(SWEEP_POOL)]


@dataclasses.dataclass(frozen=True)
class Sweep:
    """One incremental sweep: stored specs interleaved with new ones."""

    label: str
    specs: tuple
    stored: tuple


def sweep_input(seed: int, index: int, pool: Sequence[ExperimentSpec]) -> Sweep:
    """Sweep ``index``: four ``pool`` specs (stored) and four new ones."""
    start = derive_seed(seed, "sweep-old", index) % SWEEP_POOL
    new_root = derive_seed(seed, "sweep-new")
    specs = []
    stored = []
    for m in range(SWEEP_OLD):
        specs.append(pool[(start + m) % SWEEP_POOL])
        stored.append(True)
        specs.append(_short_spec(new_root, SWEEP_NEW * index + m, f"s{index}."))
        stored.append(False)
    return Sweep(f"sweep|{index}", tuple(specs), tuple(stored))


def seed_template(seed: int, path: str) -> None:
    """Run the pool once into a fresh store at ``path`` (per invocation).

    The pool's outcomes are saved beside the store, so a repetition can
    check that every cache hit returns what the run produced.
    """
    store = ResultStore(os.path.join(path, "store"))
    specs = pool_specs(seed)
    batch = BatchRunner(jobs=1, cache=store).run(specs, raise_on_error=True)
    outcomes = {spec.label: spec_outcome(r) for spec, r in zip(specs, batch)}
    with open(os.path.join(path, OUTCOMES_FILE), "w", encoding="utf-8") as fp:
        json.dump(outcomes, fp, sort_keys=True)


class SweepRerun:
    name = "sweep-rerun"
    jobs = SWEEP_JOBS

    def __init__(self) -> None:
        self.store: Optional[ResultStore] = None
        self.stored_outcomes: Dict[str, Any] = {}
        self._pools: Dict[int, List[ExperimentSpec]] = {}

    def prepare(self, seed: int, workdir: str, template: str = "") -> None:
        """Copy the template store into this repetition's workdir."""
        if not template:
            raise ValueError("sweep-rerun needs a seeded template store")
        root = os.path.join(workdir, "template")
        shutil.copytree(template, root)
        with open(os.path.join(root, OUTCOMES_FILE), encoding="utf-8") as fp:
            self.stored_outcomes = json.load(fp)
        self.store = ResultStore(os.path.join(root, "store"))

    def unit(self, seed: int, index: int) -> Sweep:
        pool = self._pools.get(seed)
        if pool is None:
            pool = self._pools[seed] = pool_specs(seed)
        return sweep_input(seed, index, pool)

    def run(self, unit: Sweep, compiled: bool) -> List[Any]:
        specs = [dataclasses.replace(s, compiled=compiled) for s in unit.specs]
        batch = BatchRunner(jobs=self.jobs, cache=self.store).run(specs)
        return [
            unit.label,
            batch.cache_hits,
            batch.cache_misses,
            [r.error for r in batch if r.error is not None],
            [spec_outcome(r) for r in batch],
        ]

    def check(self, unit: Sweep, outcome: List[Any]) -> Optional[str]:
        _label, hits, misses, errors, outcomes = outcome
        if errors:
            return f"sweep runs raised: {errors[0]}"
        if (hits, misses) != (SWEEP_OLD, SWEEP_NEW):
            return f"expected {SWEEP_OLD} hits and {SWEEP_NEW} misses, got {hits}/{misses}"
        for spec, stored, result in zip(unit.specs, unit.stored, outcomes):
            if stored and result != self.stored_outcomes.get(spec.label):
                return f"cache hit for {spec.label} differs from the stored run"
            problem = check_spec_outcome(spec, result)
            if problem is not None:
                return f"{spec.label}: {problem}"
        return None


WORKLOADS = {
    cls.name: cls
    for cls in (ChaosConsensus, TimedConformance, TreeHooks, SweepRerun)
}
