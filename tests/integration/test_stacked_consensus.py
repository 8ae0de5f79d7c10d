"""Consensus from weaker detectors through reduction pipelines.

Theorem 18's practical face: any detector that implements Omega solves
consensus by composing its reduction with the Omega-consensus algorithm.
These tests run the full stacks ◇P → Omega → Paxos and
P → ◇P → Omega → Paxos as single systems.
"""

import pytest

from repro.algorithms.consensus_omega import (
    omega_consensus_algorithm,
)
from repro.detectors.eventually_perfect import EventuallyPerfectAutomaton
from repro.detectors.perfect import PerfectAutomaton
from repro.detectors.registry import known_reductions
from repro.ioa.composition import Composition
from repro.ioa.scheduler import Scheduler
from repro.problems.consensus import ConsensusProblem
from repro.system.channel import make_channels
from repro.system.crash import CrashAutomaton
from repro.system.environment import ScriptedConsensusEnvironment
from repro.system.fault_pattern import FaultPattern

LOCS = (0, 1, 2)


def reduction(name):
    return next(r for r in known_reductions() if r.name == name)


def run_stack(fd_automaton, relay_stages, crashes, steps=8000):
    algorithm = omega_consensus_algorithm(LOCS)
    components = [fd_automaton]
    for stage in relay_stages:
        components.extend(stage.automata())
    components += list(algorithm.automata())
    components += make_channels(LOCS)
    components += [
        ScriptedConsensusEnvironment({0: 1, 1: 0, 2: 0}),
        CrashAutomaton(LOCS),
    ]
    system = Composition(components, name="stack")
    execution = Scheduler().run(
        system,
        max_steps=steps,
        injections=FaultPattern(crashes, LOCS).injections(),
    )
    problem = ConsensusProblem(LOCS, f=1)
    events = problem.project_events(list(execution.actions))
    decisions = {a.payload[0] for a in events if a.name == "decide"}
    return problem.check_conditional(events), decisions


@pytest.mark.parametrize(
    "crashes", [{}, {0: 12}, {2: 5}], ids=["none", "c0", "c2"]
)
class TestConsensusFromWeakerDetectors:
    def test_consensus_from_evp(self, crashes):
        """◇P ⪰ Omega relay feeding the Paxos algorithm."""
        _evp, _omega, relay = reduction("EvP>=Omega").instantiate(LOCS)
        verdict, decisions = run_stack(
            EventuallyPerfectAutomaton(LOCS), [relay], crashes
        )
        assert verdict, verdict.reasons
        assert len(decisions) == 1

    def test_consensus_from_p_through_evp(self, crashes):
        """The double stack P ⪰ ◇P ⪰ Omega, then Paxos: four layers of
        automata in one composition (Theorem 15 + Theorem 18 together)."""
        _p, _evp, stage1 = reduction("P>=EvP").instantiate(LOCS)
        _evp2, _omega, stage2 = reduction("EvP>=Omega").instantiate(LOCS)
        verdict, decisions = run_stack(
            PerfectAutomaton(LOCS), [stage1, stage2], crashes
        )
        assert verdict, verdict.reasons
        assert len(decisions) == 1
