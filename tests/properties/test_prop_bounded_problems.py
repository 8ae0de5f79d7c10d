"""Property-based tests for the bounded-problem algorithm suite:
FloodMin k-set agreement and flooding TRB under random proposals, crash
plans and schedules."""

from hypothesis import given, settings, strategies as st

from repro.algorithms.kset_floodmin import (
    FloodMinProcess,
    floodmin_algorithm,
)
from repro.algorithms.trb_flooding import trb_flooding_algorithm
from repro.detectors.perfect import PerfectAutomaton
from repro.ioa.composition import Composition
from repro.ioa.scheduler import Injection, Scheduler
from repro.problems.kset_agreement import KSetAgreementProblem
from repro.problems.reliable_broadcast import (
    ReliableBroadcastProblem,
    bcast_action,
)
from repro.system.channel import make_channels
from repro.system.crash import CrashAutomaton
from repro.system.environment import ScriptedConsensusEnvironment
from repro.system.fault_pattern import FaultPattern
from repro.system.network import SystemBuilder

LOCS = (0, 1, 2, 3)


@st.composite
def crash_plans(draw, max_faulty):
    num = draw(st.integers(0, max_faulty))
    victims = draw(st.permutations(list(LOCS)).map(lambda p: p[:num]))
    return {v: draw(st.integers(0, 50)) for v in victims}


@settings(max_examples=12, deadline=None)
@given(
    crashes=crash_plans(max_faulty=2),
    proposals=st.tuples(*[st.integers(0, 3) for _ in LOCS]),
)
def test_floodmin_kset_agreement(crashes, proposals):
    k, f = 2, 2
    algorithm = floodmin_algorithm(LOCS, k=k, f=f)
    system = (
        SystemBuilder(LOCS)
        .with_algorithm(algorithm)
        .with_failure_detector(PerfectAutomaton(LOCS))
        .with_environment(
            ScriptedConsensusEnvironment(dict(zip(LOCS, proposals)))
        )
        .build()
    )

    def settled(state):
        crashed = system.crashed(state)
        return all(
            i in crashed
            or FloodMinProcess.decision(system.process_state(state, i))
            is not None
            for i in LOCS
        )

    execution = system.run(
        max_steps=20_000,
        fault_pattern=FaultPattern(crashes, LOCS),
        stop_when=settled,
    )
    problem = KSetAgreementProblem(LOCS, f=f, k=k, values=tuple(range(4)))
    events = problem.project_events(list(execution.actions))
    verdict = problem.check_conditional(events)
    assert verdict, (crashes, proposals, verdict.reasons)
    decisions = {a.payload[0] for a in events if a.name == "decide"}
    assert len(decisions) <= k
    assert decisions <= set(proposals)


@settings(max_examples=12, deadline=None)
@given(
    crashes=crash_plans(max_faulty=2),
    bcast_step=st.integers(0, 30),
)
def test_trb_agreement_and_validity(crashes, bcast_step):
    algorithm = trb_flooding_algorithm(LOCS, sender=0, f=2)
    system = Composition(
        list(algorithm.automata())
        + make_channels(LOCS)
        + [PerfectAutomaton(LOCS), CrashAutomaton(LOCS)],
        name="trb",
    )
    execution = Scheduler().run(
        system,
        max_steps=12_000,
        injections=[Injection(bcast_step, bcast_action(0, "m"))]
        + FaultPattern(crashes, LOCS).injections(),
    )
    problem = ReliableBroadcastProblem(LOCS, sender=0, f=2)
    events = problem.project_events(list(execution.actions))
    verdict = problem.check_conditional(events)
    assert verdict, (crashes, bcast_step, verdict.reasons)
