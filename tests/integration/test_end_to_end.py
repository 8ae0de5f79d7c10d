"""End-to-end scenario tests, including the FLP baseline (E11): without
failure-detector information, an adversarial scheduler keeps a consensus
run undecided indefinitely, while any fair schedule with a sufficiently
strong AFD decides."""

import pytest

from repro.algorithms.consensus_omega import (
    omega_consensus_algorithm,
)
from repro.algorithms.consensus_perfect import (
    perfect_consensus_algorithm,
)
from repro.analysis.checkers import run_consensus_experiment
from repro.analysis.stats import collect_run_statistics
from repro.detectors.omega import Omega
from repro.detectors.perfect import Perfect
from repro.ioa.composition import Composition
from repro.ioa.scheduler import AdversarialPolicy, Scheduler
from repro.system.channel import make_channels
from repro.system.crash import CrashAutomaton
from repro.system.environment import ScriptedConsensusEnvironment
from repro.system.fault_pattern import FaultPattern

LOCS = (0, 1, 2)


class TestFLPBaseline:
    """E11: starve the failure detector and the run cannot finish —
    the consensus algorithm's waits never resolve.  This is the
    observable shadow of the FLP impossibility [11] that AFDs circumvent:
    the detector's events are exactly what breaks the symmetry."""

    def test_starving_the_detector_stalls_consensus(self):
        algorithm = perfect_consensus_algorithm(LOCS)
        env = ScriptedConsensusEnvironment({0: 1, 1: 0, 2: 0})
        fd = Perfect(LOCS).automaton()
        system = Composition(
            list(algorithm.automata())
            + make_channels(LOCS)
            + [fd, env, CrashAutomaton(LOCS)],
            name="starved",
        )

        def no_fd(state, options, step):
            for task, enabled in options:
                if not task.startswith("FD-P"):
                    return min(enabled)
            return min(options[0][1])  # only FD left: forced (unreached)

        pattern = FaultPattern({0: 2}, LOCS)
        execution = Scheduler(AdversarialPolicy(no_fd)).run(
            system, max_steps=3000, injections=pattern.injections()
        )
        # Round-1 coordinator 0 crashed before broadcasting; without
        # suspicion events nobody can advance: no decisions, ever.
        stats = collect_run_statistics(execution)
        assert stats.decisions == 0

    def test_same_run_with_detector_decides(self):
        result = run_consensus_experiment(
            perfect_consensus_algorithm(LOCS),
            Perfect(LOCS),
            proposals={0: 1, 1: 0, 2: 0},
            fault_pattern=FaultPattern({0: 2}, LOCS),
            f=1,
        )
        assert result.all_live_decided
        assert result.solved


class TestScenarioMatrix:
    """A broad scenario sweep mixing detectors, algorithms and crashes."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_omega_scaling(self, n):
        locations = tuple(range(n))
        f = (n - 1) // 2
        crashes = {i: 10 + 7 * i for i in range(f)}
        result = run_consensus_experiment(
            omega_consensus_algorithm(locations),
            Omega(locations),
            proposals={i: i % 2 for i in locations},
            fault_pattern=FaultPattern(crashes, locations),
            f=f,
            max_steps=40_000,
        )
        assert result.all_live_decided
        assert result.solved

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_perfect_scaling(self, n):
        locations = tuple(range(n))
        f = n - 1
        crashes = {i: 5 + 11 * i for i in range(n // 2)}
        result = run_consensus_experiment(
            perfect_consensus_algorithm(locations),
            Perfect(locations),
            proposals={i: (i + 1) % 2 for i in locations},
            fault_pattern=FaultPattern(crashes, locations),
            f=f,
            max_steps=40_000,
        )
        assert result.all_live_decided
        assert result.solved

    def test_crash_at_every_early_step(self):
        """Sweep the crash step of the round-1 coordinator across the
        protocol's critical window."""
        for step in range(0, 30, 3):
            result = run_consensus_experiment(
                perfect_consensus_algorithm(LOCS),
                Perfect(LOCS),
                proposals={0: 1, 1: 0, 2: 0},
                fault_pattern=FaultPattern({0: step}, LOCS),
                f=1,
            )
            assert result.all_live_decided, step
            assert result.solved, step
