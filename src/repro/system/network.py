"""System assembly (Section 4.1, Figure 1).

Wires together process automata, the reliable FIFO channels, the crash
automaton, and optional failure-detector and environment automata into a
single composition, and keeps handles on the pieces so experiments can
project states and traces per component.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.ioa.automaton import Automaton, State
from repro.ioa.composition import Composition
from repro.ioa.executions import Execution, Trace
from repro.ioa.scheduler import Scheduler, SchedulerPolicy
from repro.obs.prof import StepProfiler
from repro.system.channel import ChannelAutomaton, make_channels
from repro.system.crash import CrashAutomaton
from repro.system.fault_pattern import FaultPattern
from repro.system.process import DistributedAlgorithm


class SystemBuilder:
    """Builds the composition of Figure 1 step by step.

    Every built system has the channels and the crash automaton; the
    algorithm, failure detector and environment are optional.

    Examples
    --------
    >>> from repro.detectors.omega import OmegaAutomaton
    >>> from repro.algorithms.consensus_omega import omega_consensus_algorithm
    >>> locations = (0, 1, 2)
    >>> builder = (SystemBuilder(locations)
    ...            .with_algorithm(omega_consensus_algorithm(locations))
    ...            .with_failure_detector(OmegaAutomaton(locations)))
    >>> system = builder.build()
    """

    def __init__(self, locations: Sequence[int]):
        self.locations: Tuple[int, ...] = tuple(locations)
        if len(set(self.locations)) != len(self.locations):
            raise ValueError("locations must be distinct")
        self.algorithm: Optional[DistributedAlgorithm] = None
        self.failure_detector: Optional[Automaton] = None
        self.environment: Optional[Automaton] = None
        self.fault_plan = None

    # -- Configuration -----------------------------------------------------

    def with_algorithm(self, algorithm: DistributedAlgorithm) -> "SystemBuilder":
        if tuple(algorithm.locations) != self.locations:
            raise ValueError(
                f"algorithm locations {algorithm.locations} do not match "
                f"system locations {self.locations}"
            )
        self.algorithm = algorithm
        return self

    def with_failure_detector(self, fd: Automaton) -> "SystemBuilder":
        self.failure_detector = fd
        return self

    def with_environment(self, env: Automaton) -> "SystemBuilder":
        self.environment = env
        return self

    def with_fault_plan(self, plan) -> "SystemBuilder":
        """Inject the faults of a :class:`~repro.faults.plan.FaultPlan`.

        Channel faults replace the reliable channels with seeded
        :class:`~repro.faults.channels.ChaosChannel` automata; crash
        rules attach a :class:`~repro.faults.adversary.CrashRuleController`
        to every run of the built system.  A plan with no channel faults
        keeps the reliable channel automata — the zero-fault path is
        byte-identical to an unfaulted system, not merely equivalent —
        and a fully inert plan is a provable no-op.

        The plan must be bound (``plan.is_bound``) unless it is inert;
        :class:`~repro.runner.spec.ExperimentSpec` binds unbound plans
        to the run seed before building.
        """
        if plan is not None and not plan.is_bound and not plan.is_inert:
            raise ValueError(
                "fault plan is unbound; bind it to a seed first "
                "(plan.bound(seed)) or attach it via ExperimentSpec, "
                "which binds it to the run seed"
            )
        self.fault_plan = plan
        return self

    # -- Assembly ------------------------------------------------------------

    def build(self) -> "System":
        components: List[Automaton] = []
        plan = self.fault_plan
        if self.algorithm is not None:
            components.extend(self.algorithm.automata())
        if plan is not None and not plan.channels_inert:
            from repro.faults.channels import make_faulty_channels

            channels = make_faulty_channels(self.locations, plan)
        else:
            channels = make_channels(self.locations)
        components.extend(channels)
        crash = CrashAutomaton(self.locations)
        components.append(crash)
        if self.failure_detector is not None:
            components.append(self.failure_detector)
        if self.environment is not None:
            components.append(self.environment)
        return System(
            composition=Composition(components, name="system"),
            locations=self.locations,
            algorithm=self.algorithm,
            channels=channels,
            crash=crash,
            failure_detector=self.failure_detector,
            environment=self.environment,
            fault_plan=plan,
        )


class System:
    """An assembled system: the composition plus handles on its parts."""

    def __init__(
        self,
        composition: Composition,
        locations: Tuple[int, ...],
        algorithm: Optional[DistributedAlgorithm],
        channels: List[ChannelAutomaton],
        crash: CrashAutomaton,
        failure_detector: Optional[Automaton],
        environment: Optional[Automaton],
        fault_plan=None,
    ):
        self.composition = composition
        self.locations = locations
        self.algorithm = algorithm
        self.channels = channels
        self.crash = crash
        self.failure_detector = failure_detector
        self.environment = environment
        self.fault_plan = fault_plan
        #: The crash-rule controller of the most recent run (None when
        #: the attached plan has no crash rules); exposes ``.fired``.
        self.crash_controller = None

    # -- Running ---------------------------------------------------------------

    def run(
        self,
        max_steps: int,
        fault_pattern: Optional[FaultPattern] = None,
        policy: Optional[SchedulerPolicy] = None,
        stop_when: Optional[Callable[[State], bool]] = None,
        instrument: Optional[StepProfiler] = None,
        compiled: Optional[bool] = None,
    ) -> Execution:
        """Run the system under a fault pattern and scheduling policy.

        ``instrument`` is a :class:`~repro.obs.prof.StepProfiler` that
        books this run's step phases (``None``: unprofiled); the
        returned :class:`~repro.ioa.executions.Execution` is the whole
        record of the run, the source of its trace.  Crash rules
        of the attached fault plan wrap ``policy``
        (:meth:`~repro.faults.adversary.CrashRuleController.wrap`).
        ``compiled`` routes the run through the compiled core
        (:mod:`repro.compiled`); ``None`` defers to the process default.
        """
        injections = (
            fault_pattern.injections() if fault_pattern is not None else ()
        )
        self.crash_controller = None
        if self.fault_plan is not None and self.fault_plan.crash_rules:
            from repro.faults.adversary import CrashRuleController

            controller = CrashRuleController(
                self.fault_plan.crash_rules,
                fd_output_name=getattr(
                    self.failure_detector, "output_name", None
                ),
            )
            self.crash_controller = controller
            policy = controller.wrap(policy)
        scheduler = Scheduler(policy, instrument=instrument, compiled=compiled)
        return scheduler.run(
            self.composition,
            max_steps=max_steps,
            injections=injections,
            stop_when=stop_when,
        )

    # -- State accessors ---------------------------------------------------------

    def process_state(self, state: State, location: int) -> State:
        """The (failed, core) state of the process at ``location``."""
        if self.algorithm is None:
            raise ValueError("system has no algorithm")
        return self.composition.component_state(state, self.algorithm[location])

    def channel_state(self, state: State, source: int, destination: int):
        for channel in self.channels:
            if channel.source == source and channel.destination == destination:
                return self.composition.component_state(state, channel)
        raise KeyError(f"no channel {source}->{destination}")

    def channels_empty(self, state: State) -> bool:
        """Whether no messages are in transit (quiescence, Lemma 23).

        Judged through :meth:`ChannelAutomaton.transit_view` — a faulty
        channel's raw state is a non-empty structure even when no
        message is queued, so raw truthiness would be wrong there.
        """
        return all(
            not channel.transit_view(
                self.composition.component_state(state, channel)
            )
            for channel in self.channels
        )

    def crashed(self, state: State) -> frozenset:
        """Locations crashed so far in ``state``."""
        return self.composition.component_state(state, self.crash)

    # -- Trace accessors -----------------------------------------------------------

    def trace(self, execution: Execution) -> Trace:
        return execution.trace(self.composition)


def assemble_system(
    locations: Sequence[int],
    algorithm: Optional[DistributedAlgorithm] = None,
    failure_detector: Optional[Automaton] = None,
    environment: Optional[Automaton] = None,
) -> System:
    """One-call assembly of the standard Figure 1 system."""
    builder = SystemBuilder(locations)
    if algorithm is not None:
        builder.with_algorithm(algorithm)
    if failure_detector is not None:
        builder.with_failure_detector(failure_detector)
    if environment is not None:
        builder.with_environment(environment)
    return builder.build()
