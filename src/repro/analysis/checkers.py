"""High-level experiment runners.

:func:`run_consensus_experiment` wires a consensus algorithm, a failure
detector, an environment and a fault pattern into a system, runs it to
decision, and checks the run against both specifications — the detector's
T_D (the premise of "solving P using D") and the consensus T_P (the
conclusion).  Experiments E9/E10 and the consensus tests are thin wrappers
over it.

Since 1.5.0 this function is itself a thin delegate: it packs its
arguments into an :class:`~repro.runner.spec.ExperimentSpec` and returns
the :class:`ConsensusRunResult` that
:func:`repro.runner.spec.run_spec` keeps on ``result.run`` — one
execution path for demos, tests and the batch engine, documented in
docs/API.md ("one consensus entrypoint").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.ioa.actions import Action
from repro.ioa.executions import Execution
from repro.ioa.scheduler import SchedulerPolicy
from repro.core.afd import AFD, CheckResult
from repro.system.fault_pattern import FaultPattern
from repro.system.process import DistributedAlgorithm


@dataclass
class ConsensusRunResult:
    """Everything an experiment wants to know about one consensus run."""

    execution: Execution
    decisions: Dict[int, Optional[int]]
    fd_events: List[Action]
    problem_events: List[Action]
    fd_check: CheckResult
    consensus_check: CheckResult
    steps: int
    messages_sent: int
    #: Crashes fired by the fault plan's event-triggered rules, as
    #: (step, location, rule) triples; empty without a plan.
    injected_crashes: tuple = ()

    @property
    def solved(self) -> bool:
        """The defining implication: FD conformance => consensus holds."""
        return (not self.fd_check.ok) or self.consensus_check.ok

    @property
    def all_live_decided(self) -> bool:
        return all(v is not None for v in self.decisions.values())


def run_consensus_experiment(
    algorithm: DistributedAlgorithm,
    afd: AFD,
    proposals: Dict[int, int],
    fault_pattern: FaultPattern,
    f: int,
    max_steps: int = 5000,
    policy: Optional[SchedulerPolicy] = None,
    decision_fn: Optional[Callable] = None,
    min_live_outputs: int = 1,
    fault_plan=None,
    compiled: Optional[bool] = None,
) -> ConsensusRunResult:
    """Assemble, run, and check one consensus experiment.

    A thin delegate over the :mod:`repro.runner` engine: the arguments
    become an :class:`~repro.runner.spec.ExperimentSpec` and the run
    executes through :func:`repro.runner.spec.run_spec` — the single
    consensus execution path shared by the demos, the tests and the
    batch engine.  Equivalence is exact, not approximate: the spec path
    runs the same builder chain, settlement predicate and checkers (see
    docs/API.md, "one consensus entrypoint").

    ``afd`` may be an :class:`~repro.core.afd.AFD` instance or a string
    detector name resolved through
    :func:`repro.detectors.registry.resolve_detector` (e.g. ``"omega"``,
    ``"evs"``).

    ``decision_fn`` extracts a decision from a process state; defaults to
    the ``decision`` staticmethod of the algorithm's process class.

    The returned ``result.execution`` is the whole record of the run;
    for its canonical trace or a profile, run the spec itself with
    ``ExperimentSpec(instrument=True)`` or ``profile=True``.

    ``fault_plan`` injects the channel faults and adversarial crash
    rules of a :class:`~repro.faults.plan.FaultPlan`
    (``SystemBuilder.with_fault_plan``); an unbound plan is bound to
    seed 0 here — callers wanting run-seed-derived faults should bind
    the plan themselves (:class:`~repro.runner.spec.ExperimentSpec`
    does).  Crashes fired by the plan's rules are returned on
    ``result.injected_crashes``.

    ``compiled`` selects the execution engine exactly as
    ``ExperimentSpec(compiled=...)`` does (``None``: process default).
    """
    from repro.runner.spec import ExperimentSpec, run_spec

    if fault_plan is not None and not fault_plan.is_bound:
        fault_plan = fault_plan.bound(0)
    spec = ExperimentSpec(
        detector=afd,
        algorithm=algorithm,
        locations=tuple(algorithm.locations),
        proposals=dict(proposals),
        crashes=fault_pattern,
        f=f,
        max_steps=max_steps,
        min_live_outputs=min_live_outputs,
        fault_plan=fault_plan,
        compiled=compiled,
    )
    result = run_spec(spec, policy=policy, decision_fn=decision_fn, keep=True)
    return result.run
