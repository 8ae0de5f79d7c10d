"""`ExperimentSpec`: one seeded experiment run, fully described by data.

A spec carries everything needed to reproduce one run — algorithm,
detector, problem, locations, proposals, fault pattern, seed, step
budget, instrumentation config — as plain (picklable) values, so the
same spec object can execute in this process or be shipped to a
``multiprocessing`` worker and produce an *identical* trace either way:
the canonical trace an instrumented spec returns is read from the run's
:class:`~repro.ioa.executions.Execution` after the run, and records what
happened and at which step, never a clock reading.  Determinism is the
contract: :func:`run_spec` reconstructs every stateful piece (policy RNG,
automata, recorders, crash-rule controllers) from the spec alone.

The executable problems:

``"consensus"``
    The full Figure-1 system — algorithm + detector + channels + crash
    automaton + scripted environment — run to settlement and checked
    against both T_D and the consensus specification.  This module *is*
    the canonical execution path:
    :func:`repro.analysis.checkers.run_consensus_experiment` (the
    spelling the demos and tests use) is a thin delegate over
    ``ExperimentSpec(...).run()``.
``"detector-trace"``
    Just the detector automaton under a crash plan — the generate-and-
    check workload of the zoo experiments (E1-E4).  ``fd_ok`` is the
    T_D membership verdict.
``"timed-detector"``
    A timed *implementation* (:mod:`repro.timed`) — heartbeat,
    ping/pong, or leader-lease — run on the discrete-virtual-time
    network under the spec's crash plan, fault plan, and ``timed=``
    timing parameters.  ``fd_ok`` is the conformance verdict of the
    implementation's **target** AFD's validity oracle over the emitted
    trace, and ``result.conformance`` carries the localized verdict
    (first violating index + reason) — the implementation→axioms loop.

Either problem can execute on the *compiled* engine (``compiled=True``
or :func:`~repro.compiled.config.set_compiled_default`): the spec's
system is lowered once into interned-id tables
(:func:`repro.compiled.system.compile_spec`, cached by
:meth:`ExperimentSpec.system_key`) and runs replay them —
traces, decisions and verdicts are byte-identical to the interpreted
path, which stays the oracle.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import hashlib
import json
import time
import types
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.runner.seeds import derive_seed

PROBLEMS = ("consensus", "detector-trace", "timed-detector")
POLICIES = ("round-robin", "random")

# -- Key roles ----------------------------------------------------------------
#
# Each ExperimentSpec field declares its role in the spec's keys once, as
# ``field(metadata={"key": ROLE})``.  A field without a role -- and every
# field of a nested dataclass -- is in both keys, so a new field joins the
# keys by default: forgetting to declare a role costs a cache miss, never
# a stale hit.

#: Asks for a trace or a profile (runs are byte-identical either way):
#: no key.
INSTRUMENTATION = "instrumentation"
#: Selects the execution engine (both engines agree byte for byte): no key.
ENGINE = "engine"
#: Varies between runs of one built system: the run identity only.
RUN = "run"

_OUT_OF_RUN_KEY: FrozenSet[str] = frozenset({INSTRUMENTATION, ENGINE})
_OUT_OF_SYSTEM_KEY: FrozenSet[str] = _OUT_OF_RUN_KEY | {RUN}


@functools.lru_cache(maxsize=None)
def _key_fields(
    cls: type, leave_out: FrozenSet[str]
) -> Optional[Tuple[str, ...]]:
    """The fields of dataclass ``cls`` whose role is not in ``leave_out``
    (``None`` for a class that is not a dataclass)."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(
        f.name
        for f in dataclasses.fields(cls)
        if f.metadata.get("key") not in leave_out
    )


def encode_key(value: Any, opaque: Optional[List[str]] = None) -> Any:
    """The JSON-ready key encoding of ``value``.

    The one encoder every spec key is derived through:

    * ``None``, strings, numbers and booleans pass through;
    * a list or tuple encodes as a list, a mapping with ``str`` keys;
    * a dataclass instance encodes as its :func:`dataclasses.fields`;
    * a class or module-level function encodes as ``module.qualname``.

    Anything else is *opaque* -- an AFD or algorithm instance, a lambda
    or closure, a ``functools.partial`` -- and encodes as
    ``module.type@id``.  The id is only meaningful inside this process,
    so the tag is also appended to ``opaque`` when a list is given
    (:func:`repro.cache.store.cacheable` refuses such specs).
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, (list, tuple)):
        return [encode_key(v, opaque) for v in value]
    if isinstance(value, collections.abc.Mapping):
        return {str(k): encode_key(v, opaque) for k, v in value.items()}
    names = _key_fields(type(value), frozenset())
    if names is not None:
        return {name: encode_key(getattr(value, name), opaque) for name in names}
    if isinstance(value, (type, types.FunctionType)):
        name = f"{value.__module__}.{value.__qualname__}"
        if "<" not in name:  # not a lambda, not defined inside a function
            return name
    kind = type(value)
    tag = f"{kind.__module__}.{kind.__qualname__}@{id(value):x}"
    if opaque is not None:
        opaque.append(tag)
    return tag


def canonical_json(obj: Any) -> str:
    """The canonical serialization digests are computed over.

    Sorted keys, no whitespace, no NaN — byte-identical for equal values
    regardless of construction order, which is what makes the SHA-256 a
    *content* address.
    """
    return json.dumps(
        obj,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def digest(obj: Any) -> str:
    """``sha256:<hex>`` of the canonical JSON of ``obj``."""
    text = canonical_json(obj)
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def spec_digest(spec: Any) -> str:
    """The content address of one spec: ``digest(spec.meta())``.

    ``meta()`` is the spec's run identity, derived field by field
    (:func:`encode_key`); the result store keys on this digest.
    """
    return digest(spec.meta())


@dataclass
class ExperimentSpec:
    """A complete, picklable description of one seeded run.

    Parameters
    ----------
    detector:
        An :class:`~repro.core.afd.AFD` instance, a factory callable
        ``(locations, **detector_kwargs) -> AFD``, or a string name
        resolved through :func:`repro.detectors.registry.resolve_detector`
        (``"omega"``, ``"omega-k"`` + ``detector_kwargs={"k": 2}``, ...).
    algorithm:
        A :class:`~repro.system.process.DistributedAlgorithm` or a factory
        callable ``(locations, **algorithm_kwargs)``.  Required for the
        ``"consensus"`` problem; unused by ``"detector-trace"``.  For the
        parallel path prefer module-level factories (picklable).
    locations:
        The location set.
    proposals:
        Consensus proposals per location; default alternating 0/1.
    crashes:
        The fault pattern: a ``{location: crash_step}`` mapping or a
        :class:`~repro.system.fault_pattern.FaultPattern`.
    f:
        The problem's resilience parameter.
    seed / policy:
        ``policy="round-robin"`` (default) is fully deterministic and
        ignores the seed; ``policy="random"`` uses a
        :class:`~repro.ioa.scheduler.RandomPolicy` seeded with ``seed``.
    max_steps:
        Step budget for the run.
    instrument:
        ``False`` (default): no trace.  ``True``: after the run a
        :class:`~repro.obs.trace.TraceRecorder` reads the execution
        (:meth:`~repro.obs.trace.TraceRecorder.record_run`), and its
        canonical trace lands in ``result.trace``.  The run itself is
        the plain one, lasso closure included.
    profile:
        ``True`` attaches a :class:`~repro.obs.prof.StepProfiler` to the
        run and stores its summary (schema ``repro.profile/1``: phase
        calls/wall time, cache hit rates) in ``result.profile``.  The
        execution itself is byte-identical either way — profiling books
        costs, it never changes schedules.  Independent of
        ``instrument`` (a profile without a trace is the cheap way to
        ask "where did the time go").
    fault_plan:
        An optional :class:`~repro.faults.plan.FaultPlan` of injected
        channel faults and adversarial crash rules (``"consensus"``
        problem only).  An *unbound* plan (``seed=None``) is bound to
        ``derive_seed(spec.seed, "fault-plan")`` at run time, so a seed
        sweep varies the fault schedule per run; ``None`` (default)
        keeps the model's reliable channels — provably zero overhead.
        Supported by the ``"consensus"`` and ``"timed-detector"``
        problems (the timed network consumes the plan's channel knobs
        and ``"at-step"`` crash rules directly).
    timed:
        Timing parameters for the ``"timed-detector"`` problem: a
        :class:`~repro.timed.params.TimedParams`, a mapping of overrides
        (``{"timeout": 4, "delay": {"jitter": 2}}``), or ``None`` for
        the defaults; stored resolved to a ``TimedParams``.  For this
        problem ``detector`` names the timed *implementation*
        (``"heartbeat"``, ``"ping-pong"``, ``"leader-lease"``; aliases
        accepted and canonicalized).
    compiled:
        ``True`` executes on the compiled engine (:mod:`repro.compiled`):
        the spec's system is built and lowered once per
        :meth:`system_key` and reused across runs.  ``False`` forces the
        interpreted engine; ``None`` (default) defers to the process
        default (:func:`repro.compiled.config.set_compiled_default`).
        Results are byte-identical either way.
    label:
        Free-form identity used in batch rows and artifacts.

    Each field's role in the spec's keys is declared in its
    ``metadata``: :data:`INSTRUMENTATION` and :data:`ENGINE` fields are
    in no key, :data:`RUN` fields only in the run identity
    (:meth:`meta`), and every other field also in the compiled system's
    key (:meth:`system_key`).
    """

    detector: Any
    locations: Tuple[int, ...]
    algorithm: Any = None
    proposals: Optional[Mapping[int, Any]] = None
    crashes: Any = field(default=None, metadata={"key": RUN})
    f: int = field(default=1, metadata={"key": RUN})
    problem: str = "consensus"
    algorithm_kwargs: Dict[str, Any] = field(default_factory=dict)
    detector_kwargs: Dict[str, Any] = field(default_factory=dict)
    seed: int = field(default=0, metadata={"key": RUN})
    policy: str = field(default="round-robin", metadata={"key": RUN})
    max_steps: int = field(default=5000, metadata={"key": RUN})
    min_live_outputs: int = field(default=1, metadata={"key": RUN})
    instrument: bool = field(default=False, metadata={"key": INSTRUMENTATION})
    profile: bool = field(default=False, metadata={"key": INSTRUMENTATION})
    fault_plan: Any = None
    timed: Any = None
    compiled: Optional[bool] = field(default=None, metadata={"key": ENGINE})
    # The cached ExperimentResult carries the label, so it is run identity.
    label: str = field(default="", metadata={"key": RUN})

    def __post_init__(self) -> None:
        self.locations = tuple(self.locations)
        if self.problem not in PROBLEMS:
            raise ValueError(
                f"unknown problem {self.problem!r}; supported: {PROBLEMS}"
            )
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; supported: {POLICIES}"
            )
        if self.problem == "consensus" and self.algorithm is None:
            raise ValueError('problem "consensus" requires an algorithm')
        if self.fault_plan is not None and self.problem not in (
            "consensus",
            "timed-detector",
        ):
            raise ValueError(
                'fault_plan is only supported for the "consensus" and '
                '"timed-detector" problems (detector-trace runs have no '
                "channels to fault)"
            )
        if self.timed is not None and self.problem != "timed-detector":
            raise ValueError(
                'timed= is only meaningful for problem "timed-detector"'
            )
        if self.problem == "timed-detector":
            if self.detector_kwargs:
                raise ValueError(
                    "timed-detector runs take their knobs via timed=, "
                    "not detector_kwargs"
                )
            from repro.timed.registry import resolve_implementation

            if not isinstance(self.detector, str):
                raise ValueError(
                    'problem "timed-detector" names its implementation '
                    "by string (see repro.timed.registry); got "
                    f"{type(self.detector).__name__}"
                )
            self.detector = resolve_implementation(self.detector)
            # Fails fast on bad timing params; normalised so a mapping
            # and the params object it resolves to share a key.
            self.timed = self.resolve_timed()
        if not self.label:
            det = (
                self.detector
                if isinstance(self.detector, str)
                else getattr(self.detector, "name", None)
                or getattr(self.detector, "__name__", type(self.detector).__name__)
            )
            self.label = f"{self.problem}:{det}:n{len(self.locations)}:s{self.seed}"

    # -- Resolution ---------------------------------------------------------

    def resolve_afd(self):
        """The instantiated AFD this spec names.

        For the ``"timed-detector"`` problem this is the *target* AFD of
        the named implementation — the specification its traces are
        judged against, not an automaton that generates them.
        """
        if self.problem == "timed-detector":
            from repro.timed.registry import target_afd

            return target_afd(self.detector, self.locations)
        from repro.detectors.registry import resolve_detector

        return resolve_detector(
            self.detector, self.locations, **self.detector_kwargs
        )

    def resolve_timed(self):
        """The effective :class:`~repro.timed.params.TimedParams`."""
        from repro.timed.params import TimedParams

        return TimedParams.coerce(self.timed)

    def resolve_algorithm(self):
        """The instantiated algorithm (factories are called here)."""
        from repro.system.process import DistributedAlgorithm

        if isinstance(self.algorithm, DistributedAlgorithm):
            return self.algorithm
        if callable(self.algorithm):
            return self.algorithm(self.locations, **self.algorithm_kwargs)
        raise TypeError(
            "algorithm must be a DistributedAlgorithm or a factory "
            f"callable; got {type(self.algorithm).__name__}"
        )

    def fault_pattern(self):
        """The spec's crash plan as a FaultPattern."""
        from repro.system.fault_pattern import FaultPattern

        if self.crashes is None:
            return FaultPattern({}, self.locations)
        if isinstance(self.crashes, FaultPattern):
            return self.crashes
        return FaultPattern(dict(self.crashes), self.locations)

    def resolve_fault_plan(self):
        """The effective (bound) fault plan, or ``None``.

        An unbound plan inherits the run's randomness: its seed becomes
        ``derive_seed(self.seed, "fault-plan")``, a distinct stream from
        the scheduler policy's, so faults and scheduling never share
        draws and each stays independently reproducible.
        """
        if self.fault_plan is None:
            return None
        if self.fault_plan.is_bound:
            return self.fault_plan
        return self.fault_plan.bound(derive_seed(self.seed, "fault-plan"))

    def build_policy(self):
        """A fresh policy instance (None means the scheduler default)."""
        if self.policy == "random":
            from repro.ioa.scheduler import RandomPolicy

            return RandomPolicy(seed=self.seed)
        return None

    def effective_proposals(self) -> Dict[int, Any]:
        if self.proposals is not None:
            return dict(self.proposals)
        return {i: k % 2 for k, i in enumerate(self.locations)}

    # -- Derivation ---------------------------------------------------------

    def derive(self, *components, **overrides) -> "ExperimentSpec":
        """A copy with a seed derived from this spec's seed + components.

        The derived copy gets ``seed=derive_seed(self.seed, *components)``
        and a label suffixed with the components; ``overrides`` replace
        any other fields.
        """
        seed = derive_seed(self.seed, *components)
        suffix = ".".join(str(c) for c in components)
        overrides.setdefault("seed", seed)
        overrides.setdefault(
            "label", f"{self.label}#{suffix}" if suffix else self.label
        )
        return dataclasses.replace(self, **overrides)

    # -- Identity -----------------------------------------------------------

    def _key(
        self, leave_out: FrozenSet[str], opaque: Optional[List[str]] = None
    ) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for name in _key_fields(type(self), leave_out) or ():
            if name == "fault_plan":
                # Key the bound plan: an unbound one runs per-seed faults.
                value = self.resolve_fault_plan()
            else:
                value = getattr(self, name)
            out[name] = encode_key(value, opaque)
        return out

    def meta(self) -> Dict[str, Any]:
        """The run identity: every field but instrumentation and engine.

        JSON-ready (:func:`encode_key`); :func:`spec_digest` hashes it
        into the result store's key.
        """
        return self._key(_OUT_OF_RUN_KEY)

    def system_key(self) -> Dict[str, Any]:
        """The identity of the built system: :meth:`meta` without the
        run-only fields (the compiled spec cache's key)."""
        return self._key(_OUT_OF_SYSTEM_KEY)

    def opaque_values(self) -> List[str]:
        """The process-local (``type@id``) values in :meth:`meta`."""
        found: List[str] = []
        self._key(_OUT_OF_RUN_KEY, found)
        return found

    def run(self) -> "ExperimentResult":
        """Execute this spec in-process (see :func:`run_spec`)."""
        return run_spec(self)


@dataclass
class ExperimentResult:
    """The picklable outcome of one executed spec.

    ``trace`` is the canonical JSONL trace when the spec asked for
    instrumentation — identical for identical specs no matter where the
    run executed.  ``profile`` is the
    ``repro.profile/1`` summary when the spec asked for profiling (its
    counter/cache halves are deterministic; wall times are not).
    ``error`` carries the repr of an in-run exception when the batch
    runner is asked not to raise.

    ``run`` holds the in-process
    :class:`~repro.analysis.checkers.ConsensusRunResult` (execution,
    projected events, checker objects) when the run was asked to keep it
    (``run_spec(..., keep=True)``); it is ``None`` — and the result
    stays picklable — otherwise.
    """

    label: str
    problem: str
    seed: int
    solved: Optional[bool] = None
    all_live_decided: Optional[bool] = None
    fd_ok: Optional[bool] = None
    consensus_ok: Optional[bool] = None
    decisions: Dict[int, Any] = field(default_factory=dict)
    steps: int = 0
    messages_sent: int = 0
    wall_s: float = 0.0
    trace: Optional[List[str]] = None
    profile: Optional[Dict[str, Any]] = None
    conformance: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    run: Optional[Any] = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.error is None

    def row(self) -> List[Any]:
        """The standard series row: label, seed, verdicts, cost."""
        return [
            self.label,
            self.seed,
            self.solved,
            self.steps,
            self.messages_sent,
        ]


def run_spec(
    spec: ExperimentSpec,
    *,
    policy=None,
    decision_fn=None,
    keep: bool = False,
) -> ExperimentResult:
    """Execute one spec and summarize it; deterministic given the spec.

    This is the function batch workers call; everything stateful (policy
    RNG, automata, recorders) is rebuilt here from the spec's data so a
    worker-process run is indistinguishable from an in-process one.

    The keyword-only extras exist for in-process callers (the
    :func:`~repro.analysis.checkers.run_consensus_experiment` delegate
    first among them) and are not part of the picklable contract:
    ``policy`` overrides the spec-built scheduler policy with a live
    instance, ``decision_fn`` overrides the algorithm's decision
    extractor, and ``keep=True`` retains the full in-process
    :class:`~repro.analysis.checkers.ConsensusRunResult` on
    ``result.run``.
    """
    start = time.perf_counter()
    recorder = None
    profiler = None
    if spec.instrument:
        from repro.obs.trace import TraceRecorder

        recorder = TraceRecorder(fd_output_name=spec.resolve_afd().output_name)
    if spec.profile:
        from repro.obs.prof import StepProfiler

        profiler = StepProfiler()

    if spec.problem == "detector-trace":
        result = _run_detector_trace(spec, recorder, profiler)
    elif spec.problem == "timed-detector":
        result = _run_timed(spec, recorder, profiler)
    else:
        result = _run_consensus(
            spec,
            recorder,
            profiler,
            policy=policy,
            decision_fn=decision_fn,
            keep=keep,
        )

    result.wall_s = time.perf_counter() - start
    if profiler is not None:
        result.profile = profiler.summary()
    if recorder is not None:
        result.trace = recorder.canonical_jsonl_lines()
    return result


def _run_consensus(
    spec,
    recorder,
    profiler,
    *,
    policy=None,
    decision_fn=None,
    keep: bool = False,
) -> ExperimentResult:
    """Assemble, run, and check one consensus experiment.

    The single consensus execution path — demos, tests, the batch
    engine and :func:`~repro.analysis.checkers.run_consensus_experiment`
    all bottom out here.  On the interpreted engine the system is built
    fresh; on the compiled engine the cached
    :class:`~repro.compiled.system.CompiledSystem` is reused.  Both
    engines then share everything else verbatim: the profiler rides the
    run (``System.run(instrument=...)``), and the settlement predicate,
    projections, T_D and consensus checks and the recorded trace (the
    run inside a ``consensus-run`` span, then the two verdicts as
    ``checker`` events) are the same.
    """
    from repro.analysis.checkers import ConsensusRunResult
    from repro.compiled.config import resolve_compiled
    from repro.problems.consensus import ConsensusProblem

    compiled = resolve_compiled(spec.compiled)
    if compiled:
        from repro.compiled.system import compile_spec

        compiled_system = compile_spec(spec)
        system = compiled_system.system
        algorithm = compiled_system.algorithm
        afd = compiled_system.afd
    else:
        from repro.system.environment import ScriptedConsensusEnvironment
        from repro.system.network import SystemBuilder

        algorithm = spec.resolve_algorithm()
        afd = spec.resolve_afd()
        builder = (
            SystemBuilder(spec.locations)
            .with_algorithm(algorithm)
            .with_failure_detector(afd.automaton())
            .with_environment(
                ScriptedConsensusEnvironment(spec.effective_proposals())
            )
        )
        plan = spec.resolve_fault_plan()
        if plan is not None:
            builder.with_fault_plan(plan)
        system = builder.build()
    locations = tuple(algorithm.locations)
    if decision_fn is None:
        decision_fn = type(algorithm[locations[0]]).decision
    if policy is None:
        policy = spec.build_policy()

    def everyone_settled(state) -> bool:
        """Every location has either decided or actually crashed.

        Judging liveness from the *run state* (not the fault plan)
        matters: a crash scheduled late in the plan may never fire, in
        which case its location is live in the trace and must decide
        before we stop.
        """
        crashed = system.crashed(state)
        return all(
            i in crashed
            or decision_fn(system.process_state(state, i)) is not None
            for i in locations
        )

    execution = system.run(
        max_steps=spec.max_steps,
        fault_pattern=spec.fault_pattern(),
        policy=policy,
        stop_when=everyone_settled,
        instrument=profiler,
        compiled=compiled,
    )
    events = list(execution.actions)
    problem = ConsensusProblem(locations, f=spec.f)
    fd_events = afd.project_events(events)
    problem_events = problem.project_events(events)
    live_in_trace = [
        i
        for i in locations
        if i not in system.crashed(execution.final_state)
    ]
    decisions = {
        i: decision_fn(system.process_state(execution.final_state, i))
        for i in live_in_trace
    }
    fd_check = afd.check_limit(fd_events, spec.min_live_outputs)
    consensus_check = problem.check_conditional(problem_events)
    if recorder is not None:
        # The run is marked as one span, so its decision events carry a
        # non-empty enclosing span.
        with recorder.span("consensus-run"):
            recorder.record_run(
                system.composition.name, spec.max_steps, execution
            )
        recorder.record("checker", name="fd_check", ok=bool(fd_check))
        recorder.record(
            "checker", name="consensus_check", ok=bool(consensus_check)
        )
    outcome = ConsensusRunResult(
        execution=execution,
        decisions=decisions,
        fd_events=fd_events,
        problem_events=problem_events,
        fd_check=fd_check,
        consensus_check=consensus_check,
        steps=len(execution),
        messages_sent=sum(1 for a in events if a.name == "send"),
        injected_crashes=(
            tuple(system.crash_controller.fired)
            if system.crash_controller is not None
            else ()
        ),
    )
    return ExperimentResult(
        label=spec.label,
        problem=spec.problem,
        seed=spec.seed,
        solved=outcome.solved,
        all_live_decided=outcome.all_live_decided,
        fd_ok=bool(outcome.fd_check),
        consensus_ok=bool(outcome.consensus_check),
        decisions=dict(outcome.decisions),
        steps=outcome.steps,
        messages_sent=outcome.messages_sent,
        run=outcome if keep else None,
    )


def _run_detector_trace(spec, recorder, profiler) -> ExperimentResult:
    from repro.compiled.config import resolve_compiled
    from repro.ioa.scheduler import Scheduler

    compiled = resolve_compiled(spec.compiled)
    if compiled:
        from repro.compiled.system import compile_spec

        compiled_system = compile_spec(spec)
        afd = compiled_system.afd
        automaton = compiled_system.automaton
    else:
        afd = spec.resolve_afd()
        automaton = afd.automaton()
    execution = Scheduler(
        spec.build_policy(), instrument=profiler, compiled=compiled
    ).run(
        automaton,
        max_steps=spec.max_steps,
        injections=spec.fault_pattern().injections(),
    )
    if recorder is not None:
        recorder.record_run(automaton.name, spec.max_steps, execution)
    events = list(execution.actions)
    fd_ok = bool(afd.check_limit(events, spec.min_live_outputs))
    return ExperimentResult(
        label=spec.label,
        problem=spec.problem,
        seed=spec.seed,
        fd_ok=fd_ok,
        solved=fd_ok,
        steps=len(events),
        messages_sent=sum(1 for a in events if a.name == "send"),
    )


def _run_timed(spec, recorder, profiler) -> ExperimentResult:
    """Run one timed implementation and judge its trace for conformance.

    The whole timed system (processes + virtual clock + network) is a
    single automaton, so the plain scheduler executes it — including on
    the compiled engine, where ``Scheduler(compiled=True)`` lowers any
    hashable-state automaton with the generic
    :func:`~repro.compiled.tables.compile_automaton`.  Crashes come from the spec's fault pattern plus any
    ``"at-step"`` crash rules of the fault plan (the event-triggered
    rules need the consensus runner's controller and are rejected
    here); channel drops/duplicates come from the plan via the timed
    network's decision streams.  The trace — crash events + fd outputs
    — is judged by :class:`~repro.faults.oracles.AfdValidityOracle`
    against the implementation's target AFD, and the localized verdict
    lands in ``result.conformance``.
    """
    from repro.compiled.config import resolve_compiled
    from repro.faults.oracles import AfdValidityOracle
    from repro.ioa.scheduler import Injection, Scheduler
    from repro.system.fault_pattern import crash_action
    from repro.timed.registry import build_automaton

    compiled = resolve_compiled(spec.compiled)
    plan = spec.resolve_fault_plan()
    automaton = build_automaton(
        spec.detector,
        spec.locations,
        params=spec.resolve_timed(),
        seed=derive_seed(spec.seed, "timed-net"),
        plan=plan,
    )
    injections = list(spec.fault_pattern().injections())
    if plan is not None:
        for rule in plan.crash_rules:
            if rule.trigger != "at-step":
                raise ValueError(
                    f"timed-detector runs support only at-step crash "
                    f"rules; got {rule.trigger!r} (event-triggered rules "
                    "need the consensus runner's crash controller)"
                )
            injections.append(Injection(rule.param, crash_action(rule.location)))
    execution = Scheduler(
        spec.build_policy(), instrument=profiler, compiled=compiled
    ).run(automaton, max_steps=spec.max_steps, injections=injections)
    if recorder is not None:
        recorder.record_run(automaton.name, spec.max_steps, execution)
    trace = list(execution.trace(automaton))
    verdict = AfdValidityOracle(
        automaton.afd(), spec.min_live_outputs
    ).check(trace)
    return ExperimentResult(
        label=spec.label,
        problem=spec.problem,
        seed=spec.seed,
        fd_ok=verdict.ok,
        solved=verdict.ok,
        steps=len(execution),
        messages_sent=automaton.messages_sent(execution.final_state),
        conformance=verdict.to_dict(),
    )
