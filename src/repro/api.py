"""The stable one-stop facade: everything a user needs to run experiments.

The library spans eight subpackages; running one experiment used to mean
importing from five of them.  ``repro.api`` (also re-exported lazily
from the top-level ``repro`` package) collects the supported surface:

>>> from repro.api import ExperimentSpec, BatchRunner, sweep
>>> from repro.algorithms import omega_consensus_algorithm
>>> base = ExperimentSpec(
...     algorithm=omega_consensus_algorithm,
...     detector="omega",
...     locations=(0, 1, 2),
...     crashes={0: 10},
...     f=1,
... )
>>> batch = BatchRunner(jobs=1).run(sweep(base, fault_patterns=[{}, {0: 5}]))
>>> all(r.solved for r in batch)
True

Anything importable from here is covered by the deprecation policy:
renames keep a warning shim for at least one release.
"""

from __future__ import annotations

# -- The experiment engine (repro.runner) -----------------------------------
from repro.runner import (
    BatchResult,
    BatchRunner,
    ExperimentResult,
    ExperimentSpec,
    default_jobs,
    derive_seed,
    derive_seeds,
    parallel_map,
    run_spec,
    sweep,
)
from repro.runner.spec import spec_digest

# -- One-run experiment helpers (repro.analysis) ----------------------------
from repro.analysis.checkers import ConsensusRunResult, run_consensus_experiment

# -- Result caching (repro.cache) --------------------------------------------
from repro.cache import (
    CACHE_SCHEMA,
    ENGINE_REVISION,
    ResultStore,
    cacheable,
)

# -- The compiled simulation core (repro.compiled) --------------------------
from repro.compiled import (
    CompiledAutomaton,
    CompiledComposition,
    CompiledSystem,
    CompiledSystemMeta,
    Interner,
    compile_automaton,
    compile_spec,
    compiled_default,
    set_compiled_default,
)

# -- The system model (repro.system / repro.ioa) ----------------------------
from repro.ioa.scheduler import (
    AdversarialPolicy,
    Injection,
    RandomPolicy,
    RoundRobinPolicy,
    Scheduler,
    SchedulerPolicy,
)
from repro.system.fault_pattern import FaultPattern
from repro.system.network import System, SystemBuilder, assemble_system

# -- The detector zoo (repro.detectors) -------------------------------------
from repro.core.afd import AFD, check_afd_closure_properties
from repro.detectors.anti_omega import AntiOmega
from repro.detectors.eventually_perfect import EventuallyPerfect
from repro.detectors.omega import Omega
from repro.detectors.omega_k import OmegaK
from repro.detectors.perfect import Perfect
from repro.detectors.psi_k import PsiK
from repro.detectors.quorum import Sigma
from repro.detectors.registry import (
    ZOO,
    detector_names,
    instantiate_for_lint,
    iter_registered_automata,
    make_detector,
    resolve_detector,
)
from repro.detectors.strong import EventuallyStrong, Strong
from repro.detectors.weak import (
    EventuallyQuasi,
    EventuallyWeak,
    Quasi,
    Weak,
)

# -- Timed implementations (repro.timed) -------------------------------------
from repro.timed import (
    DelayModel,
    HeartbeatDetector,
    LeaderLeaseDetector,
    PingPongDetector,
    TimedDetectorAutomaton,
    TimedNetwork,
    TimedParams,
)
from repro.timed.registry import (
    build_automaton as build_timed_automaton,
    implementation_names as timed_implementation_names,
    target_afd as timed_target_afd,
)

# -- Consensus algorithm factories (repro.algorithms) -----------------------
from repro.algorithms.consensus_ct import ct_consensus_algorithm
from repro.algorithms.consensus_omega import omega_consensus_algorithm
from repro.algorithms.consensus_perfect import perfect_consensus_algorithm

# -- Fault injection and conformance oracles (repro.faults) -----------------
from repro.faults import (
    ChannelFaults,
    ChaosChannel,
    ConformanceReport,
    CrashRule,
    CrashRuleController,
    DelayingChannel,
    DuplicatingChannel,
    FaultPlan,
    LossyChannel,
    OracleVerdict,
    ReorderingChannel,
    TraceOracle,
    channel_integrity_oracles,
    consensus_oracles,
    make_faulty_channels,
    run_oracles,
)

# -- Observability (repro.obs) ----------------------------------------------
from repro.obs.compare import (
    SeriesDrift,
    compare_docs,
    compare_files,
    compare_series,
    first_divergence,
)
from repro.obs.prof import (
    CacheCounter,
    StepProfiler,
    cache_counter,
    cache_stats_delta,
    cache_stats_snapshot,
    reset_cache_stats,
    validate_profile,
)
from repro.obs.schema import make_bench_artifact, validate_bench_artifact
from repro.obs.trace import TraceRecorder

# -- Static analysis (repro.lint) -------------------------------------------
from repro.lint import (
    ContractReport,
    ContractSubject,
    Finding,
    LintResult,
    check_automaton_contract,
    check_picklable,
    default_contract_subjects,
    lint_paths,
    run_contract_checks,
)

def compile(target):  # noqa: A001 - deliberate facade name, like ``re.compile``
    """Compile ``target`` for the compiled engine (the v2 run surface).

    Two shapes are accepted:

    * an :class:`~repro.runner.spec.ExperimentSpec` — returns the
      (process-cached) :class:`~repro.compiled.system.CompiledSystem`;
      call ``.run(seed=..., crashes=...)`` for per-run overrides, every
      run reusing the interned state tables;
    * a bare :class:`~repro.ioa.automaton.Automaton` (or composition) —
      returns the memoised
      :class:`~repro.compiled.tables.CompiledAutomaton` core.

    Both produce traces byte-identical to the interpreted
    :class:`~repro.ioa.scheduler.Scheduler` path, which stays available
    (and is CI-compared against the compiled path) as the oracle.

    >>> from repro.api import ExperimentSpec, compile
    >>> from repro.algorithms import omega_consensus_algorithm
    >>> cs = compile(ExperimentSpec(
    ...     algorithm=omega_consensus_algorithm,
    ...     detector="omega",
    ...     locations=(0, 1, 2),
    ...     f=1,
    ... ))
    >>> cs.run(crashes={0: 10}).solved
    True
    """
    from repro.ioa.automaton import Automaton
    from repro.runner.spec import ExperimentSpec as _Spec

    if isinstance(target, _Spec):
        return compile_spec(target)
    if isinstance(target, Automaton):
        return compile_automaton(target)
    raise TypeError(
        "repro.api.compile expects an ExperimentSpec or an Automaton, "
        f"got {type(target).__name__}"
    )


__all__ = [
    # engine
    "BatchResult",
    "BatchRunner",
    "ExperimentResult",
    "ExperimentSpec",
    "default_jobs",
    "derive_seed",
    "derive_seeds",
    "parallel_map",
    "run_spec",
    "spec_digest",
    "sweep",
    # one-run helpers
    "ConsensusRunResult",
    "run_consensus_experiment",
    # result cache
    "CACHE_SCHEMA",
    "ENGINE_REVISION",
    "ResultStore",
    "cacheable",
    # compiled core
    "CompiledAutomaton",
    "CompiledComposition",
    "CompiledSystem",
    "CompiledSystemMeta",
    "Interner",
    "compile",
    "compile_automaton",
    "compile_spec",
    "compiled_default",
    "set_compiled_default",
    # system model
    "AdversarialPolicy",
    "FaultPattern",
    "Injection",
    "RandomPolicy",
    "RoundRobinPolicy",
    "Scheduler",
    "SchedulerPolicy",
    "System",
    "SystemBuilder",
    "assemble_system",
    # detectors
    "AFD",
    "AntiOmega",
    "EventuallyPerfect",
    "EventuallyQuasi",
    "EventuallyStrong",
    "EventuallyWeak",
    "Omega",
    "OmegaK",
    "Perfect",
    "PsiK",
    "Quasi",
    "Sigma",
    "Strong",
    "Weak",
    "ZOO",
    "check_afd_closure_properties",
    "detector_names",
    "instantiate_for_lint",
    "iter_registered_automata",
    "make_detector",
    "resolve_detector",
    # timed implementations
    "DelayModel",
    "HeartbeatDetector",
    "LeaderLeaseDetector",
    "PingPongDetector",
    "TimedDetectorAutomaton",
    "TimedNetwork",
    "TimedParams",
    "build_timed_automaton",
    "timed_implementation_names",
    "timed_target_afd",
    # algorithms
    "ct_consensus_algorithm",
    "omega_consensus_algorithm",
    "perfect_consensus_algorithm",
    # fault injection / oracles
    "ChannelFaults",
    "ChaosChannel",
    "ConformanceReport",
    "CrashRule",
    "CrashRuleController",
    "DelayingChannel",
    "DuplicatingChannel",
    "FaultPlan",
    "LossyChannel",
    "OracleVerdict",
    "ReorderingChannel",
    "TraceOracle",
    "channel_integrity_oracles",
    "consensus_oracles",
    "make_faulty_channels",
    "run_oracles",
    # observability
    "CacheCounter",
    "SeriesDrift",
    "StepProfiler",
    "TraceRecorder",
    "cache_counter",
    "cache_stats_delta",
    "cache_stats_snapshot",
    "compare_docs",
    "compare_files",
    "compare_series",
    "first_divergence",
    "make_bench_artifact",
    "reset_cache_stats",
    "validate_bench_artifact",
    "validate_profile",
    # static analysis
    "ContractReport",
    "ContractSubject",
    "Finding",
    "LintResult",
    "check_automaton_contract",
    "check_picklable",
    "default_contract_subjects",
    "lint_paths",
    "run_contract_checks",
]
