"""Spec-level compilation: ``compile_spec`` and :class:`CompiledSystem`.

:func:`repro.api.compile` bottoms out here.  Compiling an
:class:`~repro.runner.spec.ExperimentSpec` builds the spec's system
*once* — automata instantiated, composition assembled, dispatch/enabled
tables lowered — and returns a handle whose :meth:`CompiledSystem.run`
executes seeded runs against the shared tables.  Each run still streams
through its own policy RNG, injections and checkers, so results are
byte-identical to ``spec.run()`` on the interpreted path; only the
table-construction cost is amortized.

Reuse is keyed by the *spec fingerprint*: the canonical JSON of
:meth:`~repro.runner.spec.ExperimentSpec.system_key`, the spec's derived
identity without its run-only fields.  Seed, policy, step budget, crash
pattern, ``f``, ``min_live_outputs`` and the label vary between runs of
one built system, and instrumentation and the engine flag are in no key,
so a seed sweep or a crash sweep over one system family hits the same
compiled tables.  The key encodes the *bound* fault plan: an unbound plan
resolves through ``derive_seed(spec.seed, "fault-plan")``, so chaos
sweeps key per seed, as they must — different bound plans build
different channel automata.

A profiler rides each run (``System.run(instrument=...)``), never the
built automata, whose ``apply`` is pure, and a trace is read from the
run's execution afterwards; so an instrumented compiled run records the
trace of the interpreted one.

The fingerprint cache is a small LRU (:data:`SPEC_CACHE_CAP` entries);
per-system transition tables are additionally capped at
:data:`TABLE_CAP` entries and rebuilt from scratch between runs when
exceeded (a bound on memory, not on correctness — the tables are a pure
cache of the transition relation).
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.compiled.tables import CompiledAutomaton, compile_automaton
from repro.obs.prof import cache_counter
from repro.runner.spec import canonical_json

#: Schema tag of :class:`CompiledSystemMeta` (and the fingerprint payload).
SCHEMA = "repro.compiled/1"

#: Max entries per compiled transition/config table before the tables are
#: cleared between runs (memory bound; tables are pure caches).
TABLE_CAP = 1 << 17

#: Max distinct spec fingerprints kept compiled at once (LRU).
SPEC_CACHE_CAP = 8

_SPEC_CACHE: "OrderedDict[str, CompiledSystem]" = OrderedDict()
_C_SPEC = cache_counter("compiled.spec")


def spec_fingerprint(spec) -> str:
    """The canonical JSON identity of the system a spec builds.

    Two specs with equal fingerprints build behaviorally identical
    systems and may share one :class:`CompiledSystem` (and its interned
    tables); see the module docstring for what is included and why
    seeds/crashes are not.
    """
    return canonical_json({"schema": SCHEMA, **spec.system_key()})


@dataclass(frozen=True)
class CompiledSystemMeta:
    """Picklable identity card of one compiled system.

    ``tables`` is the size snapshot taken at compile time (after the
    initial configuration is interned); live sizes grow with use and are
    available from :meth:`CompiledSystem.table_sizes`.
    """

    fingerprint: str
    problem: str
    detector: str
    locations: Tuple[int, ...]
    n_components: int
    version: str
    tables: Dict[str, int]
    schema: str = SCHEMA

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "fingerprint": self.fingerprint,
            "problem": self.problem,
            "detector": self.detector,
            "locations": list(self.locations),
            "n_components": self.n_components,
            "version": self.version,
            "tables": dict(self.tables),
        }


class CompiledSystem:
    """One spec family, compiled: shared tables + a run entrypoint.

    Not picklable as a whole (it holds live automata and table state) —
    ship the *spec* to workers and let each process compile; the
    :attr:`meta` card is the picklable part.
    """

    def __init__(
        self,
        spec,
        core: CompiledAutomaton,
        meta: CompiledSystemMeta,
        system=None,
        afd=None,
        algorithm=None,
        automaton=None,
    ):
        self.spec = spec
        self.core = core
        self.meta = meta
        #: The prebuilt :class:`~repro.system.network.System` ("consensus").
        self.system = system
        self.afd = afd
        self.algorithm = algorithm
        #: The detector's generator automaton ("detector-trace").
        self.automaton = automaton

    def run(self, **overrides):
        """Execute one seeded run against the compiled tables.

        ``overrides`` replace spec fields for this run (``seed=``,
        ``max_steps=``, ``crashes=``, ``instrument=``, ...); the run is
        routed back through :func:`repro.runner.spec.run_spec` with
        ``compiled=True``, so the result is exactly what
        ``replace(spec, ...).run()`` would produce — same trace, same
        verdicts — minus the table-construction cost.
        """
        from repro.runner.spec import run_spec

        spec = dataclasses.replace(self.spec, compiled=True, **overrides)
        return run_spec(spec)

    def table_sizes(self) -> Dict[str, int]:
        """Live table sizes (grow as runs sight new configurations)."""
        return self.core.table_sizes()

    def maybe_reset(self) -> bool:
        """Clear the tables if any grew past :data:`TABLE_CAP`.

        Called between runs (never during one — outstanding ids must
        stay dereferenceable for a run's whole lifetime).
        """
        sizes = self.core.table_sizes()
        if any(
            sizes.get(k, 0) > TABLE_CAP for k in ("configs", "transitions")
        ):
            self.core.reset_tables()
            return True
        return False

    def __repr__(self) -> str:
        sizes = self.table_sizes()
        return (
            f"<CompiledSystem {self.meta.problem}:{self.meta.detector} "
            f"n={len(self.meta.locations)} configs={sizes.get('configs', 0)} "
            f"transitions={sizes.get('transitions', 0)}>"
        )


def _detector_label(spec) -> str:
    det = (
        spec.detector
        if isinstance(spec.detector, str)
        else getattr(spec.detector, "name", type(spec.detector).__name__)
    )
    return str(det)


def _build(spec, fingerprint: str) -> CompiledSystem:
    from repro import __version__

    afd = spec.resolve_afd()
    if spec.problem == "consensus":
        from repro.system.environment import ScriptedConsensusEnvironment
        from repro.system.network import SystemBuilder

        algorithm = spec.resolve_algorithm()
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
        core = compile_automaton(system.composition)
        core.intern_config(system.composition.initial_state())
        meta = CompiledSystemMeta(
            fingerprint=fingerprint,
            problem=spec.problem,
            detector=_detector_label(spec),
            locations=tuple(spec.locations),
            n_components=len(system.composition.components),
            version=__version__,
            tables=dict(core.table_sizes()),
        )
        return CompiledSystem(
            spec=spec,
            core=core,
            meta=meta,
            system=system,
            afd=afd,
            algorithm=algorithm,
        )
    automaton = afd.automaton()
    core = compile_automaton(automaton)
    core.intern_config(automaton.initial_state())
    meta = CompiledSystemMeta(
        fingerprint=fingerprint,
        problem=spec.problem,
        detector=_detector_label(spec),
        locations=tuple(spec.locations),
        n_components=1,
        version=__version__,
        tables=dict(core.table_sizes()),
    )
    return CompiledSystem(
        spec=spec, core=core, meta=meta, afd=afd, automaton=automaton
    )


def compile_spec(spec) -> CompiledSystem:
    """Compile a spec's system, reusing tables across equal fingerprints.

    The front door of the compiled core (``repro.api.compile``).  Probes
    tally under ``compiled.spec`` in the cache telemetry: a hit means a
    prior compilation (this process) is being reused wholesale.
    """
    fingerprint = spec_fingerprint(spec)
    cached = _SPEC_CACHE.get(fingerprint)
    if cached is not None:
        _C_SPEC.hits += 1
        _SPEC_CACHE.move_to_end(fingerprint)
        cached.maybe_reset()
        return cached
    _C_SPEC.misses += 1
    built = _build(spec, fingerprint)
    _SPEC_CACHE[fingerprint] = built
    while len(_SPEC_CACHE) > SPEC_CACHE_CAP:
        _SPEC_CACHE.popitem(last=False)
        _C_SPEC.evictions += 1
    return built


def clear_spec_cache() -> int:
    """Drop every cached compiled system; returns the number dropped."""
    dropped = len(_SPEC_CACHE)
    _C_SPEC.evictions += dropped
    _SPEC_CACHE.clear()
    return dropped
