"""The compiled simulation core: interned states, flat transition tables.

The interpreted engine (:mod:`repro.ioa`) executes one scheduler step as
a cascade of Python-object work: hash every component's state piece to
probe the enabled memo, assemble a task-name-keyed snapshot dict, have
the policy walk it, copy the state tuple and re-hash the action for the
dispatch memo.  PR 3's memos made each of those steps O(1) amortized,
but the constants — nested-tuple hashing, dict churn, string keys — are
what the ROADMAP's "compiled simulation core" item targets.

This package lowers an automaton, once, into *flat tables over dense
integer ids*:

* :class:`~repro.compiled.intern.Interner` — hash-consing of states,
  state pieces and actions into stable integer ids (the id order is the
  first-sighting order, so it is deterministic for a fixed run);
* :class:`~repro.compiled.tables.CompiledAutomaton` /
  :class:`~repro.compiled.tables.CompiledComposition` — the compiler:
  signature dispatch, task membership, per-state enabled groups and the
  transition relation become id-indexed lists and int-keyed memos,
  reusing the PR 3 seams (``Composition._dispatch``, per-component
  ``enabled_by_task``) as the authoritative fallback on first sighting;
* :mod:`repro.compiled.loop` — the policy twins: round-robin, random
  and adversarial policies replayed over the snapshot tables.  There
  is no second step loop: :meth:`~repro.ioa.scheduler.Scheduler.run`
  drives the compiled core like any automaton, and its steady state is
  "index a snapshot, hand out an action, follow one int-keyed memo
  edge", producing executions byte-identical to the interpreted path
  (the property suite in ``tests/compiled`` enforces this).

The interpreted path is untouched and remains the oracle: compiled
execution is opt-in per run (``ExperimentSpec(compiled=True)``,
``Scheduler(compiled=True)``) or process-wide
(:func:`set_compiled_default`).
:func:`repro.compiled.system.compile_spec` (exposed as
``repro.api.compile``) adds a fingerprint-keyed cache so the tables are
reused across runs of the same spec family.
"""

from repro.compiled.config import (
    compiled_default,
    set_compiled_default,
)
from repro.compiled.intern import Interner
from repro.compiled.tables import (
    CompiledAutomaton,
    CompiledComposition,
    compile_automaton,
)
from repro.compiled.system import (
    CompiledSystem,
    CompiledSystemMeta,
    compile_spec,
)

__all__ = [
    "CompiledAutomaton",
    "CompiledComposition",
    "CompiledSystem",
    "CompiledSystemMeta",
    "Interner",
    "compile_automaton",
    "compile_spec",
    "compiled_default",
    "set_compiled_default",
]
