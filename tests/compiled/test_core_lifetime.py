"""One compiled core per live automaton, and none for a dead one.

``compile_automaton`` caches the core on the automaton it lowers, so
every caller of the same automaton shares its tables, and the core dies
with the automaton.
"""

from __future__ import annotations

import gc
import weakref

from repro.compiled.tables import compile_automaton
from tests.tree.conftest import build_tree_system


def test_one_core_per_automaton():
    _algorithm, composition = build_tree_system()
    core = compile_automaton(composition)
    assert compile_automaton(composition) is core
    assert compile_automaton(core) is core
    _algorithm, other = build_tree_system()
    assert compile_automaton(other) is not core


def test_dropped_composition_is_collected():
    _algorithm, composition = build_tree_system()
    core = compile_automaton(composition)
    core.intern_config(composition.initial_state())
    automaton_ref, core_ref = weakref.ref(composition), weakref.ref(core)
    del _algorithm, composition, core
    gc.collect()
    assert automaton_ref() is None
    assert core_ref() is None
