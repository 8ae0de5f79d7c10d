"""Task-based fairness (Section 2.4).

An execution fragment ``alpha`` is fair iff for every task C:

1. if ``alpha`` is finite, no action of C is enabled in its final state;
2. if ``alpha`` is infinite, it contains infinitely many events from C or
   infinitely many states where C is not enabled.

Simulated executions are finite, so two checks are provided:

* :func:`is_fair_finite_execution` — condition (1), exact: the run stopped
  only because nothing (with a fairness obligation) was left to do;
* :func:`fairness_debt` — for truncated runs of non-quiescent systems, the
  set of tasks that are enabled at the end (the "debt" an infinite fair
  extension would have to pay).  Schedulers in :mod:`repro.ioa.scheduler`
  guarantee every task is offered a turn infinitely often, so truncations
  of their runs are prefixes of fair executions by construction.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

from repro.ioa.automaton import Automaton, State
from repro.ioa.executions import Execution


def enabled_tasks(automaton: Automaton, state: State) -> List[str]:
    """The tasks of ``automaton`` with some enabled action in ``state``."""
    return [
        task for task in automaton.tasks() if automaton.task_enabled(state, task)
    ]


def fairness_debt(automaton: Automaton, execution: Execution) -> List[str]:
    """Tasks still enabled in the final state of a finite execution."""
    return enabled_tasks(automaton, execution.final_state)


def is_fair_finite_execution(
    automaton: Automaton, execution: Execution
) -> bool:
    """Whether a finite execution is fair: no task enabled at the end."""
    return not fairness_debt(automaton, execution)


def task_event_counts(
    automaton: Automaton, execution: Execution
) -> Dict[str, int]:
    """How many events of each task occur in the execution.

    Input events (and free actions with no task) are tallied under the
    pseudo-task ``"<input>"``.
    """
    counts: Counter = Counter()
    for action in execution.actions:
        task = automaton.task_of(action)
        counts[task if task is not None else "<input>"] += 1
    return dict(counts)
