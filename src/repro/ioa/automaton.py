"""The I/O automaton base class (Section 2.1).

An automaton is a state machine with a signature, a set of (initial) states,
a transition relation, and a partition of its locally controlled actions into
*tasks*.  Tasks drive the fairness definition (Section 2.4): a fair execution
gives every task infinitely many chances to perform a step.

States are required to be immutable, hashable values: transitions are pure
functions ``apply(state, action) -> state``.  This makes executions
replayable, makes composition states simple tuples, and makes the tagged
tree of Section 8 (which memoizes configurations) possible.

Design notes
------------
* Input actions must be enabled in every state: ``apply`` must accept any
  input action in any state (possibly as a no-op).
* The paper allows locally controlled actions that belong to no task (the
  crash automaton of Section 4.4 is the canonical example: *every* sequence
  over the crash actions is one of its fair traces, so no fairness
  obligation may attach to them).  ``task_of`` returns ``None`` for such
  "free" actions, and the fairness machinery ignores them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.ioa.actions import Action
from repro.ioa.signature import Signature

State = Hashable


class Automaton(ABC):
    """Abstract base class for I/O automata.

    Subclasses implement :attr:`signature`, :meth:`initial_state`,
    :meth:`apply` and :meth:`enabled_locally`, and may declare tasks via
    :meth:`tasks` / :meth:`task_of`.
    """

    def __init__(self, name: str):
        self.name = name

    # ------------------------------------------------------------------
    # Signature and states
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def signature(self) -> Signature:
        """The automaton's signature."""

    @abstractmethod
    def initial_state(self) -> State:
        """The (unique, for our purposes) initial state."""

    # ------------------------------------------------------------------
    # Transition relation
    # ------------------------------------------------------------------

    @abstractmethod
    def apply(self, state: State, action: Action) -> State:
        """Apply ``action`` in ``state`` and return the resulting state.

        For input actions this must succeed in every state (input actions
        are enabled everywhere, Section 2.1).  For locally controlled
        actions the caller must first check :meth:`enabled`.
        """

    @abstractmethod
    def enabled_locally(self, state: State) -> Iterable[Action]:
        """All locally controlled actions enabled in ``state``."""

    def enabled(self, state: State, action: Action) -> bool:
        """Whether ``action`` is enabled in ``state``.

        Input actions are enabled in every state.  Locally controlled
        actions are enabled iff they appear in :meth:`enabled_locally`.
        Subclasses may override with a faster check.
        """
        if self.signature.is_input(action):
            return True
        return action in set(self.enabled_locally(state))

    # ------------------------------------------------------------------
    # Tasks (fairness classes)
    # ------------------------------------------------------------------

    def tasks(self) -> Sequence[str]:
        """The names of this automaton's tasks.

        The default is a single task containing every locally controlled
        action, matching the definition of a deterministic automaton
        (Section 2.5).  Automata whose actions carry no fairness
        obligation (the crash automaton) return an empty sequence.
        """
        return ("main",)

    def task_of(self, action: Action) -> Optional[str]:
        """The task the (locally controlled) ``action`` belongs to.

        Returns ``None`` for input actions and for locally controlled
        actions with no fairness obligation.  The default implementation
        can only express the two extreme partitions: an automaton with no
        tasks (every locally controlled action is obligation-free, the
        crash automaton) maps everything to ``None``, and an automaton
        with exactly one task maps every locally controlled action into
        it.  An automaton that declares several tasks, or whose task
        covers only part of its locally controlled actions, carries
        information the base class does not have and must override this
        method; the default raises ``NotImplementedError`` rather than
        silently assigning every action to the first task.
        """
        tasks = self.tasks()
        if not tasks:
            return None
        if not self.signature.is_locally_controlled(action):
            return None
        if len(tasks) > 1:
            raise NotImplementedError(
                f"{type(self).__name__} declares {len(tasks)} tasks but "
                "does not override task_of(); the default can only assign "
                "actions for single-task automata"
            )
        return tasks[0]

    def enabled_in_task(self, state: State, task: str) -> Tuple[Action, ...]:
        """The enabled locally controlled actions of ``task`` in ``state``."""
        return tuple(
            a for a in self.enabled_locally(state) if self.task_of(a) == task
        )

    def enabled_by_task(self, state: State) -> Dict[str, Tuple[Action, ...]]:
        """All enabled locally controlled actions, grouped by task.

        One shared snapshot for a whole scheduler step: a single pass over
        :meth:`enabled_locally` replaces one :meth:`enabled_in_task`
        enumeration *per task*.  Tasks with nothing enabled are absent
        from the result; actions whose :meth:`task_of` is ``None``
        (obligation-free actions) are excluded, exactly as they are from
        every ``enabled_in_task`` result.  Within each task, actions keep
        their :meth:`enabled_locally` iteration order, so
        ``snapshot.get(task, ())`` equals ``enabled_in_task(state, task)``
        for every declared task.

        Because enabledness is a pure function of the state (states are
        immutable and ``apply`` is pure), results may be cached keyed on
        the state; :class:`~repro.ioa.composition.Composition` overrides
        this with a memoized per-component version.  The result is
        shared and must be treated as read-only:
        :meth:`~repro.ioa.scheduler.Scheduler.run` hands a policy the
        same dict again whenever it is asked about the same state object.
        """
        grouped: Dict[str, List[Action]] = {}
        for action in self.enabled_locally(state):
            task = self.task_of(action)
            if task is None:
                continue
            bucket = grouped.get(task)
            if bucket is None:
                grouped[task] = [action]
            else:
                bucket.append(action)
        return {task: tuple(actions) for task, actions in grouped.items()}

    def task_enabled(self, state: State, task: str) -> bool:
        """Whether ``task`` has some enabled action in ``state``."""
        return bool(self.enabled_in_task(state, task))

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def participates(self, action: Action) -> bool:
        """Whether ``action`` is in this automaton's signature."""
        return action in self.signature

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class FunctionalAutomaton(Automaton):
    """An automaton assembled from plain functions.

    Useful in tests and examples where defining a subclass is overkill.

    Parameters
    ----------
    name:
        The automaton's name.
    signature:
        Its signature.
    initial:
        Its initial state (an immutable value).
    transition:
        ``transition(state, action) -> state``.
    enabled_fn:
        ``enabled_fn(state) -> iterable of enabled locally controlled
        actions``.
    task_names:
        Task names; default a single ``"main"`` task.
    task_assignment:
        ``task_assignment(action) -> task name`` for locally controlled
        actions; default: everything in the first task.
    """

    def __init__(
        self,
        name: str,
        signature: Signature,
        initial: State,
        transition: Callable[[State, Action], State],
        enabled_fn: Callable[[State], Iterable[Action]],
        task_names: Sequence[str] = ("main",),
        task_assignment: Optional[Callable[[Action], Optional[str]]] = None,
    ):
        super().__init__(name)
        self._signature = signature
        self._initial = initial
        self._transition = transition
        self._enabled_fn = enabled_fn
        self._task_names = tuple(task_names)
        self._task_assignment = task_assignment

    @property
    def signature(self) -> Signature:
        return self._signature

    def initial_state(self) -> State:
        return self._initial

    def apply(self, state: State, action: Action) -> State:
        return self._transition(state, action)

    def enabled_locally(self, state: State) -> Iterable[Action]:
        return self._enabled_fn(state)

    def tasks(self) -> Sequence[str]:
        return self._task_names

    def task_of(self, action: Action) -> Optional[str]:
        if self._task_assignment is not None:
            return self._task_assignment(action)
        return super().task_of(action)
