"""Timed detector implementations as Section-2 I/O automata.

A :class:`TimedDetectorAutomaton` composes N per-location detector
processes, a virtual integer clock, and a :class:`~repro.timed.network.
TimedNetwork` into **one** I/O automaton in the existing Section-2
sense: immutable hashable states, pure ``apply``, input-enabled crash
actions, and a task partition the round-robin scheduler treats exactly
like the zoo detectors' —

* task ``"clock"`` holds the single always-enabled internal ``tick``
  action.  Each tick advances virtual time by one, delivers every
  message whose arrival tick has been reached, and runs every live
  process's step function (consume inbox, update suspicion, emit new
  sends into the network);
* task ``"out[i]"`` holds exactly one action per live location ``i``:
  the fd output computed from i's current process state (suspects,
  leader, ...).  Outputs never change state, mirroring
  :class:`~repro.detectors.base.CrashsetDetectorAutomaton`, so the
  scheduler's step loop reuses one enabled-by-task snapshot from a tick
  (or crash) to the next.

Under the default round-robin policy a "cycle" is therefore one tick
followed by one fd output per live location — every run interleaves
time, delivery, and outputs fairly, and the emitted trace (crash events
+ fd outputs) is directly judged by the PR 4 conformance oracles
against the implementation's *target AFD* (:meth:`afd`).

Because states are plain nested tuples, the automaton is also
compiled-path compatible: :class:`~repro.ioa.scheduler.Scheduler` with
``compiled=True`` lowers it with the generic
:func:`~repro.compiled.tables.compile_automaton` and replays it
bit-for-bit.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.afd import AFD
from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton, State
from repro.ioa.signature import (
    FiniteActionSet,
    PredicateActionSet,
    Signature,
)
from repro.system.fault_pattern import CRASH, crash_action
from repro.timed.network import TimedNetwork
from repro.timed.params import TimedParams

#: The internal clock action: one per automaton, always enabled (time
#: never stops, even when every process has crashed).
TICK = "timed-tick"

#: Wire messages.  Plain strings: channel identity (src, dst) is carried
#: by the transport, not the payload.
HEARTBEAT = "hb"
PING = "ping"
PONG = "pong"


class TimedDetectorAutomaton(Automaton):
    """Base class of the timed detector implementations.

    Subclasses define the per-process state machine via three hooks —
    :meth:`node_initial`, :meth:`node_step`, :meth:`node_output` — plus
    the class attribute :attr:`output_name` (the fd-output vocabulary,
    e.g. ``"fd-evp"``) and :meth:`afd` (the target AFD specification
    whose oracles judge the emitted traces).

    Parameters
    ----------
    locations:
        The location set Pi.
    params:
        :class:`~repro.timed.params.TimedParams` (or a mapping / None,
        coerced).
    seed:
        Root of the transport's delay-draw streams.
    plan:
        An optional bound :class:`~repro.faults.plan.FaultPlan` whose
        channel drop/duplicate knobs apply to every message.
    """

    #: The fd-output action name; subclasses set this.
    output_name: str = ""

    def __init__(
        self,
        locations: Sequence[int],
        params: Any = None,
        seed: int = 0,
        plan: Optional[Any] = None,
        name: str = "",
    ):
        super().__init__(name or type(self).__name__)
        if not self.output_name:
            raise TypeError(
                f"{type(self).__name__} must define output_name"
            )
        self.locations: Tuple[int, ...] = tuple(locations)
        if len(set(self.locations)) != len(self.locations):
            raise ValueError(
                f"duplicate locations: {list(self.locations)}"
            )
        if len(self.locations) < 2:
            raise ValueError(
                "a timed detector needs >= 2 locations (there is "
                "nothing to monitor otherwise)"
            )
        self.params: TimedParams = TimedParams.coerce(params)
        self.network = TimedNetwork(
            self.locations, self.params.delay, seed, plan
        )
        self._index: Dict[int, int] = {
            loc: k for k, loc in enumerate(self.locations)
        }
        self._others: Dict[int, Tuple[int, ...]] = {
            loc: tuple(j for j in self.locations if j != loc)
            for loc in self.locations
        }
        self._other_index: Dict[int, Dict[int, int]] = {
            loc: {j: k for k, j in enumerate(others)}
            for loc, others in self._others.items()
        }
        self._tick_action = Action(TICK, None, ())
        #: Location index -> its output task name, and back.
        self._out_tasks: Tuple[str, ...] = tuple(
            f"out[{i}]" for i in self.locations
        )
        self._out_index: Dict[str, int] = {
            task: k for k, task in enumerate(self._out_tasks)
        }
        self._tasks = ("clock",) + self._out_tasks
        output_name = self.output_name
        in_locations = frozenset(self.locations)
        self._signature = Signature(
            inputs=FiniteActionSet(
                tuple(crash_action(i) for i in self.locations)
            ),
            # Keys undeclared: a timed automaton runs flat, in no Composition.
            outputs=PredicateActionSet(
                lambda a: a.name == output_name and a.location in in_locations,
                f"{output_name}(*)_i",
            ),
            internals=FiniteActionSet((self._tick_action,)),
        )

    # -- Per-process hooks (subclass API) ------------------------------------

    @abstractmethod
    def node_initial(self, location: int) -> Hashable:
        """Location ``location``'s initial process state."""

    @abstractmethod
    def node_step(
        self,
        location: int,
        node: Hashable,
        now: int,
        inbox: Tuple[Tuple[int, Hashable], ...],
    ) -> Tuple[Hashable, Tuple[Tuple[int, Hashable], ...]]:
        """One tick of location ``location``'s process.

        ``inbox`` is the tick's deliveries as ``(source, message)``
        pairs in canonical channel order.  Returns ``(new process
        state, sends)`` with sends as ``(destination, message)`` pairs.
        Must be a pure function of its arguments.
        """

    @abstractmethod
    def node_output(
        self, location: int, node: Hashable
    ) -> Tuple[Hashable, ...]:
        """The payload of ``location``'s current fd output."""

    @abstractmethod
    def afd(self) -> AFD:
        """The target AFD specification this implementation aims for.

        The conformance question of the timed layer is exactly: are
        this automaton's traces members of ``T_D`` for this AFD, under
        the run's timing assumptions and fault plan?
        """

    # -- Convenience ---------------------------------------------------------

    def others(self, location: int) -> Tuple[int, ...]:
        """Every location except ``location`` (monitoring targets)."""
        return self._others[location]

    def other_index(self, location: int) -> Dict[int, int]:
        """Peer -> index into ``location``'s per-peer state tuples."""
        return self._other_index[location]

    def messages_sent(self, state: State) -> int:
        """Total transport sends in ``state`` (dropped ones included)."""
        return self.network.total_sends(state[3])

    def now(self, state: State) -> int:
        """The virtual time of ``state``, in ticks."""
        return state[0]

    def crashed_locations(self, state: State) -> Tuple[int, ...]:
        """The locations whose crash events have occurred, in order."""
        _now, flags, _nodes, _net = state
        return tuple(
            loc for k, loc in enumerate(self.locations) if flags[k]
        )

    def node_state(self, state: State, location: int) -> Hashable:
        """Location ``location``'s process state within ``state``."""
        return state[2][self._index[location]]

    # -- Automaton interface -------------------------------------------------

    @property
    def signature(self) -> Signature:
        return self._signature

    def initial_state(self) -> State:
        return (
            0,
            (False,) * len(self.locations),
            tuple(self.node_initial(loc) for loc in self.locations),
            self.network.initial(),
        )

    def apply(self, state: State, action: Action) -> State:
        if action.name == CRASH:
            k = self._index.get(action.location)
            if k is None:
                return state  # not our location: inputs are no-ops
            now, flags, nodes, net = state
            if flags[k]:
                return state  # crash events are idempotent
            return (now, flags[:k] + (True,) + flags[k + 1 :], nodes, net)
        if action.name == TICK:
            return self._advance(state)
        return state  # fd outputs never change state

    def _advance(self, state: State) -> State:
        """One tick: time, then delivery, then every live process."""
        now, flags, nodes, net = state
        now += 1
        net, deliveries = self.network.deliver(net, now)
        inboxes: Dict[int, List[Tuple[int, Hashable]]] = {}
        for dst, src, message in deliveries:
            inboxes.setdefault(dst, []).append((src, message))
        new_nodes: List[Hashable] = []
        outgoing: List[Tuple[int, int, Hashable]] = []
        for k, loc in enumerate(self.locations):
            if flags[k]:
                # A crashed process consumes nothing and sends nothing;
                # its queued deliveries evaporate.
                new_nodes.append(nodes[k])
                continue
            node, sends = self.node_step(
                loc, nodes[k], now, tuple(inboxes.get(loc, ()))
            )
            new_nodes.append(node)
            outgoing.extend((loc, dst, message) for dst, message in sends)
        for src, dst, message in outgoing:
            net = self.network.send(net, src, dst, message, now)
        return (now, flags, tuple(new_nodes), net)

    def _output_at(self, location: int, state: State) -> Action:
        return Action(
            self.output_name,
            location,
            self.node_output(location, self.node_state(state, location)),
        )

    def enabled_locally(self, state: State) -> Iterable[Action]:
        yield self._tick_action
        _now, flags, _nodes, _net = state
        for k, loc in enumerate(self.locations):
            if not flags[k]:
                yield self._output_at(loc, state)

    def enabled(self, state: State, action: Action) -> bool:
        if self._signature.is_input(action):
            return True
        if action.name == TICK:
            return action == self._tick_action
        if action.name != self.output_name:
            return False
        k = self._index.get(action.location)
        if k is None or state[1][k]:
            return False
        return action == self._output_at(action.location, state)

    # -- Tasks ----------------------------------------------------------------

    def tasks(self) -> Sequence[str]:
        return self._tasks

    def task_of(self, action: Action) -> Optional[str]:
        if action.name == TICK:
            return "clock"
        if (
            action.name == self.output_name
            and action.location in self._index
        ):
            return f"out[{action.location}]"
        return None

    def enabled_in_task(self, state: State, task: str) -> Tuple[Action, ...]:
        if task == "clock":
            return (self._tick_action,)
        k = self._out_index.get(task)
        if k is None or state[1][k]:
            return ()
        return (self._output_at(self.locations[k], state),)

    def enabled_by_task(self, state: State) -> Dict[str, Tuple[Action, ...]]:
        """The generic grouping's snapshot, built in one pass: ``clock``,
        then ``out[i]`` for each live location in location order."""
        _now, flags, nodes, _net = state
        output_name = self.output_name
        node_output = self.node_output
        snapshot = {"clock": (self._tick_action,)}
        for k, loc in enumerate(self.locations):
            if not flags[k]:
                snapshot[self._out_tasks[k]] = (
                    Action(output_name, loc, node_output(loc, nodes[k])),
                )
        return snapshot
