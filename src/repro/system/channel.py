"""Reliable FIFO channel automata (Section 4.3).

For every ordered pair (i, j) of distinct locations the system contains a
channel automaton ``C_{i,j}`` carrying messages from the process at i to
the process at j.  Its state is a FIFO queue; ``send(m, j)_i`` enqueues m,
and when m is at the head, ``receive(m, i)_j`` is enabled and dequeues it.
The automaton has a single task and is deterministic (Section 2.5).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton, State
from repro.ioa.signature import PredicateActionSet, Signature

SEND = "send"
RECEIVE = "receive"


def send_action(sender: int, message: Hashable, destination: int) -> Action:
    """The action ``send(m, j)_i``: located at the sender."""
    return Action(SEND, sender, (message, destination))


def receive_action(destination: int, message: Hashable, sender: int) -> Action:
    """The action ``receive(m, i)_j``: located at the receiver."""
    return Action(RECEIVE, destination, (message, sender))


class ChannelAutomaton(Automaton):
    """The reliable FIFO channel ``C_{i,j}``.

    State: a tuple of messages in transit, head first.
    """

    def __init__(self, source: int, destination: int):
        if source == destination:
            raise ValueError("channels connect distinct locations")
        super().__init__(f"chan[{source}->{destination}]")
        self.source = source
        self.destination = destination
        self._signature = Signature(
            inputs=PredicateActionSet(
                lambda a: (
                    a.name == SEND
                    and a.location == source
                    and len(a.payload) == 2
                    and a.payload[1] == destination
                ),
                f"send(*, {destination})_{source}",
                keys=((SEND, source),),
            ),
            outputs=PredicateActionSet(
                lambda a: (
                    a.name == RECEIVE
                    and a.location == destination
                    and len(a.payload) == 2
                    and a.payload[1] == source
                ),
                f"receive(*, {source})_{destination}",
                keys=((RECEIVE, destination),),
            ),
        )

    @property
    def signature(self) -> Signature:
        return self._signature

    def initial_state(self) -> State:
        return ()

    def transit_view(self, state: State) -> Tuple:
        """The messages in transit, head first, as a plain tuple.

        The reliable channel's state *is* that tuple; faulty channel
        subclasses carry bookkeeping (delays, send counters) alongside
        it and override this to project it out.  Quiescence checks and
        :func:`messages_in_transit` go through this view so they work
        for any channel automaton.
        """
        return state

    def apply(self, state: State, action: Action) -> State:
        if action.name == SEND:
            return state + (action.payload[0],)
        if action.name == RECEIVE:
            if not state or state[0] != action.payload[0]:
                raise ValueError(
                    f"receive of {action.payload[0]!r} not enabled; "
                    f"queue head is {state[0]!r}"
                    if state
                    else "receive on empty channel"
                )
            return state[1:]
        raise ValueError(f"channel {self.name} cannot perform {action}")

    def enabled_locally(self, state: State) -> Iterable[Action]:
        if state:
            yield receive_action(self.destination, state[0], self.source)

    def enabled(self, state: State, action: Action) -> bool:
        if self._signature.is_input(action):
            return True
        return (
            action.name == RECEIVE
            and bool(state)
            and action in self._signature.outputs
            and action.payload[0] == state[0]
        )


def make_channels(locations: Sequence[int]) -> List[ChannelAutomaton]:
    """One channel automaton per ordered pair of distinct locations."""
    return [
        ChannelAutomaton(i, j)
        for i in locations
        for j in locations
        if i != j
    ]


def messages_in_transit(
    channels: Iterable[ChannelAutomaton], composition, state
) -> Dict[Tuple[int, int], Tuple]:
    """Map (source, destination) -> queue contents, for assertions about
    quiescence (Lemma 23 requires no messages in transit).

    Goes through :meth:`ChannelAutomaton.transit_view`, so the value is
    always a plain tuple of messages — for reliable and faulty channels
    alike (a faulty channel's raw state carries extra bookkeeping)."""
    return {
        (c.source, c.destination): c.transit_view(
            composition.component_state(state, c)
        )
        for c in channels
    }
