"""Faulty channel automata: drop-in replacements for the reliable FIFO
channel that deterministically inject message faults.

:class:`ChaosChannel` realizes one channel's
:class:`~repro.faults.plan.ChannelFaults` under a derived seed.  It keeps
the reliable channel's name, signature and task structure (so a zero-
probability chaos channel produces *byte-identical* traces to
:class:`~repro.system.channel.ChannelAutomaton` — the property tests
enforce this), and stays a pure state machine: every fault decision is a
function of the channel seed and the send's index, never of wall time or
shared RNG state, so chaos runs are exactly as reproducible as fault-free
ones.

State is ``(entries, sends_seen)`` where ``entries`` is a tuple of
``(message, remaining_delay)`` pairs, head first.  Delivery is strictly
head-of-line: delays never change order (they only make the channel tick
through an internal ``chan-tick`` action until the head matures), so

* *drops* violate exactly no-loss,
* *duplicates* violate exactly no-duplication,
* *reorders* violate exactly FIFO order,
* *delays* violate nothing (they cost steps),

which is what lets the oracle negative tests pin each fault type to the
one oracle that must catch it.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.faults.plan import ChannelFaults, FaultPlan
from repro.ioa.actions import Action
from repro.ioa.automaton import State
from repro.ioa.signature import FiniteActionSet, Signature
from repro.runner.seeds import derive_seed
from repro.system.channel import ChannelAutomaton, SEND, RECEIVE, receive_action

#: The internal maturation action of a delaying channel.
TICK = "chan-tick"

_TWO_63 = float(2**63)


def tick_action(source: int, destination: int) -> Action:
    """The internal ``chan-tick`` action of channel ``source->destination``.

    Located at the destination (where delivery would happen) and carrying
    the source so every channel's tick is distinct — internal actions of
    one component must not appear in any other component's signature.
    """
    return Action(TICK, destination, (source,))


class ChaosChannel(ChannelAutomaton):
    """A channel ``C_{i,j}`` that injects the faults of one
    :class:`~repro.faults.plan.ChannelFaults` configuration.

    Parameters
    ----------
    source, destination:
        The channel's endpoints.
    faults:
        The fault configuration this channel realizes.
    seed:
        The channel's decision seed — normally
        :meth:`FaultPlan.channel_seed`, so decisions are stable across
        processes and machines.
    """

    def __init__(
        self,
        source: int,
        destination: int,
        faults: ChannelFaults,
        seed: int = 0,
    ):
        super().__init__(source, destination)
        self.faults = faults
        self.seed = int(seed)
        self._tick = tick_action(source, destination)
        base = self._signature
        self._signature = Signature(
            inputs=base.inputs,
            outputs=base.outputs,
            internals=FiniteActionSet((self._tick,)),
        )

    # -- Seeded fault decisions (pure functions of (seed, send index)) -----

    def _uniform(self, kind: str, index: int) -> float:
        """A deterministic uniform draw in [0, 1) for one decision."""
        return derive_seed(self.seed, kind, index) / _TWO_63

    def will_drop(self, index: int) -> bool:
        """Whether send number ``index`` is dropped."""
        f = self.faults
        if index in f.drop_sends:
            return True
        return bool(f.drop_p) and self._uniform("drop", index) < f.drop_p

    def will_duplicate(self, index: int) -> bool:
        """Whether send number ``index`` is enqueued twice."""
        f = self.faults
        if index in f.duplicate_sends:
            return True
        return (
            bool(f.duplicate_p)
            and self._uniform("dup", index) < f.duplicate_p
        )

    def will_reorder(self, index: int) -> bool:
        """Whether send number ``index`` cuts into the queue."""
        f = self.faults
        if index in f.reorder_sends:
            return True
        return (
            bool(f.reorder_p) and self._uniform("reorder", index) < f.reorder_p
        )

    def reorder_slot(self, index: int, queue_len: int) -> int:
        """The queue position a reordered send is inserted at (< tail)."""
        return derive_seed(self.seed, "slot", index) % queue_len

    def delay_of(self, index: int) -> int:
        """The delivery delay (ticks) assigned to send number ``index``."""
        f = self.faults
        if not f.delay_p or self._uniform("delay", index) >= f.delay_p:
            return 0
        return 1 + derive_seed(self.seed, "lag", index) % f.max_delay

    # -- Automaton interface -------------------------------------------------

    def initial_state(self) -> State:
        return ((), 0)

    def transit_view(self, state: State) -> Tuple:
        entries, _seen = state
        return tuple(message for message, _delay in entries)

    def apply(self, state: State, action: Action) -> State:
        entries, seen = state
        if action.name == SEND:
            index = seen
            seen += 1
            if self.will_drop(index):
                return (entries, seen)
            entry = (action.payload[0], self.delay_of(index))
            if self.will_reorder(index) and entries:
                slot = self.reorder_slot(index, len(entries))
                entries = entries[:slot] + (entry,) + entries[slot:]
            else:
                entries = entries + (entry,)
            if self.will_duplicate(index):
                entries = entries + (entry,)
            return (entries, seen)
        if action.name == RECEIVE:
            if (
                not entries
                or entries[0][1] != 0
                or entries[0][0] != action.payload[0]
            ):
                raise ValueError(
                    f"receive of {action.payload[0]!r} not enabled on "
                    f"{self.name}; head is "
                    f"{entries[0] if entries else 'empty'}"
                )
            return (entries[1:], seen)
        if action.name == TICK:
            if not entries or entries[0][1] == 0:
                raise ValueError(f"tick not enabled on {self.name}")
            entries = tuple(
                (message, delay - 1 if delay else 0)
                for message, delay in entries
            )
            return (entries, seen)
        raise ValueError(f"channel {self.name} cannot perform {action}")

    def enabled_locally(self, state: State) -> Iterable[Action]:
        entries, _seen = state
        if not entries:
            return
        message, delay = entries[0]
        if delay:
            yield self._tick
        else:
            yield receive_action(self.destination, message, self.source)

    def enabled(self, state: State, action: Action) -> bool:
        if self._signature.is_input(action):
            return True
        entries, _seen = state
        if not entries:
            return False
        message, delay = entries[0]
        if action == self._tick:
            return bool(delay)
        return (
            action.name == RECEIVE
            and delay == 0
            and action in self._signature.outputs
            and action.payload[0] == message
        )


class LossyChannel(ChaosChannel):
    """A channel that drops sends (violates no-loss only)."""

    def __init__(
        self,
        source: int,
        destination: int,
        drop_p: float = 0.0,
        drop_sends: Sequence[int] = (),
        seed: int = 0,
    ):
        super().__init__(
            source,
            destination,
            ChannelFaults(drop_p=drop_p, drop_sends=tuple(drop_sends)),
            seed=seed,
        )


class DuplicatingChannel(ChaosChannel):
    """A channel that enqueues some sends twice (violates no-duplication
    only: both copies are delivered in place, so order is preserved)."""

    def __init__(
        self,
        source: int,
        destination: int,
        duplicate_p: float = 0.0,
        duplicate_sends: Sequence[int] = (),
        seed: int = 0,
    ):
        super().__init__(
            source,
            destination,
            ChannelFaults(
                duplicate_p=duplicate_p,
                duplicate_sends=tuple(duplicate_sends),
            ),
            seed=seed,
        )


class ReorderingChannel(ChaosChannel):
    """A channel where some sends cut into the queue (violates FIFO only)."""

    def __init__(
        self,
        source: int,
        destination: int,
        reorder_p: float = 0.0,
        reorder_sends: Sequence[int] = (),
        seed: int = 0,
    ):
        super().__init__(
            source,
            destination,
            ChannelFaults(
                reorder_p=reorder_p, reorder_sends=tuple(reorder_sends)
            ),
            seed=seed,
        )


class DelayingChannel(ChaosChannel):
    """A channel that holds some messages for a bounded number of internal
    ticks before delivery.  Head-of-line blocking preserves order, so this
    violates no safety property — it only stretches runs."""

    def __init__(
        self,
        source: int,
        destination: int,
        delay_p: float = 1.0,
        max_delay: int = 1,
        seed: int = 0,
    ):
        super().__init__(
            source,
            destination,
            ChannelFaults(delay_p=delay_p, max_delay=max_delay),
            seed=seed,
        )


def make_faulty_channels(
    locations: Sequence[int], plan: FaultPlan
) -> List[ChaosChannel]:
    """One :class:`ChaosChannel` per ordered pair, configured by ``plan``.

    The plan must be bound (carry a concrete seed); the experiment engine
    binds unbound plans to the run seed before building the system.
    """
    if not plan.is_bound:
        raise ValueError(
            "fault plan is unbound; call plan.bound(seed) first"
        )
    return [
        ChaosChannel(
            i,
            j,
            plan.for_channel(i, j),
            seed=plan.channel_seed(i, j),
        )
        for i in locations
        for j in locations
        if i != j
    ]
