"""Communication-closed synchronous rounds emulated over P.

Classic synchronous crash-model algorithms (FloodMin for k-set
agreement, flooding for terminating reliable broadcast, vote collection
for NBAC) port to the asynchronous model when the perfect detector P is
available: in round r, a process broadcasts, then waits for each peer's
round-r message *or* a suspicion of that peer.  P's strong accuracy means
a live peer is never skipped (its message is always awaited), and strong
completeness means waits on crashed peers terminate — exactly the crash
semantics of a synchronous round, where a process crashing in round r
reaches an arbitrary subset of recipients.

:class:`SynchronousRoundProcess` implements the round engine once;
concrete algorithms supply a small set of hooks over an immutable
application state.
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass, replace
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Optional,
    Sequence,
    Tuple,
)

from repro.ioa.actions import Action
from repro.ioa.automaton import State
from repro.ioa.signature import ActionSet, PredicateActionSet, union_keys
from repro.detectors.perfect import PERFECT_OUTPUT
from repro.system.process import ProcessAutomaton

#: Returned by :meth:`SynchronousRoundProcess.start_payload` while the
#: process is not yet ready to enter round 1 (e.g. no proposal received).
NOT_READY = "<not-ready>"

START = "rounds-start"
ADVANCE = "rounds-advance"


@dataclass(frozen=True)
class RoundsState:
    """Engine state wrapping the algorithm's immutable ``app`` state."""

    app: Hashable
    round: int = 0  # 0 = not started; rounds run 1..num_rounds
    suspects: Tuple[int, ...] = ()
    inbox: FrozenSet[Tuple[int, int, Hashable]] = frozenset()
    outbox: Tuple[Action, ...] = ()
    finished: bool = False  # final output emitted


class SynchronousRoundProcess(ProcessAutomaton):
    """The round engine; subclasses provide the algorithm hooks.

    Subclass contract (all over immutable app states):

    * :attr:`message_tag` — unique tag for this protocol's messages;
    * :attr:`num_rounds` — how many rounds to run;
    * :meth:`app_initial` — initial app state;
    * :meth:`on_input` — fold a non-engine input action (proposal, vote,
      broadcast, consensus decision, ...) into the app state;
    * :meth:`start_payload` — round-1 message, or :data:`NOT_READY`;
    * :meth:`fold_round` — fold a completed round's received payloads
      (per live-or-fast-enough sender) into the app state;
    * :meth:`next_payload` — the message for the given upcoming round;
    * :meth:`final_output` — the output action emitted after the last
      round (or ``None`` for protocols that only react afterwards);
    * :meth:`post_final_enabled` — optional further outputs after the
      final one (e.g. NBAC's verdict after the embedded consensus
      decides).
    """

    message_tag: str = "rnd"
    num_rounds: int = 1

    def __init__(
        self,
        location: int,
        locations: Sequence[int],
        fd_output_name: str = PERFECT_OUTPUT,
        name: str = "",
    ):
        self.all_locations: Tuple[int, ...] = tuple(locations)
        self.fd_output_name = fd_output_name
        super().__init__(location, name=name or f"rounds[{location}]")

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    @abstractmethod
    def app_initial(self) -> Hashable:
        """The algorithm's initial application state."""

    def on_input(self, app: Hashable, action: Action) -> Hashable:
        """Fold a non-engine input into the app state (default: ignore)."""
        return app

    @abstractmethod
    def start_payload(self, app: Hashable):
        """The round-1 message, or NOT_READY to keep waiting."""

    @abstractmethod
    def fold_round(
        self, app: Hashable, completed_round: int, received: Dict[int, Hashable]
    ) -> Hashable:
        """Fold the payloads received in a completed round."""

    @abstractmethod
    def next_payload(self, app: Hashable, upcoming_round: int):
        """The message to broadcast in the upcoming round."""

    def final_output(self, app: Hashable) -> Optional[Action]:
        """The output emitted once all rounds completed (None: nothing)."""
        return None

    def post_final_enabled(self, app: Hashable) -> Iterable[Action]:
        """Outputs enabled after the final output was emitted."""
        return ()

    def extra_inputs(self) -> ActionSet:
        """Further input actions beyond FD outputs and receives."""
        from repro.ioa.signature import EmptyActionSet

        return EmptyActionSet()

    # ------------------------------------------------------------------
    # Signature
    # ------------------------------------------------------------------

    def owns_message(self, message) -> bool:
        return (
            isinstance(message, tuple)
            and len(message) == 3
            and message[0] == self.message_tag
        )

    def core_inputs(self) -> ActionSet:
        extra = self.extra_inputs()
        return PredicateActionSet(
            lambda a: (
                a.location == self.location
                and a.name == self.fd_output_name
            )
            or a in extra,
            f"fd/extra inputs at {self.location}",
            keys=union_keys(
                (frozenset({(self.fd_output_name, self.location)}), extra.keys())
            ),
        )

    def core_internals(self) -> ActionSet:
        return PredicateActionSet(
            lambda a: (
                a.name in (START, ADVANCE)
                and a.location == self.location
                and len(a.payload) == 1
                and a.payload[0] == self.message_tag
            ),
            f"round engine internals at {self.location}",
            keys=((START, self.location), (ADVANCE, self.location)),
        )

    # ------------------------------------------------------------------
    # Engine mechanics
    # ------------------------------------------------------------------

    def core_initial(self) -> State:
        return RoundsState(app=self.app_initial())

    def _broadcast(self, round_number: int, payload) -> Tuple[Action, ...]:
        message = (self.message_tag, round_number, payload)
        return tuple(
            self.send(message, j)
            for j in self.all_locations
            if j != self.location
        )

    def _round_complete(self, core: RoundsState) -> bool:
        if core.outbox or not 1 <= core.round <= self.num_rounds:
            return False
        heard = {
            sender
            for (r, sender, _p) in core.inbox
            if r == core.round
        }
        return all(
            j in heard or j in core.suspects
            for j in self.all_locations
            if j != self.location
        )

    def core_apply(self, core: RoundsState, action: Action) -> RoundsState:
        if (
            action.name == self.fd_output_name
            and action.location == self.location
        ):
            return replace(core, suspects=tuple(action.payload[0]))
        if self.is_receive(action):
            message, sender = self.received_message(action)
            if self.owns_message(message):
                _tag, round_number, payload = message
                return replace(
                    core,
                    inbox=core.inbox | {(round_number, sender, payload)},
                )
            return replace(core, app=self.on_input(core.app, action))
        if action.name == "send":
            if core.outbox and action == core.outbox[0]:
                return replace(core, outbox=core.outbox[1:])
            return core
        if action.name == START and action.location == self.location:
            payload = self.start_payload(core.app)
            return replace(
                core, round=1, outbox=core.outbox + self._broadcast(1, payload)
            )
        if action.name == ADVANCE and action.location == self.location:
            received = {
                sender: payload
                for (r, sender, payload) in core.inbox
                if r == core.round
            }
            app = self.fold_round(core.app, core.round, received)
            new_round = core.round + 1
            outbox = core.outbox
            if new_round <= self.num_rounds:
                outbox = outbox + self._broadcast(
                    new_round, self.next_payload(app, new_round)
                )
            return replace(core, app=app, round=new_round, outbox=outbox)
        # Final and post-final outputs, plus any other inputs: app hooks.
        final = self.final_output(core.app)
        if final is not None and action == final and not core.finished:
            return replace(
                core, finished=True, app=self.on_input(core.app, action)
            )
        return replace(core, app=self.on_input(core.app, action))

    def core_enabled(self, core: RoundsState) -> Iterable[Action]:
        if core.outbox:
            yield core.outbox[0]
        elif core.round == 0:
            if self.start_payload(core.app) != NOT_READY:
                yield Action(START, self.location, (self.message_tag,))
        elif self._round_complete(core):
            yield Action(ADVANCE, self.location, (self.message_tag,))
        elif core.round > self.num_rounds:
            if not core.finished:
                final = self.final_output(core.app)
                if final is not None:
                    yield final
                else:
                    yield from self.post_final_enabled(core.app)
            else:
                yield from self.post_final_enabled(core.app)
