"""Hypothesis strategies for the timed-detector property suite.

The timing grids are deliberately *calibrated*, not arbitrary: a
bounded grid draws only parameter combinations under which the target
AFD class is realizable, and an unbounded grid draws only growth rates
whose delays provably outrun the adaptive timeout before the horizon
ends.  Realizable does not mean settled by a fixed horizon: at the
grid's slow corner (heartbeat period 3, timeout 1, delay 2 plus jitter
3) a live peer's timeout can still be climbing when a 600-step run
ends, so a bounded-grid liveness verdict is re-judged at doubled
horizons (``test_conformance_properties``).
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.timed.params import DelayModel, TimedParams

#: Scheduler steps per virtual tick for a 3-location run: one tick
#: action plus one fd output per live location per round-robin cycle.
STEPS_PER_TICK_3LOC = 4


def bounded_delays() -> st.SearchStrategy[DelayModel]:
    """Bounded delay models with a small worst case (max_total <= 5)."""
    return st.builds(
        DelayModel,
        base=st.integers(min_value=1, max_value=2),
        jitter=st.integers(min_value=0, max_value=3),
    )


def bounded_timing() -> st.SearchStrategy[TimedParams]:
    """Timing grids under which ◇P is realizable.

    ``timeout_bump >= 1`` keeps the adaptive race winnable: every false
    suspicion permanently raises that peer's timeout, so with a bounded
    delay the false suspicions must stop after finitely many bumps.
    """
    return st.builds(
        TimedParams,
        heartbeat_period=st.integers(min_value=1, max_value=3),
        timeout=st.integers(min_value=1, max_value=6),
        timeout_bump=st.integers(min_value=1, max_value=3),
        lease=st.integers(min_value=1, max_value=12),
        delay=bounded_delays(),
    )


def unbounded_timing() -> st.SearchStrategy[TimedParams]:
    """Timing grids whose delays provably outrun any adaptive timeout.

    ``growth >= 3`` makes the k-th send of a channel wait ``3**k``
    extra ticks, so within a ~150-tick horizon the heartbeat gap blows
    past every reachable (initial + bumps) timeout and eventual strong
    accuracy fails *inside* the run.  (``growth == 2`` also diverges,
    but its first horizon-visible violation needs ~300 ticks — keep the
    strategy inside what the test actually executes.)
    """
    return st.builds(
        TimedParams,
        heartbeat_period=st.integers(min_value=1, max_value=3),
        timeout=st.integers(min_value=1, max_value=4),
        timeout_bump=st.integers(min_value=0, max_value=2),
        delay=st.builds(
            DelayModel,
            base=st.integers(min_value=1, max_value=2),
            growth=st.integers(min_value=3, max_value=4),
        ),
    )


def run_seeds() -> st.SearchStrategy[int]:
    return st.integers(min_value=0, max_value=2**32 - 1)
