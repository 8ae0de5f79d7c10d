"""The one instrumentation convention shared by every instrumentable surface.

Every instrumentable surface (``Scheduler``, ``System.run``,
``SystemBuilder.with_instrumentation``, the ``repro.runner`` engine, and
the experiment helpers built on them) accepts a single ``instrument=``
argument.  It takes *anything that describes instrumentation*: an
:class:`Instrumentation` bundle, a bare
:class:`~repro.obs.trace.Observer`, a bare
:class:`~repro.obs.prof.StepProfiler`, a tuple mixing them, or ``None``
(the default — fully uninstrumented, zero cost).

Both halves watch a run from the step loop; neither reaches into an
automaton, so every ``apply`` stays a pure function of its state and
action, and an instrumented run does the same steps as a plain one.

The pre-1.2 per-class kwarg spellings (``Scheduler(observer=...)``,
``with_observer()``/``with_metrics()``, ``metrics=`` on the tree tools)
went through a deprecation cycle and were removed in 1.5.0;
``instrument=`` is the only spelling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.obs.prof import StepProfiler
from repro.obs.trace import Observer


@dataclass
class Instrumentation:
    """An observer and/or a step profiler, bundled.

    Either half may be ``None``; a falsy bundle means "uninstrumented".

    Examples
    --------
    >>> from repro.obs.trace import TraceRecorder
    >>> inst = Instrumentation(observer=TraceRecorder())
    >>> bool(inst), inst.profiler is None
    (True, True)
    """

    observer: Optional[Observer] = None
    profiler: Optional[StepProfiler] = None

    def __bool__(self) -> bool:
        return self.observer is not None or self.profiler is not None

    def merged_with(self, other: "Instrumentation") -> "Instrumentation":
        """This bundle, with ``other`` filling any empty half."""
        return Instrumentation(
            observer=self.observer if self.observer is not None else other.observer,
            profiler=(
                self.profiler if self.profiler is not None else other.profiler
            ),
        )


def coerce_instrument(value: Any) -> Instrumentation:
    """Normalize any accepted ``instrument=`` value into a bundle.

    Accepts ``None``, an :class:`Instrumentation`, an
    :class:`~repro.obs.trace.Observer`, a
    :class:`~repro.obs.prof.StepProfiler`, or a tuple/list mixing them
    (later entries fill holes left by earlier ones).
    """
    if value is None:
        return Instrumentation()
    if isinstance(value, Instrumentation):
        return value
    if isinstance(value, Observer):
        return Instrumentation(observer=value)
    if isinstance(value, StepProfiler):
        return Instrumentation(profiler=value)
    if isinstance(value, (tuple, list)):
        bundle = Instrumentation()
        for item in value:
            bundle = bundle.merged_with(coerce_instrument(item))
        return bundle
    raise TypeError(
        "instrument= accepts None, Instrumentation, an Observer, a "
        "StepProfiler, or a tuple of those; got "
        f"{type(value).__name__}"
    )
