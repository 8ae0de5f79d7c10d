"""The process-wide compiled-execution default.

Mirrors :func:`repro.ioa.composition.set_enabled_cache_default`: one
module-level flag and a setter returning the previous value so callers
can restore it in a ``try/finally``.  Forked worker processes
(:func:`repro.runner.batch.parallel_map`) inherit the flag as the
parent set it.  Every surface that can route through the compiled core
(``Scheduler``, ``System.run``, ``ExperimentSpec``) takes
``compiled=None`` to mean "the process default"; an explicit
``True``/``False`` always wins.
"""

from __future__ import annotations

_compiled_default = False


def compiled_default() -> bool:
    """The process-wide default for compiled execution."""
    return _compiled_default


def set_compiled_default(enabled: bool) -> bool:
    """Set the process-wide compiled default; returns the previous value.

    Affects runs that start afterwards with ``compiled=None`` (the
    benchmark CLIs' ``--compiled`` flag and the perf guard's
    compiled-vs-interpreted A/B use this seam).
    """
    global _compiled_default
    previous = _compiled_default
    _compiled_default = bool(enabled)
    return previous


def resolve_compiled(flag) -> bool:
    """An explicit ``compiled=`` argument, or the process default."""
    return _compiled_default if flag is None else bool(flag)
