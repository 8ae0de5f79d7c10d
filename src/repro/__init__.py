"""repro: an executable reproduction of *Asynchronous Failure Detectors*
(Cornejo, Lynch, Sastry; PODC 2012 / MIT-CSAIL-TR-2013-025).

Subpackages
-----------
``repro.ioa``
    The I/O automata substrate: automata, executions, composition,
    fairness, and the simulation engine (paper Section 2).
``repro.system``
    The asynchronous system model: processes, reliable FIFO channels, the
    crash automaton, environments (Section 4).
``repro.core``
    The paper's contribution: the AFD definition and its closure
    properties, renamings, solvability relations, Algorithm 3
    (self-implementation), weakest/representative notions (Sections 3,
    5-7).
``repro.detectors``
    The AFD zoo - Omega, P, EvP, Sigma, anti-Omega, Omega^k, Psi^k, S, EvS
    - plus the non-AFD counterexamples (Sections 3.3, 3.4, 10.1).
``repro.problems``
    Crash problems: consensus, k-set agreement, leader election, NBAC,
    TRB; bounded-problem machinery (Sections 3.1, 7.3, 9.1).
``repro.algorithms``
    Consensus with Omega and with P; detector relays; the Section 10.1
    participant reductions.
``repro.tree``
    The tagged tree of executions, valence, hooks (Sections 8-9).
``repro.analysis``
    Experiment runners, the hierarchy graph, statistics.
``repro.runner``
    The parallel seeded experiment engine: ``ExperimentSpec`` /
    ``BatchRunner`` / ``sweep`` (deterministic multi-core fan-out).
``repro.faults``
    Seeded fault injection (chaos): ``FaultPlan``, faulty channel
    automata, adversarial crash rules, trace-conformance oracles.
``repro.obs``
    Observability: tracing, step profiling, bench artifacts.
``repro.lint``
    Two-layer static analysis: the semantic I/O-automaton contract
    checker and the determinism-convention AST linter
    (``python -m repro.lint``).
``repro.api``
    The stable facade; every name below is also importable from
    ``repro`` directly.

Quickstart
----------
>>> import repro
>>> locations = (0, 1, 2)
>>> spec = repro.ExperimentSpec(
...     algorithm=repro.omega_consensus_algorithm,
...     detector="omega",
...     locations=locations,
...     proposals={0: 1, 1: 0, 2: 1},
...     crashes={0: 10},
...     f=1,
... )
>>> spec.run().solved
True

Sweeps fan out across cores with the same results as a serial run:

>>> batch = repro.BatchRunner(jobs=2).run(
...     repro.sweep(spec, seeds=4, fault_patterns=[{}, {0: 10}]))
>>> all(r.solved for r in batch)
True
"""

__version__ = "1.10.0"


# Lazy facade (PEP 562): ``repro.<name>`` resolves through repro.api on
# first touch, so ``import repro`` stays cheap and the submodule CLIs
# (python -m repro.obs.schema, ...) import nothing extra.
def __getattr__(name):
    from importlib import import_module

    api = import_module("repro.api")
    if name in api.__all__:
        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    from importlib import import_module

    return sorted(
        set(globals()) | set(import_module("repro.api").__all__)
    )
