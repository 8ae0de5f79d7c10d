"""The paper's primary contribution: asynchronous failure detectors.

This package defines AFDs as crash problems (Section 3), the three defining
properties (validity, closure under sampling, closure under constrained
reordering), renamings (Section 5.3), solvability relations (Section 5),
the self-implementation algorithm A^self (Section 6, Algorithm 3), and the
weakest/representative notions of Section 7.
"""

from repro.core.validity import (
    faulty_locations,
    first_crash_index,
    is_valid_finite,
    live_locations,
)
from repro.core.sampling import (
    enumerate_samplings,
    is_sampling_of,
    random_sampling,
)
from repro.core.reordering import (
    constrained_predecessors,
    enumerate_constrained_reorderings,
    is_constrained_reordering_of,
    random_constrained_reordering,
)
from repro.core.renaming import Renaming
from repro.core.afd import AFD, CheckResult
from repro.core.self_implementation import (
    SelfImplementationProcess,
    self_implementation_algorithm,
)
from repro.core.ordering import (
    Reduction,
    ReductionOutcome,
    evaluate_reduction,
)
from repro.core.representative import (
    RepresentativeVerdict,
    is_weakest_candidate,
)

__all__ = [
    "faulty_locations",
    "first_crash_index",
    "is_valid_finite",
    "live_locations",
    "enumerate_samplings",
    "is_sampling_of",
    "random_sampling",
    "constrained_predecessors",
    "enumerate_constrained_reorderings",
    "is_constrained_reordering_of",
    "random_constrained_reordering",
    "Renaming",
    "AFD",
    "CheckResult",
    "SelfImplementationProcess",
    "self_implementation_algorithm",
    "Reduction",
    "ReductionOutcome",
    "evaluate_reduction",
    "RepresentativeVerdict",
    "is_weakest_candidate",
]
