"""Edge labels of the task tree (Section 8.1).

Every node of the tree R has one outgoing edge per label in

    L = {FD} ∪ {Proc_i} ∪ {Chan_{i,j}} ∪ {Env_{i,x}}.

In this implementation the task labels are exactly the namespaced task
names of the system composition (``"<component>:<task>"``), and ``FD`` is
the distinguished extra label whose action tags are drawn from the fixed
FD sequence t_D (which includes the crash events — t_D ranges over
I-hat ∪ O_D).
"""

from __future__ import annotations

from typing import List

from repro.ioa.composition import Composition

#: The distinguished label whose edges consume the FD sequence t_D.
FD_LABEL = "FD"


def tree_labels(composition: Composition) -> List[str]:
    """The label set L for a system composition: FD plus every task."""
    return [FD_LABEL] + list(composition.tasks())
