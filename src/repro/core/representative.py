"""Weakest and representative AFDs (Section 7.2).

Definitions made executable:

* D is a **weakest** AFD (within a candidate set) for problem P in
  environment E iff D ⪰_E P and every candidate D' with D' ⪰_E P
  satisfies D' ⪰ D.
* D is **representative** of P in E iff D ⪰_E P *and* P ⪰ D: the problem
  can be solved from the detector and the detector can be extracted from a
  black-box solution to the problem.

Lemma 20: representative ⇒ weakest.  Theorem 21 (the negative result —
bounded problems have no representative AFD) is exercised through the
constructions in :mod:`repro.problems.bounded`.

These relations quantify over all algorithms, so full verification is out
of reach of any finite tool; what the library offers is the *bookkeeping*:
given concrete witness algorithms and a battery of fault patterns, it
evaluates both directions and reports the verdict the definitions need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.core.afd import AFD


@dataclass
class DirectionEvidence:
    """Outcomes of running one reduction direction across fault patterns."""

    attempted: int = 0
    held: int = 0
    vacuous: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def all_held(self) -> bool:
        return self.attempted > 0 and self.held == self.attempted

    def record(self, holds: bool, vacuous: bool, note: str = "") -> None:
        self.attempted += 1
        if holds:
            self.held += 1
        elif note:
            self.failures.append(note)
        if vacuous:
            self.vacuous += 1


@dataclass
class RepresentativeVerdict:
    """Evidence that an AFD is (or is not) representative of a problem.

    ``solves`` collects runs of an algorithm solving the problem using the
    detector (D ⪰_E P); ``extracts`` collects runs of an algorithm solving
    the detector using a black-box solution to the problem (P ⪰ D).
    """

    afd_name: str
    problem_name: str
    solves: DirectionEvidence = field(default_factory=DirectionEvidence)
    extracts: DirectionEvidence = field(default_factory=DirectionEvidence)

    @property
    def representative_on_evidence(self) -> bool:
        """Both directions held on every attempted fault pattern."""
        return self.solves.all_held and self.extracts.all_held

    @property
    def weakest_candidate_on_evidence(self) -> bool:
        """Only the D ⪰_E P direction is required for weakest-ness; the
        universal quantification over other detectors cannot be sampled."""
        return self.solves.all_held


def is_weakest_candidate(
    afd: AFD,
    solved_by: Iterable[str],
    stronger_than: Dict[str, bool],
) -> bool:
    """Bookkeeping form of the weakest-AFD definition over a finite
    candidate set: ``solved_by`` lists candidate detectors known to solve
    the problem, ``stronger_than[name]`` records whether ``name ⪰ afd``
    was witnessed.  Returns whether every solver is stronger than ``afd``.
    """
    return all(stronger_than.get(name, False) for name in solved_by)
