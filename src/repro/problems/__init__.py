"""Distributed graph problem definitions.

Each problem module defines the output convention of Section 2/8 of the
paper, full- and partial-solution verifiers, the *extendable partial
solution* checker central to the framework (Section 3), and a greedy
sequential solver used to manufacture perfect predictions and to
cross-check distributed outputs.
"""

from repro.problems.base import GraphProblem
from repro.problems.edge_coloring import EDGE_COLORING, EdgeColoringProblem
from repro.problems.matching import MATCHING, MaximalMatchingProblem, UNMATCHED
from repro.problems.mis import MIS, MaximalIndependentSetProblem
from repro.problems.vertex_coloring import VERTEX_COLORING, VertexColoringProblem

#: The paper's four problems, by short name.
PROBLEMS = {
    MIS.name: MIS,
    MATCHING.name: MATCHING,
    VERTEX_COLORING.name: VERTEX_COLORING,
    EDGE_COLORING.name: EDGE_COLORING,
}


def solution_size(outputs, problem_name=None):
    """Size of a solution in a problem-appropriate sense.

    For MIS-style 0/1 outputs this is the number of nodes outputting 1
    (the independent set's size); for every other problem it is the
    number of decided nodes.  Every sweep row's ``solution_size`` column
    comes from this one definition.
    """
    if problem_name == MIS.name:
        return sum(1 for value in outputs.values() if value == 1)
    return len(outputs)


def get_problem(name):
    """The problem instance for a short name (or the instance itself).

    Accepts a :class:`GraphProblem` unchanged so call sites can take
    either form — sweep cells, for example, name problems by string to
    stay picklable.
    """
    if isinstance(name, GraphProblem):
        return name
    try:
        return PROBLEMS[name]
    except KeyError:
        known = ", ".join(sorted(PROBLEMS))
        raise KeyError(f"unknown problem {name!r}; known problems: {known}") from None


__all__ = [
    "PROBLEMS",
    "get_problem",
    "solution_size",
    "EDGE_COLORING",
    "EdgeColoringProblem",
    "GraphProblem",
    "MATCHING",
    "MIS",
    "MaximalIndependentSetProblem",
    "MaximalMatchingProblem",
    "UNMATCHED",
    "VERTEX_COLORING",
    "VertexColoringProblem",
]
