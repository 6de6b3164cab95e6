"""Counters of the package's searches.  SearchCounts is a counting
stand-in for the witness search (conjugacy._witness_search) that tests and
CI install in the search's place to pin how many searches a decision or a
partition starts and how they end; min_rank_nodes counts the nodes of
min_rank's hyperplane search.
"""

from __future__ import annotations

import sys
from types import CodeType

from regalg import conjugacy, starcalc


class SearchCounts:
    """Called like conjugacy._witness_search, it starts the real search and
    yields every item of it unchanged, and counts:

    - starts: the searches started;
    - dead_ends: the searches whose first item is None, i.e. whose first
      descent dead-ends;
    - refused: the searches that yield nothing, refused at their setup;
    - without_witness: the searches exhausted after a dead end without a
      witness.

    A search whose consumer stops before its end (at a witness, or at a
    dead end it does not resume) counts as started only, or as a dead end.
    """

    def __init__(self):
        self.search = conjugacy._witness_search
        self.starts = self.dead_ends = self.refused = self.without_witness = 0

    def __call__(self, a, b):
        self.starts += 1
        return self._counted(self.search(a, b))

    def _counted(self, search):
        steps = []
        for step in search:
            if step is None:
                self.dead_ends += 1
            steps.append(step)
            yield step
        if not steps:
            self.refused += 1
        elif steps == [None]:
            self.without_witness += 1


def min_rank_nodes(algebra) -> tuple[int, int]:
    """starcalc.min_rank(algebra) and the number of nodes its search visits:
    the calls of its inner function search, counted through sys.setprofile
    by the function's code object."""
    search = next(c for c in starcalc.min_rank.__code__.co_consts
                  if isinstance(c, CodeType) and c.co_name == "search")
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code is search:
            nodes += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        answer = starcalc.min_rank(algebra)
    finally:
        sys.setprofile(previous)
    return answer, nodes
