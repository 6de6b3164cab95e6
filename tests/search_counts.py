"""A counting stand-in for the package's witness search
(conjugacy._witness_search).  Tests and CI install it in the search's place
to pin how many searches a decision or a partition starts and how they end.
"""

from __future__ import annotations

from regalg import conjugacy


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
