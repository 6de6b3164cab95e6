"""Acceptance suite: every classification result reproduced at desk scale.

One test per criterion; each prints a PASS/FAIL line (run pytest -s to see
them) and enforces its runtime budget.  The verdicts are the `Check`
records of `regalg.verify`, the engine behind `regalg verify`, looked up by
check name; the independent oracles the engine does not run stay here.
Where a published value disagrees with exhaustive computation, the computed
truth is asserted and the disagreement is pinned exactly, never silently
absorbed.
"""

import re
import time
from contextlib import contextmanager

from regalg.families import (
    drc_case,
    drc_commutator_codim,
    drc_valid_indices,
    make_drc,
)
from regalg.core import RegularSubalgebra, parse_descriptor
from regalg.starcalc import bool_mul, derived_series_dims, min_rank
from regalg.verify import SUITES

import bruteforce
from wide_spans import WIDE_SPAN_G12, WIDE_SPAN_G18


@contextmanager
def criterion(number, budget_seconds, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:02d} PASS: {description} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"budget {budget_seconds}s exceeded: {elapsed:.2f}s"


def check(suite, name, n):
    """The engine's record of the named check at size n; the suite runs only
    as far as that check."""
    for record in SUITES[suite](n):
        if record.name == name:
            return record
    raise LookupError(f"suite {suite} yields no {name} check at n={n}")


def test_c01_codim1_counts():
    with criterion(1, 1.0, "codim-1 family: 2n-2 closed members, one below the full span"):
        for n in range(3, 9):
            count = check("codim1", "codim1-count", n)
            assert count.passed, count.details
            # flagged: the published dimension label n(n+1)/2 - 1 counts
            # |E|+|H| as n(n+1)/2 and so overshoots the true member dimension
            # (|E|+|H|-1 = n(n+1)/2 - 2) by one.
            assert len(count.warnings) == 1
            assert count.warnings[0].startswith("published dimension label")
        print("  flagged: published codim-1 dimension label is one above |E|+|H|-1")


def test_c02_codim2_counts():
    with criterion(2, 1.0, "codim-2 family: 2n^2-3n-1 closed members with exact breakdown"):
        for n in range(3, 9):
            count = check("codim2", "codim2-count", n)
            assert count.passed, count.details


def test_c03_exhaustive_closure_oracle():
    with criterion(3, 1.0, "exhaustive removal slice: codim-1/2 nilpotent patterns match the constructions"):
        for n in range(3, 9):
            oracle = check("codim2", "codim2-oracle", n)
            assert oracle.passed and not oracle.warnings  # ran, not skipped


def test_c04_dimension_bound_tightness():
    with criterion(4, 5.0, "removal bound n(n-1)/2-(j-i) is attained and never exceeded"):
        for n in range(3, 9):
            assert check("codim2", "codim2-bound-tight", n).passed, n


def test_c05_codim1_classification():
    with criterion(5, 30.0, "codim-1 members fall into 2n-2 singleton classes, n=3..6"):
        for n in range(3, 7):
            # column actions separate the unit-removal members; the cartan
            # records alone separate the generator-removal members from n=4
            # on, and at n=3 the last-row flag finishes (L_1, L_2)
            classes = check("codim1", "codim1-classes", n)
            assert classes.passed, classes.details
            assert classes.details.startswith(f"{2 * n - 2} singleton classes;")


def test_c06_codim2_classification():
    with criterion(6, 60.0, "codim-2 classes: unit/row/column triples, all else singleton, n=4..5"):
        for n in (4, 5):
            classes = check("codim2", "codim2-classes", n)
            assert classes.passed, classes.details
            # everything else (P, M, and unit pairs with a gap) is singleton
            expected_classes = 2 * n * n - 3 * n - 1 - 2 * (n - 2)
            assert classes.details.startswith(f"{expected_classes} classes:")


def test_c07_dim2_classification():
    with criterion(7, 60.0, "two-dimensional spans: exactly 9 classes, all witness recipes valid"):
        classes = check("dim2", "dim2-classes", 6)
        assert classes.passed  # no class mixes families
        assert classes.details == (
            "9 classes with kinds ['A1', 'A2', 'A3', 'B1', 'B2', 'B3', 'B4', 'C1', 'C2']"
        )
        # every explicit recipe produces a valid conjugator where families
        # are nonempty
        for n in (5, 6):
            recipes = check("dim2", "dim2-witness-recipes", n)
            assert recipes.passed, recipes.details


def test_c08_dim2_count_audit():
    with criterion(8, 5.0, "two-dimensional family counts vs published formulas, n=4..6"):
        for n in (4, 5, 6):
            counts = check("dim2", "dim2-counts", n)
            assert counts.passed  # A2, B3 and C2 match their formulas
            # the disjoint-pair formula counts all unit pairs, closed or not
            units = n * (n - 1) // 2
            a1_formula = units * (units - 1) // 2
            a1_exhaustive = a1_formula - 3 * (n * (n - 1) * (n - 2) // 6)
            assert counts.warnings == [
                f"count formula mismatch for A1: exhaustive {a1_exhaustive} vs formula {a1_formula}"
            ]
        print("  flagged: disjoint-pair count formula ignores the closure constraint")


def test_c09_adjoint_action_facts():
    with criterion(9, 1.0, "adjoint image of e_p-e_q on the full nil part: column/row dims"):
        for n in (4, 5, 6):
            # column dims q (n-1 at q=n); row dims depend only on p, equal
            # n-1 at p=1 and n-p+1 after, so they decrease strictly from p=2
            facts = check("kernels", "kernel-adjoint-facts", n)
            assert facts.passed, facts.details
            assert len(facts.warnings) == 2
            assert facts.warnings[0].startswith(f"column action of the (p,{n}) generators")
            assert facts.warnings[1].startswith("row-action dims tie at p=1 and p=2")
        print("  flagged: q=n column dim is n-1 (not q); row dims tie at p=1,2")


DRC_PUBLISHED_D_SLIPS = {
    # (case, k) cells where the published diagonal-removal codimension is
    # arithmetically inconsistent with its own commutator construction
    (1, 2), (1, 3), (4, 2), (4, 3), (2, 1), (3, 1), (5, 1),
}

DRC_D_MISMATCH = re.compile(
    r"published table value for D_(\d+)\[k=(\d+)\] at n=\d+ is \d+, computed \d+"
)


def test_c10_drc_commutator_table():
    with criterion(10, 30.0, "segment-removal commutator codims vs the published case table"):
        cells = []
        for n in (6, 7):
            for k in (1, 2, 3):
                for kind in ("D", "R", "C"):
                    for index in drc_valid_indices(n, k):
                        cells.append((n, kind, index, k))
        t0 = time.perf_counter()
        computed = {cell: drc_commutator_codim(*cell) for cell in cells}
        assert time.perf_counter() - t0 < 1.0  # the table itself is cheap
        mismatch = set()
        for n in (6, 7):
            # the engine holds R=C, D=R iff k<=2, and every published
            # row/column value exactly; diagonal cells that differ are warnings
            table = check("drc", "drc-commutator-table", n)
            assert table.passed
            for warning in table.warnings:
                slip = DRC_D_MISMATCH.fullmatch(warning)
                assert slip, warning
                index, k = int(slip[1]), int(slip[2])
                mismatch.add((drc_case(n, index, k), k))
        realized_slips = {
            (drc_case(n, index, k), k) for n, kind, index, k in cells if kind == "D"
        } & DRC_PUBLISHED_D_SLIPS
        assert mismatch == realized_slips
        # independent cross-check: exact span brackets agree with every
        # boolean-square codimension
        script = {n: n * (n - 1) // 2 - (n - 1) for n in (6, 7)}
        for cell, value in computed.items():
            n, kind, index, k = cell
            oracle = script[n] - bruteforce.brute_commutator_dim(make_drc(n, kind, index, k))
            assert value == oracle, cell
        print(
            "  flagged: published diagonal-removal values are off by one in "
            f"{len(mismatch)} (case, k) combinations; row/column columns exact"
        )


def test_c11_drc_classification():
    with criterion(11, 30.0, "segment removals: conjugate at k=2, separated at k=3"):
        for n in (5, 6):
            # k=2: every pair of D, R, C is CONJUGATE with a re-verified
            # witness; k=3: D is separated from R and C by derivedDims
            classes = check("drc", "drc-classes", n)
            assert classes.passed
            # recorded outcome of the row-vs-column question at k=3: the
            # cyclic relabeling is a witness (re-verified by the engine), so
            # they are conjugate and the published "not pairwise conjugate"
            # claim fails for them
            assert len(classes.warnings) == len(drc_valid_indices(n, 3))
            assert all(": CONJUGATE witness " in w for w in classes.warnings)
        print(
            "  flagged: row/column segment removals are conjugate at k=3 "
            "(cyclic witness); only the diagonal removal separates"
        )


def test_c12_kernel_properties():
    with criterion(12, 40.0, "bracket laws, series oracle agreement, signature invariance"):
        t0 = time.perf_counter()
        for name in ("kernel-antisymmetry", "kernel-jacobi"):
            assert check("kernels", name, 4).passed, name
        assert time.perf_counter() - t0 < 1.0

        t0 = time.perf_counter()
        for size in (2, 3, 4):
            for nil in bruteforce.closed_nil_sets(size):
                algebra = RegularSubalgebra(size, nil)
                dims, patterns = bruteforce.span_derived_series(algebra)
                assert derived_series_dims(algebra.nil_rows) == dims
                boolean = bool_mul(algebra.nil_rows, algebra.nil_rows)
                for span_pattern in patterns:
                    assert frozenset(bruteforce.positions(boolean)) == span_pattern
                    boolean = bool_mul(boolean, boolean)
        assert time.perf_counter() - t0 < 5.0

        t0 = time.perf_counter()
        invariance = check("kernels", "kernel-signature-invariance", 4)
        assert invariance.passed, invariance.details
        assert time.perf_counter() - t0 < 30.0


def test_c13_min_rank_at_the_descriptor_bound():
    with criterion(13, 10.0, "minimum rank of wide diagonal spans at n=20, the descriptor bound"):
        # g = 18, close to n, and g = 12, the slowest g measured at n = 20
        for descriptor, expected in (WIDE_SPAN_G18, WIDE_SPAN_G12):
            assert min_rank(parse_descriptor(descriptor)) == expected
