"""Seeded input generator for the regalg benchmark.

Plain Python that never imports regalg: the benchmark turns its seed into
descriptor text and regalg only ever sees that text.  The same (workload,
seed, pass) always yields byte-identical inputs.

Closed nil sets are transitive closures of random strict upper pairs.
Cartan spans are random traceless integer vectors, kept only while they
stay linearly independent.  Relabelings are random linear extensions of
the nil order, so a relabelled algebra stays upper triangular; rejection
sampling over S_n would never end for dense or full nil sets.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("classify-n7", "invariants-large", "decide-stream")

# classify-n7: every family the CLI classifies at n = 7, always in this
# order, since later invocations reuse signatures cached by earlier ones.
CLASSIFY_ARGV = (
    ("--family", "codim1"),
    ("--family", "codim2"),
    ("--family", "dim2"),
    ("--family", "drc", "--k", "1"),
    ("--family", "drc", "--k", "2"),
    ("--family", "drc", "--k", "3"),
)

# invariants-large: (kind, n, Cartan dimension) strata; each pass draws one
# algebra per stratum and pairs it with one relabelled copy.  Every pass
# has the same strata, so passes differ only in random content.
INVARIANT_STRATA = (
    ("full", 12, 11), ("full", 20, 19),
    ("dense", 13, 3), ("dense", 15, 3), ("dense", 17, 3), ("dense", 19, 3),
    ("sparse", 12, 3), ("sparse", 14, 3), ("sparse", 16, 3), ("sparse", 18, 3), ("sparse", 20, 3),
    ("cartan", 13, 3), ("cartan", 15, 3), ("cartan", 17, 4), ("cartan", 19, 4),
    ("roots", 14, 3), ("roots", 16, 3), ("roots", 18, 3), ("roots", 20, 3),
)

# decide-stream: (kind, n, Cartan dimension) strata, each drawn
# DECIDE_REPEATS times as a conjugate-built pair and as an independent pair.
# Cartan-only pairs stay at n = 5: a Cartan-only pair with equal signatures
# scans all n! permutations with a Fraction RREF each, up to 0.25 s at
# n = 6 and seconds at n = 8, so a few such draws would set wall_s.  At
# n = 5 they still get full scans and min_rank, and still hit the known
# minRank defect.
DECIDE_STRATA = (
    ("nil", 5, 0), ("nil", 6, 0), ("nil", 7, 0), ("nil", 8, 0),
    ("mixed", 5, 2), ("mixed", 6, 2), ("mixed", 7, 2), ("mixed", 8, 2),
    ("cartan", 5, 2),
)
DECIDE_REPEATS = 10


def rng_for(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def rank(rows) -> int:
    """Exact rank over the rationals, independent of regalg.linalg."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def transitive_closure(n: int, pairs) -> frozenset[tuple[int, int]]:
    reach = [0] * (n + 1)
    for i, j in pairs:
        reach[i] |= 1 << j
    # every pair has i < j, so sweeping rows from the bottom finds each
    # successor's row already closed
    for i in range(n, 0, -1):
        row = acc = reach[i]
        while row:
            low = row & -row
            acc |= reach[low.bit_length() - 1]
            row ^= low
        reach[i] = acc
    return frozenset(
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if reach[i] >> j & 1
    )


def random_closed_nil(rng: random.Random, n: int, density: float) -> frozenset[tuple[int, int]]:
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1) if rng.random() < density]
    return transitive_closure(n, pairs)


def root_vector(n: int, p: int, q: int) -> tuple[int, ...]:
    v = [0] * n
    v[p - 1], v[q - 1] = 1, -1
    return tuple(v)


def random_cartan(rng: random.Random, n: int, g: int, roots: int = 0) -> tuple[tuple[int, ...], ...]:
    """g independent traceless integer generators: the first `roots` are
    some e_p - e_q, the rest have entries in [-3, 3] with the last entry
    balancing the trace."""
    gens: list[tuple[int, ...]] = []
    while len(gens) < g:
        if len(gens) < roots:
            p, q = sorted(rng.sample(range(1, n + 1), 2))
            v = root_vector(n, p, q)
        else:
            head = [rng.randint(-3, 3) for _ in range(n - 1)]
            v = tuple(head + [-sum(head)])
        if any(v) and rank(gens + [v]) == len(gens) + 1:
            gens.append(v)
    return tuple(gens)


def random_linear_extension(rng: random.Random, n: int, nil) -> tuple[int, ...]:
    """sigma (sigma[i-1] is the image of i) with sigma(i) < sigma(j) for
    every nil pair (i, j): a random topological order of the nil poset."""
    preds: dict[int, set[int]] = {j: set() for j in range(1, n + 1)}
    for i, j in nil:
        preds[j].add(i)
    sigma = [0] * n
    done: set[int] = set()
    for pos in range(1, n + 1):
        x = rng.choice([x for x in range(1, n + 1) if x not in done and preds[x] <= done])
        sigma[x - 1] = pos
        done.add(x)
    return tuple(sigma)


def relabel(n: int, nil, gens, sigma):
    new_nil = frozenset((sigma[i - 1], sigma[j - 1]) for i, j in nil)
    new_gens = []
    for v in gens:
        w = [0] * n
        for idx, x in enumerate(v):
            w[sigma[idx] - 1] = x
        new_gens.append(tuple(w))
    return new_nil, tuple(new_gens)


def descriptor(n: int, nil, gens) -> str:
    nil_text = ",".join(f"({i},{j})" for i, j in sorted(nil))
    gen_text = ",".join("diag(" + ",".join(map(str, v)) + ")" for v in gens)
    return f"n={n}; nil={nil_text}; cartan={gen_text}"


def _draw(rng: random.Random, kind: str, n: int, g: int):
    """One closed algebra of the given kind as (nil set, generators)."""
    if kind == "full":
        return transitive_closure(n, [(k, k + 1) for k in range(1, n)]), tuple(
            root_vector(n, k, k + 1) for k in range(1, g + 1))
    if kind == "dense":
        return random_closed_nil(rng, n, 0.35), random_cartan(rng, n, g)
    if kind == "sparse":
        return random_closed_nil(rng, n, 1.5 / n), random_cartan(rng, n, g)
    if kind == "roots":
        return random_closed_nil(rng, n, 1.0 / n), random_cartan(rng, n, g, roots=2)
    if kind == "nil":
        return random_closed_nil(rng, n, 0.3), ()
    if kind == "mixed":
        return random_closed_nil(rng, n, 0.3), random_cartan(rng, n, g, roots=1)
    if kind == "cartan":
        return frozenset(), random_cartan(rng, n, g)
    raise ValueError(f"unknown algebra kind {kind!r}")


def _classify_inputs() -> list[dict]:
    return [{"argv": ["classify", "--n", "7", *extra, "--format", "json"]} for extra in CLASSIFY_ARGV]


def _invariant_inputs(rng: random.Random) -> list[dict]:
    pairs = []
    for kind, n, g in INVARIANT_STRATA:
        nil, gens = _draw(rng, kind, n, g)
        sigma = random_linear_extension(rng, n, nil)
        pairs.append([
            {"descriptor": descriptor(n, nil, gens), "dim": len(nil) + g, "nil_dim": len(nil),
             "stratum": f"{kind}-n{n}"},
            {"descriptor": descriptor(n, *relabel(n, nil, gens, sigma)), "dim": len(nil) + g,
             "nil_dim": len(nil), "stratum": f"{kind}-n{n}", "sigma": list(sigma)},
        ])
    rng.shuffle(pairs)
    return [op for pair in pairs for op in pair]


def _independent_partner(rng: random.Random, kind: str, n: int, g: int, nil_dim: int):
    """A fresh draw of the same kind, n and dimension, or None."""
    for _ in range(1000):
        nil, gens = _draw(rng, kind, n, g)
        if len(nil) == nil_dim:
            return nil, gens
    return None


def _decide_inputs(rng: random.Random) -> list[dict]:
    ops = []
    for kind, n, g in DECIDE_STRATA:
        for built_conjugate in (True, False):
            for _ in range(DECIDE_REPEATS):
                while True:
                    nil, gens = _draw(rng, kind, n, g)
                    if built_conjugate:
                        partner = relabel(n, nil, gens, random_linear_extension(rng, n, nil))
                    else:
                        partner = _independent_partner(rng, kind, n, g, len(nil))
                    if partner is not None:
                        break
                ops.append({
                    "a": descriptor(n, nil, gens),
                    "b": descriptor(n, *partner),
                    "conjugate_built": built_conjugate,
                    "stratum": f"{kind}-n{n}",
                })
    rng.shuffle(ops)
    return ops


def workload_inputs(workload: str, seed: int, pass_index: int) -> list[dict]:
    """The operations of one pass, as JSON-ready dicts."""
    rng = rng_for(workload, seed, pass_index)
    if workload == "classify-n7":
        return _classify_inputs()
    if workload == "invariants-large":
        return _invariant_inputs(rng)
    if workload == "decide-stream":
        return _decide_inputs(rng)
    raise ValueError(f"unknown workload {workload!r}")
