"""Workload definitions and seeded input generation.

This module never imports ``repro``: the runner uses it to regenerate
every input pair for its own correctness checks, so the expected
answers are computed apart from the program under test.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

Bits = Tuple[int, ...]
Pair = Tuple[Bits, Bits]

WORKLOADS = ("paper", "grid-k2", "sampled-k4")

#: the 22 ``repro experiments`` rows, in the order the CLI prints them
PAPER_IDS = (
    "E-C5.10-C5.11-nondeterminism",
    "E-C5.4-C5.9-protocol-limits",
    "E-F1-T2.1-mds",
    "E-F2-T2.2-hamiltonian-path",
    "E-F3-T2.8-maxcut",
    "E-F4-T3.1-bounded-degree-maxis",
    "E-F5-T4.3-T4.1-approx-maxis",
    "E-F6-T4.4-T4.5-kmds",
    "E-F7-T4.6-T4.7-steiner-approx",
    "E-L2.2-split-simulation",
    "E-T1.1-simulation",
    "E-T2.3-T2.4-hamiltonian-variants",
    "E-T2.5-two-ecss",
    "E-T2.7-steiner",
    "E-T2.9-congest-maxcut",
    "E-T3.3-T3.4-bounded-degree-reductions",
    "E-T4.2-linear-maxis",
    "E-T4.8-restricted-mds",
    "E-T5.1-pls-compiler",
    "E-base-mvc",
    "E-congest-local-separation",
    "E-universal-upper-bound",
)

#: grid-k2: (CLI family name, k, k_bits) swept over the full grid
GRID_K2 = (
    ("mds", 2, 4),
    ("kmds", 2, 6),
    ("maxcut", 2, 4),
    ("hamiltonian-path", 2, 4),
    ("hamiltonian-cycle", 2, 4),
    ("mvc", 2, 4),
    ("steiner", 2, 4),
    ("directed-steiner", 2, 6),
)

#: sampled-k4: (CLI family name, k, k_bits, random pairs, boundary pairs)
SAMPLED_K4 = (
    ("mds", 4, 16, 16, 16),
    ("mvc", 4, 16, 64, 64),
    ("steiner", 4, 16, 64, 64),
    ("approx-maxis", 4, 16, 64, 64),
    ("approx-maxis-linear", 4, 4, 32, 32),
)

#: the named fault: every max-cut pair at k=4 fails (the batch kernel
#: asks for a 2^18 x 2^18 float64 matrix).  Its pairs come from a fixed
#: seed so the failed share of a run never depends on ``--seed``.
MAXCUT_K4 = ("maxcut", 4, 16, 8)
MAXCUT_K4_SEED = 4

#: fan-out width of sampled-k4 (the only workload that fans out)
SAMPLED_JOBS = 2


def disjoint(x: Sequence[int], y: Sequence[int]) -> bool:
    """DISJ(x, y), computed here rather than through ``repro.cc``."""
    return not any(a and b for a, b in zip(x, y))


def _grid(k_bits: int) -> List[Pair]:
    bits = [tuple((i >> (k_bits - 1 - j)) & 1 for j in range(k_bits))
            for i in range(1 << k_bits)]
    return [(x, y) for x in bits for y in bits]


def _random_pair(rng: random.Random, k_bits: int) -> Pair:
    return (tuple(rng.randint(0, 1) for _ in range(k_bits)),
            tuple(rng.randint(0, 1) for _ in range(k_bits)))


def _boundary_pair(rng: random.Random, k_bits: int, overlap: int) -> Pair:
    """A gap-DISJ boundary pair: |x AND y| == overlap (0 or 1)."""
    x = [0] * k_bits
    y = [0] * k_bits
    for i in range(k_bits):
        side = rng.randrange(3)  # x only, y only, neither
        if side == 0:
            x[i] = 1
        elif side == 1:
            y[i] = 1
    if overlap:
        i = rng.randrange(k_bits)
        x[i] = y[i] = 1
    return tuple(x), tuple(y)


def _distinct(rng: random.Random, count: int, make, taken: set) -> List[Pair]:
    out: List[Pair] = []
    while len(out) < count:
        pair = make(rng)
        if pair not in taken:
            taken.add(pair)
            out.append(pair)
    return out


def sampled_pairs(seed: int, name: str, k_bits: int, n_random: int,
                  n_boundary: int) -> List[Pair]:
    """Distinct seeded pairs: ``n_random`` uniform pairs, then
    ``n_boundary`` boundary pairs alternating |x AND y| = 0 and 1."""
    rng = random.Random(f"perfbench:{seed}:{name}")
    taken: set = set()
    pairs = _distinct(rng, n_random, lambda r: _random_pair(r, k_bits), taken)
    for i in range(n_boundary):
        pairs += _distinct(rng, 1,
                           lambda r: _boundary_pair(r, k_bits, i % 2), taken)
    return pairs


def family_inputs(workload: str, seed: int) -> List[Tuple[str, int, List[Pair]]]:
    """``[(family name, k, pairs)]`` for a sweep workload, in sweep order.

    grid-k2 sweeps every pair of each family's full grid; the seed only
    shuffles the order in which pairs are submitted.
    """
    if workload == "grid-k2":
        rng = random.Random(f"perfbench:{seed}:grid-k2")
        out = []
        for name, k, k_bits in GRID_K2:
            pairs = _grid(k_bits)
            rng.shuffle(pairs)
            out.append((name, k, pairs))
        return out
    if workload == "sampled-k4":
        out = [(name, k, sampled_pairs(seed, name, k_bits, n_rand, n_bound))
               for name, k, k_bits, n_rand, n_bound in SAMPLED_K4]
        name, k, k_bits, count = MAXCUT_K4
        out.append((name, k, sampled_pairs(MAXCUT_K4_SEED, name, k_bits,
                                           count // 2, count - count // 2)))
        return out
    raise ValueError(f"{workload!r} is not a sweep workload")


def expected_failures(workload: str) -> Dict[str, str]:
    """Families whose every pair is expected to fail, with the error."""
    if workload == "sampled-k4":
        return {MAXCUT_K4[0]: "MemoryError"}
    return {}
