"""Acceptance gate: the ten checks this artifact must pass, one test each.

Each test is a full criterion at its stated tolerance and time budget; the
per-test PASSED/FAILED line from ``pytest -v`` is the per-criterion
verdict.  Tests also print the measured quantities, which pytest shows for
any failing criterion.
"""

import math
import random
import time
from itertools import combinations

import pytest

from spantree import (
    Graph,
    PartClass,
    alpha_exact,
    certify_distinct,
    check_lhospital,
    complete,
    count_partitions,
    count_partitions_up_to,
    enumerate_partitions,
    exact_atlas,
    flower,
    hardy_ramanujan,
    p_set_size,
    scaled_central_derivative,
    sedlacek_bound,
    tau,
    tau_bruteforce,
    verify_lower_bound,
    witness_family,
)

from oracles import (
    ATLAS_3,
    ATLAS_4,
    is_connected,
    random_multigraph,
    random_odd_prime_partition,
)


@pytest.fixture(scope="module")
def atlases():
    """Exhaustive atlases for n = 1..7, shared by 5/6/7."""
    return {n: exact_atlas(n) for n in range(1, 8)}


def test_criterion_01_determinant_equals_brute_force():
    start = time.perf_counter()
    pairs = list(combinations(range(5), 2))
    for mask in range(1 << 10):
        g = Graph(5, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))
        assert tau(g) == tau_bruteforce(g)
    rng = random.Random(1001)
    for _ in range(200):
        g = random_multigraph(rng, max_vertices=6, max_edges=8, max_mult=3)
        assert g.n_edges <= 8
        assert tau(g) == tau_bruteforce(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 01: 1024 five-vertex graphs + 200 multigraphs in {elapsed:.1f}s")


def test_criterion_02_cayley_formula():
    for n in range(3, 13):
        assert tau(complete(n)) == n ** (n - 2)
    print("criterion 02: tau(K_n) = n^(n-2) for n = 3..12")


def test_criterion_03_flower_product_formula():
    rng = random.Random(2024)
    for _ in range(100):
        parts = random_odd_prime_partition(rng, 60)
        g = flower(parts)
        product = math.prod(parts)
        assert tau(g) == product
        assert g.n_vertices == sum(parts) - len(parts) + 1
    print("criterion 03: 100 random flowers, count = product of parts")


def test_criterion_04_witness_family_structure():
    start = time.perf_counter()
    total = 0
    for n in range(3, 61):
        ws = list(witness_family(n))
        total += len(ws)
        assert len(ws) == p_set_size(n)
        assert all(w.graph.n_vertices == n for w in ws)
        assert all(is_connected(w.graph) for w in ws)
        assert certify_distinct(ws).ok
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 04: {total} witnesses over n <= 60 in {elapsed:.1f}s")


def test_criterion_05_atlas_ground_truth(atlases):
    assert set(atlases[1].values) == {1}
    assert set(atlases[3].values) == ATLAS_3
    assert set(atlases[4].values) == ATLAS_4
    assert [atlases[n].size for n in range(1, 8)] == [1, 1, 2, 5, 16, 65, 386]
    assert atlases[7].elapsed < 60.0
    print(f"criterion 05: atlases exact; n=7 in {atlases[7].elapsed:.1f}s")


def test_criterion_06_atlas_dominates_witnesses(atlases):
    for n in range(1, 8):
        report = verify_lower_bound(atlases[n])
        assert report.size_ok, f"n={n}: {report.atlas_size} < {report.partition_count}"
        assert report.covered, f"n={n}: missing {report.missing}"
    print("criterion 06: |A_n| >= |P_n| and witness counts all in A_n, n <= 7")


def test_criterion_07_alpha_bounds(atlases):
    nine = alpha_exact(9, atlases)
    assert (nine.alpha, nine.status) == (5, "exact")
    assert sedlacek_bound(9) == 5
    covered = 0
    for m in sorted(set().union(*(set(r.values) for r in atlases.values()))):
        record = alpha_exact(m, atlases)
        assert record.status == "exact"
        if m > 6 and m % 3 in (0, 2):
            assert record.alpha <= sedlacek_bound(m), f"m={m}"
            covered += 1
    assert covered > 100
    print(f"criterion 07: alpha(9)=5 and {covered} realizable m within the bound")


def test_criterion_08_hardy_ramanujan_band():
    table = count_partitions_up_to(500, PartClass.ALL)
    ratios = {n: table[n] / hardy_ramanujan(n).value for n in (50, 100, 200, 500)}
    for n, ratio in ratios.items():
        assert 0.90 <= ratio <= 1.00, f"n={n}: {ratio}"
    assert ratios[500] > ratios[50]
    print(
        "criterion 08: exact/estimate "
        + ", ".join(f"{n}:{ratios[n]:.4f}" for n in sorted(ratios))
    )


def test_criterion_09_derivative_consistency():
    for x, h in ((10**3, 1.0), (10**6, 1000.0)):
        assert abs(scaled_central_derivative(math.log, float(x), h) - 1.0) <= 1e-6
    report = check_lhospital([10**3, 10**6])
    (_, r_small), (_, r_large) = report.rows
    assert 0.88 <= r_large <= 1.05
    assert abs(r_large - 1.0) < abs(r_small - 1.0)
    print(f"criterion 09: r(1e3)={r_small:.4f}, r(1e6)={r_large:.4f}")


def test_criterion_10_partition_engine():
    for part_class in PartClass:
        for n in range(41):
            assert count_partitions(n, part_class) == sum(
                1 for _ in enumerate_partitions(n, part_class)
            )
    for n in (1, 2, 4):
        assert count_partitions(n, PartClass.ODD_PRIME) == 0
    assert p_set_size(10) == 8
    start = time.perf_counter()
    table = count_partitions_up_to(10_000, PartClass.ALL)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert table[100] == 190569292
    assert table[10_000] > 10**100  # arbitrary precision in action
    print(f"criterion 10: counts match enumeration; p(1e4) in {elapsed:.1f}s")
