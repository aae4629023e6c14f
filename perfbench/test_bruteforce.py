"""Tests of the benchmark's reference computations against counts fixed by
theory; run with ``python3 -m pytest perfbench``."""

import random

import pytest

import bruteforce as bf


@pytest.mark.parametrize("ds, count", [((2, 2, 2), 2), ((2, 2, 2, 2), 8)])
def test_small_spaces_have_known_counts(ds, count):
    assert len(bf.realizations(ds)) == count


@pytest.mark.parametrize("k", range(1, 6))
def test_all_ones_count_perfect_matchings(k):
    # degree-1 vertices carry no loop, so realizations are perfect matchings
    assert len(bf.realizations((1,) * (2 * k))) == bf.double_factorial(2 * k - 1)


def test_realizations_are_distinct_and_realize_the_sequence():
    ds = (3, 3, 2, 2, 1, 1)
    slots = bf.Slots(len(ds))
    graphs = bf.realizations(ds)
    assert len(set(graphs)) == len(graphs)
    for mask in graphs:
        deg = [0] * len(ds)
        for u, v in slots.edges(mask):
            deg[u] += 1
            deg[v] += 1
        assert tuple(deg) == ds


@pytest.mark.parametrize("ds", [
    (2, 2, 2),            # the loop-free triangle is stranded from the three loops
    (2, 2, 2, 2, 2),      # cycle
    (3, 3, 3, 3),         # clique
    (5, 3, 3, 3),         # looped_clique: K4 with a loop on one vertex
    (6, 3, 3, 3, 3),      # hub_triangle: one looped hub, a triangle, a looped vertex
])
def test_detector_forms_are_disconnected(ds):
    assert bf.double_swap_components(ds) > 1


@pytest.mark.parametrize("ds", [
    (6, 4, 3, 3, 2), (7, 4, 3, 3, 2, 1), (6, 4, 4, 3, 3), (7, 5, 3, 3, 2, 2),
    (7, 4, 4, 3, 3, 1), (7, 4, 4, 3, 2, 2), (7, 4, 3, 3, 3, 2),
])
def test_sequences_reported_disconnected_are_connected(ds):
    assert bf.double_swap_components(ds) == 1


def test_swaps_connect_a_plain_space():
    assert bf.double_swap_components((3, 3, 2, 2)) == 1


def test_max_loops_agree_with_enumeration():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 6)
        ds = [rng.randint(0, 5) for _ in range(n)]
        slots = bf.Slots(n)
        graphs = bf.realizations(ds)
        most = max((sum(u == v for u, v in slots.edges(g)) for g in graphs), default=None)
        feasible = [m for m in range(n + 1) if bf.loops_feasible(ds, m)]
        assert bf.loopy_graphical(ds) == bool(graphs)
        assert (max(feasible) if feasible else None) == most


def test_erdos_gallai_on_known_sequences():
    assert bf.simple_graphical([3, 3, 3, 3])
    assert not bf.simple_graphical([3, 3, 1, 1])
    assert not bf.simple_graphical([4, 1, 1, 1])
    assert bf.simple_graphical([])
    assert not bf.simple_graphical([1])


def test_stored_reference_matches_a_fresh_computation():
    ref = bf.load_reference()
    for ds in bf.sweep_sequences(8):
        key = ",".join(map(str, ds))
        assert ref["sweep"][key] == {"graphs": len(bf.realizations(ds)),
                                     "components": bf.double_swap_components(ds)}
    assert len(ref["sweep"]) == len(bf.sweep_sequences(bf.SWEEP_MAX_SUM))
    assert sorted(ref["small_check"]) == sorted(
        ",".join(map(str, s)) for s in bf.small_check_sequences())
    assert len(ref["small_check"]) == 363
