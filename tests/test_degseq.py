"""Feasibility, realization, and swap-space connectivity of degree sequences."""

import hashlib
import itertools
import json
import random

import pytest

from loopygraphs.degseq import (
    CONNECTED,
    DISCONNECTED,
    NotLoopyGraphical,
    check_connectivity,
    detect_disconnected,
    is_graphical_with_loops,
    is_loopy_graphical,
    is_simple_graphical,
    max_degree_guarantees_connected,
    max_loop_count,
    parse_degree_sequences,
    realize_loopy_graph,
)
from loopygraphs.graph import is_in_clique_trap, is_in_cycle_trap
from loopygraphs.oracle import generate_sequences, verify_sequence


def naive_simple_graphical(degrees):
    """Direct inequality scan, kept as the reference for the fast version."""
    ds = sorted((int(d) for d in degrees), reverse=True)
    if any(d < 0 for d in ds):
        return False
    n = len(ds)
    if ds and ds[0] > n - 1:
        return False
    if sum(ds) % 2:
        return False
    prefix = 0
    for k in range(1, n + 1):
        prefix += ds[k - 1]
        tail = sum(min(d, k) for d in ds[k:])
        if prefix > k * (k - 1) + tail:
            return False
    return True


def test_simple_graphical_examples():
    assert is_simple_graphical((2, 2, 2))
    assert is_simple_graphical((3, 3, 2, 2))
    assert is_simple_graphical(())
    assert is_simple_graphical((0, 0))
    assert not is_simple_graphical((2, 2, 0))
    assert not is_simple_graphical((4, 4, 3, 1, 1, 1, 0))
    assert not is_simple_graphical((1,))  # odd sum
    assert not is_simple_graphical((3, 1))  # degree above n-1
    assert not is_simple_graphical((-1, 1))


def test_simple_graphical_matches_reference():
    for n in range(0, 6):
        for ds in itertools.product(range(6), repeat=n):
            assert is_simple_graphical(ds) == naive_simple_graphical(ds), ds


def test_graphical_with_loops():
    assert is_graphical_with_loops((4, 4, 2), 2)
    assert not is_graphical_with_loops((4, 4, 2), 3)
    assert is_graphical_with_loops((2, 2, 2), 3)
    assert is_graphical_with_loops((2, 2, 2), 0)
    assert not is_graphical_with_loops((1, 1), 1)  # reduced entry goes negative
    with pytest.raises(ValueError):
        is_graphical_with_loops((2, 2), 3)


def test_max_loop_count_examples():
    assert max_loop_count((4, 4, 2)) == 2
    assert max_loop_count((6, 6, 5, 3, 3, 3, 2)) == 6
    assert max_loop_count((2, 2, 2)) == 3
    assert max_loop_count((5, 3, 3, 3)) == 4
    assert max_loop_count((3, 3, 3, 3)) == 4
    assert max_loop_count((3, 3, 2, 2)) == 4
    assert max_loop_count((1, 1)) == 0
    assert max_loop_count(()) == 0


def plain_max_loop_count(degrees):
    """Scan every loop count from n down, kept as the reference for the
    shortened scan."""
    ds = list(degrees)
    for m in range(len(ds), -1, -1):
        if is_graphical_with_loops(ds, m):
            return m
    raise NotLoopyGraphical(f"no loopy graph realizes {tuple(ds)}")


def test_max_loop_count_matches_plain_scan():
    for k in range(0, 6):
        for ds in itertools.product(range(6), repeat=k):
            try:
                expected = plain_max_loop_count(ds)
            except NotLoopyGraphical:
                with pytest.raises(NotLoopyGraphical):
                    max_loop_count(ds)
            else:
                assert max_loop_count(ds) == expected, ds


def naive_max_loop_count(degrees):
    """Loop counts scanned from the number of entries >= 2 down, each
    decided by the direct inequality scan."""
    ds = sorted(degrees, reverse=True)
    for m in range(sum(d >= 2 for d in ds), -1, -1):
        if naive_simple_graphical([d - 2 for d in ds[:m]] + ds[m:]):
            return m
    raise NotLoopyGraphical(f"no loopy graph realizes {tuple(ds)}")


def test_max_loop_count_matches_naive_scan_far_below_the_loop_ceiling():
    """Seeded sequences of up to 300 vertices whose degree-1 share and hubs
    put m* at least 20 below the number of entries >= 2, so the scan tests
    many loop counts."""
    rng = random.Random(1)
    checked = 0
    while checked < 8:
        n = rng.randint(40, 300)
        ones = int(0.56 * n)
        dmax = n // 5
        ds = [1] * ones + [min(dmax, int(2 * (1.0 - rng.random()) ** (-1 / 1.2)))
                           for _ in range(n - ones)]
        hubs = rng.randint(2, 8)
        ds[-hubs:] = [dmax] * hubs
        if sum(ds) % 2:
            ds[0] += 1
        rng.shuffle(ds)
        try:
            m = max_loop_count(ds)
        except NotLoopyGraphical:
            continue
        if m > sum(d >= 2 for d in ds) - 20:
            continue
        assert m == naive_max_loop_count(ds), ds
        checked += 1


def test_max_loop_count_rejects_infeasible():
    with pytest.raises(NotLoopyGraphical):
        max_loop_count((3, 2))
    with pytest.raises(NotLoopyGraphical):
        max_loop_count((4, 2))
    with pytest.raises(NotLoopyGraphical):
        max_loop_count((1,))


def test_is_loopy_graphical():
    assert is_loopy_graphical((3, 1))
    assert is_loopy_graphical((2,))
    assert not is_loopy_graphical((3, 2))
    assert not is_loopy_graphical((5, 1))


def test_realize_matches_degrees():
    for ds in [(4, 4, 2), (2, 2, 2), (2, 2, 2, 2), (5, 3, 3, 3),
               (6, 3, 3, 3, 3), (3, 3, 2, 2), (6, 6, 5, 3, 3, 3, 2),
               (1, 1), (2,), (4, 4, 3, 3, 2, 2, 2)]:
        g = realize_loopy_graph(ds)
        g.validate()
        assert g.degree_sequence() == tuple(ds)
        assert g.loop_count() == max_loop_count(ds)


def test_realize_puts_loops_on_largest_degrees():
    g = realize_loopy_graph((6, 3, 3, 3, 1, 0))
    looped = set(g.loop_vertices())
    unlooped = set(range(g.n)) - looped
    if looped and unlooped:
        assert min(g.degree(v) for v in looped) >= max(g.degree(v) for v in unlooped)


def test_realize_rejects_infeasible():
    with pytest.raises(NotLoopyGraphical):
        realize_loopy_graph((3, 2))


def test_max_degree_bound():
    assert max_degree_guarantees_connected((4, 4, 3, 3, 2, 2, 2))
    assert max_degree_guarantees_connected((3,) + (2,) * 9)
    assert not max_degree_guarantees_connected((2, 2, 2, 2))  # all twos excluded
    assert not max_degree_guarantees_connected((6, 3, 3, 3, 3))
    assert not max_degree_guarantees_connected((1, 1))
    assert not max_degree_guarantees_connected((0, 0))
    # zeros are ignored when counting vertices
    assert max_degree_guarantees_connected((4, 4, 3, 3, 2, 2, 2, 0, 0))


def test_detect_cycle_family():
    report = detect_disconnected((2, 2, 2, 2))
    assert report.status == DISCONNECTED
    assert report.detail == "cycle"
    assert report.witness.degree_sequence() == (2, 2, 2, 2)
    assert is_in_cycle_trap(report.witness)


def test_detect_clique_family():
    report = detect_disconnected((3, 3, 3, 3))
    assert report.status == DISCONNECTED
    assert report.detail == "clique"
    assert report.witness.degree_sequence() == (3, 3, 3, 3)
    assert is_in_clique_trap(report.witness)


def test_detect_looped_clique():
    report = detect_disconnected((5, 3, 3, 3))
    assert report.status == DISCONNECTED
    assert report.detail == "looped_clique"
    assert report.witness.degree_sequence() == (5, 3, 3, 3)
    assert is_in_cycle_trap(report.witness)


def test_detect_hub_triangle():
    report = detect_disconnected((6, 3, 3, 3, 3))
    assert report.status == DISCONNECTED
    assert report.detail == "hub_triangle"
    assert report.witness.degree_sequence() == (6, 3, 3, 3, 3)
    assert is_in_cycle_trap(report.witness)


def test_detect_witness_respects_input_order():
    # same multiset as the hub case but permuted: witness degrees must follow
    # the caller's vertex order
    report = detect_disconnected((3, 3, 6, 3, 3))
    assert report.status == DISCONNECTED
    assert report.witness.degree_sequence() == (3, 3, 6, 3, 3)


def test_detect_connected_cases():
    assert detect_disconnected((4, 4, 2)).status == CONNECTED
    assert detect_disconnected((3, 3, 2, 2)).status == CONNECTED
    assert detect_disconnected((4, 4, 3, 3, 2, 2, 2)).status == CONNECTED


def _seq_id(ds):
    return ",".join(map(str, ds)) or "empty"


# A peeled vertex wired to a lower-degree vertex of a looped-clique or
# hub-triangle residual leaves a way out; brute force finds one double-swap
# component for each of these.
@pytest.mark.parametrize("ds", [
    (6, 4, 3, 3, 2), (7, 4, 3, 3, 2, 1), (6, 4, 4, 3, 3), (7, 5, 3, 3, 2, 2),
    (7, 4, 4, 3, 3, 1), (7, 4, 4, 3, 2, 2), (7, 4, 3, 3, 3, 2),
    (8, 4, 3, 3, 2, 1, 1), (7, 5, 4, 4, 3, 3),
], ids=_seq_id)
def test_detect_residual_form_with_peeled_escape_is_connected(ds):
    assert detect_disconnected(ds).status == CONNECTED
    assert check_connectivity(ds).status == CONNECTED
    assert verify_sequence(ds, max_sum=sum(ds))["checks"]["e"]


# Peeled vertices wired only to the residual's hubs keep the form stranded.
@pytest.mark.parametrize("ds,detail", [
    ((6, 3, 3, 3, 1), "looped_clique"),
    ((7, 3, 3, 3, 1, 1), "looped_clique"),
    ((8, 3, 3, 3, 1, 1, 1), "looped_clique"),
    ((7, 3, 3, 3, 3, 1), "hub_triangle"),
], ids=lambda p: _seq_id(p) if isinstance(p, tuple) else p)
def test_detect_peeled_stranded_forms(ds, detail):
    report = detect_disconnected(ds)
    assert (report.status, report.detail) == (DISCONNECTED, detail)
    report.witness.validate()
    assert report.witness.degree_sequence() == ds
    assert check_connectivity(ds).witness == report.witness
    assert verify_sequence(ds, max_sum=sum(ds))["checks"]["e"]


@pytest.mark.parametrize("ds", [
    (2, 2, 2, 2), (5, 3, 3, 3), (6, 3, 3, 3, 3), (4, 4, 3, 3, 2, 2, 2),
    (3, 3, 2, 2), (1, 1), (2, 0), (), (6, 4, 3, 3, 2),
], ids=_seq_id)
def test_reports_carry_m_star(ds):
    assert check_connectivity(ds).m_star == max_loop_count(ds)
    assert detect_disconnected(ds).m_star == max_loop_count(ds)


def test_degseq_decides_without_is_loopy_graphical(monkeypatch):
    import loopygraphs.degseq as degseq

    def forbidden(_):
        raise AssertionError("is_loopy_graphical called")

    monkeypatch.setattr(degseq, "is_loopy_graphical", forbidden)
    for ds in [(2, 2, 2, 2), (4, 4, 3, 3, 2, 2, 2), (6, 3, 3, 3, 1), (1, 1)]:
        degseq.check_connectivity(ds)
        degseq.detect_disconnected(ds)
    with pytest.raises(NotLoopyGraphical):
        degseq.check_connectivity((3,) + (2,) * 8)


# Which equal-degree vertex the peel rewires, and where it sits in the
# residual, decides the printed witness: ties go by (-degree, index).
@pytest.mark.parametrize("ds,detail,edges", [
    ((3, 3, 3, 1, 3, 7), "hub_triangle",
     [(0, 0), (0, 5), (1, 2), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5), (4, 5), (5, 5)]),
    ((3, 3, 1, 8, 3, 3, 1), "hub_triangle",
     [(0, 0), (0, 3), (1, 3), (1, 4), (1, 5), (2, 3), (3, 3), (3, 4), (3, 5), (3, 6), (4, 5)]),
    ((1, 1, 3, 3, 3, 3, 9, 1), "hub_triangle",
     [(0, 6), (1, 6), (2, 2), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6), (6, 6),
      (6, 7)]),
    ((3, 9, 3, 3, 3, 3, 3, 1), "hub_triangle",
     [(0, 0), (0, 1), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 2), (3, 3),
      (4, 5), (4, 6), (5, 6)]),
    ((7, 4, 1, 1, 4, 4, 8, 1), "looped_clique",
     [(0, 0), (0, 1), (0, 3), (0, 4), (0, 5), (0, 6), (1, 4), (1, 5), (1, 6), (2, 6), (4, 5),
      (4, 6), (5, 6), (6, 6), (6, 7)]),
    ((5, 5, 1, 1, 9, 8, 5, 1, 5), "looped_clique",
     [(0, 1), (0, 4), (0, 5), (0, 6), (0, 8), (1, 4), (1, 5), (1, 6), (1, 8), (2, 5), (3, 4),
      (4, 4), (4, 5), (4, 6), (4, 7), (4, 8), (5, 5), (5, 6), (5, 8), (6, 8)]),
], ids=lambda p: _seq_id(p) if isinstance(p, tuple) else None)
def test_detect_witness_follows_tie_order(ds, detail, edges):
    report = detect_disconnected(ds)
    assert (report.status, report.detail) == (DISCONNECTED, detail)
    assert sorted(report.witness.edges) == edges


def _pinned_sequences():
    """Every small sequence in sorted order and shuffled with a zero added,
    plus about 30 large ones from a fixed seed: heavy-tailed past the degree
    bound with many degree-1 entries, near-regular, and the four named forms
    at a few sizes, and 300 small two-valued forms with pendant vertices,
    all shuffled."""
    rng = random.Random(6061)
    small = [list(s) for s in generate_sequences(26) if len(s) <= 8]
    seqs = small + [rng.sample(s + [0], len(s) + 1) for s in small]
    for n in (200, 300, 500, 700, 900, 1100, 1300, 1500):
        while True:
            ones = [1] * (n * 56 // 100)
            rest = [min(n // 5, int(2 * (1.0 - rng.random()) ** (-1 / 1.2)))
                    for _ in range(n - len(ones))]
            ds = ones + rest
            ds[-1] += sum(ds) % 2
            rng.shuffle(ds)
            if not max_degree_guarantees_connected(ds) and is_loopy_graphical(ds):
                seqs.append(ds)
                break
    for d, n in ((80, 1500), (40, 600), (9, 200)):
        seqs.append([d] * n)
        jitter = [d + rng.choice((-1, 0, 1)) for _ in range(n)]
        jitter[0] += sum(jitter) % 2
        seqs.append(jitter)
    forms = [[2] * n for n in (3, 40, 300)]
    forms += [[n - 1] * n for n in (4, 9, 25)]
    forms += [[nt + 1] * nb + [nt - 1] * (nt - nb) for nt, nb in ((4, 1), (9, 4), (16, 13))]
    forms += [[nb + na + 1] * nb + [nb + 2] * na for nb, na in ((1, 4), (3, 7), (6, 12))]
    # forms with pendant vertices wired to random members, and zeros: which
    # equal-degree vertex is peeled or rewired shows in these witnesses
    for _ in range(300):
        nt = rng.randint(4, 12)
        nb = rng.randint(1, nt - 3)
        if rng.random() < 0.5:  # a clique on nt vertices, nb of them looped
            ds = [nt + 1] * nb + [nt - 1] * (nt - nb)
        else:  # nb looped hubs over nt - nb others
            ds = [nt + 1] * nb + [nb + 2] * (nt - nb)
        for _ in range(rng.randint(0, 4)):
            ds[rng.randrange(len(ds))] += 1
            ds.append(1)
        forms.append(ds + [0] * rng.randint(0, 2))
    for ds in forms:
        rng.shuffle(ds)
    return seqs + [ds for ds in forms if is_loopy_graphical(ds)]


def test_detect_output_is_pinned():
    """Verdicts and witnesses of the peel, pinned by a digest recorded from
    the sort-per-step peel that the degree-bucket peel replaced."""
    rows = []
    for ds in _pinned_sequences():
        r = detect_disconnected(ds)
        edges = sorted(r.witness.edges) if r.witness is not None else None
        rows.append([ds, r.status, r.method, r.detail, r.m_star, edges])
    digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    assert digest == "4a4201bb7127d9a3c32939e4c19dc6a2df3acf8af58c2d0db3a2e8f40ddd77ca"


def test_detect_degenerate_cases():
    report = detect_disconnected((1, 1))
    assert report.status == CONNECTED
    assert report.method == "degenerate"
    assert detect_disconnected((2,)).status == CONNECTED
    assert detect_disconnected((2, 0)).status == CONNECTED


def test_detect_rejects_infeasible():
    with pytest.raises(NotLoopyGraphical):
        detect_disconnected((3, 2))


def test_check_connectivity_uses_bound_first():
    report = check_connectivity((4, 4, 3, 3, 2, 2, 2))
    assert report.status == CONNECTED
    assert report.method == "max_degree_bound"
    report = check_connectivity((2, 2, 2))
    assert report.status == DISCONNECTED
    assert report.method == "peeling"


def test_check_connectivity_guards_graphicality():
    # small max degree over many vertices satisfies the bound, but the odd
    # sum means nothing realizes it
    with pytest.raises(NotLoopyGraphical):
        check_connectivity((3,) + (2,) * 8)


def test_parse_degree_sequences():
    text = "# header\n5,3,3,3\n2 2 2  # trailing note\n\n"
    assert parse_degree_sequences(text) == [(5, 3, 3, 3), (2, 2, 2)]
    with pytest.raises(ValueError, match="line 2"):
        parse_degree_sequences("1 1\n2 x\n")
