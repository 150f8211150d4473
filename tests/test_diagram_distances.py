import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdist import (
    DIAGONAL,
    EmptySet,
    NegativeValue,
    bottleneck,
    bottleneck_value,
    bouquet,
    hausdorff_bottleneck,
    persistence_distortion,
    random_metric_graph,
    sample_phi,
    yaxis_bottleneck,
)
from graphdist import diagram_distances
from graphdist.diagram_distances import (
    _ARRAY_MIN_COSTS,
    Ground,
    L1Ground,
    LinfGround,
    _bottleneck_value,
    _pair_bounds,
    max_matching,
    resolve_ground,
)

from oracles import (
    _bound_matrix,
    _point_bound_matrix,
    _upper_bound_matrix,
    brute_bottleneck,
    brute_bottleneck_enum,
    kuhn_bottleneck_value,
    pruned_hausdorff,
)


def random_diagram(rng, max_points=5, max_value=10.0):
    pts = []
    for _ in range(rng.randint(0, max_points)):
        b = rng.uniform(0, max_value)
        d = b + rng.uniform(0, max_value)
        pts.append((b, d))
    return pts


def exp_diagram(rng, n):
    """n points with births U(0, 10) and persistence Exp(mean 2)."""
    births = [rng.uniform(0, 10) for _ in range(n)]
    return [(b, b + rng.expovariate(0.5)) for b in births]


def random_yaxis(rng, max_points=6, max_value=10.0):
    return [(0.0, rng.uniform(0, max_value)) for _ in range(rng.randint(0, max_points))]


# ----------------------------------------------------------------- bottleneck


def test_identical_diagrams_have_zero_distance():
    d = [(0.0, 1.0), (2.0, 5.0)]
    value, matching = bottleneck(d, d, "l1")
    assert value == 0.0
    assert all(left == right for left, right in matching.pairs)


def test_single_point_to_empty_goes_diagonal():
    value, matching = bottleneck([(0.0, 5.0)], [], "l1")
    assert value == 5.0
    assert matching.pairs == (((0.0, 5.0), DIAGONAL),)


def test_two_point_example():
    value, _ = bottleneck([(0, 1), (0, 3)], [(0, 2), (0, 5)], "l1")
    assert value == 2.0


def test_matching_structure_is_consistent():
    rng = random.Random(0)
    for _ in range(30):
        d1, d2 = random_diagram(rng), random_diagram(rng)
        value, matching = bottleneck(d1, d2, "l1")
        gr = L1Ground()
        lefts = [l for l, r in matching.pairs if l is not DIAGONAL]
        rights = [r for l, r in matching.pairs if r is not DIAGONAL]
        assert sorted(lefts) == sorted(d1)
        assert sorted(rights) == sorted(d2)
        worst = 0.0
        for l, r in matching.pairs:
            if l is DIAGONAL:
                worst = max(worst, gr.to_diagonal(r))
            elif r is DIAGONAL:
                worst = max(worst, gr.to_diagonal(l))
            else:
                worst = max(worst, gr.dist(l, r))
        assert worst == pytest.approx(value, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**9), ground=st.sampled_from(["l1", "linf"]))
def test_bottleneck_matches_bruteforce(seed, ground):
    rng = random.Random(seed)
    d1, d2 = random_diagram(rng, 4), random_diagram(rng, 4)
    assert bottleneck_value(d1, d2, ground) == pytest.approx(
        brute_bottleneck(d1, d2, ground), abs=1e-12
    )


def test_bruteforce_oracles_agree_on_tiny_diagrams():
    rng = random.Random(123)
    for _ in range(40):
        d1, d2 = random_diagram(rng, 3), random_diagram(rng, 3)
        assert brute_bottleneck(d1, d2, "l1") == pytest.approx(
            brute_bottleneck_enum(d1, d2, "l1"), abs=1e-12
        )


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_bottleneck_metric_properties(seed):
    rng = random.Random(seed)
    a, b, c = (random_diagram(rng, 3) for _ in range(3))
    dab = bottleneck_value(a, b, "l1")
    dba = bottleneck_value(b, a, "l1")
    dac = bottleneck_value(a, c, "l1")
    dbc = bottleneck_value(b, c, "l1")
    assert dab == pytest.approx(dba, abs=1e-12)
    assert dac <= dab + dbc + 1e-9
    assert bottleneck_value(a, a, "l1") == 0.0


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_ground_metric_sandwich(seed):
    rng = random.Random(seed)
    d1, d2 = random_diagram(rng, 4), random_diagram(rng, 4)
    v1 = bottleneck_value(d1, d2, "l1")
    vinf = bottleneck_value(d1, d2, "linf")
    assert vinf <= v1 + 1e-12
    assert v1 <= 2.0 * vinf + 1e-12


def matching_cost(matching, ground):
    gr = resolve_ground(ground)
    return max(
        (
            gr.to_diagonal(r) if l is DIAGONAL
            else gr.to_diagonal(l) if r is DIAGONAL
            else gr.dist(l, r)
            for l, r in matching.pairs
        ),
        default=0.0,
    )


def test_bottleneck_bit_equal_to_recursive_kuhn_path():
    rng = random.Random(2024)
    sizes = [(0, 0), (0, 7), (9, 0), (1, 1), (150, 150), (140, 3), (60, 90)]
    sizes += [(rng.randint(0, 40), rng.randint(0, 40)) for _ in range(8)]
    for n1, n2 in sizes:
        d1, d2 = exp_diagram(rng, n1), exp_diagram(rng, n2)
        for ground in ("l1", "linf", DeathGapGround()):
            value, matching = bottleneck(d1, d2, ground)
            assert value == kuhn_bottleneck_value(d1, d2, ground)
            assert bottleneck_value(d1, d2, ground) == value
            lefts = [l for l, _ in matching.pairs if l is not DIAGONAL]
            rights = [r for _, r in matching.pairs if r is not DIAGONAL]
            assert sorted(lefts) == sorted(d1)
            assert sorted(rights) == sorted(d2)
            assert matching_cost(matching, ground) == value == matching.cost


def test_bottleneck_600_points_is_certified():
    # 600 points per side once overflowed the recursive augmenting search
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    rng = np.random.default_rng(600)
    a, b = [], []
    for diagram in (a, b):
        birth = rng.uniform(0.0, 10.0, 600)
        diagram.extend(zip(birth, birth + rng.exponential(2.0, 600)))
    a, b = np.array(a), np.array(b)
    d1 = [(float(x), float(y)) for x, y in a]
    d2 = [(float(x), float(y)) for x, y in b]
    value, matching = bottleneck(d1, d2, "l1")
    assert sorted(l for l, _ in matching.pairs if l is not DIAGONAL) == sorted(d1)
    assert sorted(r for _, r in matching.pairs if r is not DIAGONAL) == sorted(d2)
    assert matching_cost(matching, "l1") == value

    # no perfect matching exists at the next-lower candidate threshold
    cross = np.abs(a[:, None, 0] - b[None, :, 0]) + np.abs(a[:, None, 1] - b[None, :, 1])
    da, db = a[:, 1] - a[:, 0], b[:, 1] - b[:, 0]
    ordered = np.unique(np.concatenate([cross.ravel(), da, db, [0.0]]))
    k = int(np.searchsorted(ordered, value))
    assert ordered[k] == value and k > 0
    lam, n = ordered[k - 1], 600
    doubled = np.zeros((2 * n, 2 * n), dtype=bool)
    doubled[:n, :n] = cross <= lam
    doubled[np.arange(n), n + np.arange(n)] = da <= lam
    doubled[n + np.arange(n), np.arange(n)] = db <= lam
    doubled[n:, n:] = True
    match = maximum_bipartite_matching(csr_matrix(doubled), perm_type="column")
    assert (match >= 0).sum() < 2 * n


def test_bottleneck_600_points_peak_memory():
    # a cost matrix of Python floats, or every edge of a probe turned into new
    # ints at once, takes the peak past 20 MB on this pair
    rng = np.random.default_rng(600)
    a, b = [], []
    for diagram in (a, b):
        birth = rng.uniform(0.0, 10.0, 600)
        diagram.extend((float(x), float(y)) for x, y in zip(birth, birth + rng.exponential(2.0, 600)))
    tracemalloc.start()
    try:
        bottleneck(a, b, "l1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 15e6


_BELOW, _NAN, _INF = [(2.0, 1.0)], [(0.0, math.nan)], [(0.0, math.inf)]


@pytest.mark.parametrize(
    "call, point",
    [
        (lambda: bottleneck_value(_BELOW, []), "(2.0, 1.0)"),
        (lambda: bottleneck_value(_BELOW, [], "linf"), "(2.0, 1.0)"),
        (lambda: bottleneck(_BELOW, []), "(2.0, 1.0)"),
        (lambda: bottleneck_value(_NAN, [(0.0, 1.0)]), "(0.0, nan)"),
        (lambda: bottleneck([(0.0, 1.0)], _NAN), "(0.0, nan)"),
        (lambda: bottleneck_value(_INF, _INF), "(0.0, inf)"),
        (lambda: bottleneck(_INF, _INF), "(0.0, inf)"),
        (lambda: hausdorff_bottleneck([[(0.0, 1.0)], _INF], [[(0.0, 1.0)]]), "(0.0, inf)"),
        (lambda: hausdorff_bottleneck([[(0.0, 1.0)]], [[(0.0, 1.0)], _INF]), "(0.0, inf)"),
        (lambda: hausdorff_bottleneck([_BELOW], [[(0.0, 1.0)]], "linf"), "(2.0, 1.0)"),
        (lambda: yaxis_bottleneck([math.nan], [1.0]), "nan"),
        (lambda: yaxis_bottleneck([1.0], [math.inf]), "inf"),
        (lambda: bottleneck_value([(0.0, 1.0)], [], None), "unknown ground metric None"),
        (lambda: bottleneck_value([(0.0, 1.0)], [], 3), "unknown ground metric 3"),
        (lambda: bottleneck_value([(0.0, 1.0)], [], "l2"), "unknown ground metric 'l2'"),
        (lambda: bottleneck([(0.0, 1.0)], [], None), "unknown ground metric None"),
        (lambda: bottleneck([(0.0, 1.0)], [], 3), "unknown ground metric 3"),
        (lambda: hausdorff_bottleneck([[(0.0, 1.0)]], [[(0.0, 2.0)]], None), "unknown ground metric None"),
        (lambda: hausdorff_bottleneck([[(0.0, 1.0)]], [[(0.0, 2.0)]], 3), "unknown ground metric 3"),
    ],
    ids=[
        "value-below", "value-below-linf", "matching-below", "value-nan", "matching-nan",
        "value-inf", "matching-inf", "hausdorff-inf-left", "hausdorff-inf-right",
        "hausdorff-below", "yaxis-nan", "yaxis-inf", "value-ground-none",
        "value-ground-int", "value-ground-l2", "matching-ground-none", "matching-ground-int",
        "hausdorff-ground-none", "hausdorff-ground-int",
    ],
)
def test_malformed_diagrams_raise_value_error(call, point):
    # a diagram point must be finite with birth <= death and a y-axis value
    # finite; the error names the first that is not. A ground must be a Ground
    # or the name of one.
    with pytest.raises(ValueError, match=re.escape(point)):
        call()


# --------------------------------------------------------------------- y-axis


def test_yaxis_examples():
    assert yaxis_bottleneck([1, 3], [1, 3]) == 0.0
    assert yaxis_bottleneck([1, 3], [2, 5]) == 2.0
    assert yaxis_bottleneck([5], []) == 5.0
    assert yaxis_bottleneck([], []) == 0.0
    with pytest.raises(NegativeValue):
        yaxis_bottleneck([-1.0], [])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_yaxis_equals_general_bottleneck(seed):
    rng = random.Random(seed)
    a = [rng.uniform(0, 10) for _ in range(rng.randint(0, 8))]
    b = [rng.uniform(0, 10) for _ in range(rng.randint(0, 8))]
    d1 = [(0.0, x) for x in a]
    d2 = [(0.0, x) for x in b]
    assert yaxis_bottleneck(a, b) == pytest.approx(
        bottleneck_value(d1, d2, "l1"), abs=1e-12
    )


def test_yaxis_equals_enumeration_small():
    rng = random.Random(77)
    for _ in range(50):
        a = [rng.uniform(0, 10) for _ in range(rng.randint(0, 3))]
        b = [rng.uniform(0, 10) for _ in range(rng.randint(0, 3))]
        assert yaxis_bottleneck(a, b) == pytest.approx(
            brute_bottleneck_enum([(0.0, x) for x in a], [(0.0, x) for x in b], "l1"),
            abs=1e-12,
        )


# ------------------------------------------------------------------ hausdorff


def test_hausdorff_identical_sets():
    s = [[(0.0, 1.0)], [(0.0, 3.0)]]
    assert hausdorff_bottleneck(s, s, "l1") == 0.0


def test_hausdorff_singletons_reduce_to_bottleneck():
    d1, d2 = [(0.0, 1.0)], [(1.0, 4.0)]
    assert hausdorff_bottleneck([d1], [d2], "l1") == pytest.approx(
        bottleneck_value(d1, d2, "l1")
    )


def test_hausdorff_directed_asymmetry_example():
    s1 = [[(0.0, 1.0)]]
    s2 = [[(0.0, 1.0)], [(0.0, 3.0)]]
    assert hausdorff_bottleneck(s1, s2, "l1") == 2.0


def test_hausdorff_rejects_empty_sets():
    with pytest.raises(EmptySet):
        hausdorff_bottleneck([], [[(0.0, 1.0)]], "l1")


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_hausdorff_pruned_equals_plain(seed):
    # the pruning must never change the value; both sides take the same
    # candidate costs, so the match is exact
    rng = random.Random(seed)
    s1 = [random_diagram(rng, 3) for _ in range(rng.randint(1, 5))]
    s2 = [random_diagram(rng, 3) for _ in range(rng.randint(1, 5))]
    fast = hausdorff_bottleneck(s1, s2, "l1")
    plain = max(
        max(min(brute_bottleneck(a, b, "l1") for b in s2) for a in s1),
        max(min(brute_bottleneck(a, b, "l1") for a in s1) for b in s2),
    )
    assert fast == plain


def _phi_sets(graphs, delta):
    return [[d.pairs() for d in sample_phi(g, delta).diagrams()] for g in graphs]


def test_hausdorff_bit_equal_to_pruned_full_bottleneck_path():
    cases = []
    for seed in range(4):
        # generic lengths, then all lengths equal (many geodesic ties)
        generic = [random_metric_graph(5, 8, (1.0, 2.0), seed=10 * seed + k, generic_epsilon=1e-3)
                   for k in (1, 2)]
        ties = [random_metric_graph(5, 8, (1.0, 1.0), seed=10 * seed + k) for k in (3, 4)]
        cases += [_phi_sets(generic, 0.6), _phi_sets(ties, 0.5)]
    # bouquets: most base points on one loop share a diagram, so ties at the
    # window edges are the rule
    cases.append(_phi_sets([bouquet([2.0, 3.0, 3.0]), bouquet([2.0, 2.5, 4.0])], 0.25))
    cases.append(_phi_sets([bouquet([1.0, 1.0]), bouquet([1.0, 1.0, 1.0])], 0.25))
    rng = random.Random(99)
    for _ in range(6):
        # mixed sizes, empty diagrams and repeated diagrams
        pool = [[], *(random_diagram(rng, 6) for _ in range(5))]
        cases.append([
            [rng.choice(pool) for _ in range(rng.randint(1, 12))] for _ in range(2)
        ])
    for s1, s2 in cases:
        for ground in ("l1", "linf", DeathGapGround()):
            assert hausdorff_bottleneck(s1, s2, ground) == pruned_hausdorff(s1, s2, ground)


def _ragged_sets(rng):
    """Sets mixing empty diagrams with diagrams on both sides of the
    list/array split, and repeated diagrams."""
    side = math.isqrt(_ARRAY_MIN_COSTS)
    pool = [[], *(exp_diagram(rng, rng.randint(1, 2 * side)) for _ in range(5))]
    return [[rng.choice(pool) for _ in range(rng.randint(1, 8))] for _ in range(2)]


def _pad(diagrams, rng):
    """The same diagrams with points on the diagonal added, which changes no
    bottleneck distance."""
    out = []
    for d in diagrams:
        t = [rng.choice([0.0, rng.uniform(0, 12)]) for _ in range(rng.randint(0, 4))]
        out.append(d + [(x, x) for x in t])
    return out


def test_hausdorff_bit_equal_on_ragged_and_padded_sets():
    rng = random.Random(606)
    for _ in range(6):
        s1, s2 = _ragged_sets(rng)
        p1, p2 = _pad(s1, rng), _pad(s2, rng)
        for ground in ("l1", "linf", DeathGapGround()):
            value = hausdorff_bottleneck(s1, s2, ground)
            assert value == pruned_hausdorff(s1, s2, ground)
            assert hausdorff_bottleneck(p1, p2, ground) == value
            assert hausdorff_bottleneck(p1, s2, ground) == pruned_hausdorff(p1, s2, ground)


def _bound_cases():
    rng = random.Random(2718)
    generic = [random_metric_graph(6, 9, (1.0, 2.0), seed=k, generic_epsilon=1e-3) for k in (5, 6)]
    cases = [_phi_sets(generic, 0.6), _phi_sets([bouquet([2.0, 3.0, 3.0]), bouquet([2.0, 2.5])], 0.5)]
    cases += [_ragged_sets(rng) for _ in range(3)]
    cases += [[_pad(s, rng) for s in _ragged_sets(rng)]]
    return cases


def test_bound_matrix_is_below_every_bottleneck(monkeypatch):
    # the upper bounds of oracles._upper_bound_matrix and the slackened lower
    # bounds that oracles.pruned_hausdorff prunes with bracket every
    # bottleneck, and _pair_bounds keeps that matrix's row and column minima
    for s1, s2 in _bound_cases():
        for gr in (L1Ground(), LinfGround()):
            upper = _upper_bound_matrix(s1, s2, gr)
            lower = _bound_matrix(s1, s2, gr)
            assert lower.shape == upper.shape == (len(s1), len(s2))
            for i, a in enumerate(s1):
                for j, b in enumerate(s2):
                    assert lower[i, j] <= bottleneck_value(a, b, gr) <= upper[i, j]
            # tiny blocks split the rows; the minima stay the same
            for block in (diagram_distances._BLOCK_COSTS, 7):
                monkeypatch.setattr(diagram_distances, "_BLOCK_COSTS", block)
                row_upper, col_upper, _, _ = _pair_bounds(s1, s2, gr)
                assert (row_upper == upper.min(axis=1)).all()
                assert (col_upper == upper.min(axis=0)).all()
                monkeypatch.undo()


def test_scanned_row_bounds_equal_the_bound_matrix(monkeypatch):
    # each row the Hausdorff scans gets the per-point bounds of the oracle,
    # forward rows as rows and backward rows as columns, at any block size
    scan = diagram_distances._directed_hausdorff
    scanned = [0, 0]
    for block in (diagram_distances._BLOCK_COSTS, 7):
        monkeypatch.setattr(diagram_distances, "_BLOCK_COSTS", block)
        for s1, s2 in _bound_cases():
            for gr in (L1Ground(), LinfGround()):
                rows = []

                def recording(from_diags, to_diags, gr_, upper, lower_row):
                    direction = len(rows)
                    rows.append([])

                    def lower(i):
                        row = lower_row(i)
                        rows[direction].append((i, row))
                        return row

                    return scan(from_diags, to_diags, gr_, upper, lower)

                monkeypatch.setattr(diagram_distances, "_directed_hausdorff", recording)
                hausdorff_bottleneck(s1, s2, gr)
                monkeypatch.setattr(diagram_distances, "_directed_hausdorff", scan)
                oracle = _point_bound_matrix(s1, s2, gr)
                forward, backward = rows
                scanned[0] += len(forward)
                scanned[1] += len(backward)
                for i, row in forward:
                    assert (row == oracle[i]).all()
                for j, row in backward:
                    assert (row == oracle[:, j]).all()
    assert min(scanned) > 0


class WalledGround(Ground):
    """l1, except that points born after 5 can neither cross x = 5 nor retire."""

    def dist(self, x, y):
        if (x[0] > 5) != (y[0] > 5):
            return math.inf
        return abs(x[0] - y[0]) + abs(x[1] - y[1])

    def to_diagonal(self, x):
        return math.inf if x[0] > 5 else x[1] - x[0]


def test_hausdorff_keeps_rows_whose_bottlenecks_are_all_infinite():
    gr = WalledGround()
    cases = (([[(6.0, 7.0)]], [[(0.0, 1.0)]]), ([[(6.0, 7.0)], [(0.0, 1.0)]], [[(0.0, 1.5)]]))
    for s1, s2 in cases:
        assert hausdorff_bottleneck(s1, s2, gr) == math.inf
        assert hausdorff_bottleneck(s2, s1, gr) == math.inf
        assert pruned_hausdorff(s1, s2, gr) == math.inf


class FlatPartnerGround(Ground):
    """Every partner costs 0.1 and retiring costs d - b: a padded slot taken
    for a partner would undercut retiring."""

    def dist(self, x, y):
        return 0.1

    def to_diagonal(self, x):
        return x[1] - x[0]


def test_pair_bounds_never_match_a_padded_slot():
    # (0, 2) takes the one partner and (0, 1) must retire; matching (0, 1)
    # to the padding of the shorter diagram would bound the pair by 0.1
    s1, s2 = [[(0.0, 1.0), (0.0, 2.0)]], [[(0.0, 1.0)]]
    gr = FlatPartnerGround()
    assert hausdorff_bottleneck(s1, s2, gr) == 1.0 == pruned_hausdorff(s1, s2, gr)


def test_hausdorff_memory_is_linear_in_the_set_sizes():
    # 1249 x 1499 diagrams: a full matrix of pair bounds alone takes 15 MB
    s1, s2 = _phi_sets([bouquet([2.0, 3.0]), bouquet([2.5, 3.5])], 0.004)
    assert (len(s1), len(s2)) == (1249, 1499)
    tracemalloc.start()
    try:
        value = hausdorff_bottleneck(s1, s2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 0.7460000000000002
    assert peak < 5e6


def test_upper_bounds_settle_most_rows(monkeypatch):
    # without the upper bounds the scan made 533 calls on these pairs
    # (139 + 170 + 224); the rows they settle must cut that to a third
    calls = 0
    search = diagram_distances._bottleneck_value

    def counting(*args):
        nonlocal calls
        calls += 1
        return search(*args)

    monkeypatch.setattr(diagram_distances, "_bottleneck_value", counting)
    for s1, s2 in ((1, 2), (3, 4), (5, 6)):
        g1, g2 = (
            random_metric_graph(10, 16, (1.0, 2.0), seed=s, generic_epsilon=1e-3) for s in (s1, s2)
        )
        persistence_distortion(g1, g2, 0.5)
    assert calls <= 177


def _matching_cost(pts1, pts2, gr, match_l):
    """Cost of a perfect matching of the doubled graph given by its left side."""
    n1, n2 = len(pts1), len(pts2)
    assert sorted(match_l) == list(range(n1 + n2))
    worst = 0.0
    for i, w in enumerate(match_l[:n1]):
        assert w < n2 or w == n2 + i
        worst = max(worst, gr.dist(pts1[i], pts2[w]) if w < n2 else gr.to_diagonal(pts1[i]))
    for j, w in enumerate(match_l[n1:]):
        assert w >= n2 or w == j
        if w < n2:
            worst = max(worst, gr.to_diagonal(pts2[j]))
    return worst


def _check_window(d1, d2, gr, rng):
    """_bottleneck_value in windows drawn from the pair's own candidate costs."""
    inf = float("inf")
    value = bottleneck_value(d1, d2, gr)
    costs = sorted(
        {0.0, *(gr.to_diagonal(x) for x in d1 + d2), *(gr.dist(x, y) for x in d1 for y in d2)}
    )
    k = costs.index(value)
    edges = [-inf, inf, *costs[max(0, k - 2):k + 3], *rng.sample(costs, min(3, len(costs)))]
    for floor in edges:
        for ceil in edges:
            if not floor < ceil:
                continue
            got, match_l = _bottleneck_value(d1, d2, gr, floor, ceil)
            if value >= ceil:
                assert got == inf and match_l == []
            elif value <= floor:
                assert value <= got <= floor
                assert _matching_cost(d1, d2, gr, match_l) <= got
            else:
                assert got == value
                assert _matching_cost(d1, d2, gr, match_l) == value


def test_bottleneck_window_semantics():
    rng = random.Random(4242)
    for trial in range(60):
        gr = resolve_ground(("l1", "linf")[trial % 2]) if trial % 3 else DeathGapGround()
        d1, d2 = random_diagram(rng, 5), random_diagram(rng, 5)
        if trial % 4 == 0:
            # integer coordinates: many equal costs
            d1 = [(float(round(b)), float(round(d))) for b, d in d1]
            d2 = [(float(round(b)), float(round(d))) for b, d in d2]
        _check_window(d1, d2, gr, rng)


# ------------------------------------------------- list and array kernel paths


def _sizes_around_the_split():
    """(n1, n2) pairs just below, at and above _ARRAY_MIN_COSTS, plus thin ones."""
    limit = _ARRAY_MIN_COSTS
    side = math.isqrt(limit)
    return [
        (side, (limit - 1) // side), (side, side + (limit % side > 0)), (side + 3, side + 2),
        (1, limit - 1), (1, limit), (limit, 1), (3, limit // 3 + 1), (2 * side, side - 1),
    ]


def test_cost_matrix_equals_the_dist_loop():
    rng = random.Random(17)
    for gr in (L1Ground(), LinfGround()):
        for n1, n2 in [(0, 0), (0, 4), (5, 0), (1, 1), (7, 9), (30, 20)]:
            d1, d2 = exp_diagram(rng, n1), exp_diagram(rng, n2)
            got = gr.cost_matrix(d1, d2)
            want = Ground.cost_matrix(gr, d1, d2)
            assert got.shape == want.shape == (n1, n2)
            assert (got == want).all()
        # stacks broadcast over their leading axes
        a = np.array([exp_diagram(rng, 4) for _ in range(3)])
        b = np.array([exp_diagram(rng, 5) for _ in range(2)])
        stacked = gr.cost_matrix(a[:, None], b[None, :])
        assert stacked.shape == (3, 2, 4, 5)
        for i in range(3):
            for j in range(2):
                assert (stacked[i, j] == Ground.cost_matrix(gr, a[i].tolist(), b[j].tolist())).all()


def test_list_and_array_paths_equal_kuhn_oracle():
    rng = random.Random(31337)
    for n1, n2 in _sizes_around_the_split():
        for ground in ("l1", "linf", DeathGapGround()):
            gr = resolve_ground(ground)
            d1, d2 = exp_diagram(rng, n1), exp_diagram(rng, n2)
            grid1 = [(float(round(b)), float(round(d))) for b, d in d1]
            grid2 = [(float(round(b)), float(round(d))) for b, d in d2]
            # generic costs, then integer coordinates with many equal costs
            for p, q in ((d1, d2), (grid1, grid2)):
                value, matching = bottleneck(p, q, gr)
                assert value == kuhn_bottleneck_value(p, q, gr)
                assert matching_cost(matching, gr) == value == matching.cost
            _check_window(d1, d2, gr, rng)


def test_warm_started_matching_reaches_cold_size():
    rng = random.Random(8)
    for trial in range(300):
        n_left, n_right = rng.randint(0, 30), rng.randint(0, 30)
        p = rng.choice([0.05, 0.15, 0.4])
        adj = [[w for w in range(n_right) if rng.random() < p] for _ in range(n_left)]
        # a random valid matching: edges taken greedily in random order
        start, taken = [-1] * n_left, set()
        edges = [(u, w) for u, row in enumerate(adj) for w in row]
        rng.shuffle(edges)
        for u, w in edges[: rng.randint(0, len(edges))]:
            if start[u] == -1 and w not in taken:
                start[u] = w
                taken.add(w)
        before = list(start)
        size, match_l, match_r = max_matching(adj, n_right, start)
        assert start == before
        assert size == max_matching(adj, n_right)[0]
        assert size == sum(w != -1 for w in match_l)
        for u, w in enumerate(match_l):
            if w != -1:
                assert w in adj[u] and match_r[w] == u


# --------------------------------------------------------------- monotonicity


def bottleneck_monotonicity_check(p, q, ground_lo, ground_hi) -> bool:
    """True iff the bottleneck under a pointwise-smaller ground stays smaller.

    Callers guarantee ground_lo <= ground_hi on every point pair; the check
    realizes the matching-exchange argument computationally.
    """
    lo = bottleneck_value(p, q, ground_lo)
    hi = bottleneck_value(p, q, ground_hi)
    return lo <= hi + 1e-12


class DeathGapGround(Ground):
    """(d - b) gap distance: equivalent to projecting points onto the y-axis."""

    def dist(self, x, y):
        return abs((x[1] - x[0]) - (y[1] - y[0]))

    def to_diagonal(self, x):
        return x[1] - x[0]


class ScaledGround(Ground):
    def __init__(self, base, factor):
        self.base = base
        self.factor = factor

    def dist(self, x, y):
        return self.factor * self.base.dist(x, y)

    def to_diagonal(self, x):
        return self.factor * self.base.to_diagonal(x)


def test_monotonicity_equal_grounds():
    d1 = [(0.0, 1.0), (0.5, 2.0)]
    d2 = [(0.0, 2.0)]
    assert bottleneck_monotonicity_check(d1, d2, L1Ground(), L1Ground())


def test_monotonicity_death_gap_vs_l1_on_tree_of_loops_diagrams():
    rng = random.Random(31)
    for _ in range(30):
        t = sorted(rng.uniform(0.5, 3.0) for _ in range(3))
        s = sorted(rng.uniform(0.5, 3.0) for _ in range(3))
        d1 = [(p, p + ti) for p, ti in zip((rng.uniform(0, 2) for _ in t), t)]
        d2 = [(q, q + si) for q, si in zip((rng.uniform(0, 2) for _ in s), s)]
        assert bottleneck_monotonicity_check(d1, d2, DeathGapGround(), L1Ground())
        # the gap ground reduces to the y-axis closed form
        lo = bottleneck_value(d1, d2, DeathGapGround())
        assert lo == pytest.approx(yaxis_bottleneck(t, s), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_monotonicity_half_l1_vs_l1(seed):
    rng = random.Random(seed)
    d1, d2 = random_diagram(rng, 4), random_diagram(rng, 4)
    assert bottleneck_monotonicity_check(
        d1, d2, ScaledGround(L1Ground(), 0.5), L1Ground()
    )
