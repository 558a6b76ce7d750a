"""Weight functions, gain/loss tables, and the epsilon selectors."""

import random
import re
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

from forestbound import (
    BoundSpec,
    DegreeHistogram,
    EpsOutOfRange,
    Graph,
    MissingPartition,
    Partition,
    ab_star_weight,
    abc_weight,
    epsilon_star,
    f_k,
    f_k_eps,
    f_lin,
    gain,
    graph_counts,
    parse_bound_spec,
    star_epsilon_opt,
    star_f_eps,
    total_weight,
)
from forestbound import weights
from forestbound.errors import DegreeZero, InvalidSpec, ParseError
from forestbound.generate import complete_graph, cycle_graph, gnp, path_graph, star_graph
from forestbound.weights import STAR_EPS_MAX, ab_star_gain, eps_max, hkg_weight, rat_text


def fkeps_total(hist, k, eps):
    """The k-caterpillar bound on a degree histogram, summed with f_k_eps."""
    return sum((count * f_k_eps(k, eps, d) for d, count in hist.counts.items()), F(0))


def star_total(hist, eps):
    """The star forest bound on a degree histogram, summed with star_f_eps."""
    return sum((count * star_f_eps(eps, d) for d, count in hist.counts.items()), F(0))


class TestPointValues:
    def test_f_lin(self):
        assert f_lin(0) == 1
        assert f_lin(1) == F(5, 6)
        assert f_lin(3) == F(1, 2)

    def test_f_k_eps(self):
        assert f_k_eps(2, F(1, 6), 1) == F(5, 6)
        assert f_k_eps(2, F(0), 3) == 0
        assert f_k_eps(3, F(1, 10), 5) == F(1, 3)

    def test_f_k_closed_form_at_one(self):
        for k in range(2, 11):
            assert f_k(k, 1) == F(k * (k + 3), (k + 1) * (k + 2))

    def test_star_f_eps(self):
        assert star_f_eps(F(1, 6), 2) == F(3, 5)
        assert star_f_eps(F(0), 3) == F(1, 3)
        assert star_f_eps(F(1, 6), 1) == F(5, 6)

    def test_abc_weight(self):
        assert abc_weight("B", 2) == F(1, 3)
        assert abc_weight("C", 1) == F(1, 6)
        assert abc_weight("A", 4) == F(2, 5)

    def test_ab_star_weight(self):
        assert ab_star_weight("A", 2) == F(3, 5)
        assert ab_star_weight("B", 2) == F(1, 3)
        assert ab_star_weight("B", 0) == 1

    def test_eps_range_errors(self):
        with pytest.raises(EpsOutOfRange):
            f_k_eps(2, F(1, 5), 1)
        with pytest.raises(EpsOutOfRange):
            star_f_eps(F(1, 5), 1)
        with pytest.raises(EpsOutOfRange):
            f_k_eps(2, F(-1, 6), 1)

    def test_bad_k(self):
        with pytest.raises(InvalidSpec):
            f_k_eps(1, F(0), 1)


def graph_total(g, spec, labels=None):
    """total_weight of spec over g's vertices."""
    return total_weight(graph_counts(g, spec, labels), spec)


def hkg_weights(g, k: int) -> dict:
    """hkg_weight of each vertex of g by id, its degree and leaf tag read off the edge arrays."""
    deg = g.degrees()
    return dict(zip(g.vertices, (hkg_weight(k, tag, d) for tag, d in zip(g.leaf_tags(deg), deg))))


class TestHkg:
    def test_k2_edge(self):
        w = hkg_weights(path_graph(2), 2)
        assert w[0] == 1 and w[1] == 1

    def test_star_leaf_with_heavy_center(self):
        assert hkg_weights(star_graph(4), 2)[1] == 1 - F(2, 3 * 5)  # 13/15

    def test_cycle_vertex(self):
        assert hkg_weights(cycle_graph(5), 2)[0] == F(2, 3)


class TestDifferenceIdentities:
    def test_nonincreasing_differences(self):
        for d in range(1, 201):
            for k in range(1, d + 1):
                assert f_lin(k - 1) - f_lin(k) >= f_lin(d - 1) - f_lin(d)

    def test_degree_times_difference_identity(self):
        for d in range(3, 201):
            assert d * (f_lin(d - 1) - f_lin(d)) == f_lin(d)

    def test_fkeps_at_max_eps_is_fk(self):
        for k in range(2, 11):
            for d in range(0, 201):
                expected = (
                    1 if d == 0
                    else F(k * (k + 3), (k + 1) * (k + 2)) if d == 1
                    else F(2, d + 1)
                )
                assert f_k(k, d) == expected


# Rows copied from the gain/loss summary tables.
GAIN_TABLE = {
    (1, "A"): F(1, 6), (1, "B"): F(1, 6), (1, "C"): F(5, 6),
    (2, "A"): F(1, 6), (2, "B"): F(1, 2), (2, "C"): F(0),
    (3, "A"): F(1, 6), (3, "B"): F(0), (3, "C"): F(0),
    (4, "A"): F(1, 10), (4, "B"): F(1, 15), (4, "C"): F(1, 30),
}
LOSS_TABLE = {
    (1, "A"): F(1, 6), (1, "B"): F(1, 2), (1, "C"): F(0),
    (2, "A"): F(1, 6), (2, "B"): F(0), (2, "C"): F(0),
    (3, "A"): F(1, 10), (3, "B"): F(1, 15), (3, "C"): F(1, 30),
}


class TestGainLossTables:
    def test_gain_rows_verbatim(self):
        for (d, part), value in GAIN_TABLE.items():
            assert gain(part, d) == value, (part, d)

    def test_gain_tail(self):
        for d in range(5, 201):
            assert gain("A", d) == F(2, d * (d + 1))
            assert gain("B", d) == F(4, 3 * d * (d + 1))
            assert gain("C", d) == F(2, 3 * d * (d + 1))

    # the loss at degree d, the weight decrease when it rises by one, is the gain at d + 1
    def test_loss_rows_verbatim(self):
        for (d, part), value in LOSS_TABLE.items():
            assert gain(part, d + 1) == value, (part, d)

    def test_loss_tail(self):
        for d in range(4, 201):
            assert gain("A", d + 1) == F(2, (d + 1) * (d + 2))
            assert gain("B", d + 1) == F(4, 3 * (d + 1) * (d + 2))
            assert gain("C", d + 1) == F(2, 3 * (d + 1) * (d + 2))

    def test_nonnegative(self):
        for part in "ABC":
            for d in range(1, 202):
                assert gain(part, d) >= 0

    def test_gain_degree_zero(self):
        with pytest.raises(DegreeZero):
            gain("A", 0)


class TestTotalWeight:
    def test_k4_flin(self):
        assert graph_total(complete_graph(4), BoundSpec("flin")) == 2

    def test_claw_flin(self):
        assert graph_total(star_graph(3), BoundSpec("flin")) == 3

    def test_p3_abc(self):
        p = Partition({0: "A", 1: "B", 2: "A"}, "ABC")
        assert graph_total(path_graph(3), BoundSpec("abc"), p) == 2

    def test_missing_partition(self):
        with pytest.raises(MissingPartition):
            graph_total(path_graph(3), BoundSpec("abc"))

    @pytest.mark.parametrize("spec", [BoundSpec("abc"), BoundSpec("abstar")])
    def test_unlabeled_vertex_is_named(self, spec):
        # the message of Partition.part, for the first vertex without a label
        p = Partition({0: "A", 3: "B"}, "AB")
        with pytest.raises(MissingPartition, match=r"^vertex 1 has no label$"):
            graph_total(path_graph(4), spec, p)

    def test_hkg_total(self):
        assert graph_total(star_graph(3), BoundSpec("hkg", 3)) == F(7, 2)

    def test_histogram_sums_equal_per_vertex_sums(self):
        rng = random.Random(41)
        for trial in range(30):
            g = gnp(rng.randint(1, 40), rng.choice((0.05, 0.2, 0.5)), 4100 + trial)
            abc = Partition({v: rng.choice("ABC") for v in g.vertices}, "ABC")
            ab = Partition({v: rng.choice("AB") for v in g.vertices}, "AB")
            hist, deg = g.degree_histogram(), dict(zip(g.vertices, g.degrees()))
            hkg = {k: hkg_weights(g, k) for k in (2, 3)}
            per_vertex = [
                (BoundSpec("flin"), None, lambda v: f_lin(deg[v])),
                (BoundSpec("fk", 3), None, lambda v: f_k(3, deg[v])),
                (BoundSpec("fkeps", 2, F(1, 10)), None, lambda v: f_k_eps(2, F(1, 10), deg[v])),
                (BoundSpec("fkeps", 2), None,
                 lambda v: f_k_eps(2, epsilon_star(hist, 2)[0], deg[v])),
                (BoundSpec("star", eps=F(1, 12)), None, lambda v: star_f_eps(F(1, 12), deg[v])),
                (BoundSpec("star"), None,
                 lambda v: star_f_eps(star_epsilon_opt(hist), deg[v])),
                (BoundSpec("abc"), abc, lambda v: abc_weight(abc.part(v), deg[v])),
                (BoundSpec("abstar"), ab, lambda v: ab_star_weight(ab.part(v), deg[v])),
                (BoundSpec("hkg", 2), None, lambda v: hkg[2][v]),
                (BoundSpec("hkg", 3), None, lambda v: hkg[3][v]),
            ]
            for spec, labels, weight in per_vertex:
                expected = sum((weight(v) for v in g.vertices), F(0))
                assert graph_total(g, spec, labels) == expected, (trial, spec)

    @pytest.mark.parametrize(
        "text", ["flin", "fkeps:k=2", "fkeps:k=3,eps=1/20", "fk:k=3", "hkg:k=2", "hkg:k=3",
                 "star", "star:eps=1/12", "abc", "abstar"],
    )
    def test_weight_evaluated_once_per_key(self, monkeypatch, text):
        g = gnp(60, 0.08, 4242)
        rng = random.Random(4242)
        labels = {"abc": Partition({v: rng.choice("ABC") for v in g.vertices}, "ABC"),
                  "abstar": Partition({v: rng.choice("AB") for v in g.vertices}, "AB")}.get(text)
        spec = parse_bound_spec(text)
        expected = graph_total(g, spec, labels)
        calls, depth = Counter(), []
        # every weight but hkg's leaves is read off the shape table by _weigh
        for name in ("_weigh", "hkg_weight"):
            def counted(*args, _original=getattr(weights, name), _name=name):
                if not depth:  # hkg_weight reads a vertex that is no leaf by _weigh: one evaluation
                    calls[_name] += 1
                depth.append(_name)
                try:
                    return _original(*args)
                finally:
                    depth.pop()
            monkeypatch.setattr(weights, name, counted)
        assert graph_total(g, spec, labels) == expected

        deg, adj = dict(zip(g.vertices, g.degrees())), g.adjacency()

        def key(v):
            d = deg[v]
            if labels is not None:
                return labels.part(v), d
            if spec.variant == "hkg" and d == 1:
                (w,) = adj[v]
                return deg[w], d
            return d

        keys = {key(v) for v in g.vertices}
        assert len(keys) < g.n  # so a per-vertex sum would show
        assert 1 <= sum(calls.values()) <= len(keys), calls


def fraction_total(g, spec, labels=None):
    """total_weight's sum taken term by term: a Fraction product and a
    Fraction partial sum per (tag, degree) key."""
    _, _, tags, weight = weights._VARIANTS[spec.variant]
    deg = g.degrees()
    counts = Counter(deg if tags is None else zip(tags(g.vertices, labels, g.leaf_tags(deg)), deg))
    eps = spec.eps
    if spec.eps_open:
        eps, _ = weights.select_eps(spec, g.degree_histogram())
    return sum((c * weight(spec.k, eps, key) for key, c in counts.items()), F(0))


def row_specs():
    """Every _VARIANTS row: k = 2 and 3 where it takes k, eps open and at
    half its maximum where it takes eps."""
    for variant, (takes_k, top, _, _) in weights._VARIANTS.items():
        for k in (2, 3) if takes_k else (None,):
            yield BoundSpec(variant, k)
            if top is not None:
                yield BoundSpec(variant, k, top(k) / 2)


def seeded_labels(g, seed):
    rng = random.Random(seed)
    return {"abc": Partition({v: rng.choice("ABC") for v in g.vertices}, "ABC"),
            "abstar": Partition({v: rng.choice("AB") for v in g.vertices}, "AB")}


def heavy_tailed_graph(n, m, seed):
    """m edge draws between endpoints picked with weight (i + 1) ** -0.7,
    loops and repeats dropped."""
    rng = random.Random(seed)
    ends = rng.choices(range(n), weights=[(i + 1) ** -0.7 for i in range(n)], k=2 * m)
    pairs = {(min(u, v), max(u, v)) for u, v in zip(ends[::2], ends[1::2]) if u != v}
    return Graph.from_edges(n, pairs)


class TestIntegerSum:
    """total_weight sums over one common denominator; the total is the one
    the term-by-term Fraction sum gives."""

    def test_every_row_on_the_atlas(self):
        nx = pytest.importorskip("networkx")
        for i, atlas_graph in enumerate(nx.graph_atlas_g()[1:]):
            g = Graph.from_edges(atlas_graph.number_of_nodes(), atlas_graph.edges())
            labels = seeded_labels(g, 6100 + i)
            for spec in row_specs():
                part = labels.get(spec.variant)
                assert graph_total(g, spec, part) == fraction_total(g, spec, part), (i, spec)

    def test_every_row_on_a_heavy_tailed_graph(self):
        g = heavy_tailed_graph(1500, 20_000, 1)
        assert len(set(g.degrees())) >= 100
        labels = seeded_labels(g, 1)
        for spec in row_specs():
            part = labels.get(spec.variant)
            assert graph_total(g, spec, part) == fraction_total(g, spec, part), spec

    def test_every_kink_eps_on_a_heavy_tailed_graph(self):
        g = heavy_tailed_graph(1500, 20_000, 1)
        hist = g.degree_histogram()
        for k in (2, 3):
            for d in hist.counts:
                if d > k:
                    eps = F(2, (k + 1) * (d + 1))
                    total = total_weight(hist.counts, BoundSpec("fkeps", k, eps))
                    assert total == fkeps_total(hist, k, eps), (k, d)
        for d in hist.counts:
            if d >= 2:
                eps = F(1, 10) if d == 2 else F(d - 1, d * (d + 1))
                total = total_weight(hist.counts, BoundSpec("star", eps=eps))
                assert total == star_total(hist, eps), d

    def test_empty_graph(self):
        g = Graph.from_edges(0, [])
        labels = seeded_labels(g, 0)
        for spec in row_specs():
            total = graph_total(g, spec, labels.get(spec.variant))
            assert type(total) is F and total == 0, spec


def brute_force_epsilon_star(hist, k):
    """Independent oracle: evaluate the total at every linear-piece breakpoint."""
    points = [F(0)] + [
        F(2, (k + 1) * (D + 1)) for D in range(k + 1, max(hist.max_degree, k + 1) + 1)
    ]
    return max(fkeps_total(hist, k, eps) for eps in points)


class TestEpsilonStar:
    def test_claw_example(self):
        hist = star_graph(3).degree_histogram()
        assert epsilon_star(hist, 2) == (F(1, 6), 3)

    def test_no_degree_one(self):
        hist = cycle_graph(5).degree_histogram()
        assert epsilon_star(hist, 2) == (eps_max(2), 3)

    def test_big_star_gives_zero(self):
        hist = star_graph(9).degree_histogram()
        assert epsilon_star(hist, 2) == (F(0), None)

    def test_matches_brute_force_on_random_histograms(self):
        rng = random.Random(2024)
        for trial in range(300):
            k = rng.choice((2, 3, 4))
            counts = {}
            for _ in range(rng.randint(1, 8)):
                counts[rng.randint(0, 30)] = rng.randint(0, 9)
            hist = DegreeHistogram.from_counts(counts)
            eps, d_star = epsilon_star(hist, k)
            best = brute_force_epsilon_star(hist, k)
            assert fkeps_total(hist, k, eps) == best, (trial, counts, k)
            if d_star is not None:
                assert eps == F(2, (k + 1) * (d_star + 1))
            else:
                assert eps == 0


def star_eps_candidates(hist):
    """Independent candidate set: every degree's kink up to the maximum
    degree, plus a 1/600 grid on [0, 1/6]."""
    kinks = {F(d - 1, d * (d + 1)) for d in range(3, hist.max_degree + 1)}
    return sorted(kinks | {F(i, 600) for i in range(101)})


def brute_force_star_opt(hist):
    return max(star_total(hist, eps) for eps in star_eps_candidates(hist))


@pytest.mark.parametrize(
    "counts, select, expected",
    [
        ({5: 10, 1: 3}, lambda h: epsilon_star(h, 2), (F(1, 9), 5)),
        ({10: 5, 1: 3}, star_epsilon_opt, F(9, 110)),
    ],
    ids=["epsilon_star", "star_epsilon_opt"],
)
def test_selectors_read_the_maximum_degree_of_the_counts(counts, select, expected):
    # the public constructor and from_counts give the same histogram, and its
    # maximum degree is that of its counts
    hist = DegreeHistogram(counts)
    assert hist == DegreeHistogram.from_counts(counts) and hist.max_degree == max(counts)
    assert select(hist) == select(DegreeHistogram.from_counts(counts)) == expected


@pytest.mark.parametrize("counts", [{-1: 2, 3: 1}, {3: -2, 1: 4}])
def test_histogram_rejects_negative_degrees_and_counts(counts):
    # the public constructor accepted these, and epsilon_star read them as
    # (1/6, 3) and (0, None)
    for build in (DegreeHistogram, DegreeHistogram.from_counts):
        with pytest.raises(ValueError):
            build(counts)


def test_only_from_counts_drops_zero_counts():
    with pytest.raises(ValueError):
        DegreeHistogram({3: 0, 1: 4})
    assert DegreeHistogram.from_counts({3: 0, 1: 4}) == DegreeHistogram({1: 4})


def test_histogram_is_hashable():
    hist = DegreeHistogram({3: 1, 1: 3})
    assert hash(hist) == hash(DegreeHistogram.from_counts({1: 3, 3: 1, 7: 0}))
    assert len({hist, DegreeHistogram({1: 3, 3: 1}), DegreeHistogram({1: 2})}) == 2


class TestStarEpsilonOpt:
    def test_c5(self):
        assert star_epsilon_opt(cycle_graph(5).degree_histogram()) == F(1, 10)

    def test_only_leaves(self):
        hist = DegreeHistogram.from_counts({1: 6})
        assert star_epsilon_opt(hist) == 0

    def test_k4(self):
        assert star_epsilon_opt(complete_graph(4).degree_histogram()) == F(1, 6)

    def test_is_maximizer_and_smallest(self):
        rng = random.Random(7)
        for _ in range(200):
            counts = {rng.randint(0, 20): rng.randint(0, 6) for _ in range(rng.randint(1, 6))}
            hist = DegreeHistogram.from_counts(counts)
            eps = star_epsilon_opt(hist)
            best = brute_force_star_opt(hist)
            assert star_total(hist, eps) == best
            for smaller in star_eps_candidates(hist):
                if smaller >= eps:
                    break
                assert star_total(hist, smaller) < best

    @pytest.mark.parametrize(
        "counts, expected",
        [
            # degree 7's kink 3/28 leaves the slope at 2 - 5 < 0; adding degree 2
            # at 1/10 makes it 6 - 5 > 0 before degree 8's kink 7/72 is reached
            ({1: 5, 2: 4, 7: 2, 8: 3}, F(1, 10)),
            ({1: 6, 2: 4, 7: 2, 8: 3}, F(7, 72)),
            ({1: 1, 2: 4, 7: 2, 8: 3}, F(3, 28)),
        ],
    )
    def test_degree_two_kink_between_seven_and_eight(self, counts, expected):
        hist = DegreeHistogram.from_counts(counts)
        eps = star_epsilon_opt(hist)
        assert eps == expected
        assert star_total(hist, eps) == brute_force_star_opt(hist)
        assert all(star_total(hist, e) < star_total(hist, eps)
                   for e in star_eps_candidates(hist) if e < eps)


def test_incomparability_of_family_members():
    for k in (2, 3, 4):
        top = eps_max(k)
        grid = [top * i / 8 for i in range(9)]
        for e1, e2 in zip(grid, grid[1:]):
            assert f_k_eps(k, e1, 1) > f_k_eps(k, e2, 1)
            assert f_k_eps(k, e1, k + 1) < f_k_eps(k, e2, k + 1)
    # for stars, degree 3 keeps the 1/d + eps branch active on all of [0, 1/6]
    grid = [STAR_EPS_MAX * i / 8 for i in range(9)]
    for e1, e2 in zip(grid, grid[1:]):
        assert star_f_eps(e1, 1) > star_f_eps(e2, 1)
        assert star_f_eps(e1, 3) < star_f_eps(e2, 3)


class TestBoundSpecText:
    @pytest.mark.parametrize(
        "text",
        ["flin", "fkeps:k=2,eps=1/6", "fkeps:k=3", "fk:k=4", "hkg:k=3", "star",
         "star:eps=1/10", "abc", "abstar"],
    )
    def test_round_trip(self, text):
        spec = parse_bound_spec(text)
        assert spec.to_text() == text
        assert parse_bound_spec(spec.to_text()) == spec

    @pytest.mark.parametrize(
        "text",
        ["nope", "fkeps", "fkeps:k=2,eps=9", "hkg", "flin:k=2", "star:eps=x", "fk",
         "fk:k=3,eps=1/6", "abc:k=2", "star:k=2", "hkg:k=1", "flin:eps=1/6",
         "fkeps:k=2,eps=1/0"],
    )
    def test_errors(self, text):
        with pytest.raises((ParseError, EpsOutOfRange, InvalidSpec)):
            parse_bound_spec(text)

    @pytest.mark.parametrize("variant, k", [("fkeps", 2), ("star", None)])
    def test_one_normal_form(self, variant, k):
        # however eps is given, the spec holds a Fraction, reads back from its
        # text as itself, and equal specs print the same text
        specs = [BoundSpec(variant, k, eps) for eps in (0, 0.0, F(1, 10), 0.1)]
        for spec in specs:
            assert type(spec.eps) is F and parse_bound_spec(spec.to_text()) == spec
        for a in specs:
            assert [a == b for b in specs] == [a.to_text() == b.to_text() for b in specs]

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_eps_is_out_of_range(self, eps):
        with pytest.raises(EpsOutOfRange, match="outside"):
            BoundSpec("star", eps=eps)

    @pytest.mark.parametrize("eps", ["x", [1], "1/10"], ids=["word", "list", "ratio-text"])
    def test_non_numeric_eps_is_invalid(self, eps):
        # a str is refused even where Fraction would read it; text goes through parse_bound_spec
        with pytest.raises(InvalidSpec, match=rf"^eps {re.escape(repr(eps))} is not a number$"):
            BoundSpec("star", eps=eps)

    @pytest.mark.parametrize("variant, k", [("fkeps", 2.5), ("fkeps", "3"), ("hkg", 3.0),
                                            ("fk", F(3))])
    def test_non_int_k_is_invalid(self, variant, k):
        # a float k once built a spec whose total raised TypeError, and a str k raised it at once
        with pytest.raises(InvalidSpec, match=rf"^k {re.escape(repr(k))} is not an int$"):
            BoundSpec(variant, k)


@pytest.fixture()
def digit_limit():
    """sys.get_int_max_str_digits(), skipping a run with no limit; set back after the test."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("no int digit limit is set")
    yield limit
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("eps", ["1e-99999999", "1e-{limit}", "1E+{limit}", "2.5e-{limit}",
                                 "1e-43_00000"])
def test_an_eps_exponent_past_the_digit_limit_is_a_parse_error(digit_limit, eps):
    # Fraction would build 10**e first, which for 1e-99999999 did not finish, and a 10**e past
    # the limit once ended where its digits were written
    text = f"fkeps:k=2,eps={eps.format(limit=digit_limit)}"
    with pytest.raises(ParseError, match="past the int digit limit"):
        parse_bound_spec(text)


def test_an_eps_exponent_within_the_digit_limit_is_read(digit_limit):
    assert parse_bound_spec(f"star:eps=1e-{digit_limit - 1}").eps == F(1, 10 ** (digit_limit - 1))


def primes_to(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


def test_rat_text_writes_a_total_past_the_digit_limit(digit_limit):
    # one vertex of degree p - 1 for each prime p <= 10 500: flin weighs each but the leaf 2/p,
    # and the total's denominator runs to 4 518 digits
    counts = Counter(p - 1 for p in primes_to(10_500))
    total = total_weight(counts, BoundSpec("flin"))
    num, den = rat_text(total).split("/")
    assert len(den) > digit_limit
    sys.set_int_max_str_digits(0)  # the fixture sets it back
    assert (num, den) == (str(total.numerator), str(total.denominator))
    assert rat_text(-total) == f"-{num}/{den}" and rat_text(F(0)) == "0/1"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: f_lin(-1), ValueError, "degree must be nonnegative, got -1"),
        (lambda: abc_weight("D", 1), ValueError, "part must be A, B, or C, got 'D'"),
        (lambda: ab_star_weight("C", 1), ValueError, "part must be A or B, got 'C'"),
        (lambda: ab_star_gain("A", 0), DegreeZero, "gain is undefined for degree 0"),
    ],
    ids=["negative-degree", "abc-part", "abstar-part", "abstar-gain-degree-0"],
)
def test_weight_input_checks(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
