"""The shape table against the per-family weight functions and the two
epsilon selectors it replaced, kept here as references: every weight, every
_VARIANTS row and both selectors must give what the references give."""

import random
from fractions import Fraction as F

import pytest

from forestbound import weights

DEGREES = range(201)
KS = range(2, 7)


# -- the references: the weight functions and selectors as each family once spelled them out --

def ref_f_lin(d):
    if d == 0:
        return F(1)
    if d == 1:
        return F(5, 6)
    return F(2, d + 1)


def ref_aks(d):
    return min(F(1), F(2, d + 1))


def ref_f_k_eps(k, eps, d):
    if d == 0:
        return F(1)
    if d == 1:
        return 1 - eps
    if d <= k:
        return F(2, d + 1)
    return min((k + 1) * eps, F(2, d + 1))


def ref_hkg_weight(k, dw, d):
    if d == 0:
        return F(1)
    if d >= 2:
        return F(2, d + 1)
    if dw <= k:
        return F(1)
    return 1 - F(2, (k + 1) * (dw + 1))


def ref_star_f_eps(eps, d):
    if d == 0:
        return F(1)
    if d == 1:
        return 1 - eps
    if d == 2:
        return min(F(3, 5), F(1, 2) + eps)
    return min(F(2, d + 1), F(1, d) + eps)


def ref_abc_weight(part, d):
    if part == "A":
        return ref_f_lin(d)
    if part == "B":
        if d == 0:
            return F(1)
        if d == 1:
            return F(5, 6)
        if d == 2:
            return F(1, 3)
        return F(4, 3 * (d + 1))
    if d == 0:
        return F(1)
    if d <= 2:
        return F(1, 6)
    return F(2, 3 * (d + 1))


def ref_ab_star_weight(part, d):
    if part == "A":
        if d == 0:
            return F(1)
        if d == 1:
            return F(5, 6)
        if d == 2:
            return F(3, 5)
        return F(2, d + 1)
    return F(1, d + 1)


def top_degree(counts):
    """The highest degree of a positive count in degree -> count, 0 if none."""
    return max((d for d, c in counts.items() if c), default=0)


def ref_epsilon_star(counts, k):
    n1 = counts.get(1, 0)
    cumulative = 0
    for d_star in range(k + 1, max(top_degree(counts), k + 1) + 1):
        cumulative += counts.get(d_star, 0)
        if (k + 1) * cumulative >= n1:
            return F(2, (k + 1) * (d_star + 1)), d_star
    return F(0), None


def ref_star_epsilon_opt(counts):
    n1 = counts.get(1, 0)
    cumulative = 0
    for d in (3, 4, 5, 6, 7, 2, *range(8, top_degree(counts) + 1)):
        cumulative += counts.get(d, 0)
        if cumulative > n1:
            return F(1, 10) if d == 2 else F(d - 1, d * (d + 1))
    return F(0)


# -- the eps points: every kink, the ends of the range, and each midpoint between two --

def with_midpoints(points):
    points = sorted(set(points))
    return points + [(a + b) / 2 for a, b in zip(points, points[1:])]


def fkeps_points(k):
    return with_midpoints([F(0), *(F(2, (k + 1) * (d + 1)) for d in range(k + 1, 201))])


STAR_POINTS = with_midpoints([F(0), F(1, 10), *(F(d - 1, d * (d + 1)) for d in range(3, 201))])


def row(variant):
    return weights._VARIANTS[variant][3]


# f_k_eps and star_f_eps are their rows behind a BoundSpec's check of k and eps, which costs more
# than the weight; they are checked at every eps point on these degrees, the rows on all.
CHECKED_PUBLIC = {0, 1, 2, 3, 4, 7, 8, 50, 200}


def test_fixed_weights_match_the_references():
    for d in DEGREES:
        assert weights.f_lin(d) == row("flin")(None, None, d) == ref_f_lin(d), d
        assert row("aks")(None, None, d) == ref_aks(d), d
        for part in "ABC":
            expected = ref_abc_weight(part, d)
            assert weights.abc_weight(part, d) == row("abc")(None, None, (part, d)) == expected
            if d:
                assert weights.gain(part, d) == ref_abc_weight(part, d - 1) - expected
        for part in "AB":
            expected = ref_ab_star_weight(part, d)
            assert weights.ab_star_weight(part, d) == expected
            assert row("abstar")(None, None, (part, d)) == expected
            if d:
                assert weights.ab_star_gain(part, d) == ref_ab_star_weight(part, d - 1) - expected


@pytest.mark.parametrize("k", KS)
def test_fkeps_fk_and_hkg_match_the_references_at_every_kink_and_midpoint(k):
    top = weights.eps_max(k)
    for eps in fkeps_points(k):
        assert eps <= top
        for d in DEGREES:
            expected = ref_f_k_eps(k, eps, d)
            assert row("fkeps")(k, eps, d) == expected, (eps, d)
            if d in CHECKED_PUBLIC or d == k + 1:
                assert weights.f_k_eps(k, eps, d) == expected, (eps, d)
    for d in DEGREES:
        assert weights.f_k(k, d) == row("fk")(k, None, d) == ref_f_k_eps(k, top, d), d
        for dw in DEGREES[1:] if d == 1 else (None,):
            expected = ref_hkg_weight(k, dw, d)
            assert weights.hkg_weight(k, dw, d) == row("hkg")(k, None, (dw, d)) == expected


def test_star_matches_the_reference_at_every_kink_and_midpoint():
    for eps in STAR_POINTS:
        assert eps <= weights.STAR_EPS_MAX
        for d in DEGREES:
            expected = ref_star_f_eps(eps, d)
            assert row("star")(None, eps, d) == expected, (eps, d)
            if d in CHECKED_PUBLIC:
                assert weights.star_f_eps(eps, d) == expected, (eps, d)


def random_histograms(seed, trials):
    rng = random.Random(seed)
    for _ in range(trials):
        counts = {rng.randint(0, 40): rng.randint(0, 9) for _ in range(rng.randint(1, 8))}
        if rng.random() < 0.3:
            counts.pop(1, None)
        yield counts


# No leaf, and no degree above k: both selectors' answers at the top of the walk or at none.
NO_LEAF = [{}, {0: 4}, {2: 3}, {0: 1, 2: 5, 3: 1}, {4: 2, 6: 7}]


def test_selectors_match_the_references():
    # the counts keep their zeros, which the references skip
    for counts in [*random_histograms(4500, 1500), *NO_LEAF]:
        for k in KS:
            assert weights.epsilon_star(counts, k) == ref_epsilon_star(counts, k), (counts, k)
        assert weights.star_epsilon_opt(counts) == ref_star_epsilon_opt(counts), counts


@pytest.mark.parametrize("k", KS)
def test_no_leaf_and_nothing_above_k_gives_the_top_of_the_range(k):
    counts = {0: 1, k: 3}
    expected = (weights.eps_max(k), k + 1)
    assert weights.epsilon_star(counts, k) == expected == ref_epsilon_star(counts, k)
