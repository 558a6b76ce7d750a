"""Exact-rational weight functions, gains and losses, and epsilon selectors.

Every bound in this package is a sum of per-vertex weights that depend only
on the vertex degree and a tag: the part of the vertex for the constrained
bounds, the degree of a leaf's unique neighbor for the local caterpillar
bound. All arithmetic is exact: certificates compare a vertex count against
sums of fractions, and rounding would invalidate the comparison.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .errors import DegreeZero, EpsOutOfRange, InvalidSpec, MissingPartition, ParseError
from .graph import DegreeHistogram, Graph, parse_spec_text, spec_text

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat_text(x: Fraction) -> str:
    """x as `p/q`, the form certificates, reports and the CLI print."""
    return f"{x.numerator}/{x.denominator}"


def eps_max(k: int) -> Fraction:
    """Upper end of the admissible epsilon interval for the k-caterpillar family."""
    _check_k(k)
    return Fraction(2, (k + 1) * (k + 2))


STAR_EPS_MAX = Fraction(1, 6)


def _check_k(k: int) -> None:
    if k < 2:
        raise InvalidSpec(f"k must be >= 2, got {k}")


def _check_degree(d: int) -> None:
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")


def f_lin(d: int) -> Fraction:
    """Per-degree weight of the induced linear forest bound."""
    _check_degree(d)
    if d == 0:
        return _ONE
    if d == 1:
        return Fraction(5, 6)
    return Fraction(2, d + 1)


def f_k_eps(k: int, eps: Fraction, d: int) -> Fraction:
    """Weight family for caterpillar forests of maximum degree at most k."""
    _check_k(k)
    _check_degree(d)
    eps = Fraction(eps)
    if not _ZERO <= eps <= eps_max(k):
        raise EpsOutOfRange(f"eps={eps} outside [0, {eps_max(k)}] for k={k}")
    if d == 0:
        return _ONE
    if d == 1:
        return 1 - eps
    if d <= k:
        return Fraction(2, d + 1)
    return min((k + 1) * eps, Fraction(2, d + 1))


def f_k(k: int, d: int) -> Fraction:
    """The endpoint of the family: epsilon at its maximum."""
    return f_k_eps(k, eps_max(k), d)


def hkg_weight(k: int, dw: Optional[int], d: int) -> Fraction:
    """Local caterpillar weight of a vertex of degree d; a leaf's value
    depends on dw, the degree of its neighbor (None for any other vertex)."""
    _check_k(k)
    if d == 0:
        return _ONE
    if d >= 2:
        return Fraction(2, d + 1)
    if dw <= k:
        return _ONE
    return 1 - Fraction(2, (k + 1) * (dw + 1))


def star_f_eps(eps: Fraction, d: int) -> Fraction:
    """Weight family for star forests."""
    _check_degree(d)
    eps = Fraction(eps)
    if not _ZERO <= eps <= STAR_EPS_MAX:
        raise EpsOutOfRange(f"eps={eps} outside [0, 1/6]")
    if d == 0:
        return _ONE
    if d == 1:
        return 1 - eps
    if d == 2:
        return min(Fraction(3, 5), Fraction(1, 2) + eps)
    return min(Fraction(2, d + 1), Fraction(1, d) + eps)


def abc_weight(part: str, d: int) -> Fraction:
    """Per-part weights of the constrained linear forest bound."""
    _check_degree(d)
    if part == "A":
        return f_lin(d)
    if part == "B":
        if d == 0:
            return _ONE
        if d == 1:
            return Fraction(5, 6)
        if d == 2:
            return Fraction(1, 3)
        return Fraction(4, 3 * (d + 1))
    if part == "C":
        if d == 0:
            return _ONE
        if d <= 2:
            return Fraction(1, 6)
        return Fraction(2, 3 * (d + 1))
    raise ValueError(f"part must be A, B, or C, got {part!r}")


def ab_star_weight(part: str, d: int) -> Fraction:
    """Per-part weights of the constrained star forest bound."""
    _check_degree(d)
    if part == "A":
        if d == 0:
            return _ONE
        if d == 1:
            return Fraction(5, 6)
        if d == 2:
            return Fraction(3, 5)
        return Fraction(2, d + 1)
    if part == "B":
        return Fraction(1, d + 1)
    raise ValueError(f"part must be A or B, got {part!r}")


def gain(part: str, d: int) -> Fraction:
    """Weight increase when the degree of a vertex drops by one."""
    if d < 1:
        raise DegreeZero("gain is undefined for degree 0")
    return abc_weight(part, d - 1) - abc_weight(part, d)


def loss(part: str, d: int) -> Fraction:
    """Weight decrease when the degree of a vertex rises by one."""
    _check_degree(d)
    return abc_weight(part, d) - abc_weight(part, d + 1)


def ab_star_gain(part: str, d: int) -> Fraction:
    """Gain analogue for the star forest weights."""
    if d < 1:
        raise DegreeZero("gain is undefined for degree 0")
    return ab_star_weight(part, d - 1) - ab_star_weight(part, d)


def _label_tags(vertices, labels, leaves):
    try:
        return list(map(labels.labels.__getitem__, vertices))
    except KeyError:  # Partition.part names the first unlabeled vertex
        return list(map(labels.part, vertices))


# Each bound variant: whether it takes k; the top of its eps range as a
# function of k (None when it takes no eps); the tags of the vertices, given
# them, the partition and their leaf tags (None for an untagged variant); and
# the weight of a vertex given k, eps and its key, which is its degree if the
# variant is untagged and (tag, degree) otherwise.
_VARIANTS = {
    "flin": (False, None, None, lambda k, eps, d: f_lin(d)),
    # the Alon-Kahn-Seymour weight at k = 1, the caterpillar forest bound
    "aks": (False, None, None, lambda k, eps, d: min(_ONE, Fraction(2, d + 1))),
    "fkeps": (True, eps_max, None, lambda k, eps, d: f_k_eps(k, eps, d)),
    "fk": (True, None, None, lambda k, eps, d: f_k(k, d)),
    "hkg": (True, None, lambda vs, _, leaves: leaves, lambda k, eps, key: hkg_weight(k, *key)),
    "star": (False, lambda k: STAR_EPS_MAX, None, lambda k, eps, d: star_f_eps(eps, d)),
    "abc": (False, None, _label_tags, lambda k, eps, key: abc_weight(*key)),
    "abstar": (False, None, _label_tags, lambda k, eps, key: ab_star_weight(*key)),
}


@dataclass(frozen=True)
class BoundSpec:
    """Which weight family to sum over a graph.

    variant is one of flin, aks, fkeps, fk, hkg, star, abc, abstar. For
    fkeps and star an eps of None means "pick the optimal epsilon for the
    graph's degree histogram".
    """

    variant: str
    k: Optional[int] = None
    eps: Optional[Fraction] = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise InvalidSpec(f"unknown bound variant {self.variant!r}")
        takes_k, top = _VARIANTS[self.variant][:2]
        if takes_k:
            if self.k is None:
                raise InvalidSpec(f"{self.variant} requires k")
            _check_k(self.k)
        elif self.k is not None:
            raise InvalidSpec(f"{self.variant} does not take k")
        if self.eps is not None:
            if top is None:
                raise InvalidSpec(f"{self.variant} does not take eps")
            try:  # one normal form: 0, 0.0 and Fraction(0) are one spec with one text
                eps = Fraction(None if isinstance(self.eps, str) else self.eps)
            except TypeError:  # no number; a str too, which Fraction would read ("1/10")
                raise InvalidSpec(f"eps {self.eps!r} is not a number") from None
            except (ValueError, OverflowError):  # nan or inf: no Fraction, and out of range
                eps = self.eps
            object.__setattr__(self, "eps", eps)
            if not _ZERO <= self.eps <= top(self.k):
                raise EpsOutOfRange(f"eps={self.eps} outside [0, {top(self.k)}]")

    @property
    def eps_open(self) -> bool:
        """Whether eps is left to be picked for the graph's degrees."""
        return self.eps is None and _VARIANTS[self.variant][1] is not None

    def to_text(self) -> str:
        return spec_text(self.variant, [("k", self.k), ("eps", self.eps)])


def parse_bound_spec(text: str) -> BoundSpec:
    """Parse the canonical text encoding, e.g. `fkeps:k=2,eps=1/6`. Which
    arguments a variant needs or takes is BoundSpec's check."""
    name, args = parse_spec_text(text, "bound spec", ("k", "eps"))
    try:
        k = int(args["k"]) if "k" in args else None
        return BoundSpec(name, k, Fraction(args["eps"]) if "eps" in args else None)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad bound spec {text!r}: {exc}") from exc


def weight_counts(spec: BoundSpec, vertices, deg: list[int], labels=None, leaves=None) -> Counter:
    """The count of each degree among vertices of degrees deg, or of each (tag, degree): the tag
    is a vertex's part in labels for abc and abstar, and its entry of leaves for hkg (a leaf's
    neighbor's degree, None for any other vertex)."""
    tags = _VARIANTS[spec.variant][2]
    if tags is _label_tags and labels is None:
        raise MissingPartition(f"{spec.variant} weights need a partition")
    return Counter(deg if tags is None else zip(tags(vertices, labels, leaves), deg))


def graph_counts(g: Graph, spec: BoundSpec, labels=None) -> Counter:
    """weight_counts of g's vertices, their degrees and, for hkg, leaf tags."""
    deg = g.degrees()
    return weight_counts(spec, g.vertices, deg, labels,
                         g.leaf_tags(deg) if spec.variant == "hkg" else None)


def total_weight(counts: Mapping, spec: BoundSpec) -> Fraction:
    """Sum spec's weights over the counts of weight_counts exactly, each key's weight evaluated
    once, in ints over one common denominator. An open eps of fkeps or star, untagged variants
    both, is the optimum for counts, their degree histogram."""
    eps, weight = spec.eps, _VARIANTS[spec.variant][3]
    if spec.eps_open:
        eps, _ = select_eps(spec, DegreeHistogram.from_counts(counts))
    terms = [(c, weight(spec.k, eps, key)) for key, c in counts.items()]
    den = math.lcm(*(w.denominator for _, w in terms))
    return Fraction(sum(c * w.numerator * (den // w.denominator) for c, w in terms), den)


def select_eps(spec: BoundSpec, hist: DegreeHistogram) -> tuple[Fraction, Optional[int]]:
    """The optimal eps on hist for an fkeps or star spec whose eps is open.
    The second value is the D that epsilon_star picked an fkeps eps by, None
    for star."""
    if spec.variant == "star":
        return star_epsilon_opt(hist), None
    return epsilon_star(hist, spec.k)


def epsilon_star(hist: DegreeHistogram, k: int) -> tuple[Fraction, Optional[int]]:
    """Optimal epsilon for the k-caterpillar family on a degree histogram.

    Returns (eps, D) where eps = 2/((k+1)(D+1)) for the smallest D >= k+1
    whose cumulative high-degree count satisfies (k+1) * sum n_d >= n_1;
    (0, None) when no such D exists up to the maximum degree. The total is
    piecewise linear in epsilon, so this breakpoint maximizes it.
    """
    _check_k(k)
    n1 = hist.count(1)
    cumulative = 0
    for d_star in range(k + 1, max(hist.max_degree, k + 1) + 1):
        cumulative += hist.count(d_star)
        if (k + 1) * cumulative >= n1:
            return Fraction(2, (k + 1) * (d_star + 1)), d_star
    return _ZERO, None


def star_epsilon_opt(hist: DegreeHistogram) -> Fraction:
    """Smallest epsilon in [0, 1/6] maximizing the star forest bound.

    The total is concave and piecewise linear in epsilon: its slope is -n_1
    plus n_d for each degree d whose kink lies above epsilon, 1/10 for d = 2
    and (d-1)/(d(d+1)) for d >= 3. Walking the kinks down from the top, the
    first at which the summed n_d exceed n_1 is the smallest maximizer; 0 if
    there is none.
    """
    n1 = hist.count(1)
    cumulative = 0
    # The kinks fall as d grows; that of degree 2 lies between those of 7 and 8.
    for d in (3, 4, 5, 6, 7, 2, *range(8, hist.max_degree + 1)):
        cumulative += hist.count(d)
        if cumulative > n1:
            return Fraction(1, 10) if d == 2 else Fraction(d - 1, d * (d + 1))
    return _ZERO
