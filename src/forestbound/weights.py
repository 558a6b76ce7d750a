"""Exact-rational weight functions, gains, and epsilon selectors.

Every bound in this package is a sum of per-vertex weights that depend only
on the vertex degree and a tag: the part of the vertex for the constrained
bounds, the degree of a leaf's unique neighbor for the local caterpillar
bound. All arithmetic is exact: certificates compare a vertex count against
sums of fractions, and rounding would invalidate the comparison.
"""

from __future__ import annotations

import math
import re
import sys
from collections import Counter
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from typing import Mapping, Optional

from .errors import DegreeZero, EpsOutOfRange, InvalidSpec, MissingPartition, ParseError
from .graph import DegreeHistogram, Graph, parse_spec_text, spec_text

_ZERO = Fraction(0)
_ONE = Fraction(1)
_CHUNK = 10**500  # 500 digits, within every int digit limit Python allows (640 at the least)


def _int_text(n: int) -> str:
    """n in decimal at any length, written 500 digits at a time: str() refuses an int past
    sys.get_int_max_str_digits()."""
    high, chunks = abs(n), []
    while high >= _CHUNK:
        high, low = divmod(high, _CHUNK)
        chunks.append(f"{low:0500}")
    return "-" * (n < 0) + str(high) + "".join(reversed(chunks))


def rat_text(x: Fraction) -> str:
    """x as `p/q`, the form certificates, reports and the CLI print, at any length."""
    return f"{_int_text(x.numerator)}/{_int_text(x.denominator)}"


def eps_max(k: int) -> Fraction:
    """Upper end of the admissible epsilon interval for the k-caterpillar family."""
    _check_k(k)
    return Fraction(2, (k + 1) * (k + 2))


STAR_EPS_MAX = Fraction(1, 6)


def _check_k(k: int) -> None:
    if not isinstance(k, int):
        raise InvalidSpec(f"k {k!r} is not an int")
    if k < 2:
        raise InvalidSpec(f"k must be >= 2, got {k}")


# The fixed weights, one shape each: (the weights of degrees 0..h-1, p, q), and every degree
# d >= h weighs p/(q(d + 1)). A leaf weighs 5/6 in each shape but those of aks and ABC part C.
_LEAF = Fraction(5, 6)
_FLIN = ((_ONE, _LEAF), 2, 1)  # ABC part A, and the base of fkeps
_AKS = ((_ONE,), 2, 1)  # the Alon-Kahn-Seymour weight at k = 1; hkg's but at a leaf
_STAR = ((_ONE, _LEAF, Fraction(3, 5)), 2, 1)  # AB part A, and the base of star
# The shapes of the parts of the partitions of abc and abstar, and the parts' names.
_PARTS = {
    "abc": ({"A": _FLIN, "B": ((_ONE, _LEAF, Fraction(1, 3)), 4, 3),
             "C": ((_ONE, *[Fraction(1, 6)] * 2), 2, 3)}, "A, B, or C"),
    "abstar": ({"A": _STAR, "B": ((), 1, 1)}, "A or B"),
}


def _weigh(shape, d: int) -> Fraction:
    """The weight of degree d in shape."""
    head, p, q = shape
    if d < len(head):
        if d < 0:
            raise ValueError(f"degree must be nonnegative, got {d}")
        return head[d]
    return Fraction(p, q * (d + 1))


# An eps family caps a shape: a leaf weighs 1 - eps, and a degree d >= first at most
# scale * eps + inv/d. The cap meets the shape's weight w at d's kink eps = (w - inv/d)/scale,
# below which it binds, and each vertex of degree d adds scale to the slope of the total in eps.
_CAPS = {"fkeps": lambda k: (_FLIN, k + 1, k + 1, 0), "star": lambda k: (_STAR, 2, 1, 1)}


def _capped(variant: str, k: Optional[int], eps: Fraction, d: int) -> Fraction:
    """The weight of degree d in the eps family of variant."""
    if d == 1:
        return 1 - eps
    shape, first, scale, inv = _CAPS[variant](k)
    w = _weigh(shape, d)
    return min(scale * eps + Fraction(inv, d), w) if d >= first else w


def _part_weight(variant: str, part: str, d: int) -> Fraction:
    """The weight of a vertex of degree d in part of a partition, in the constrained linear forest
    bound for abc (abc_weight) or the constrained star forest bound for abstar (ab_star_weight)."""
    shapes, names = _PARTS[variant]
    if part not in shapes:
        raise ValueError(f"part must be {names}, got {part!r}")
    return _weigh(shapes[part], d)


def f_lin(d: int) -> Fraction:
    """Per-degree weight of the induced linear forest bound."""
    return _weigh(_FLIN, d)


def f_k_eps(k: int, eps: Fraction, d: int) -> Fraction:
    """Weight family for caterpillar forests of maximum degree at most k."""
    return _capped("fkeps", k, BoundSpec("fkeps", k, eps).eps, d)


def f_k(k: int, d: int) -> Fraction:
    """The endpoint of the family: epsilon at its maximum."""
    return f_k_eps(k, eps_max(k), d)


def hkg_weight(k: int, dw: Optional[int], d: int) -> Fraction:
    """Local caterpillar weight of a vertex of degree d; a leaf's value
    depends on dw, the degree of its neighbor (None for any other vertex)."""
    _check_k(k)
    if d != 1:
        return _weigh(_AKS, d)
    return _ONE if dw <= k else 1 - Fraction(2, (k + 1) * (dw + 1))


def star_f_eps(eps: Fraction, d: int) -> Fraction:
    """Weight family for star forests."""
    return _capped("star", None, BoundSpec("star", eps=eps).eps, d)


def _gain(variant: str, part: str, d: int) -> Fraction:
    """Weight increase when the degree of a vertex drops by one, in abc's weights (gain) or
    abstar's (ab_star_gain)."""
    if d < 1:
        raise DegreeZero("gain is undefined for degree 0")
    return _part_weight(variant, part, d - 1) - _part_weight(variant, part, d)


abc_weight, ab_star_weight = partial(_part_weight, "abc"), partial(_part_weight, "abstar")
gain, ab_star_gain = partial(_gain, "abc"), partial(_gain, "abstar")


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
    "flin": (False, None, None, lambda k, eps, d: _weigh(_FLIN, d)),
    "aks": (False, None, None, lambda k, eps, d: _weigh(_AKS, d)),
    "fkeps": (True, eps_max, None, lambda k, eps, d: _capped("fkeps", k, eps, d)),
    "fk": (True, None, None, lambda k, eps, d: _capped("fkeps", k, eps_max(k), d)),
    "hkg": (True, None, lambda vs, _, leaves: leaves, lambda k, eps, key: hkg_weight(k, *key)),
    "star": (False, lambda k: STAR_EPS_MAX, None, lambda k, eps, d: _capped("star", k, eps, d)),
    "abc": (False, None, _label_tags, lambda k, eps, key: _part_weight("abc", *key)),
    "abstar": (False, None, _label_tags, lambda k, eps, key: _part_weight("abstar", *key)),
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
        # Fraction would build 10**e for an exponent e however long it took
        exp = re.search(r"e([-+]?\d+(?:_\d+)*)$", args.get("eps", ""), re.I)
        if exp and abs(int(exp[1])) >= (sys.get_int_max_str_digits() or math.inf):
            raise ValueError(f"eps exponent {exp[1]} makes a power of 10 past the int digit limit")
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


def _kink_walk(hist: DegreeHistogram, variant: str, k: Optional[int], degrees, past: bool):
    """(d, its kink) for the first of degrees, walked from the highest kink down, below whose kink
    the slope of the total in eps, -n_1 plus scale times the count of the degrees walked, is
    >= 0 (> 0, if past); (None, 0) if there is none. The walk counts in ints."""
    shape, _, scale, inv = _CAPS[variant](k)
    need, walked = hist.count(1) + past, 0
    for d in degrees:
        walked += hist.count(d)
        if scale * walked >= need:  # the kink (w - inv/d)/scale, over ints
            w = _weigh(shape, d)
            return d, Fraction(w.numerator * d - inv * w.denominator, w.denominator * d * scale)
    return None, _ZERO


def epsilon_star(hist: DegreeHistogram, k: int) -> tuple[Fraction, Optional[int]]:
    """Optimal epsilon for the k-caterpillar family on a degree histogram, and its D: the kink
    2/((k+1)(D+1)) of the smallest D >= k+1 whose cumulative high-degree count satisfies
    (k+1) * sum n_d >= n_1, the largest maximizer; (0, None) when there is no such D."""
    _check_k(k)
    d_star, eps = _kink_walk(hist, "fkeps", k, range(k + 1, max(hist.max_degree, k + 1) + 1), False)
    return eps, d_star


def star_epsilon_opt(hist: DegreeHistogram) -> Fraction:
    """Smallest epsilon in [0, 1/6] maximizing the star forest bound: the first kink, 1/10 for
    d = 2 and (d-1)/(d(d+1)) for d >= 3, at which the summed n_d exceed n_1; 0 if none does."""
    # The kinks fall as d grows; that of degree 2 lies between those of 7 and 8.
    kinks_down = (3, 4, 5, 6, 7, 2, *range(8, hist.max_degree + 1))
    return _kink_walk(hist, "star", None, kinks_down, True)[1]
