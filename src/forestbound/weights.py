"""Exact-rational weight functions, gains and losses, and epsilon selectors.

Every bound in this package is a sum of per-vertex weights that depend only
on the vertex degree (and, for the local caterpillar bound, on the degree of
a leaf's unique neighbor). All arithmetic is exact: certificates compare a
vertex count against sums of fractions, and rounding would invalidate the
comparison.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DegreeZero, EpsOutOfRange, InvalidSpec, MissingPartition, ParseError
from .graph import DegreeHistogram, Graph

Rat = Fraction

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


def h_kg(g: Graph, k: int, v: int) -> Fraction:
    """Local caterpillar weight: a leaf's value depends on its neighbor's degree."""
    _check_k(k)
    d = g.degree(v)
    if d == 0:
        return _ONE
    if d >= 2:
        return Fraction(2, d + 1)
    (w,) = g.neighbors(v)
    dw = g.degree(w)
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


# Each bound variant: whether it takes k, and the top of its eps range as a
# function of k (None when it takes no eps).
_VARIANTS = {
    "flin": (False, None),
    "fkeps": (True, eps_max),
    "fk": (True, None),
    "hkg": (True, None),
    "star": (False, lambda k: STAR_EPS_MAX),
    "abc": (False, None),
    "abstar": (False, None),
}


@dataclass(frozen=True)
class BoundSpec:
    """Which weight family to sum over a graph.

    variant is one of flin, fkeps, fk, hkg, star, abc, abstar. For fkeps and
    star an eps of None means "pick the optimal epsilon for the graph's
    degree histogram".
    """

    variant: str
    k: Optional[int] = None
    eps: Optional[Fraction] = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise InvalidSpec(f"unknown bound variant {self.variant!r}")
        takes_k, top = _VARIANTS[self.variant]
        if takes_k:
            if self.k is None:
                raise InvalidSpec(f"{self.variant} requires k")
            _check_k(self.k)
        elif self.k is not None:
            raise InvalidSpec(f"{self.variant} does not take k")
        if self.eps is not None:
            if top is None:
                raise InvalidSpec(f"{self.variant} does not take eps")
            if not _ZERO <= self.eps <= top(self.k):
                raise EpsOutOfRange(f"eps={self.eps} outside [0, {top(self.k)}]")

    @classmethod
    def flin(cls) -> "BoundSpec":
        return cls("flin")

    @classmethod
    def fkeps(cls, k: int, eps: Optional[Fraction] = None) -> "BoundSpec":
        return cls("fkeps", k=k, eps=None if eps is None else Fraction(eps))

    @classmethod
    def fk(cls, k: int) -> "BoundSpec":
        return cls("fk", k=k)

    @classmethod
    def hkg(cls, k: int) -> "BoundSpec":
        return cls("hkg", k=k)

    @classmethod
    def star(cls, eps: Optional[Fraction] = None) -> "BoundSpec":
        return cls("star", eps=None if eps is None else Fraction(eps))

    @classmethod
    def abc(cls) -> "BoundSpec":
        return cls("abc")

    @classmethod
    def abstar(cls) -> "BoundSpec":
        return cls("abstar")

    @property
    def eps_open(self) -> bool:
        """Whether eps is left to be picked for the graph's degrees."""
        return self.eps is None and _VARIANTS[self.variant][1] is not None

    def to_text(self) -> str:
        pairs = (("k", self.k), ("eps", self.eps))
        args = ",".join(f"{key}={value}" for key, value in pairs if value is not None)
        return f"{self.variant}:{args}" if args else self.variant


def parse_bound_spec(text: str) -> BoundSpec:
    """Parse the canonical text encoding, e.g. `fkeps:k=2,eps=1/6`."""
    text = text.strip()
    name, _, argstr = text.partition(":")
    args: dict[str, str] = {}
    if argstr:
        for piece in argstr.split(","):
            key, eq, value = piece.partition("=")
            if not eq or not value:
                raise ParseError(f"bad bound spec argument {piece!r} in {text!r}")
            args[key.strip()] = value.strip()
    if name not in _VARIANTS:
        raise ParseError(f"unknown bound spec {text!r}")
    takes_k, top = _VARIANTS[name]
    required = {"k"} if takes_k else set()
    missing = required - args.keys()
    extra = args.keys() - required - ({"eps"} if top else set())
    if missing or extra:
        raise ParseError(
            f"bound spec arguments: missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    try:
        eps = Fraction(args["eps"]) if "eps" in args else None
        return BoundSpec(name, int(args["k"]) if takes_k else None, eps)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad bound spec {text!r}: {exc}") from exc


def total_weight(g: Graph, spec: BoundSpec, labels=None) -> Fraction:
    """Sum the per-vertex weights of spec over g, exactly.

    Partition-dependent variants (abc, abstar) require labels; fkeps/star
    with eps=None select the optimal epsilon from g's degree histogram.
    Every variant but hkg depends only on the degree (and label), so it is
    summed as count * weight over the (label, degree) histogram.
    """
    if spec.variant == "hkg":
        return sum((h_kg(g, spec.k, v) for v in g.vertices), _ZERO)
    if spec.variant in ("abc", "abstar"):
        if labels is None:
            raise MissingPartition(f"{spec.variant} weights need a partition")
        weight = abc_weight if spec.variant == "abc" else ab_star_weight
        counts = Counter((labels.part(v), g.degree(v)) for v in g.vertices)
        return sum((count * weight(part, d) for (part, d), count in counts.items()), _ZERO)
    hist = g.degree_histogram()
    if spec.variant == "flin":
        return sum((count * f_lin(d) for d, count in hist.counts.items()), _ZERO)
    eps, _ = select_eps(spec, hist)
    if spec.variant == "star":
        return star_histogram_total(hist, eps)
    return fkeps_histogram_total(hist, spec.k, eps)


def select_eps(spec: BoundSpec, hist: DegreeHistogram) -> tuple[Fraction, Optional[int]]:
    """The eps that an fkeps, fk or star spec sums with on hist: its own, the
    top of the range for fk, or else the optimum for hist. The second value
    is the D that epsilon_star picked an open fkeps eps by, None otherwise."""
    if spec.eps is not None:
        return spec.eps, None
    if spec.variant == "fk":
        return eps_max(spec.k), None
    if spec.variant == "star":
        return star_epsilon_opt(hist), None
    return epsilon_star(hist, spec.k)


def fkeps_histogram_total(hist: DegreeHistogram, k: int, eps: Fraction) -> Fraction:
    """Value of the k-caterpillar bound on a degree histogram."""
    return sum(
        (count * f_k_eps(k, eps, d) for d, count in hist.counts.items()), _ZERO
    )


def star_histogram_total(hist: DegreeHistogram, eps: Fraction) -> Fraction:
    """Value of the star forest bound on a degree histogram."""
    return sum((count * star_f_eps(eps, d) for d, count in hist.counts.items()), _ZERO)


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


def star_eps_breakpoints(hist: DegreeHistogram) -> list[Fraction]:
    """Candidate maximizers of the star bound as a function of epsilon.

    The total is concave and piecewise linear, so its smallest maximizer is 0,
    1/6 or a kink: 1/10 from degree 2, (d-1)/(d(d+1)) from a degree d >= 3.
    Only degrees that occur in the histogram bend the total.
    """
    points = {_ZERO, Fraction(1, 6), Fraction(1, 10)}
    for d in hist.counts:
        if d >= 3:
            points.add(Fraction(d - 1, d * (d + 1)))
    return sorted(points)


def star_epsilon_opt(hist: DegreeHistogram) -> Fraction:
    """Smallest epsilon in [0, 1/6] maximizing the star forest bound."""
    best_eps = _ZERO
    best_val = star_histogram_total(hist, _ZERO)
    for eps in star_eps_breakpoints(hist):
        val = star_histogram_total(hist, eps)
        if val > best_val:
            best_eps, best_val = eps, val
    return best_eps
