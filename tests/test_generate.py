"""Generators: witness families, gadgets, random models."""

import importlib
import re
import tracemalloc

import pytest

from forestbound import InfeasibleDegree, InvalidSpec, ParseError, RetryLimit
from forestbound.generate import (
    GenSpec,
    complete_graph,
    cycle_graph,
    fig1_gadget,
    generate,
    gnp,
    hnk_graph,
    k_prime_graph,
    parse_gen_spec,
    path_graph,
    random_regular,
    star_graph,
)


class TestFixedFamilies:
    def test_complete(self):
        g = complete_graph(5)
        assert g.n == 5 and g.m == 10

    def test_star_path_cycle(self):
        assert star_graph(3).degree_histogram().counts == {3: 1, 1: 3}
        assert path_graph(4).m == 3
        assert cycle_graph(5).m == 5
        with pytest.raises(InvalidSpec):
            cycle_graph(2)

    def test_hnk_22(self):
        # derived from the definition: 1 core edge + 6 pendant edges
        g = hnk_graph(2, 2)
        assert g.n == 8 and g.m == 7
        assert g.degree_histogram().counts == {4: 2, 1: 6}

    def test_hnk_degree_structure(self):
        for n in (1, 2, 3, 4):
            for k in (2, 3):
                g = hnk_graph(n, k)
                hist = g.degree_histogram().counts
                assert hist.get(1, 0) == n * (k + 1)
                core_degree = n - 1 + k + 1
                assert hist.get(core_degree, 0) >= n
                assert g.n == n * (k + 2)

    def test_kprime_3(self):
        g = k_prime_graph(3)
        assert g.n == 6 and g.m == 6

    def test_kprime_degrees(self):
        for n in range(2, 7):
            hist = k_prime_graph(n).degree_histogram().counts
            assert hist == {n: n, 1: n}

    def test_core_first_numbering(self):
        g = hnk_graph(2, 2)
        assert g.degrees() == [4, 4] + [1] * 6


class TestFig1Gadgets:
    def test_k2ac(self):
        g, p = fig1_gadget("K2AC")
        assert g.m == 1 and p.labels == {0: "A", 1: "C"}

    def test_p3ab(self):
        g, p = fig1_gadget("P3AB")
        assert g.m == 2 and p.labels == {0: "A", 1: "B", 2: "A"}

    def test_k3acc(self):
        g, p = fig1_gadget("K3ACC")
        assert g.m == 3 and sorted(p.labels.values()) == ["A", "C", "C"]

    def test_unknown(self):
        with pytest.raises(InvalidSpec):
            fig1_gadget("K9")


class TestRandomModels:
    def test_gnp_deterministic(self):
        a = gnp(30, 0.2, 42)
        b = gnp(30, 0.2, 42)
        assert a == b
        c = gnp(30, 0.2, 43)
        assert a != c  # overwhelmingly likely for these parameters

    def test_gnp_extremes(self):
        assert gnp(10, 0.0, 1).m == 0
        assert gnp(10, 1.0, 1).m == 45

    def test_regular_k4(self):
        g = random_regular(4, 3, 0)
        assert g.m == 6  # the only simple cubic graph on 4 vertices

    def test_regular_two_gives_cycle_cover(self):
        g = random_regular(6, 2, 5)
        assert g.degrees() == [2] * 6
        assert g.m == 6

    def test_regular_cubic_ten(self):
        g = random_regular(10, 3, 7)
        assert g.degrees() == [3] * 10

    def test_regular_after_whole_pairings_run_out(self):
        # a whole 6-regular pairing is simple with probability about e^-8.75,
        # so this size once took thousands of tries; edge by edge it takes one
        g = random_regular(20, 6, 200)
        assert g.m == 60 and g.degrees() == [6] * 20
        assert g == random_regular(20, 6, 200)

    def test_regular_deterministic(self):
        assert random_regular(12, 3, 9) == random_regular(12, 3, 9)

    def test_infeasible(self):
        with pytest.raises(InfeasibleDegree):
            random_regular(5, 3, 0)  # odd n*d
        with pytest.raises(InfeasibleDegree):
            random_regular(4, 4, 0)  # d >= n


class TestGenSpecText:
    @pytest.mark.parametrize(
        "text,family",
        [
            ("complete:n=4", "complete"),
            ("star:t=3", "star"),
            ("hnk:n=3,k=2", "hnk"),
            ("kprime:n=4", "kprime"),
            ("fig1:id=P3AB", "fig1"),
            ("gnp:n=30,p=0.2,seed=42", "gnp"),
            ("regular:n=10,d=3,seed=7", "regular"),
        ],
    )
    def test_parse_and_generate(self, text, family):
        spec = parse_gen_spec(text)
        assert spec.family == family
        g, _labels = generate(spec)
        assert g.n >= 1
        assert parse_gen_spec(spec.to_text()) == spec

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_gen_spec("gnp:n=30,q=1")
        with pytest.raises(ParseError):
            parse_gen_spec("hnk:n=x")
        with pytest.raises(InvalidSpec, match="unknown family 'wedge'"):
            generate(parse_gen_spec("wedge:n=3"))
        with pytest.raises(InvalidSpec, match="family 'hnk' needs parameter 'k'"):
            generate(GenSpec("hnk", n=3))  # missing k
        with pytest.raises(InvalidSpec, match="family 'complete' takes no parameter 'k'"):
            generate(parse_gen_spec("complete:n=4,k=9,seed=3"))
        with pytest.raises(InvalidSpec, match="family 'fig1' takes no parameter 'n'"):
            generate(parse_gen_spec("fig1:id=P3AB,n=3"))

    def test_missing_gadget_names_the_key_a_user_types(self):
        # the spec text's key is `id`, and so is the GenSpec field it sets
        with pytest.raises(InvalidSpec, match=r"^family 'fig1' needs parameter 'id'$"):
            generate(parse_gen_spec("fig1"))
        assert parse_gen_spec("fig1:id=K2AC") == GenSpec("fig1", id="K2AC")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: complete_graph(0), "complete graph needs n >= 1"),
        (lambda: star_graph(-1), "star needs t >= 0"),
        (lambda: path_graph(0), "path needs n >= 1"),
        (lambda: hnk_graph(0, 2), "hnk needs n >= 1 and k >= 2"),
        (lambda: hnk_graph(1, 1), "hnk needs n >= 1 and k >= 2"),
        (lambda: k_prime_graph(0), "kprime needs n >= 1"),
        (lambda: gnp(0, 0.5, 1), "gnp needs n >= 1 and p in [0, 1]"),
        (lambda: gnp(3, 1.5, 1), "gnp needs n >= 1 and p in [0, 1]"),
    ],
    ids=["complete", "star", "path", "hnk-n", "hnk-k", "kprime", "gnp-n", "gnp-p"],
)
def test_family_size_checks(build, message):
    with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
        build()


def test_zero_regular_graph_has_no_edges():
    g = random_regular(5, 0, 1)
    assert (g.n, g.m, g.vertices) == (5, 0, (0, 1, 2, 3, 4))


def test_pairing_gives_up_after_the_retry_cap(monkeypatch):
    # the package's `generate` is the function; the module is fetched by name
    generate_module = importlib.import_module("forestbound.generate")
    attempts = []
    monkeypatch.setattr(generate_module, "_pair_edge_by_edge", lambda n, d, rng: attempts.append(n))
    with pytest.raises(RetryLimit, match=r"^pairing model failed 10000 times for n=4, d=3$"):
        random_regular(4, 3, 0)
    assert len(attempts) == generate_module.PAIRING_RETRY_CAP == 10_000


LIMIT = 1 << 20
# Per family: a spec at the vertex limit, and one past it with its vertex count.
AT_THE_LIMIT = {
    "complete": (f"complete:n={LIMIT}", f"complete:n={LIMIT + 1}", LIMIT + 1),
    "star": (f"star:t={LIMIT - 1}", f"star:t={LIMIT}", LIMIT + 1),
    "path": (f"path:n={LIMIT}", f"path:n={LIMIT + 1}", LIMIT + 1),
    "cycle": (f"cycle:n={LIMIT}", f"cycle:n={LIMIT + 1}", LIMIT + 1),
    "hnk": (f"hnk:n={LIMIT // 4},k=2", f"hnk:n={LIMIT // 8 + 1},k=6", LIMIT + 8),
    "kprime": (f"kprime:n={LIMIT // 2}", f"kprime:n={LIMIT // 2 + 1}", LIMIT + 2),
    "gnp": (f"gnp:n={LIMIT},p=0,seed=1", f"gnp:n={LIMIT + 1},p=0,seed=1", LIMIT + 1),
    "regular": (f"regular:n={LIMIT},d=2,seed=1", f"regular:n={LIMIT + 1},d=2,seed=1", LIMIT + 1),
}


@pytest.mark.parametrize("family", AT_THE_LIMIT)
def test_vertex_limit_checked_before_the_builder_runs(monkeypatch, family):
    # a count past MAX_VERTICES is refused before the family's builder makes an
    # edge (gnp's pair loop alone would take about 5.5e11 steps); at the limit
    # the builder runs
    generate_module = importlib.import_module("forestbound.generate")
    assert generate_module.MAX_VERTICES == LIMIT
    build, takes = generate_module._FAMILIES[family]
    calls = []
    monkeypatch.setitem(generate_module._FAMILIES, family, (lambda *args: calls.append(args), takes))
    at, past, count = AT_THE_LIMIT[family]
    generate(parse_gen_spec(at))
    assert len(calls) == 1
    with pytest.raises(ParseError, match=rf"^{count} vertices exceed the limit of {LIMIT}$"):
        generate(parse_gen_spec(past))
    assert len(calls) == 1


@pytest.mark.parametrize("build, args, count", [
    (gnp, (LIMIT + 1, 0.5, 1), LIMIT + 1),
    (hnk_graph, (LIMIT // 8 + 1, 6), LIMIT + 8),
    (k_prime_graph, (LIMIT // 2 + 1,), LIMIT + 2),
], ids=["gnp", "hnk", "kprime"])
def test_direct_call_past_the_limit_draws_no_edge(monkeypatch, build, args, count):
    # a builder called directly hands Graph.from_edges its pairs undrawn, so the count is
    # refused before the first pair is made (gnp's would be the first of about 5.5e11)
    generate_module = importlib.import_module("forestbound.generate")

    def pairs(*_):
        raise AssertionError("a pair was drawn")
        yield

    monkeypatch.setattr(generate_module, "combinations", pairs)
    with pytest.raises(ParseError, match=rf"^{count} vertices exceed the limit of {LIMIT}$"):
        build(*args)


def test_regular_past_the_limit_pairs_no_stub(monkeypatch):
    # the pairing is handed to Graph.from_edges undrawn, so the count is refused before
    # the first stub is paired (at 2**20 + 2 vertices the pairing took about 7 s)
    generate_module = importlib.import_module("forestbound.generate")

    def pair(*_):
        raise AssertionError("a stub was paired")

    monkeypatch.setattr(generate_module, "_pair_edge_by_edge", pair)
    with pytest.raises(ParseError, match=rf"^{LIMIT + 2} vertices exceed the limit of {LIMIT}$"):
        random_regular(LIMIT + 2, 2, 1)


def test_cycle_past_the_limit_builds_no_pair_list():
    # the cycle's pairs are handed to Graph.from_edges undrawn: a list of them
    # would take about 100 MB before the count is refused
    message = rf"^{LIMIT + 1} vertices exceed the limit of {LIMIT}$"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=message):
            cycle_graph(LIMIT + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
