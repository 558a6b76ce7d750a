"""Harness suites and the command-line surface."""

import multiprocessing
import sys
from itertools import combinations
from pathlib import Path

import pytest

from forestbound import harness, run_suite
from forestbound.cli import main
from forestbound.errors import BoundMiss, ForestBoundError
from forestbound.graph import MAX_VERTICES
from forestbound.harness import SUITES, all_labeled_graphs


class TestHarness:
    def test_witness_families_pass(self):
        report = run_suite("witness-families")
        assert report.failures == 0
        assert any("kprime" in r["instance"] for r in report.records)

    def test_cubic_suite(self):
        report = run_suite("cubic", seed=1, sizes=[20, 40])
        assert report.failures == 0

    def test_exhaustive_counts(self):
        report = run_suite("exhaustive-small", sizes=[1, 2, 3, 4])
        assert report.failures == 0
        graphs = {r["instance"]: r["graphs"] for r in report.records}
        assert graphs == {
            "exhaustive:n=1": 1,
            "exhaustive:n=2": 2,
            "exhaustive:n=3": 8,
            "exhaustive:n=4": 64,
        }

    @pytest.mark.parametrize("cores", [2, 3])
    def test_exhaustive_payload_is_the_same_on_any_core_count(self, monkeypatch, cores):
        monkeypatch.setattr(harness, "_usable_cores", lambda: 1)
        alone = run_suite("exhaustive-small", sizes=[4, 5]).payload()
        monkeypatch.setattr(harness, "_usable_cores", lambda: cores)
        assert run_suite("exhaustive-small", sizes=[4, 5]).payload() == alone
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cores", [1, 2, 3, 5])
    def test_exhaustive_ranges_cover_every_mask_once(self, monkeypatch, cores):
        # a count of (masks, sum of masks) adds up to the whole range's
        monkeypatch.setattr(harness, "_usable_cores", lambda: cores)
        monkeypatch.setattr(harness, "_exhaustive_counts", lambda n, masks: (len(masks), sum(masks)))
        for n in (4, 5, 6):
            (record,) = run_suite("exhaustive-small", sizes=[n]).records
            total = 1 << n * (n - 1) // 2
            assert (record["graphs"], record["violations"]) == (total, total * (total - 1) // 2)

    @staticmethod
    def raising(monkeypatch, raises):
        """Patch greedy_linear_forest to raise raises[masks] on a five-vertex graph whose edge
        mask is in the range `masks`."""
        from forestbound import construct

        build, pairs = construct.greedy_linear_forest, list(combinations(range(5), 2))

        def broken(g):
            edges = set(g.edges())
            mask = sum(1 << i for i, pair in enumerate(pairs) if pair in edges)
            for masks, exc in raises.items():
                if mask in masks:
                    raise exc
            return build(g)

        monkeypatch.setattr(construct, "greedy_linear_forest", broken)

    @pytest.mark.parametrize("raises,error", [
        ({range(512, 1024): ValueError("broken past 511")}, "ValueError: broken past 511"),
        # two forked ranges raise: the record names the first in mask order, as one process does
        ({range(341, 682): KeyError("second"), range(682, 1024): ValueError("third")},
         "KeyError: 'second'"),
        ({range(682, 1024): BoundMiss("missed", certificate=0)}, None),
    ])
    def test_a_worker_exception_fails_the_record_as_in_process(self, monkeypatch, raises, error):
        self.raising(monkeypatch, raises)
        reports = []
        for cores in (1, 3):
            monkeypatch.setattr(harness, "_usable_cores", lambda: cores)
            reports.append(run_suite("exhaustive-small", sizes=[5]))
            assert multiprocessing.active_children() == []
        alone, split = reports
        assert split.records == alone.records
        assert split.errors == alone.errors
        if error is None:  # greedy's BoundMiss is a violation, not an exception
            assert alone.records[0]["violations"] == 342
        else:
            assert alone.errors == {"exhaustive:n=5": error}

    def test_no_worker_outlives_a_run_that_raises(self, monkeypatch):
        # an exception run_suite lets through, raised in the first range, stops every worker
        class Stop(BaseException):
            pass

        self.raising(monkeypatch, {range(1): Stop()})
        monkeypatch.setattr(harness, "_usable_cores", lambda: 3)
        with pytest.raises(Stop):
            run_suite("exhaustive-small", sizes=[5])
        assert multiprocessing.active_children() == []

    def test_a_daemonic_caller_runs_every_range_itself(self, monkeypatch):
        # a daemonic process (a Pool worker, say) may not fork workers of its own
        monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
        ctx = multiprocessing.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)
        caller = ctx.Process(target=lambda: sender.send(
            run_suite("exhaustive-small", sizes=[5]).payload()), daemon=True)
        caller.start()
        try:
            assert receiver.recv() == run_suite("exhaustive-small", sizes=[5]).payload()
        finally:
            caller.join()

    def test_abc_and_star_lemma_suites(self):
        assert run_suite("abc-lemma", seed=3, sizes=[8]).failures == 0
        assert run_suite("star-lemma", seed=3, sizes=[8]).failures == 0

    def test_random_bounds_suite(self):
        assert run_suite("random-bounds", seed=5, sizes=[10]).failures == 0

    def test_payload_deterministic(self):
        a = run_suite("witness-families", seed=2)
        b = run_suite("witness-families", seed=2)
        assert a.payload() == b.payload()

    @pytest.mark.parametrize("suite", SUITES)
    def test_jobs_bind_their_inputs_when_made(self, suite):
        # a job reads only what it was made with: run after the suite has made
        # every job, the jobs give run_suite's records
        jobs, sizes = SUITES[suite]
        made = list(jobs(1, list(sizes)))
        records = sorted((r for _, job in made for r in job()),
                         key=lambda r: (r["instance"], r["check"]))
        assert records == run_suite(suite, seed=1).records

    def test_all_labeled_graphs_count(self):
        assert sum(1 for _ in all_labeled_graphs(4)) == 64

    def test_job_exception_fails_its_record(self, monkeypatch, capsys):
        from forestbound import construct

        def broken(*args, **kwargs):
            raise ValueError("broken constructor")

        monkeypatch.setattr(construct, "star_forest", broken)
        report = run_suite("star-lemma", sizes=[8])
        assert len(report.records) == 5
        assert all(
            r["check"] == "exception" and r["error"] == "ValueError" and r["status"] == "fail"
            for r in report.records
        )
        assert [name for name, _ in report.timings] == [r["instance"] for r in report.records]
        # the message goes to the `#` lines, right after the job's time
        lines = report.to_text().splitlines()
        for record in report.records:
            at = lines.index(next(x for x in lines if x.startswith(f"# time instance={record['instance']} ")))
            assert lines[at + 1] == f"# error instance={record['instance']} ValueError: broken constructor"
        assert "broken" not in report.payload()
        assert main(["harness", "star-lemma", "--sizes", "8"]) == 2
        assert "summary records=5 pass=0 fail=5" in capsys.readouterr().out

    def test_infeasible_cubic_size_fails_its_records(self):
        report = run_suite("cubic", sizes=[1])
        assert len(report.records) == 20
        assert all(
            r["instance"].startswith("cubic:n=2,") and r["check"] == "exception"
            and r["error"] == "InfeasibleDegree" and r["status"] == "fail"
            for r in report.records
        )

    def test_harness_verifies_each_construction_once(self, monkeypatch):
        from collections import Counter

        from forestbound import construct

        calls = Counter()

        def counted(key, fn):
            return lambda *args: calls.update([key]) or fn(*args)

        monkeypatch.setattr(
            construct, "verify_certificate", counted("verify", construct.verify_certificate)
        )
        for name in ("greedy_linear_forest", "abc_construct"):
            monkeypatch.setattr(construct, name, counted("build", getattr(construct, name)))
        assert run_suite("exhaustive-small", sizes=[1, 2, 3]).failures == 0
        assert calls == {"verify": 11, "build": 11}  # 1 + 2 + 8 graphs
        calls.clear()
        _, job = next(iter(SUITES["abc-lemma"][0](0, [8])))
        assert all(r["status"] == "pass" for r in job())
        assert calls == {"verify": 1, "build": 1}

    def test_a_bound_miss_fails_its_record(self, monkeypatch):
        from forestbound import construct
        from forestbound.errors import BoundMiss

        def missed(*args):
            raise BoundMiss("missed")

        monkeypatch.setattr(construct, "greedy_linear_forest", missed)
        (record,) = run_suite("exhaustive-small", sizes=[3]).records
        assert (record["violations"], record["status"]) == (8, "fail")
        monkeypatch.setattr(construct, "abc_construct", missed)
        _, job = next(iter(SUITES["abc-lemma"][0](0, [8])))
        assert job() == [{"instance": "abc:n=8,seed=80", "check": "abc-construct",
                          "error": "BoundMiss", "status": "fail"}]

    def test_star_lemma_sums_the_star_bound_once(self, monkeypatch):
        # the star-oracle record reads the bound its star-forest record holds
        from forestbound import BoundSpec, construct, harness

        sums = []

        def counted(fn):
            return lambda g, spec, *rest: sums.append(spec) or fn(g, spec, *rest)

        for module in (construct, harness):
            if hasattr(module, "total_weight"):
                monkeypatch.setattr(module, "total_weight", counted(module.total_weight))
        jobs = list(SUITES["star-lemma"][0](0, [8, 11]))
        for _, job in jobs:
            records = job()
            assert [r["check"] for r in records] == ["star-forest", "star-oracle"]
            assert all(r["status"] == "pass" for r in records)
            assert records[0]["bound"] == records[1]["bound"]
        assert sums.count(BoundSpec("star")) == len(jobs) == 10

    def test_a_star_bound_miss_fails_one_record(self, monkeypatch):
        from forestbound import construct
        from forestbound.errors import BoundMiss

        def missed(*args):
            raise BoundMiss("missed")

        monkeypatch.setattr(construct, "star_forest", missed)
        _, job = next(iter(SUITES["star-lemma"][0](0, [8])))
        assert job() == [{"instance": "star:n=8,seed=80", "check": "star-forest",
                          "error": "BoundMiss", "status": "fail"}]

    def test_unknown_suite(self):
        from forestbound.errors import ForestBoundError

        with pytest.raises(ForestBoundError):
            run_suite("nope")


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_cli(*args):
    return main(list(args))


class TestCli:
    def test_bound_flin(self, workdir, capsys):
        assert run_cli("gen", "complete:n=4", "--out", "k4.txt") == 0
        capsys.readouterr()
        assert run_cli("bound", "k4.txt", "flin") == 0
        out = capsys.readouterr().out
        assert "bound=2/1" in out

    def test_bound_auto_eps(self, workdir, capsys):
        run_cli("gen", "star:t=3", "--out", "claw.txt")
        capsys.readouterr()
        assert run_cli("bound", "claw.txt", "fkeps:k=2") == 0
        out = capsys.readouterr().out
        assert "eps=1/6" in out and "d_star=3" in out and "bound=3/1" in out

    def test_bound_star_auto(self, workdir, capsys):
        run_cli("gen", "cycle:n=5", "--out", "c5.txt")
        capsys.readouterr()
        assert run_cli("bound", "c5.txt", "star") == 0
        out = capsys.readouterr().out
        assert "eps=1/10" in out and "bound=3/1" in out

    # bound and epsilon-opt on the caterpillar of SET_BUILDS below, and the number of Graph
    # objects each makes: a file of lines u < v in increasing order, as gen writes it, has its
    # degrees counted off its lines, and only hkg parses a graph, for its leaf tags
    GRAPH_BUILDS = [
        *((("bound", "g.txt", spec), 0) for spec in ("flin", "fkeps:k=2", "fk:k=2", "star", "aks")),
        (("bound", "g.txt", "hkg:k=2"), 1),
        (("bound", "g.txt", "abc", "--partition", "g.part"), 0),
        (("bound", "g.txt", "abstar", "--partition", "g.part"), 0),
        (("epsilon-opt", "g.txt", "--k", "2"), 0),
        (("epsilon-opt", "g.txt", "--star"), 0),
    ]
    # the same graph in files the degree pass turns down, each read through a Graph, and in one
    # with CRLF line ends, which it takes
    GRAPH_FILES = {
        "shuffled.txt": ("7 6\n3 4\n1 0\n6 3\n1 2\n5 1\n2 3\n", 1),
        "commented.txt": ("# a caterpillar\n7 6\n0 1\n1 2\n1 5\n2 3\n3 4\n3 6\n", 1),
        "crlf.txt": ("7 6\r\n0 1\r\n1 2\r\n1 5\r\n2 3\r\n3 4\r\n3 6\r\n", 0),
    }

    @pytest.mark.parametrize("argv,builds", GRAPH_BUILDS,
                             ids=[f"{a[0]}-{a[2].lstrip('-')}" for a, _ in GRAPH_BUILDS])
    def test_sorted_file_makes_no_graph(self, workdir, capsys, monkeypatch, argv, builds):
        from forestbound.graph import Graph

        Path("g.txt").write_text("7 6\n0 1\n1 2\n1 5\n2 3\n3 4\n3 6\n")
        Path("g.part").write_text("0 A\n1 A\n2 B\n3 A\n4 A\n5 A\n6 A\n")
        for name, (text, _) in self.GRAPH_FILES.items():
            Path(name).write_text(text, newline="")
        # every Graph is made by __init__ or by _of; both are Graph's own attributes, which
        # monkeypatch puts back as they were (a patched __new__ it cannot take out cleanly)
        made, init, of = [], Graph.__init__, Graph.__dict__["_of"].__func__
        monkeypatch.setattr(Graph, "__init__", lambda g, *args: made.append(g) or init(g, *args))
        monkeypatch.setattr(Graph, "_of", classmethod(
            lambda cls, *args: made.append(cls) or of(cls, *args)))
        assert run_cli(*argv) == 0
        assert len(made) == builds
        out = capsys.readouterr().out
        for name, (_, graph) in self.GRAPH_FILES.items():
            made.clear()
            assert run_cli(argv[0], name, *argv[2:]) == 0
            assert capsys.readouterr().out == out, name
            assert len(made) == max(builds, graph), name

    # Each command on a caterpillar whose two spine ends carry two leaves
    # each, and the number of times it builds the neighbor sets of the whole
    # graph (`adjacency()` with no subset, or `position_sets()`): bounds and
    # verify read only the edge arrays, and greedy, the engine's constructors
    # and the oracle build them once.
    SET_BUILDS = [
        *((("bound", "g.txt", spec), 0) for spec in ("flin", "fkeps:k=2", "fk:k=2", "hkg:k=2",
                                                      "star", "aks")),
        (("bound", "g.txt", "abc", "--partition", "g.part"), 0),
        (("bound", "g.txt", "abstar", "--partition", "g.part"), 0),
        (("epsilon-opt", "g.txt", "--k", "2"), 0),
        (("epsilon-opt", "g.txt", "--star"), 0),
        (("construct", "g.txt", "caterpillar", "--k", "3", "--out", "c.cert"), 1),
        (("construct", "g.txt", "ab", "--partition", "g.part", "--out", "c.cert"), 1),
        (("verify", "g.txt", "g.cert"), 0),
        (("exact", "g.txt", "linear"), 1),
        (("exact", "g.txt", "abc", "--partition", "g.part"), 1),
        (("construct", "g.txt", "linear", "--out", "c.cert"), 1),
        (("construct", "g.txt", "abc", "--partition", "g.part", "--out", "c.cert"), 1),
        (("verify", "g.txt", "abc.cert", "--partition", "g.part"), 0),
        (("construct", "g.txt", "star", "--out", "c.cert"), 1),
    ]

    @pytest.mark.parametrize("argv,builds", SET_BUILDS)
    def test_neighbor_sets_built_once_and_only_where_read(
        self, workdir, capsys, monkeypatch, argv, builds
    ):
        from forestbound import graph as graph_module

        Path("g.txt").write_text("7 6\n0 1\n1 2\n2 3\n3 4\n1 5\n3 6\n")
        Path("g.part").write_text("0 A\n1 A\n2 B\n3 A\n4 A\n5 A\n6 A\n")
        assert run_cli("construct", "g.txt", "linear", "--out", "g.cert") == 0
        assert run_cli("construct", "g.txt", "abc", "--partition", "g.part", "--out", "abc.cert") == 0
        adjacency, position_sets = graph_module.Graph.adjacency, graph_module.Graph.position_sets
        calls = []

        def counted(g, s=None):
            if s is None:
                calls.append(1)
            return adjacency(g, s)

        monkeypatch.setattr(graph_module.Graph, "adjacency", counted)
        monkeypatch.setattr(
            graph_module.Graph, "position_sets", lambda g: calls.append(1) or position_sets(g)
        )
        assert run_cli(*argv) == 0
        assert len(calls) == builds

    def test_construct_verify_round_trip(self, workdir, capsys):
        run_cli("gen", "cycle:n=5", "--out", "c5.txt")
        assert run_cli("construct", "c5.txt", "linear", "--out", "c5.cert") == 0
        out = capsys.readouterr().out
        assert "verdict=pass" in out
        assert run_cli("verify", "c5.txt", "c5.cert") == 0
        out = capsys.readouterr().out
        assert "verdict=pass" in out

    def test_verify_rejects_inflated_bound(self, workdir, capsys):
        run_cli("gen", "cycle:n=5", "--out", "c5.txt")
        run_cli("construct", "c5.txt", "linear", "--out", "c5.cert")
        cert = Path("c5.cert").read_text().replace("bound=10/3", "bound=9/2")
        Path("bad.cert").write_text(cert)
        assert run_cli("verify", "c5.txt", "bad.cert") == 2

    def test_verify_detects_graph_mismatch(self, workdir, capsys):
        run_cli("gen", "cycle:n=5", "--out", "c5.txt")
        run_cli("gen", "cycle:n=6", "--out", "c6.txt")
        run_cli("construct", "c5.txt", "linear", "--out", "c5.cert")
        assert run_cli("verify", "c6.txt", "c5.cert") == 2

    def test_verify_star_class_reads_an_ab_partition(self, workdir, capsys):
        # K2 with both ends B breaks the AB condition
        Path("k2.txt").write_text("2 1\n0 1\n")
        Path("k2.part").write_text("0 B\n1 B\n")
        Path("k2.cert").write_text("class=star\nbound=1/1\nvertices=0 1\n")
        assert run_cli("verify", "k2.txt", "k2.cert", "--partition", "k2.part") == 2
        assert "verdict=fail" in capsys.readouterr().out
        # K1,3 with a B centre and A leaves meets it; read as ABC it would not
        Path("claw.txt").write_text("4 3\n0 1\n0 2\n0 3\n")
        Path("claw.part").write_text("0 B\n1 A\n2 A\n3 A\n")
        Path("claw.cert").write_text("class=star\nbound=11/4\nvertices=0 1 2 3\n")
        assert run_cli("verify", "claw.txt", "claw.cert", "--partition", "claw.part") == 0
        assert "verdict=pass" in capsys.readouterr().out

    def test_verify_has_no_mode_option(self, workdir, capsys):
        Path("k2.txt").write_text("2 1\n0 1\n")
        Path("k2.part").write_text("0 A\n1 A\n")
        Path("k2.cert").write_text("class=linear\nbound=1/1\nvertices=0 1\n")
        assert run_cli("verify", "k2.txt", "k2.cert", "--partition", "k2.part") == 0
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "k2.txt", "k2.cert", "--partition", "k2.part", "--mode", "AB")
        assert exc.value.code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "k2.txt", "k2.cert", "--partition", "k2.part"),
            ("bound", "k2.txt", "flin", "--partition", "k2.part"),
            ("construct", "k2.txt", "linear", "--partition", "k2.part"),
            ("exact", "k2.txt", "star", "--partition", "k2.part"),
            ("bound", "k2.txt", "abstar"),
            ("construct", "k2.txt", "abc"),
            ("exact", "k2.txt", "ab"),
            ("exact", "k2.txt", "caterpillar", "--k", "1"),
            ("exact", "k2.txt", "linear", "--k", "3"),
            ("construct", "k2.txt", "linear", "--k", "3"),
            ("construct", "k2.txt", "star", "--k", "2"),
            ("exact", "k2.txt", "abc", "--partition", "k2.part", "--k", "3"),
            ("exact", "k2.txt", "ab", "--partition", "k2.part", "--k", "2"),
            ("gen", "complete:n=4,k=9,seed=3"),
            # construct takes no exact-search options
            ("construct", "k2.txt", "star", "--threshold", "4"),
            ("construct", "k2.txt", "star", "--budget", "5"),
        ],
    )
    def test_partition_and_k_misuse_exit_code(self, workdir, capsys, argv):
        Path("k2.txt").write_text("2 1\n0 1\n")
        Path("k2.part").write_text("0 A\n1 A\n")
        Path("k2.cert").write_text("class=caterpillar:k=2\nbound=1/1\nvertices=0 1\n")
        try:
            code = run_cli(*argv)
        except SystemExit as exc:  # argparse's own errors raise SystemExit(3)
            code = exc.code
        assert code == 3
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")

    def test_gen_checks_partition_out_before_writing(self, workdir, capsys):
        argv = ("gen", "complete:n=4", "--out", "k4.txt", "--partition-out", "k4.part")
        assert run_cli(*argv) == 3
        assert "has no labeling to write" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    def test_vertex_limit_exit_code(self, workdir, capsys):
        Path("huge.txt").write_text("2000000 1\n")
        assert run_cli("bound", "huge.txt", "flin") == 3
        assert "exceed the limit" in capsys.readouterr().err

    def test_bound_refuses_an_eps_exponent_past_the_digit_limit(self, workdir, capsys):
        # Fraction would build 10**99999999 first, and did not finish
        Path("k14.txt").write_text("5 4\n0 1\n0 2\n0 3\n0 4\n")
        assert run_cli("bound", "k14.txt", "fkeps:k=2,eps=1e-99999999") == 3
        assert "past the int digit limit" in capsys.readouterr().err

    def test_bound_prints_a_total_past_the_digit_limit(self, workdir, capsys):
        # eps = 1/(10**4300 - 1) is read, 4 300 digits; with the centre's 2/5 the total
        # 22/5 - 4 eps has a denominator of 4 301, which once ended in an internal error
        Path("k14.txt").write_text("5 4\n0 1\n0 2\n0 3\n0 4\n")
        assert run_cli("bound", "k14.txt", "fkeps:k=4,eps=1/" + "9" * 4300) == 0
        num, den = capsys.readouterr().out.partition("bound=")[2].split()[0].split("/")
        assert len(den) == 4301 and den.startswith("4999") and den.endswith("95")
        assert int(num[:6]) == 219999  # 22/5 less a hair

    def test_gen_refuses_what_no_command_reads(self, workdir, capsys):
        # past the vertex limit gen stops before it makes an edge and writes no file
        assert run_cli("gen", f"path:n={MAX_VERTICES + 1}", "--out", "big.txt") == 3
        assert f"{MAX_VERTICES + 1} vertices exceed the limit" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    def test_gen_checks_the_limit_before_it_draws_an_edge(self, workdir, capsys):
        # gnp would otherwise draw a coin for each of about 5.5e11 pairs first
        assert run_cli("gen", f"gnp:n={MAX_VERTICES + 1},p=0,seed=1", "--out", "big.txt") == 3
        assert f"{MAX_VERTICES + 1} vertices exceed the limit" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    def test_construct_with_partition(self, workdir, capsys):
        run_cli("gen", "fig1:id=P3AB", "--out", "p3.txt", "--partition-out", "p3.part")
        assert run_cli("construct", "p3.txt", "abc", "--partition", "p3.part") == 0
        out = capsys.readouterr().out
        assert "verdict=pass" in out

    @pytest.mark.parametrize(
        "argv", [("bound", "abc"), ("verify", "p3.cert"), ("construct", "abc"), ("exact", "abc")]
    )
    def test_every_command_rejects_labels_for_absent_vertices(self, workdir, capsys, argv):
        Path("p3.txt").write_text("3 2\n0 1\n1 2\n")
        Path("extra.part").write_text("0 A\n1 A\n2 A\n7 A\n")
        Path("p3.cert").write_text("class=linear\nbound=1/1\nvertices=0 1 2\n")
        command, arg = argv
        assert run_cli(command, "p3.txt", arg, "--partition", "extra.part") == 3
        assert capsys.readouterr().err == "error: labels for vertices not in graph: [7]\n"

    def test_verify_checks_the_graph_hash_before_the_partition(self, workdir, capsys):
        Path("p3.txt").write_text("3 2\n0 1\n1 2\n")
        Path("extra.part").write_text("0 A\n1 A\n2 A\n7 A\n")
        Path("p3.cert").write_text("graph=0123\nclass=linear\nbound=1/1\nvertices=0 1 2\n")
        assert run_cli("verify", "p3.txt", "p3.cert", "--partition", "extra.part") == 2
        assert capsys.readouterr().out == "verdict=fail reason=graph-hash-mismatch\n"

    @pytest.mark.parametrize("kind", [("linear",), ("caterpillar", "--k", "3"), ("star",)])
    def test_construct_verifies_as_often_as_its_constructor(
        self, workdir, capsys, monkeypatch, kind
    ):
        from forestbound import construct
        from forestbound.graph import parse_edge_list

        build = {
            "linear": construct.greedy_linear_forest,
            "caterpillar": lambda g: construct.k_caterpillar_forest(g, 3),
            "star": construct.star_forest,
        }[kind[0]]
        calls = []
        verify = construct.verify_certificate
        monkeypatch.setattr(
            construct, "verify_certificate", lambda *args: calls.append(1) or verify(*args)
        )
        run_cli("gen", "gnp:n=30,p=0.2,seed=3", "--out", "g.txt")
        build(parse_edge_list(Path("g.txt").read_text()))
        direct = len(calls)
        calls.clear()
        assert run_cli("construct", "g.txt", *kind) == 0
        assert "verdict=pass" in capsys.readouterr().out
        assert 0 < len(calls) == direct

    def test_exact_subcommand(self, workdir, capsys):
        run_cli("gen", "kprime:n=3", "--out", "kp.txt")
        capsys.readouterr()
        assert run_cli("exact", "kp.txt", "star") == 0
        out = capsys.readouterr().out
        assert "alpha=4" in out and "exact=yes" in out
        # the oracle's budget stays an option of exact: the way to get exact=no
        assert run_cli("exact", "kp.txt", "star", "--budget", "1") == 0
        assert "exact=no" in capsys.readouterr().out

    def test_exact_caterpillar_k(self, workdir, capsys):
        run_cli("gen", "complete:n=5", "--out", "k5.txt")
        capsys.readouterr()
        assert run_cli("exact", "k5.txt", "caterpillar", "--k", "2") == 0
        assert "alpha=2" in capsys.readouterr().out

    def test_epsilon_opt(self, workdir, capsys):
        run_cli("gen", "star:t=9", "--out", "s9.txt")
        capsys.readouterr()
        assert run_cli("epsilon-opt", "s9.txt", "--k", "2") == 0
        out = capsys.readouterr().out
        assert "eps=0/1" in out and "d_star=-" in out
        assert run_cli("bound", "s9.txt", "fkeps:k=2") == 0
        assert capsys.readouterr().out == out
        assert run_cli("epsilon-opt", "s9.txt", "--star") == 0
        out = capsys.readouterr().out
        assert run_cli("bound", "s9.txt", "star") == 0
        assert capsys.readouterr().out == out

    def test_gen_to_stdout(self, workdir, capsys):
        assert run_cli("gen", "path:n=3") == 0
        out = capsys.readouterr().out
        assert out.startswith("3 2\n")

    def test_gen_dense_regular(self, workdir, capsys):
        assert run_cli("gen", "regular:n=20,d=6,seed=200") == 0
        assert capsys.readouterr().out.startswith("20 60\n")

    def test_parse_error_exit_code(self, workdir, capsys):
        Path("bad.txt").write_text("not a graph\n")
        assert run_cli("bound", "bad.txt", "flin") == 3
        err = capsys.readouterr().err
        assert run_cli("bound", "bad.txt", "nonsense") == 3
        assert capsys.readouterr().err == err  # the bad file is named before the bad spec

    @pytest.mark.parametrize(
        "argv",
        [
            ("bound", "bin.txt", "flin"),
            ("verify", "p3.txt", "bin.txt"),
            ("construct", "p3.txt", "abc", "--partition", "bin.txt"),
        ],
    )
    def test_non_utf8_file_exit_code(self, workdir, capsys, argv):
        # the graph, the certificate and the partition each name the bad file
        Path("bin.txt").write_bytes(b"\xff\xfe")
        Path("p3.txt").write_text("3 2\n0 1\n1 2\n")
        assert run_cli(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: bin.txt: ") and err.count("\n") == 1

    def test_internal_error_exit_code(self, workdir, capsys, monkeypatch):
        from forestbound import construct

        def broken(*args, **kwargs):
            raise ValueError("broken constructor\nsecond line")

        monkeypatch.setattr(construct, "star_forest", broken)
        Path("p3.txt").write_text("3 2\n0 1\n1 2\n")
        assert run_cli("construct", "p3.txt", "star") == 1
        captured = capsys.readouterr()
        assert captured.err == "error: internal: ValueError: broken constructor\n"
        assert captured.out == ""

    def test_main_builds_its_parser_once(self, workdir, capsys, monkeypatch):
        from forestbound import cli

        built = []
        init = cli._Parser.__init__
        monkeypatch.setattr(
            cli._Parser, "__init__", lambda self, *a, **kw: built.append(1) or init(self, *a, **kw)
        )
        cli.build_parser.cache_clear()
        assert run_cli("gen", "path:n=3") == 0
        once = len(built)
        assert once > 0
        assert run_cli("gen", "path:n=4") == 0
        assert len(built) == once
        assert capsys.readouterr().out.endswith("\n4 3\n0 1\n1 2\n2 3\n")

    @pytest.mark.parametrize("argv", [("bound", "g.txt", "flin", "--nope"), ()])
    def test_argparse_errors_write_one_line(self, workdir, capsys, argv):
        # an unknown option and a missing subcommand
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("bound", "p3.txt", "fkeps:k=2,k=3"),
            ("gen", "complete:n=3,n=4"),
            ("verify", "p3.txt", "twice.cert"),
        ],
    )
    def test_repeated_spec_key_exit_code(self, workdir, capsys, argv):
        Path("p3.txt").write_text("3 2\n0 1\n1 2\n")
        Path("twice.cert").write_text("class=caterpillar:k=2,k=3\nbound=1/1\nvertices=0 1\n")
        assert run_cli(*argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "given twice in" in captured.err

    @pytest.mark.parametrize("field", ["vertices=0", "bound=3/1", "class=star"])
    def test_verify_rejects_a_field_given_twice(self, workdir, capsys, field):
        Path("p3.txt").write_text("3 2\n0 1\n1 2\n")
        Path("p3.cert").write_text(f"class=linear\nbound=1/1\nvertices=0 1 2\n{field}\n")
        assert run_cli("verify", "p3.txt", "p3.cert") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "given twice" in captured.err

    def test_verify_rejects_a_vertex_listed_twice(self, workdir, capsys):
        Path("p3.txt").write_text("3 2\n0 1\n1 2\n")
        Path("p3.cert").write_text("class=linear\nbound=1/1\nvertices=0 0\n")
        assert run_cli("verify", "p3.txt", "p3.cert") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: certificate vertices given twice: [0]\n"

    def test_construct_bound_is_its_kinds_named_bound(self, workdir, capsys):
        from golden_corpus import CLI_KINDS, cli_inputs

        from forestbound import construct, format_edge_list, format_partition

        compared = set()
        for name, g, abc_p, ab_p in cli_inputs():
            Path("g.txt").write_text(format_edge_list(g))
            Path("g.abc").write_text(format_partition(abc_p))
            Path("g.ab").write_text(format_partition(ab_p))
            for kind in CLI_KINDS:
                argv = [{"{ABC}": "g.abc", "{AB}": "g.ab"}.get(a, a) for a in kind]
                if run_cli("construct", "g.txt", *argv, "--out", "g.cert") != 0:
                    capsys.readouterr()
                    continue
                k = int(argv[2]) if argv[1:2] == ["--k"] else None
                spec = construct.kind_row(argv[0], k).spec.to_text()
                capsys.readouterr()
                partition = argv[1:] if k is None else []
                assert run_cli("bound", "g.txt", spec, *partition) == 0
                printed = capsys.readouterr().out.splitlines()[-1].split()[0]
                claimed = [x for x in Path("g.cert").read_text().splitlines() if "bound=" in x]
                assert claimed == [printed], (name, kind)
                compared.add(argv[0] if k is None else f"{argv[0]}:k={k}")
        assert compared == {"linear", "caterpillar", "caterpillar:k=2", "caterpillar:k=3",
                            "star", "abc", "ab"}

    def test_aks_bound_of_an_isolated_vertex_is_one(self, workdir, capsys):
        Path("k1.txt").write_text("1 0\n")
        assert run_cli("bound", "k1.txt", "aks") == 0
        assert capsys.readouterr().out == "bound=1/1 (~1.000000)\n"

    def test_caterpillar_certificate_keeps_an_isolated_vertex(self, workdir, capsys):
        Path("g.txt").write_text("3 1\n0 1\n")
        assert run_cli("construct", "g.txt", "caterpillar", "--out", "g.cert") == 0
        assert "vertices=0 1 2\n" in Path("g.cert").read_text()
        assert run_cli("verify", "g.txt", "g.cert") == 0
        assert capsys.readouterr().out.splitlines()[-1] == "verdict=pass size=3 bound=3/1"

    def test_missing_file_exit_code(self, workdir, capsys):
        assert run_cli("bound", "missing.txt", "flin") == 3

    def test_bad_subcommand_exit_code(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 3

    def test_harness_subcommand(self, workdir, capsys):
        assert run_cli("harness", "cubic", "--sizes", "20", "--seed", "1", "--out", "rep.txt") == 0
        text = Path("rep.txt").read_text()
        assert "summary" in text and "fail=0" in text

    def test_harness_report_payload_stable(self, workdir, capsys):
        run_cli("harness", "witness-families", "--out", "r1.txt")
        run_cli("harness", "witness-families", "--out", "r2.txt")
        payload1 = [l for l in Path("r1.txt").read_text().splitlines() if not l.startswith("#")]
        payload2 = [l for l in Path("r2.txt").read_text().splitlines() if not l.startswith("#")]
        assert payload1 == payload2


@pytest.mark.parametrize("size", [-1, 0])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_harness_rejects_sizes_below_one(workdir, capsys, suite, size):
    # before any job runs: no report, no record of a check that never ran
    assert run_cli("harness", suite, "--sizes", "5", str(size), "--out", "rep.txt") == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: sizes must be >= 1, got 5,{size}\n"
    assert not Path("rep.txt").exists()


def test_harness_rejects_sizes_for_a_suite_without_sizes(workdir, capsys):
    # witness-families builds fixed families: sizes would only change the
    # report's header, never its records
    assert run_cli("harness", "witness-families", "--sizes", "3", "7", "--out", "rep.txt") == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: suite witness-families takes no sizes, got 3,7\n"
    assert not Path("rep.txt").exists()
    with pytest.raises(ForestBoundError):
        run_suite("witness-families", sizes=[3])


def test_harness_rejects_sizes_with_no_value(workdir, capsys):
    # an empty size list would run no job and report a pass of zero records
    with pytest.raises(SystemExit) as exc:
        run_cli("harness", "cubic", "--sizes", "--out", "rep.txt")
    assert exc.value.code == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: argument --sizes: expected at least one argument\n"
    assert not Path("rep.txt").exists()


@pytest.mark.parametrize("suite", sorted(s for s, (_, sizes) in SUITES.items() if sizes))
def test_harness_rejects_an_empty_size_list(suite):
    # no job would run, and a report of zero records would pass
    with pytest.raises(ForestBoundError, match=f"^suite {suite} needs at least one size$"):
        run_suite(suite, 0, [])


def test_gen_names_the_missing_gadget_key(workdir, capsys):
    assert run_cli("gen", "fig1") == 3
    assert capsys.readouterr() == ("", "error: family 'fig1' needs parameter 'id'\n")


def test_construct_reports_a_bound_miss(workdir, capsys, monkeypatch):
    from forestbound import construct

    def missed(g):
        raise BoundMiss("star_forest missed its bound")

    monkeypatch.setattr(construct, "star_forest", missed)
    Path("p3.txt").write_text("3 2\n0 1\n1 2\n")
    assert run_cli("construct", "p3.txt", "star") == 2
    assert capsys.readouterr() == ("", "error: bound miss: star_forest missed its bound\n")


def test_construct_rejects_an_unlabeled_vertex(workdir, capsys):
    Path("p3.txt").write_text("3 2\n0 1\n1 2\n")
    Path("p3.part").write_text("0 A\n1 B\n")
    assert run_cli("construct", "p3.txt", "abc", "--partition", "p3.part") == 3
    assert capsys.readouterr() == ("", "error: unlabeled vertices: [2]\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ("class=linear\nbound=1/1\nvertices=0 1\njunk\n", "bad certificate line 'junk'"),
        ("class=linear\nvertices=0 1\n", "certificate missing field 'bound'"),
        ("class=linear\nbound=x\nvertices=0 1\n", "bad value 'x' in certificate field 'bound'"),
        ("class=linear\nbound=1/0\nvertices=0 1\n", "bad value '1/0' in certificate field 'bound'"),
        ("class=linear\nbound=1/1\nvertices=a\n", "bad value 'a' in certificate field 'vertices'"),
        ("class=linear\nbound=1/1\nvertices=0 1.0\n", "bad value '1.0' in certificate field 'vertices'"),
        ("bound=1/1\nvertices=0 1\n", "certificate missing field 'class'"),
        ("class=linear\nbound=1/1\n", "certificate missing field 'vertices'"),
        ("class=\nbound=1/1\nvertices=0 1\n", "bad forest class ''"),
    ],
)
def test_verify_rejects_a_malformed_certificate(workdir, capsys, text, message):
    Path("p3.txt").write_text("3 2\n0 1\n1 2\n")
    Path("p3.cert").write_text(text)
    assert run_cli("verify", "p3.txt", "p3.cert") == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


@pytest.fixture()
def digit_limit():
    """sys.get_int_max_str_digits(), skipping a run with no limit, where no exponent is refused."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("no int digit limit is set")
    return limit


@pytest.mark.parametrize("bound", ["1e1000000", "1E+1000000", "2.5e-1000000", "1e{limit}"])
def test_verify_refuses_a_bound_exponent_past_the_digit_limit(workdir, capsys, digit_limit, bound):
    # Fraction built 10**1000000 first, and the verdict then wrote all its million digits
    bound = bound.format(limit=digit_limit)
    Path("k2.txt").write_text("2 1\n0 1\n")
    Path("k2.cert").write_text(f"class=linear\nbound={bound}\nvertices=0 1\n")
    assert run_cli("verify", "k2.txt", "k2.cert") == 3
    assert capsys.readouterr() == ("", f"error: bad value {bound!r} in certificate field 'bound'\n")


@pytest.mark.parametrize("bound, written", [("7/3", "7/3"), ("1e{top}", "1{zeros}/1")])
def test_verify_reads_a_bound_within_the_digit_limit(workdir, capsys, digit_limit, bound, written):
    # the largest exponent read is one below the limit: 1e4299 at the default 4 300
    top = digit_limit - 1
    bound, written = bound.format(top=top), written.format(zeros="0" * top)
    Path("k2.txt").write_text("2 1\n0 1\n")
    Path("k2.cert").write_text(f"class=linear\nbound={bound}\nvertices=0 1\n")
    assert run_cli("verify", "k2.txt", "k2.cert") == 2
    assert capsys.readouterr() == (f"verdict=fail size=2 bound={written}\n", "")


def test_a_failed_verify_writes_its_verdict_and_no_error_line(workdir, capsys):
    Path("p3.txt").write_text("3 2\n0 1\n1 2\n")
    Path("p3.cert").write_text("class=linear\nbound=4/1\nvertices=0 1 2\n")
    assert run_cli("verify", "p3.txt", "p3.cert") == 2
    assert capsys.readouterr() == ("verdict=fail size=3 bound=4/1\n", "")


def test_verify_skips_comment_and_blank_lines(workdir, capsys):
    Path("p3.txt").write_text("3 2\n0 1\n1 2\n")
    Path("p3.cert").write_text("# written by hand\n\nclass=linear\n   \nbound=1/1\nvertices=0 1\n")
    assert run_cli("verify", "p3.txt", "p3.cert") == 0
    assert capsys.readouterr().out == "verdict=pass size=2 bound=1/1\n"


def test_exact_rejects_a_negative_budget(workdir, capsys):
    run_cli("gen", "complete:n=4", "--out", "k4.txt")
    capsys.readouterr()
    assert run_cli("exact", "k4.txt", "linear", "--budget", "-5") == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: exact: --budget must be >= 0, got -5\n"
    # a zero budget explores no node and returns the greedy incumbent: exact, as the edge
    # count cuts K4's root, and not exact on the claw, whose root passes it
    assert run_cli("exact", "k4.txt", "linear", "--budget", "0") == 0
    assert capsys.readouterr().out == "alpha=2\nwitness=2 3\nnodes=0\nexact=yes\n"
    run_cli("gen", "star:t=3", "--out", "claw.txt")
    capsys.readouterr()
    assert run_cli("exact", "claw.txt", "linear", "--budget", "0") == 0
    assert capsys.readouterr().out == "alpha=3\nwitness=1 2 3\nnodes=0\nexact=no\n"
