"""forestbound CLI benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it imports forestbound from
./src. Set-up writes the seeded inputs under .perfbench_work/ and imports
the package. The timed phase then runs whole rounds of the workload's
operations (each one in-process call of forestbound.cli.main) until S
seconds have passed and at least MIN_ROUNDS rounds are done. Afterwards
every output is checked by bench_checker, which imports nothing from
forestbound. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with each metric's unit
as BENCHMARK.json lists it.

Operations that are known to fail (bench_workloads.Op.known_fault) run in
a forked child and untraced, so that the memory and spans they take stay
out of the metrics; they count only in `failed` and `attempted`.

With --trace 1, untraced and traced rounds alternate; the per-layer
metrics come from the traced rounds and the spans go to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_speed  # noqa: E402
import bench_workloads  # noqa: E402
from bench_checker import Checker  # noqa: E402
from bench_trace import LAYERS, Tracer  # noqa: E402

SETUP_REPEATS = 3
MIN_ROUNDS = 3
EXIT_NO_SOURCE = 4

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@dataclass
class Result:
    op: bench_workloads.Op
    seconds: float
    exit: object  # int exit code, or "ExcType: message" when cli.main raised
    out: str
    cert: str  # certificate text a construct wrote or a verify read
    ref_seconds: float = 0.0  # seconds at the reference host speed
    failed: bool = False  # set by check()


def import_cli():
    """Import forestbound.cli afresh, as a new process would."""
    for name in [m for m in sys.modules if m == "forestbound" or m.startswith("forestbound.")]:
        del sys.modules[name]
    return importlib.import_module("forestbound.cli")


def setup(workload: str, seed: int, workdir: Path):
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cli = import_cli()
    ops = bench_workloads.build(workload, seed, workdir)
    return cli, ops


def call_main(cli, argv: list[str]) -> tuple[object, str]:
    """cli.main(argv) with its output captured: (exit, stdout text)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a failed operation; the run goes on
            code = f"{type(exc).__name__}: {str(exc)[:160]}"
    return code, out.getvalue()


def call_main_in_child(cli, argv: list[str]) -> tuple[object, str]:
    """call_main in a forked child, which this process waits for."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as fh:
                json.dump(call_main(cli, argv), fh)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    if not payload:
        return f"child ended with wait status {status} and no result", ""
    return tuple(json.loads(payload))


def run_op(cli, op, workdir: Path, tracer=None) -> Result:
    cert_path = workdir / op.cert if op.cert else None
    cert = ""
    if op.command == "verify" and cert_path.exists():
        cert = cert_path.read_text()
    elif op.command == "construct":
        cert_path.unlink(missing_ok=True)
    root = None
    if tracer is not None and not op.known_fault:
        tracer.op = op.name
        root = tracer.begin(f"cli.{op.command}", "cli")
    start = perf_counter()
    code, out = (call_main_in_child if op.known_fault else call_main)(cli, op.argv)
    seconds = perf_counter() - start
    if root is not None:
        tracer.end(root)
        tracer.close_op(root)
    if op.command == "construct" and cert_path.exists():
        cert = cert_path.read_text()
    return Result(op, seconds, code, out, cert)


def run_round(cli, ops, workdir: Path, tracer=None) -> list[Result]:
    """Runs every op once, each between two sets of host-speed samples."""
    results, before = [], bench_speed.samples()
    for op in ops:
        r = run_op(cli, op, workdir, tracer)
        after = bench_speed.samples()
        r.ref_seconds = bench_speed.to_reference(r.seconds, before, after)
        results.append(r)
        before = after
    return results


def check(checker: Checker, rounds) -> tuple[int, list[str], list[str]]:
    """Returns (failed ops, correctness errors, known-fault notes).

    An op fails when cli.main raises or exits with another code than the
    op expects. Each distinct output of an op is checked once.
    """
    failed, errors, faults = 0, [], set()
    verdicts: dict[tuple, str | None] = {}
    for results in rounds:
        sizes = {
            r.op.name: len(r.cert.split("vertices=")[1].splitlines()[0].split())
            for r in results
            if r.op.command == "construct" and r.exit == 0
        }
        for r in results:
            op = r.op
            want = checker.expected_verify_exit(op, r.cert) if op.command == "verify" else 0
            if r.exit != want:
                r.failed = True
                failed += 1
                note = f"{op.name}: exit {r.exit!r}, expected {want}"
                if op.known_fault:
                    faults.add(f"{note} (known fault: {op.known_fault})")
                else:
                    errors.append(f"unexpected failure {note}")
                continue
            key = (op.name, hashlib.sha1((r.out + "\0" + r.cert).encode()).hexdigest())
            if key not in verdicts:
                verdicts[key] = check_one(checker, r, sizes.get(op.pair))
            if verdicts[key]:
                errors.append(f"{op.name}: {verdicts[key]}")
    return failed, errors, sorted(faults)


def check_one(checker: Checker, r: Result, paired_size):
    op = r.op
    try:
        if op.command == "bound":
            return checker.check_bound(op, r.out)
        if op.command == "epsilon-opt":
            return checker.check_epsilon_opt(op, r.out)
        if op.command == "construct":
            return checker.check_construct(op, r.out, r.cert)
        if op.command == "verify":
            return checker.check_verify(op, r.out, r.cert)
        if op.command == "exact":
            return checker.check_exact(op, r.out, paired_size)
        return checker.check_harness(op, r.out)
    except (KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable output ({exc!r}): {r.out[:200]!r}"


def op_medians(rounds, attr: str = "ref_seconds") -> dict[str, float]:
    """Each op's median time across rounds, over the rounds where it did
    not fail (a failed op counts in `failed`, not in the timings)."""
    times: dict[str, list[float]] = {}
    for results in rounds:
        for r in results:
            if not r.failed:
                times.setdefault(r.op.name, []).append(getattr(r, attr))
    return {name: statistics.median(ts) for name, ts in times.items()}


def timed_rounds(cli, ops, workdir: Path, seconds: float, tracer=None):
    """Whole rounds until `seconds` have passed and MIN_ROUNDS are done.
    With a tracer: at least two pairs of an untraced and a traced round,
    alternating which goes first so that host drift cancels in the
    overhead. Returns (untraced rounds, traced rounds)."""
    plain, traced = [], []

    def traced_round() -> None:
        tracer.round = len(traced)
        tracer.install()
        try:
            traced.append(run_round(cli, ops, workdir, tracer))
        finally:
            tracer.uninstall()

    start = perf_counter()
    while perf_counter() - start < seconds or len(plain) < (2 if tracer else MIN_ROUNDS):
        if tracer is None:
            plain.append(run_round(cli, ops, workdir))
        elif len(plain) % 2 == 0:
            plain.append(run_round(cli, ops, workdir))
            traced_round()
        else:
            traced_round()
            plain.append(run_round(cli, ops, workdir))
    return plain, traced


def peak_rss_mb() -> float:
    """This process's peak RSS; the children that ran known-fault
    operations are not part of it."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(name: str, value: float) -> dict:
    return {"value": value, "unit": UNITS[name]}


def end_to_end(rounds, setup_ref: list[float], rss: float) -> dict:
    """Both times start from each op's median across rounds, so a burst of
    host noise in part of one round moves neither: wall_s is one round (the
    sum of the medians), op_p50_ms the median op."""
    per_op = op_medians(rounds)
    return {
        "setup_s": metric("setup_s", statistics.median(setup_ref)),
        "wall_s": metric("wall_s", sum(per_op.values())),
        "op_p50_ms": metric("op_p50_ms", statistics.median(per_op.values()) * 1000.0),
        "peak_rss_mb": metric("peak_rss_mb", rss),
    }


def layer_metrics(tracer: Tracer, traced_rounds: int, peak_alloc: int) -> dict:
    """Counts from the first traced round (they repeat exactly), times as
    medians over the traced rounds."""
    per_round = [tracer.round_metrics(r) for r in range(traced_rounds)]
    out = {}
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        count = UNITS[name] == "count"
        if count and len(set(values)) > 1:
            print(f"# count {name} differs between traced rounds: {values}", file=sys.stderr)
        out[name] = metric(name, int(values[0]) if count else statistics.median(values))
    out["exact.peak_alloc_mb"] = metric("exact.peak_alloc_mb", peak_alloc / 2**20)
    out["tracer.spans"] = metric("tracer.spans", len(tracer.spans) // traced_rounds)
    return out


def print_self_table(metrics: dict, traced_round_s: float, untraced_round_s: float) -> None:
    print("# layer       self s/round   share")
    for layer in LAYERS:
        v = metrics[f"{layer}.self_s"]["value"]
        print(f"# {layer:<10} {v:>14.4f} {v / traced_round_s:>7.1%}")
    over = metrics["tracer.overhead_s"]["value"]
    print(f"# tracing overhead {over:.4f} s/round ({over / untraced_round_s:.1%} of the untraced round)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(bench_workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "forestbound" / "cli.py").is_file():
        print("error: run from a forestbound checkout (src/forestbound missing)", file=sys.stderr)
        return EXIT_NO_SOURCE
    sys.path.insert(0, str(root / "src"))
    out_dir = root / ".perfbench_work"
    workdir = out_dir / f"{args.workload}-{os.getpid()}"

    try:
        setup_raw, setup_ref = [], []
        for _ in range(SETUP_REPEATS):
            before = bench_speed.samples()
            start = perf_counter()
            cli, ops = setup(args.workload, args.seed, workdir)
            setup_raw.append(perf_counter() - start)
            setup_ref.append(bench_speed.to_reference(setup_raw[-1], before, bench_speed.samples()))

        tracer = Tracer() if args.trace else None
        plain, traced = timed_rounds(cli, ops, workdir, args.seconds, tracer)
        rss = peak_rss_mb()
        probe, alloc = [], Tracer(measure_alloc=True)
        heaviest = tracer.heaviest_oracle_op(0) if tracer is not None else None
        if heaviest is not None:
            alloc.install()
            try:
                probe.append(run_op(cli, next(o for o in ops if o.name == heaviest), workdir, alloc))
            finally:
                alloc.uninstall()

        checker = Checker(workdir)
        rounds = plain + traced
        failed, errors, faults = check(checker, rounds)
        errors += check(checker, [probe])[1]  # a re-run for tracemalloc, not counted
        attempted = sum(len(r) for r in rounds)
        for line in faults + errors:
            print(f"# {line}", file=sys.stderr)
        print(f"# {args.workload} seed={args.seed}: {len(rounds)} rounds of {len(ops)} ops, "
              f"{failed} failed, {len(errors)} check errors")

        if tracer is None:
            raw = op_medians(rounds, "seconds")
            for name, ms in op_medians(rounds).items():
                print(f"# op {name} ref_ms={ms * 1000:.2f} raw_ms={raw[name] * 1000:.2f}", file=sys.stderr)
            print(f"# raw seconds: setup_s={statistics.median(setup_raw):.4f} "
                  f"wall_s={sum(raw.values()):.4f}", file=sys.stderr)
            metrics = end_to_end(rounds, setup_ref, rss)
        else:
            metrics = layer_metrics(tracer, len(traced), alloc.peak_alloc)
            untraced_s = sum(op_medians(plain).values())
            traced_ops_s = sum(op_medians(traced).values())
            metrics["tracer.overhead_s"] = metric("tracer.overhead_s", traced_ops_s - untraced_s)
            tracer.write(out_dir / f"trace-{args.workload}.jsonl")
            traced_s = statistics.median(
                sum(r.seconds for r in rr if not r.op.known_fault) for rr in traced)
            print_self_table(metrics, traced_s, untraced_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
