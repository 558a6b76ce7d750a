"""Compare two forestbound checkouts with the same benchmark code.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR --workload oracle-small \
        --seeds 1-10

For each seed it runs this directory's run.py once in each checkout
(cwd = the checkout, so each imports its own src/) for the run_seconds of
BENCHMARK.json, alternating which side goes first. It prints each side's
median and quartiles per end-to-end metric, the share of pairs the head
wins, and a verdict: "gain" when, over at least ten pairs, the head wins
at least 9 in 10 and the medians differ by more than the base's quartile
spread; "regression" when the head's median is worse than the base's by
more than the metric's bound in BENCHMARK.json; otherwise "no change".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: run failed\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: seed {seed} produced incorrect output\n{proc.stderr}")
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("base", type=Path)
    ap.add_argument("head", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = ap.parse_args()

    runs = {"base": [], "head": []}
    for i, seed in enumerate(args.seeds):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, seed))
    for side, results in runs.items():
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{side}: failed share {sorted(shares)}")

    print(f"{'metric':<14}{'base median [q1, q3]':>32}{'head median [q1, q3]':>32}  wins  verdict")
    for m in SPEC["end_to_end"]:
        name = m["name"]
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["head"]]
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(sign * (b - h) > 0 for b, h in zip(base, head)) / len(base)
        qb, qh = statistics.quantiles(base, n=4), statistics.quantiles(head, n=4)
        mb, mh = statistics.median(base), statistics.median(head)
        if sign * (mh - mb) > m["bound"] * mb:
            verdict = "regression"
        elif len(base) >= 10 and wins >= 0.9 and sign * (mb - mh) > qb[2] - qb[0]:
            verdict = "gain"
        else:
            verdict = "no change"
        print(f"{name:<14}{mb:>12.4f} [{qb[0]:.4f}, {qb[2]:.4f}]"
              f"{mh:>12.4f} [{qh[0]:.4f}, {qh[2]:.4f}]  {wins:4.0%}  {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
