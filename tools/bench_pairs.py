"""Paired benchmark runs: a git revision against the working tree.

    python3 tools/bench_pairs.py --base HEAD --pairs 10 --out BENCH_10.json

Run from the repository root. The base revision is exported with
``git archive`` into a temporary directory. For every workload in
``BENCHMARK.json``, each pair runs ``bench/run.py --trace 0`` once on the
base and once on the working tree, one after the other, and the side that
goes first alternates from pair to pair, since a shared machine drifts in
speed over minutes. Pair ``i`` uses seed ``SEEDS[i % 10]`` on both sides.
The JSON written to ``--out`` holds every run's end-to-end metrics, each
side's median and quartiles per metric, and the fraction of pairs in which
the working tree did better. Two more fields per metric show whether a
difference can be told from noise: ``spread_exceeds_bound`` is true when
the base's quartile spread is wider than the metric's bound times the
base median (a worse median is then "unresolved" rather than "unchanged"),
and ``all_change_better`` is true when every working-tree run beats every
base run (which settles the metric even then). Two more say whether a
claim holds: ``gain_shown`` is true when the working tree wins at least
nine tenths of the pairs and its median beats the base median by more
than the base's quartile spread, and ``worse_beyond_bound`` is true when its median
is worse than the base median by more than the bound times the base
median.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600.0
SEEDS = range(10)


def export_revision(rev: str, dest: Path) -> str:
    """Extract ``rev`` into ``dest``; return its full commit hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; the parsed result line plus exit status."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {RUN_TIMEOUT_S:.0f}s"}
    out = {"wall_s": time.perf_counter() - start, "exit_code": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out.update(ok=False, error=proc.stderr.strip().splitlines()[-5:])
        return out
    out.update(
        ok=proc.returncode == 0 and result["correct"] and not result["failed"],
        correct=result["correct"],
        attempted=result["attempted"],
        failed=result["failed"],
        metrics={k: v["value"] for k, v in result["metrics"].items()},
    )
    if not result["correct"]:
        out["check_failures"] = [
            line for line in proc.stderr.splitlines() if line.startswith("check failed")
        ]
    return out


def quartiles(values: list) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarize(runs: list, metrics: list) -> dict:
    """Per metric: each side's quartiles and the working tree's win count."""
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r
    pairs = [
        p for p in by_pair.values()
        if p.get("base", {}).get("ok") and p.get("change", {}).get("ok")
    ]
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        if not pairs:
            out[name] = {"pairs": 0}
            continue
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        b, c = quartiles(base), quartiles(change)
        base_iqr = b["q3"] - b["q1"]
        # how far the change's median is better than the base's (negative: worse)
        gain = (b["median"] - c["median"]) if lower else (c["median"] - b["median"])
        out[name] = {
            "better": m["better"],
            "pairs": len(pairs),
            "base": b,
            "change": c,
            "change_wins": wins,
            "win_fraction": wins / len(pairs),
            "median_ratio": c["median"] / b["median"] if b["median"] else None,
            "base_iqr": base_iqr,
            "spread_exceeds_bound": base_iqr > m["bound"] * b["median"],
            "all_change_better": max(change) < min(base) if lower else min(change) > max(base),
            "gain_shown": 10 * wins >= 9 * len(pairs) and gain > base_iqr,
            "worse_beyond_bound": -gain > m["bound"] * abs(b["median"]),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    head = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    dirty = bool(subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=no"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip())

    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_tree = Path(tmp)
        base_sha = export_revision(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        report = {
            "base": base_sha,
            "change": {"head": head, "uncommitted_changes": dirty},
            "command": bench["command"] + ["--trace", "0"],
            "seconds": seconds,
            "machine": {
                "python": platform.python_version(),
                "platform": platform.platform(),
                "cpus": os.cpu_count(),
            },
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "workloads": {},
        }
        for workload in workloads:
            runs = []
            for pair in range(args.pairs):
                seed = SEEDS[pair % len(SEEDS)]
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                for position, side in enumerate(order):
                    r = run_once(trees[side], workload, seed, seconds)
                    r.update(pair=pair, seed=seed, side=side, position=position)
                    runs.append(r)
                    shown = r.get("metrics", {}).get("pretrain_s")
                    print(
                        f"{workload} pair {pair} seed {seed} {side}: "
                        + ("ok" if r["ok"] else "FAILED")
                        + (f", pretrain_s {shown:.2f}" if shown is not None else ""),
                        file=sys.stderr,
                    )
            report["workloads"][workload] = {
                "runs": runs,
                "failed_runs": sum(not r["ok"] for r in runs),
                "summary": summarize(runs, bench["end_to_end"]),
            }
        report["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for workload, body in report["workloads"].items():
        for name, s in body["summary"].items():
            if s["pairs"]:
                print(
                    f"{workload:16s} {name:15s} base {s['base']['median']:.3f} "
                    f"change {s['change']['median']:.3f} wins {s['change_wins']}/{s['pairs']} "
                    f"(base IQR {s['base_iqr']:.3f}"
                    + (", wider than the bound" if s["spread_exceeds_bound"] else "")
                    + (", every change run better" if s["all_change_better"] else "")
                    + ")"
                    + (", gain shown" if s["gain_shown"] else "")
                    + (", worse beyond the bound" if s["worse_beyond_bound"] else "")
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
