#!/usr/bin/env python3
"""Paired benchmark runs: a parent commit against the working tree.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload scan-agg \\
        --seeds 1-10 --claim spark_vs_hand_geo

For every workload and seed, runs `perfbench/run.py --trace 0` once on the
parent and once on the change, alternating which side runs first. The parent
is unpacked with `git archive` into a temporary directory (removed at the
end), so the checkout's `.git` and `perfbench/` are only read; each side runs
its own `perfbench/run.py` and builds into its own `.bench_build/`.

Prints every run's end-to-end metrics, then per workload and metric each
side's median and quartiles, the change's win count and, against the bounds
in BENCHMARK.json, whether the change is worse than the parent. For the
`--claim` metric it prints the verdict of the paired-run rule: the change
wins at least nine tenths of the pairs (ties count for neither) and the
medians differ, in the better direction, by more than the parent's
interquartile distance. Then, per workload, each side's median over its runs
of every program's Spark and hand-written times, read from the per-program
table each run prints on standard error. Each run's standard error and a
summary.json go to `--logs` (default `.bench_build/pairs/<time>/`).

    python3 tools/bench_pairs.py --parent HEAD~1 --workload join-linalg --counts

With `--counts`, instead of the pairs, runs `perfbench/run.py --trace 1` once
per side on seed 1 and prints, per program, each side's Spark job, exchange
and join-operator counts and shuffle write, read from the side's
`.bench_build/perfbench/trace/<workload>-seed1.json`.
"""
import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text):
    """'1-10' or '1,2,5' → list of ints."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def unpack(rev, dest):
    """Writes the tree of `rev` into `dest` with `git archive`."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                               cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


COUNTS = ("spark.jobs", "spark.exchanges", "spark.joins.smj", "spark.joins.shj",
          "spark.joins.bhj", "spark.joins.nested_loop", "spark.joins.cartesian",
          "spark.shuffle_write_mb")


def run_once(root, workload, seed, seconds, log_path, trace=0):
    """One benchmark run in checkout `root`; returns its result object, or
    None when the run printed none."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    with open(log_path, "w") as err:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=err, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def traced_counts(root, workload, seconds, log_path):
    """{program: {count: value}} of one traced run on seed 1 in checkout
    `root`, read from its trace file; {} when the run wrote none."""
    path = os.path.join(root, ".bench_build", "perfbench", "trace",
                        f"{workload}-seed1.json")
    if os.path.exists(path):
        os.remove(path)
    run_once(root, workload, 1, seconds, log_path, trace=1)
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        programs = json.load(f)["programs"]
    return {p["program"]: {c: p["traced"].get(c) for c in COUNTS} for p in programs}


def print_counts(workload, counts):
    """One row per program and a total row: each count, parent -> change."""
    for side in counts.values():
        if side:
            side["total"] = {c: sum(p.get(c) or 0 for p in side.values()) for c in COUNTS}

    def cell(side, prog, c):
        v = counts[side].get(prog, {}).get(c)
        if v is None:
            return "-"
        return f"{v:.2f}" if c == "spark.shuffle_write_mb" else f"{v:g}"
    print(f"\n== {workload}: traced counts (seed 1), parent -> change")
    print(f"{'program':<22}" + "".join(f"{c[6:]:>20}" for c in COUNTS))
    for p in dict.fromkeys(list(counts["parent"]) + list(counts["change"])):
        print(f"{p:<22}" + "".join(
            f"{cell('parent', p, c) + ' -> ' + cell('change', p, c):>20}" for c in COUNTS))


def program_table(log_path):
    """The per-program table of a run's standard error: {program: {column:
    median}}. A row is the program name padded to 22 characters, then one
    cell per column, `median (samples)` or `-`."""
    table, cols = {}, None
    with open(log_path) as f:
        for line in f:
            if not line.startswith("[perfbench] "):
                continue
            row = line[len("[perfbench] "):].rstrip()
            if row.startswith("program "):
                cols = row.split()[1:]
                continue
            cells = re.findall(r"(-?[\d.]+) \(\s*\d+\)|(?<!\S)-(?!\S)", row[22:])
            if cols and len(cells) == len(cols):
                table[row[:22].strip()] = {
                    c: float(v) for c, v in zip(cols, cells) if v}
    return table


def quartiles(xs):
    """(first quartile, median, third quartile); linear interpolation."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def better(metric, a, b):
    """1 when value `a` is better than `b`, -1 when worse, 0 on a tie."""
    if a == b:
        return 0
    lower = metric["better"] == "lower"
    return 1 if (a < b) == lower else -1


def print_programs(runs, cols=("spark", "hand.spark")):
    """Each side's median, over its runs, of every program's times."""
    def median(side, prog, col):
        xs = [r["programs"][prog][col] for r in runs
              if r["side"] == side and col in r["programs"].get(prog, {})]
        return statistics.median(xs) if xs else float("nan")
    print("per-program medians (ms), parent -> change:")
    for p in dict.fromkeys(p for r in runs for p in r["programs"]):
        print(f"  {p:<22}" + "   ".join(
            f"{c} {median('parent', p, c):9.1f} -> {median('change', p, c):9.1f}"
            for c in cols))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD",
                    help="revision to compare against (default HEAD)")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seeds_of, default=seeds_of("1-10"))
    ap.add_argument("--seconds", type=int, default=8)
    ap.add_argument("--claim", help="end-to-end metric the change claims to improve")
    ap.add_argument("--counts", action="store_true",
                    help="one traced run per side on seed 1; print Spark counts per program")
    ap.add_argument("--logs", help="directory for run logs and summary.json")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = {m["name"]: m for m in json.load(f)["end_to_end"]}
    if args.claim and args.claim not in metrics:
        ap.error(f"--claim must be one of {sorted(metrics)}")
    logs = args.logs or os.path.join(
        ROOT, ".bench_build", "pairs", time.strftime("%Y%m%d-%H%M%S"))
    os.makedirs(logs, exist_ok=True)

    parent_dir = tempfile.mkdtemp(prefix="bench-parent-")
    runs = []
    try:
        unpack(args.parent, parent_dir)
        sides = {"parent": parent_dir, "change": ROOT}
        if args.counts:
            counts = {w: {side: traced_counts(root, w, args.seconds,
                                              os.path.join(logs, f"{w}-seed1-{side}-trace.err"))
                          for side, root in sides.items()}
                      for w in args.workload}
            for w, c in counts.items():
                print_counts(w, c)
            with open(os.path.join(logs, "summary.json"), "w") as f:
                json.dump({"args": vars(args), "counts": counts}, f, indent=1)
            return 0 if all(c for w in counts.values() for c in w.values()) else 1
        for w in args.workload:
            for i, seed in enumerate(args.seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    log = os.path.join(logs, f"{w}-seed{seed}-{side}.err")
                    t0 = time.time()
                    res = run_once(sides[side], w, seed, args.seconds, log)
                    vals = {k: v["value"] for k, v in (res or {}).get("metrics", {}).items()}
                    run = {"workload": w, "seed": seed, "side": side,
                           "wall_s": round(time.time() - t0, 1),
                           "correct": (res or {}).get("correct"),
                           "failed": (res or {}).get("failed"),
                           "metrics": vals, "programs": program_table(log)}
                    runs.append(run)
                    print(json.dumps(run), flush=True)
    finally:
        shutil.rmtree(parent_dir, ignore_errors=True)

    verdicts = []
    for w in args.workload:
        print(f"\n== {w}")
        for name, m in metrics.items():
            by = {s: {r["seed"]: r["metrics"][name] for r in runs
                      if r["workload"] == w and r["side"] == s and name in r["metrics"]}
                  for s in ("parent", "change")}
            paired = sorted(set(by["parent"]) & set(by["change"]))
            if not paired:
                print(f"{name}: no complete pair")
                continue
            p1, pm, p3 = quartiles([by["parent"][s] for s in paired])
            c1, cm, c3 = quartiles([by["change"][s] for s in paired])
            wins = sum(better(m, by["change"][s], by["parent"][s]) == 1 for s in paired)
            rel = (cm - pm) / abs(pm) if pm else 0.0
            worse = better(m, cm, pm) == -1 and abs(rel) > m["bound"]
            print(f"{name} ({m['unit']}, {m['better']} is better, bound {m['bound']}): "
                  f"parent median {pm:.4g} [q1 {p1:.4g}, q3 {p3:.4g}], "
                  f"change median {cm:.4g} [q1 {c1:.4g}, q3 {c3:.4g}], "
                  f"change {rel:+.1%}, wins {wins}/{len(paired)}"
                  f"{', WORSE THAN THE BOUND' if worse else ''}")
            if name == args.claim:
                won = wins >= 0.9 * len(paired)
                clear = better(m, cm, pm) == 1 and abs(cm - pm) > p3 - p1
                verdicts.append({"workload": w, "metric": name, "pairs": len(paired),
                                 "wins": wins, "parent_median": pm, "change_median": cm,
                                 "parent_iqr": p3 - p1, "gain": won and clear})
                print(f"  claim on {name}: wins {wins}/{len(paired)} "
                      f"({'>=' if won else '<'} 9/10), median difference "
                      f"{abs(cm - pm):.4g} {'>' if clear else '<='} parent IQR {p3 - p1:.4g}: "
                      f"{'GAIN' if won and clear else 'NO GAIN'}")
        print_programs([r for r in runs if r["workload"] == w])
    bad = [r for r in runs if r["correct"] is not True or r["failed"]]
    print(f"\n{len(runs)} runs, {len(bad)} incorrect or failed; logs in {logs}")
    with open(os.path.join(logs, "summary.json"), "w") as f:
        json.dump({"args": vars(args), "runs": runs, "verdicts": verdicts}, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
