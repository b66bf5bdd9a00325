#!/usr/bin/env python3
"""Checks that the benchmark repeats: runs workloads over several seeds and
reports, per end-to-end metric, the median, the quartiles and the spread
(interquartile distance as a share of the median) against the metric's
bound from BENCHMARK.json. The diagnostics a run prints (`diagnostic
<name> <value> <unit>` lines, e.g. block medians and churn's write
latencies) are summarized the same way, without a bound.

    python3 perfbench/spread.py --workloads read churn --seeds 1-10
    python3 perfbench/spread.py --load runs.json      # re-summarize
    python3 perfbench/spread.py --load b.json --compare a.json

--compare also reports, per metric, how much worse the median of the runs
summarized is than that of the earlier runs in the given file, against the
same bound: two sets of runs of one program must agree within it.

Every run's result line is appended to --save (default
.bench_build/spread-runs.json) so a long check can be summarized again.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def spread(values):
    """(median, q1, q3, (q3 - q1) / median), quartiles as Python's
    statistics.quantiles(values, n=4) gives them (the 'exclusive' method)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def seeds_arg(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload, seed, seconds):
    """The run's result line and its diagnostics ({name: value})."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=REPO, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode})")
    diagnostics = {}
    for line in lines:
        fields = line.split()
        if len(fields) == 4 and fields[0] == "diagnostic":
            diagnostics[fields[1]] = float(fields[2])
    return json.loads(lines[-1]), diagnostics


def worse_by(name, spec, before, after):
    """Share by which median `after` is worse than median `before`."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}[name]
    change = (after - before) / before
    return change if better == "lower" else -change


def summarize(runs, spec, earlier=None):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        print(f"{workload}: {len(mine)} runs, seeds "
              f"{sorted(r['seed'] for r in mine)}, all correct: "
              f"{all(r['result']['correct'] for r in mine)}")
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            if len(values) < 2:
                continue
            median, q1, q3, share = spread(values)
            verdict = ("ok" if share < bound / 3 else
                       "within bound" if share <= bound else "TOO WIDE")
            if share > bound:
                ok = False
            line = (f"  {name:20s} median {median:12.4f}  q1 {q1:12.4f}  "
                    f"q3 {q3:12.4f}  spread {share:6.3f}  bound {bound:.2f}  "
                    f"{verdict}")
            if earlier is not None:
                before = statistics.median(
                    r["result"]["metrics"][name]["value"] for r in earlier
                    if r["workload"] == workload)
                worse = worse_by(name, spec, before, median)
                if worse > bound:
                    ok = False
                line += (f"  | worse than earlier by {worse:+.3f} "
                         f"{'ok' if worse <= bound else 'TOO MUCH'}")
            print(line)
        names = dict.fromkeys(n for r in mine
                              for n in r.get("diagnostics", {}))
        for name in names:
            values = [r["diagnostics"][name] for r in mine
                      if name in r["diagnostics"]]
            if len(values) < 2:
                continue
            median, q1, q3, share = spread(values)
            print(f"  {name:32s} median {median:12.4f}  spread {share:6.3f}"
                  f"  (diagnostic)")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=[])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--load", help="summarize saved runs instead")
    parser.add_argument("--compare", help="saved runs to compare medians to")
    parser.add_argument("--save",
                        default=os.path.join(REPO, ".bench_build",
                                             "spread-runs.json"))
    args = parser.parse_args()
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.load:
        with open(args.load) as f:
            runs = json.load(f)
    else:
        runs = []
        workloads = args.workloads or [w["name"] for w in spec["workloads"]]
        for seed in args.seeds:
            for workload in workloads:  # interleaved, as host noise drifts
                result, diagnostics = run(workload, seed,
                                          spec["run_seconds"])
                runs.append({"workload": workload, "seed": seed,
                             "result": result, "diagnostics": diagnostics})
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}"
                    for k, v in result["metrics"].items()), flush=True)
                os.makedirs(os.path.dirname(args.save), exist_ok=True)
                with open(args.save, "w") as f:
                    json.dump(runs, f)
    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
    return 0 if summarize(runs, spec, earlier) else 1


if __name__ == "__main__":
    sys.exit(main())
