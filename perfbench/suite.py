"""Run the benchmark over several workloads and seeds and summarize it.

    python3 perfbench/suite.py [--workloads sweep,mpc-rapid,replay-pi]
        [--seeds 0-9] [--seconds S] [--trace 0|1] [--record FILE]

Each (workload, seed) is one ``run.py`` process. For every metric the suite
prints the median, the quartiles and the spread (interquartile distance as a
share of the median) over the seeds, and for end-to-end metrics flags a
spread above a third of the metric's bound in BENCHMARK.json. ``--record``
writes the same summary, every value, each run's notes (raw times, passes)
and the machine info to FILE as JSON. ``--seeds`` takes ranges and lists,
such as ``0-9`` or ``0,0,3``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    """One run.py process: its result, its ``# machine`` and its ``# notes``."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    tagged = {line.split(" ", 2)[1]: json.loads(line.split(" ", 2)[2])
              for line in lines if line.startswith(("# machine ", "# notes "))}
    return json.loads(lines[-1]), tagged["machine"], tagged["notes"]


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="sweep,mpc-rapid,replay-pi")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    report = {"seconds": seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values, attempted, failed, notes = {}, 0, 0, []
        for seed in seeds:
            result, report["machine"], note = run_once(workload, seed, seconds, args.trace)
            notes.append(dict(note, seed=seed))
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed={seed} correct={result['correct']} " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
                if not args.trace or n in bounds), flush=True)
        entry = {"attempted": attempted, "failed": failed, "metrics": {}, "notes": notes}
        for name, vals in values.items():
            stats = summarize(vals)
            bound = bounds.get(name)
            # setup_s is bounded on its median only, not on its spread.
            flag = ""
            if bound and name != "setup_s" and stats["spread"] > bound / 3:
                flag = "  SPREAD ABOVE BOUND/3"
                steady = False
            entry["metrics"][name] = dict(stats, values=vals, bound=bound)
            print(f"  {workload:10s} {name:42s} median={stats['median']:.6g} "
                  f"q1={stats['q1']:.6g} q3={stats['q3']:.6g} "
                  f"spread={stats['spread']:.4f}{flag}")
        report["workloads"][workload] = entry
    if args.record:
        with open(args.record, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
