#!/usr/bin/env python3
"""Compare saved perfbench runs of two commits, pairing runs by fingerprint.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds one file per run: the run's standard output. A run
pairs only with the other side's runs of an identical fingerprint
(workload, seed, scale, nproc, GOMAXPROCS, Go version, OS, architecture,
trace mode, --seconds). Runs without a partner are listed and never
aggregated or compared. For every end-to-end metric in BENCHMARK.json it
prints, per workload, each side's median over the pairs, the base side's
quartile spread, how many pairs the new side won, and a verdict:

  regression  new median worse than the base median by more than the bound
  gain        new side wins at least 9 in 10 pairs and the medians differ
              by more than the base side's quartile spread
  unresolved  the base side's spread is wider than the bound
  same        none of the above
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    """Return {fingerprint: [metrics]} for every run file under path."""
    runs = {}
    files = [path] if os.path.isfile(path) else [
        os.path.join(path, f) for f in sorted(os.listdir(path))]
    for f in files:
        with open(f) as fh:
            lines = [l.strip() for l in fh if l.strip()]
        fp = next((l[len("fingerprint "):] for l in lines if l.startswith("fingerprint ")), None)
        result = next((l for l in reversed(lines) if l.startswith("{")), None)
        if fp is None or result is None:
            print(f"skipping {f}: no fingerprint or result", file=sys.stderr)
            continue
        key = json.dumps(json.loads(fp), sort_keys=True)
        res = json.loads(result)
        runs.setdefault(key, []).append({k: v["value"] for k, v in res["metrics"].items()})
    return runs


def spread(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    return (q[2] - q[0]) / med if med else 0.0


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    base, new = load(argv[1]), load(argv[2])
    for key in sorted(set(base) ^ set(new)):
        side = "base" if key in base else "new"
        print(f"unpaired ({side} only), not compared: {key}")
    paired = sorted(set(base) & set(new))
    by_workload = {}
    for key in paired:
        by_workload.setdefault(json.loads(key)["workload"], []).append(key)
    for wl, keys in sorted(by_workload.items()):
        print(f"\n{wl}: {len(keys)} paired fingerprints")
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            pairs = [(statistics.median(r[name] for r in base[k]),
                      statistics.median(r[name] for r in new[k]))
                     for k in keys if name in base[k][0] and name in new[k][0]]
            if not pairs:
                continue
            b = [p[0] for p in pairs]
            n = [p[1] for p in pairs]
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else 0.0
            worse = change if lower else -change
            wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
            s = spread(b)
            if worse > m["bound"]:
                verdict = "regression"
            elif wins >= 0.9 * len(pairs) and abs(change) > s:
                verdict = "gain"
            elif s > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "same"
            print(f"  {name:16s} base {mb:12.4f}  new {mn:12.4f} {m['unit']:10s} "
                  f"change {100 * change:+7.2f}%  base spread {100 * s:5.1f}%  "
                  f"wins {wins}/{len(pairs)}  bound {100 * m['bound']:.0f}%  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
