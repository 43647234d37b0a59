"""Alternating parent/change pairs of the benchmark, and their summary.

    python tests/bench_pairs.py PARENT CHANGE OUT.json [WORKLOAD=PAIRS ...]

PARENT and CHANGE are checkouts of the two trees.  Every run is the
benchmark command of ``BENCHMARK.json`` (``python3 bench/run.py --workload W
--seed S --seconds <run_seconds> --trace 0``), started in one tree and run to
its end before the next starts; the JSON on the last line of its standard
output is kept.  The protocol is one warm-up run per side (the change first),
then, for each workload of ``BENCHMARK.json``, 3 pairs (or PAIRS, given
WORKLOAD=PAIRS) with a fresh seed per pair, whose first side alternates (the
change first in a workload's first pair), with the workloads' pairs
interleaved, then one A/A pair of the parent on each workload.

The raw rows and their summary go to OUT.json.  For each workload and
end-to-end metric of ``BENCHMARK.json`` (names, ``better`` and ``bound`` are
read from it, in the tree this script runs from) it prints each side's
quartiles, the median change, the change's wins, whether the medians lie
further apart than the parent's quartile spread, whether the metric stays
within its bound and the A/A difference; then whether ``iters_total``,
``fwd_err_digits_min`` and ``ok_frac`` are identical in every pair, and the
failed jobs of each pair.  The file is not collected by pytest, whose test
files are named ``test_*.py``.
"""

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 3
#: metrics that a change keeping X's bits leaves identical in every pair
SAME_BITS = ("iters_total", "fwd_err_digits_min", "ok_frac")


def quartiles(xs: list) -> list:
    """[q1, median, q3] of xs (inclusive method; one value gives it three times)."""
    if len(xs) == 1:
        return [xs[0]] * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [q1, q2, q3]


def rel_change(parent: float, change: float) -> float:
    if parent:
        return (change - parent) / abs(parent)
    return 0.0 if change == parent else math.copysign(math.inf, change - parent)


def _value(row: dict, name: str) -> float:
    return row["metrics"][name]["value"]


def summarize(record: dict, metrics: list) -> dict:
    """Per workload and metric, the pairs of ``record`` against ``metrics``, the
    ``end_to_end`` list of BENCHMARK.json; a pure function of its arguments."""
    out = {}
    for workload, pairs in record["pairs"].items():
        s = {"pairs": len(pairs)}
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            p = [_value(pair["parent"], name) for pair in pairs]
            c = [_value(pair["change"], name) for pair in pairs]
            qp, qc = quartiles(p), quartiles(c)
            change = rel_change(qp[1], qc[1])
            wins = sum(cc > pp if higher else cc < pp for pp, cc in zip(p, c))
            s[name] = {"parent_q1_median_q3": qp, "change_q1_median_q3": qc,
                       "median_rel_change": change, "change_wins": f"{wins}/{len(pairs)}",
                       "medians_apart_more_than_parent_iqr": abs(qc[1] - qp[1]) > qp[2] - qp[0],
                       "bound": m["bound"],
                       "within_bound": (-change if higher else change) <= m["bound"]}
            aa = record.get("aa", {}).get(workload)
            if aa:
                s[name]["aa_rel_diff"] = rel_change(_value(aa[0], name), _value(aa[1], name))
        s["identical_in_every_pair"] = {
            name: all(_value(pr["parent"], name) == _value(pr["change"], name) for pr in pairs)
            for name in SAME_BITS if name in s}
        s["failed_parent_change"] = [[pair["parent"]["failed"], pair["change"]["failed"]]
                                     for pair in pairs]
        out[workload] = s
    return out


def report_lines(summary: dict, metrics: list) -> list:
    """The printed form of ``summarize``'s result."""
    lines = []
    for workload, s in summary.items():
        lines.append(f"{workload}: {s['pairs']} pairs")
        for m in metrics:
            r = s[m["name"]]
            aa = f"{r['aa_rel_diff']:+.2%}" if "aa_rel_diff" in r else "-"
            lines.append(
                f"  {m['name']:20s} parent {' '.join(f'{v:.6g}' for v in r['parent_q1_median_q3'])}"
                f" | change {' '.join(f'{v:.6g}' for v in r['change_q1_median_q3'])}"
                f" | median {r['median_rel_change']:+.2%}, wins {r['change_wins']}, "
                f"beyond parent IQR {'yes' if r['medians_apart_more_than_parent_iqr'] else 'no'}, "
                f"bound {r['bound']:g} {'ok' if r['within_bound'] else 'EXCEEDED'}, A/A {aa}")
        same = ", ".join(f"{name} {'yes' if ok else 'NO'}"
                         for name, ok in s["identical_in_every_pair"].items())
        lines.append(f"  identical in every pair: {same}")
        lines.append("  failed jobs (parent, change): "
                     + ", ".join(f"{p}/{c}" for p, c in s["failed_parent_change"]))
    return lines


def run(tree: str, side: str, workload: str, seed: int, bench: dict) -> dict:
    command = [*bench["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", f"{bench['run_seconds']:g}", "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True, timeout=1200)
    if proc.returncode:
        raise RuntimeError(f"{side} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    row = {"side": side, "workload": workload, "seed": seed,
           **json.loads(proc.stdout.strip().splitlines()[-1])}
    print(json.dumps(row), flush=True)
    return row


def main(argv: list) -> int:
    if len(argv) < 3:
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    counts = dict.fromkeys(workloads, PAIRS)
    for arg in argv[3:]:
        workload, _, pairs = arg.partition("=")
        if workload not in counts or not pairs.isdigit() or int(pairs) < 1:
            print(f"bench_pairs: {arg!r} is not WORKLOAD=PAIRS with WORKLOAD in {workloads}",
                  file=sys.stderr)
            return 2
        counts[workload] = int(pairs)
    trees = {"parent": argv[0], "change": argv[1]}
    # one seed per pair: 1000 (i + 1) + 1, ... for the pairs of workload i (from 0), the
    # next for its A/A pair, and 1000 (number of workloads + 1) for the warm-up
    warm = 1000 * (len(workloads) + 1)
    record = {"protocol": {"pairs": counts, "run_seconds": bench["run_seconds"]},
              "warmup": [run(trees[side], side, workloads[0], warm, bench)
                         for side in ("change", "parent")],
              "pairs": {w: [] for w in workloads}, "aa": {}}
    for j in range(max(counts.values())):
        for i, workload in enumerate(workloads):
            if j < counts[workload]:
                seed = 1000 * (i + 1) + 1 + j
                pair = {"first": ("change", "parent")[j % 2]}
                for side in (("change", "parent") if j % 2 == 0 else ("parent", "change")):
                    pair[side] = run(trees[side], side, workload, seed, bench)
                record["pairs"][workload].append(pair)
    for i, workload in enumerate(workloads):
        seed = 1000 * (i + 1) + 1 + counts[workload]
        record["aa"][workload] = [run(trees["parent"], "parent", workload, seed, bench)
                                  for _ in range(2)]
    record["summary"] = summarize(record, bench["end_to_end"])
    Path(argv[2]).write_text(json.dumps(record, indent=1))
    print("\n".join(report_lines(record["summary"], bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
