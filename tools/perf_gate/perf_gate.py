#!/usr/bin/env python3
"""Kernel perf-regression gate: diff a fresh bench_kernels run against
the committed baseline.

Two comparison regimes, matching what each number can promise:

  * operation counts are bit-deterministic (seeded workloads, exact
    counters), so any mismatch — more ops, fewer ops, an op appearing
    or vanishing — fails the gate outright;
  * ns/op medians are hardware-noisy, so only a fresh/baseline ratio
    above the tolerance band fails (band from --ns-tolerance, else the
    baseline's tolerance.ns_ratio, else 5.0). Speedups never fail: the
    op counts already fence "fast because it stopped doing the work".

A file that declares "opcounts": false came from a bench_kernels build
without the op counters (no VALENTINE_OPCOUNT) and holds timings only;
the gate refuses it as an input error instead of comparing empty counts.
Only the perf-opcount preset's output can be gated.

A kernel present in the baseline but missing from the fresh run fails
(coverage must not silently shrink); a new kernel only in the fresh run
is reported but passes (the baseline is updated by committing the fresh
file).

Usage:
  perf_gate.py --baseline BENCH_kernels.json --fresh fresh.json \
               [--ns-tolerance R] [--out diff.json]

Exit codes: 0 gate passes, 1 regression detected, 2 usage/input error.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.stderr.write(f"perf_gate: cannot read {path}: {e}\n")
        sys.exit(2)
    if doc.get("schema") != "valentine-bench-kernels/1":
        sys.stderr.write(f"perf_gate: {path}: unrecognized schema "
                         f"{doc.get('schema')!r}\n")
        sys.exit(2)
    if doc.get("opcounts", True) is not True:
        sys.stderr.write(f"perf_gate: {path}: built without op counters "
                         f"(\"opcounts\": {json.dumps(doc['opcounts'])}); "
                         f"re-run bench_kernels from a VALENTINE_OPCOUNT "
                         f"build (cmake --preset perf-opcount)\n")
        sys.exit(2)
    if not isinstance(doc.get("kernels"), dict):
        sys.stderr.write(f"perf_gate: {path}: missing 'kernels' object\n")
        sys.exit(2)
    return doc


def compare(baseline, fresh, ns_tolerance):
    """Returns (ok, results) where results is one dict per kernel."""
    results = []
    ok = True
    base_kernels = baseline["kernels"]
    fresh_kernels = fresh["kernels"]

    for name in sorted(base_kernels):
        base = base_kernels[name]
        entry = {"kernel": name}
        if name not in fresh_kernels:
            entry["verdict"] = "missing"
            entry["detail"] = "kernel present in baseline but not in fresh run"
            ok = False
            results.append(entry)
            continue
        cur = fresh_kernels[name]
        failures = []

        base_ops = base.get("ops", {})
        cur_ops = cur.get("ops", {})
        op_diffs = {}
        for op in sorted(set(base_ops) | set(cur_ops)):
            want = int(base_ops.get(op, 0))
            got = int(cur_ops.get(op, 0))
            if want != got:
                op_diffs[op] = {"baseline": want, "fresh": got}
        if op_diffs:
            entry["op_diffs"] = op_diffs
            failures.append(f"op counts diverged ({', '.join(sorted(op_diffs))})")

        base_ns = float(base.get("ns_per_iter", 0.0))
        cur_ns = float(cur.get("ns_per_iter", 0.0))
        entry["ns_baseline"] = base_ns
        entry["ns_fresh"] = cur_ns
        if base_ns > 0.0:
            ratio = cur_ns / base_ns
            entry["ns_ratio"] = round(ratio, 4)
            if ratio > ns_tolerance:
                failures.append(
                    f"ns/iter regressed {ratio:.2f}x (tolerance {ns_tolerance:.2f}x)")

        if failures:
            entry["verdict"] = "fail"
            entry["detail"] = "; ".join(failures)
            ok = False
        else:
            entry["verdict"] = "pass"
        results.append(entry)

    for name in sorted(set(fresh_kernels) - set(base_kernels)):
        results.append({
            "kernel": name,
            "verdict": "new",
            "detail": "kernel only in fresh run; commit the fresh file to adopt it",
        })

    return ok, results


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_kernels.json")
    parser.add_argument("--fresh", required=True,
                        help="bench_kernels output from this build")
    parser.add_argument("--ns-tolerance", type=float, default=None,
                        help="max fresh/baseline ns ratio (default: "
                             "baseline tolerance.ns_ratio, else 5.0)")
    parser.add_argument("--out", default=None,
                        help="write the diff report JSON here (CI artifact)")
    args = parser.parse_args(argv)

    baseline = load(args.baseline)
    fresh = load(args.fresh)

    ns_tolerance = args.ns_tolerance
    if ns_tolerance is None:
        ns_tolerance = float(
            baseline.get("tolerance", {}).get("ns_ratio", 5.0))
    if ns_tolerance <= 0:
        sys.stderr.write("perf_gate: --ns-tolerance must be positive\n")
        return 2

    ok, results = compare(baseline, fresh, ns_tolerance)

    report = {
        "gate": "pass" if ok else "fail",
        "ns_tolerance": ns_tolerance,
        "kernels": results,
    }
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as f:
                json.dump(report, f, indent=2, sort_keys=True)
                f.write("\n")
        except OSError as e:
            sys.stderr.write(f"perf_gate: cannot write {args.out}: {e}\n")
            return 2

    for entry in results:
        line = f"[{entry['verdict']:>7}] {entry['kernel']}"
        if "ns_ratio" in entry:
            line += f"  ns x{entry['ns_ratio']:.2f}"
        if entry.get("detail"):
            line += f"  — {entry['detail']}"
        print(line)
    print(f"perf_gate: {report['gate']} "
          f"({sum(1 for r in results if r['verdict'] == 'pass')} pass, "
          f"{sum(1 for r in results if r['verdict'] in ('fail', 'missing'))} fail, "
          f"tolerance {ns_tolerance:.2f}x)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
