#!/usr/bin/env python3
"""Self-test for perf_gate.

The gate is the regression fence for the kernel rewrites ROADMAP item 2
plans, so it needs its own net: a gate that silently stops failing is
worse than no gate. Each case runs perf_gate.main() in-process against
synthetic baseline/fresh documents (written to a temp dir) and asserts
the exit status and, where it matters, the verdict text. The committed
repo-root BENCH_kernels.json is also checked against itself, which pins
its schema without depending on this machine's timings. Exit status: 0
all cases pass, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import perf_gate  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

BASELINE = {
    "schema": "valentine-bench-kernels/1",
    "repeats": 9,
    "tolerance": {"ns_ratio": 5.0},
    "kernels": {
        "levenshtein_full": {
            "ns_per_iter": 100000.0,
            "ops": {"levenshtein_cells": 7042},
        },
        "minhash_build": {
            "ns_per_iter": 2000000.0,
            "ops": {"minhash_hashes": 64000},
        },
    },
}

FAILURES = []


def run_gate(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = perf_gate.main(argv)
    except SystemExit as e:  # load() exits directly on unreadable input
        status = e.code
    return status, out.getvalue() + err.getvalue()


def expect(name, argv, want_status, want_substring=None):
    status, output = run_gate(argv)
    if status != want_status:
        FAILURES.append(f"{name}: exit {status}, wanted {want_status}\n"
                        f"{output}")
        return
    if want_substring and want_substring not in output:
        FAILURES.append(f"{name}: output lacks {want_substring!r}\n{output}")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="perf_gate_selftest.") as tmp:
        tmpdir = Path(tmp)

        def write(name, doc):
            path = tmpdir / name
            path.write_text(json.dumps(doc), encoding="utf-8")
            return str(path)

        base = write("baseline.json", BASELINE)

        # Identical run: the no-change case must pass.
        expect("identical-passes",
               ["--baseline", base, "--fresh", base], 0, "gate: pass")

        # The committed baseline must parse and gate against itself —
        # pins the schema of the checked-in file.
        committed = str(REPO_ROOT / "BENCH_kernels.json")
        expect("committed-baseline-self-consistent",
               ["--baseline", committed, "--fresh", committed], 0)

        # An injected op-count regression (the --pessimize shape: every
        # count doubled) must fail even though ns stayed put.
        inflated = copy.deepcopy(BASELINE)
        for entry in inflated["kernels"].values():
            entry["ops"] = {k: 2 * v for k, v in entry["ops"].items()}
        expect("op-count-regression-fails",
               ["--baseline", base,
                "--fresh", write("inflated_ops.json", inflated)],
               1, "op counts diverged")

        # Fewer ops is just as suspicious (a kernel that stopped doing
        # the work): exact match cuts both ways.
        deflated = copy.deepcopy(BASELINE)
        deflated["kernels"]["minhash_build"]["ops"]["minhash_hashes"] = 1
        expect("op-count-shrink-fails",
               ["--baseline", base,
                "--fresh", write("deflated_ops.json", deflated)],
               1, "op counts diverged")

        # ns/iter beyond the band fails; inside the band passes; a large
        # speedup passes (ops fence the cheating case).
        slow = copy.deepcopy(BASELINE)
        slow["kernels"]["levenshtein_full"]["ns_per_iter"] = 100000.0 * 6
        expect("ns-regression-fails",
               ["--baseline", base, "--fresh", write("slow.json", slow)],
               1, "ns/iter regressed")
        mild = copy.deepcopy(BASELINE)
        mild["kernels"]["levenshtein_full"]["ns_per_iter"] = 100000.0 * 3
        mild_path = write("mild.json", mild)
        expect("ns-inside-band-passes",
               ["--baseline", base, "--fresh", mild_path], 0)
        fast = copy.deepcopy(BASELINE)
        fast["kernels"]["levenshtein_full"]["ns_per_iter"] = 100.0
        expect("speedup-passes",
               ["--baseline", base, "--fresh", write("fast.json", fast)], 0)

        # --ns-tolerance overrides the baseline's band.
        expect("ns-tolerance-flag-overrides",
               ["--baseline", base, "--fresh", mild_path,
                "--ns-tolerance", "2.0"],
               1, "ns/iter regressed")

        # Coverage must not silently shrink: a kernel vanishing from the
        # fresh run fails; a new kernel only reports.
        shrunk = copy.deepcopy(BASELINE)
        del shrunk["kernels"]["minhash_build"]
        expect("missing-kernel-fails",
               ["--baseline", base, "--fresh", write("shrunk.json", shrunk)],
               1, "missing")
        grown = copy.deepcopy(BASELINE)
        grown["kernels"]["emd_sweep"] = {
            "ns_per_iter": 50.0, "ops": {"emd_sweep_iterations": 64}}
        expect("new-kernel-passes",
               ["--baseline", base, "--fresh", write("grown.json", grown)],
               0, "new")

        # The diff artifact lands on disk with the gate verdict.
        diff_path = tmpdir / "diff.json"
        expect("diff-artifact-written",
               ["--baseline", base,
                "--fresh", write("slow2.json", slow),
                "--out", str(diff_path)],
               1)
        try:
            report = json.loads(diff_path.read_text(encoding="utf-8"))
            if report.get("gate") != "fail":
                FAILURES.append(f"diff-artifact-written: gate field "
                                f"{report.get('gate')!r}, wanted 'fail'")
        except (OSError, json.JSONDecodeError) as e:
            FAILURES.append(f"diff-artifact-written: unreadable diff: {e}")

        # A timing-only run from a build without op counters must be
        # refused as input, on either side, never diffed as empty counts.
        timing_only = copy.deepcopy(BASELINE)
        timing_only["opcounts"] = False
        for entry in timing_only["kernels"].values():
            del entry["ops"]
        timing_only_path = write("timing_only.json", timing_only)
        expect("timing-only-fresh-rejected",
               ["--baseline", base, "--fresh", timing_only_path],
               2, "built without op counters")
        expect("timing-only-baseline-rejected",
               ["--baseline", timing_only_path, "--fresh", base],
               2, "built without op counters")

        # Hostile inputs exit 2, never 0.
        expect("bad-schema-rejected",
               ["--baseline", write("bad.json", {"schema": "nope"}),
                "--fresh", base], 2)
        expect("unreadable-fresh-rejected",
               ["--baseline", base,
                "--fresh", str(tmpdir / "does_not_exist.json")], 2)

    if FAILURES:
        for f in FAILURES:
            print(f"perf_gate_selftest FAIL {f}", file=sys.stderr)
        return 1
    print("perf_gate_selftest: OK (15 cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
