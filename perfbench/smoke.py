"""Smoke run of every workload at a small size.

``python3 perfbench/smoke.py`` runs each workload untraced and traced
for a few steps on a few hundred rows, then one short full-size command
line run, and fails unless every answer matched its oracle and every
metric ``BENCHMARK.json`` names was emitted.  Failed operations
(refused SMOs, errors) are printed, not fatal: ``evolve_suite`` has
known ones (see ``NOTES.md``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run


def main() -> int:
    problem = run._import_program()
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    import layers
    from loads import EvolveSuite, ReadZipf, WriteMix

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    problems = []
    if sorted(end_to_end) != sorted(name for name, _ in run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if sorted(per_layer) != sorted(layers.metric_names()):
        problems.append("BENCHMARK.json per_layer differs from layers.metric_names()")
    #: (workload at a small size, steps per run)
    small = {
        "read_zipf_sqlite": (lambda: ReadZipf("sqlite", persons=600), 60),
        "read_zipf_memory": (lambda: ReadZipf("memory", persons=600), 60),
        "write_mix": (lambda: WriteMix(rows_per_set=500), 12),
        "evolve_suite": (lambda: EvolveSuite(entities_per_set=10), 9),
    }
    unknown = sorted({w["name"] for w in spec["workloads"]} - set(small))
    if unknown:
        problems.append(f"BENCHMARK.json names workloads {unknown} this file does not know")
    for name, (make, steps) in small.items():
        workload = make()
        workload.generate(seed=1)
        for traced, expected in ((False, end_to_end), (True, per_layer)):
            if traced:
                rec, metrics = run.run_traced(name, workload, steps, seed=1)
            else:
                rec, metrics = run.run_untraced(name, workload, steps, seed=1)
            missing = sorted(set(expected) - set(metrics))
            extra = sorted(set(metrics) - set(expected))
            if missing or extra:
                problems.append(f"{name}: missing {missing}, unexpected {extra}")
            if rec.wrong:
                problems.append(f"{name}: {rec.wrong} answers disagree with the oracle")
            print(f"smoke {name} trace={int(traced)}: {len(rec.ops)} ops, "
                  f"{rec.failed} failed, {rec.wrong} wrong")
    # the command line itself, at full size
    command = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
               "read_zipf_memory", "--seed", "1", "--seconds", "3", "--trace", "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=300)
    last = json.loads(done.stdout.strip().splitlines()[-1]) if done.returncode == 0 else {}
    if sorted(last.get("metrics", {})) != sorted(end_to_end) or not last.get("correct"):
        problems.append(f"command line run failed or incomplete: {last}")
    print(f"smoke command line: exit {done.returncode}, {last.get('attempted')} ops")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
