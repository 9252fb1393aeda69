"""``python -m bench --selftest``: a miniature of all six workloads, checked.

Every workload runs in both modes with shrunk populations and one-second
measurements, several at a time (nothing here is a timing result).  Checked:
each metric named in BENCHMARK.json is emitted exactly once per run with
its unit, every correctness check passes, and each simulator workload gives
identical exact counts twice with one seed (``sim_churn`` different counts
with another).
"""

from __future__ import annotations

import time

from .cli import collect, spawn
from .result import section_for

SEED = 7
MINI_SECONDS = 1.0
AT_ONCE = 4
TIMEOUT_S = 60.0


def selftest(spec: dict) -> int:
    started = time.perf_counter()
    jobs = [(w["name"], SEED, trace) for w in spec["workloads"] for trace in (0, 1)]
    jobs += [("sim_steady", SEED, 0), ("sim_churn", SEED, 0), ("sim_churn", SEED + 1, 0)]  # determinism
    # Longest first, so that the short ones fill the gaps.
    jobs.sort(key=lambda job: (not job[0].startswith("kv_"), job[0]))
    results: list[tuple[tuple, dict]] = []
    running: list[tuple[tuple, object]] = []
    while jobs or running:
        while jobs and len(running) < AT_ONCE:
            job = jobs.pop(0)
            running.append((job, spawn(job[0], job[1], MINI_SECONDS, job[2], mini=True)))
        job, process = running.pop(0)
        results.append((job, collect(process, TIMEOUT_S)))

    problems: list[str] = []
    for (name, seed, trace), run in results:
        label = f"{name} seed {seed} trace {trace}"
        before = len(problems)
        contract = run["contract"]
        expected = {entry["name"]: entry["unit"] for entry in spec[section_for(trace)]}
        got = {metric: value["unit"] for metric, value in contract["metrics"].items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            units = sorted(m for m in got if m in expected and got[m] != expected[m])
            problems.append(f"{label}: missing {missing}, extra {extra}, wrong unit {units}")
        if not contract["correct"]:
            problems.append(f"{label}: {run['detail']['problems']}")
        if contract["failed"]:
            problems.append(f"{label}: {contract['failed']} of {contract['attempted']} operations failed")
        if not trace and any(v["value"] <= 0 for v in contract["metrics"].values()):
            problems.append(f"{label}: an end-to-end metric is not positive")
        print(f"{'ok  ' if len(problems) == before else 'FAIL'} {label}: {len(got)} metrics, "
              f"{contract['attempted']} operations")

    exact: dict[tuple[str, int], list[dict]] = {}
    for (name, seed, trace), run in results:
        if name.startswith("sim_") and trace == 0:
            exact.setdefault((name, seed), []).append(run["detail"]["exact"])
    for name in ("sim_steady", "sim_churn"):
        first, second = exact[name, SEED]
        if first != second or not first:
            problems.append(f"{name}: one seed, two runs, different counts: {first} vs {second}")
    if exact["sim_churn", SEED + 1][0] == exact["sim_churn", SEED][0]:
        problems.append("sim_churn: another seed gave the same exact counts")
    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    print(f"# selftest: {len(results)} runs in {time.perf_counter() - started:.1f} s, "
          f"{'all checks passed' if not problems else f'{len(problems)} problems'}")
    return 1 if problems else 0
