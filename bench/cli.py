"""Command line of the benchmark.

    python -m bench                       every workload, three fresh processes each
    python -m bench --trace               ... and each once more with tracing on
    python -m bench --out FILE            ... and write the stamped result set
    python -m bench --workload NAME --seed N --seconds S --trace 0|1
                                          one workload in this process (the
                                          form BENCHMARK.json's command takes)
    python -m bench --selftest            a miniature of everything, checked
    python -m bench compare A.json B.json apply BENCHMARK.json's bounds
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from .hostspeed import HostSpeed
from .result import emit, load_spec, section_for
from .stats import median, pin_to_one_cpu

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 20120912
#: The full run takes every workload this many times, in fresh processes,
#: round by round, and reports the median process; ``compare`` reads the
#: distance between the processes as the noise of the set.
ROUNDS = 3
#: Seconds each of those processes measures (the full run's --seconds default).
ROUND_SECONDS = 4.0
#: A workload that has not finished by then is reported as failed, not waited for.
WORKLOAD_TIMEOUT_S = 150.0


def run_workload(name: str, seed: int, seconds: float, trace: int, mini: bool, host: HostSpeed):
    """Run one workload in this process and return its Outcome."""
    if name.startswith("net_"):
        from . import net as module
    elif name.startswith("kv_"):
        from . import kv as module
    else:
        from . import sim as module
    return module.run(name, seed, seconds, trace, mini, host)


def spawn(name: str, seed: int, seconds: float, trace: int, mini: bool = False) -> subprocess.Popen:
    command = [
        sys.executable, "-m", "bench", "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if mini:
        command.append("--mini")
    return subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def collect(process: subprocess.Popen, timeout: float) -> dict:
    """Wait for a workload process; parse its DETAIL line and contract line.

    A crash or a time-out yields a result that counts as entirely failed
    (``correct`` false, ``failed`` equal to ``attempted``) instead of hanging.
    """
    try:
        output, _ = process.communicate(timeout=timeout)
        problem = None if process.returncode in (0, 1) else f"exit code {process.returncode}"
    except subprocess.TimeoutExpired:
        process.kill()
        output, _ = process.communicate()
        problem = f"no result within {timeout:.0f} s"
    lines = output.strip().splitlines()
    result: dict = {"output": [line for line in lines if not line.startswith(("DETAIL ", "{"))]}
    try:
        result["contract"] = json.loads(lines[-1])
        result["detail"] = json.loads(lines[-2].removeprefix("DETAIL "))
    except (IndexError, ValueError):
        problem = problem or "no result line"
    if problem:
        result["contract"] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        result["detail"] = {"windows": {}, "reported": {}, "exact": {}, "problems": [problem]}
        result["output"].append(f"INCORRECT: {problem}")
    return result


def stamp(seed: int, seconds: float) -> dict:
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
        "rounds": ROUNDS,
        "network": "loopback interface of one host",
    }


def summarise(runs: list[dict]) -> dict:
    """One workload's processes of one mode -> the entry of the result set."""
    contracts = [run["contract"] for run in runs]
    details = [run["detail"] for run in runs]
    units = {name: value["unit"] for contract in contracts for name, value in contract["metrics"].items()}
    rounds = {
        name: [contract["metrics"][name]["value"] for contract in contracts if name in contract["metrics"]]
        for name in units
    }
    problems = [problem for detail in details for problem in detail["problems"]]
    if any(detail["exact"] != details[0]["exact"] for detail in details):
        problems.append(f"one seed, different exact counters: {[d['exact'] for d in details]}")
    attempted = sum(contract["attempted"] for contract in contracts)
    failed = sum(contract["failed"] for contract in contracts)
    return {
        "metrics": {
            name: {"value": median(values), "unit": units[name]} for name, values in rounds.items()
        },
        "run": {
            "correct": all(contract["correct"] for contract in contracts) and not problems,
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "rounds": rounds,
            "reported": details[0]["reported"],
            "exact": details[0]["exact"],
            "problems": problems,
        },
    }


def run_all(spec: dict, seed: int, seconds: float, traced: bool, out: str | None) -> int:
    started = time.perf_counter()
    names = [workload["name"] for workload in spec["workloads"]]
    # Round by round, not workload by workload: the host's speed drifts over
    # minutes, and this way every workload sees every stretch of the run.
    jobs = [(name, 0) for _ in range(ROUNDS) for name in names]
    jobs += [(name, 1) for name in names if traced]
    runs: dict[tuple[str, int], list[dict]] = {}
    for name, trace in jobs:
        run = collect(spawn(name, seed, seconds, trace), WORKLOAD_TIMEOUT_S)
        print("\n".join(run["output"]), flush=True)
        runs.setdefault((name, trace), []).append(run)
    results: dict[str, dict] = {name: {} for name in names}
    all_correct = True
    for (name, trace), of_mode in runs.items():
        summary = summarise(of_mode)
        section = section_for(trace)
        results[name][section] = summary["metrics"]
        results[name][f"{section}_run"] = summary["run"]
        if not summary["run"]["correct"]:
            all_correct = False
            print(f"INCORRECT: {name} trace {trace}: {summary['run']['problems']}")
    print(f"# every end-to-end metric: median of {ROUNDS} processes of {seconds:g} s")
    for name in names:
        for metric, value in results[name]["end_to_end"].items():
            print(f"{name:<14}{metric:<18}{value['value']:>16.4f} {value['unit']}")
    document = {"stamp": stamp(seed, seconds), "workloads": results}
    print(f"# {len(jobs)} runs in {time.perf_counter() - started:.0f} s")
    print(json.dumps(document))
    if out:
        with open(out, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    if not all_correct:
        print("FAILED: at least one correctness check did not pass", file=sys.stderr)
    return 0 if all_correct else 1


def main(argv: list[str], process_start: float) -> int:
    spec = load_spec()
    if argv[:1] == ["compare"]:
        from .compare import compare

        if len(argv) != 3:
            print("usage: python -m bench compare A.json B.json", file=sys.stderr)
            return 2
        return compare(spec, argv[1], argv[2])
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python -m bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help=(
        f"seconds one process measures (default: {ROUND_SECONDS:g} in the full run, "
        f"BENCHMARK.json's {spec['run_seconds']} for one --workload)"))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="write the stamped result set of a full run here")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--mini", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.selftest:
        from .selftest import selftest

        return selftest(spec)
    if not args.workload:
        return run_all(spec, args.seed, args.seconds or ROUND_SECONDS, bool(args.trace), args.out)
    # The miniature runs several workloads at once, so it leaves them unpinned.
    note = "not pinned (miniature run)" if args.mini else pin_to_one_cpu()
    host = HostSpeed(process_start)  # after pinning: a new thread inherits the affinity
    host.start()
    try:
        outcome = run_workload(
            args.workload, args.seed, args.seconds or float(spec["run_seconds"]), args.trace,
            args.mini, host)
        slowdown = host.slowdown(process_start, time.perf_counter())
    finally:
        host.stop()
    outcome.notes.append(note)
    outcome.notes.append(
        f"timings are corrected to the reference host speed; over this run the host was "
        f"{slowdown:.2f} x as slow as the reference")
    if args.trace:
        outcome.metrics["bench.host_slowdown"] = slowdown
    if outcome.trace_document is not None:
        from .spans import write_trace

        outcome.notes.append(f"trace written to {write_trace(outcome).relative_to(ROOT)}")
    emit(outcome, spec)
    return 0 if outcome.correct else 1
