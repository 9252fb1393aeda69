"""``python -m bench compare A.json B.json``: B against A, by BENCHMARK.json's bounds."""

from __future__ import annotations

import json
import math

from .stats import spread

#: Result sets are only comparable when these fields of their stamps agree.
SAME = ("nproc", "python minor version", "seed", "seconds", "rounds")


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _comparable(stamp: dict) -> dict:
    minor = ".".join(stamp["python"].split(".")[:2])
    return {**{field: stamp.get(field) for field in SAME}, "python minor version": minor}


def compare(spec: dict, path_a: str, path_b: str) -> int:
    """Print one row per (workload, end-to-end metric); 1 unless every row is ``ok``.

    ``unresolved``: the processes of one of the two sets disagree with each
    other by more than the bound, so the sets cannot tell.  ``worse``: B is
    worse than A by more than the bound.  When both sets are of one commit,
    any distance beyond the bound, in either direction, is ``differs``: the
    same code must agree with itself whichever set is called A.
    """
    a, b = _load(path_a), _load(path_b)
    for field in SAME:
        ours, theirs = _comparable(a["stamp"])[field], _comparable(b["stamp"])[field]
        if ours != theirs:
            print(f"refusing to compare: {field} differs ({ours} in {path_a}, {theirs} in {path_b})")
            return 2
    same_code = a["stamp"]["commit"] == b["stamp"]["commit"]
    print(f"A = {path_a} ({a['stamp']['commit']})   B = {path_b} ({b['stamp']['commit']})")
    print(f"{'workload':<14}{'metric':<15}{'A':>14}{'B':>14}{'B/A':>8}{'bound':>7}"
          f"{'spread A':>10}{'spread B':>10}  verdict")
    failures = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = [side["workloads"].get(name, {}) for side in (a, b)]
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            try:
                base, new = (run["end_to_end"][key]["value"] for run in runs)
                spreads = [spread(run["end_to_end_run"]["rounds"][key]) for run in runs]
            except KeyError:
                print(f"{name:<14}{key:<15}{'-':>14}{'-':>14}{'':>8}{bound:>7.2f}{'':>20}  missing")
                failures += 1
                continue
            ratio = new / base
            worsening = ratio if metric["better"] == "lower" else 1.0 / ratio
            if max(spreads) > bound:
                verdict = "unresolved"
            elif same_code and abs(math.log(ratio)) > math.log1p(bound):
                verdict = "differs"
            elif worsening > 1.0 + bound:
                verdict = "worse"
            else:
                verdict = "ok"
            failures += verdict != "ok"
            print(f"{name:<14}{key:<15}{base:>14.4f}{new:>14.4f}{ratio:>8.3f}{bound:>7.2f}"
                  f"{spreads[0]:>10.3f}{spreads[1]:>10.3f}  {verdict}")
        summaries = [run.get("end_to_end_run", {}) for run in runs]
        for side, summary in zip("AB", summaries):
            if not summary.get("correct", False) or summary.get("failed", 1):
                print(f"{name:<14}{side}: correct={summary.get('correct')} "
                      f"failed_share={summary.get('failed_share')}")
                failures += 1
        # A simulator-only change must leave every simulated statistic as it was.
        exact = [summary.get("exact", {}) for summary in summaries]
        if exact[0] != exact[1]:
            changed = sorted(key for key in {*exact[0], *exact[1]} if exact[0].get(key) != exact[1].get(key))
            print(f"{name:<14}exact counters differ: " + ", ".join(
                f"{key} {exact[0].get(key)} -> {exact[1].get(key)}" for key in changed))
            failures += 1
    return 1 if failures else 0
