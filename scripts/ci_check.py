#!/usr/bin/env python3
"""CI gates over the JSON the bench binaries emit.

    python3 scripts/ci_check.py table1 TABLE1_JSON
    python3 scripts/ci_check.py frontier FRONTIER_JSON
    python3 scripts/ci_check.py replay REPLAY_JSON
    python3 scripts/ci_check.py perfbench OUT...

Inputs come from `table1 -- --json`, `frontier -- 4 42 --json`,
`bench_replay -- 4 42`, and the saved stdout of
`perfbench/run.py --workload <w> --seed 42 --seconds 1 --trace 1`: each
perfbench run passes when its last line is a JSON object with
`"correct": true` and `"failed": 0`. A traced round checks perfbench's
hand-built pipeline against `Detector::run`'s fingerprints, so it
catches a `Detector` change that drifts from the composition perfbench
mirrors. Golden fixtures are read from
tests/fixtures next to this script. Every check of the subcommand runs;
each passing check prints one line, each failing check prints what
drifted, and the exit status is 1 if any check failed.
"""

import argparse
import json
import math
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

# The message-passing families and their planted race counts: exactly
# one stat-counter race in pipeline, zero anywhere else.
CHANNEL_APPS = {"pipeline": 1, "actors": 0, "worksteal": 0}


def load(path):
    with open(path) as f:
        return json.load(f)


def geomean(xs):
    return math.exp(sum(map(math.log, xs)) / len(xs))


def drift(title, bad):
    """A failure message: the title, then one indented line per item."""
    return "\n  ".join([title, *bad])


def golden_race_counts(apps=None):
    """(tsan, txrace) race counts per app from the golden fixture."""
    return {r["app"]: (len(r["tsan_races"]), len(r["txrace_races"]))
            for r in load(FIXTURES / "golden_workloads.json")
            if apps is None or r["app"] in apps}


def check_race_counts(table1):
    got = {r["app"]: (r["tsan_races"], r["txrace_races"]) for r in table1}
    want = golden_race_counts()
    bad = [f"{app}: got {got.get(app)} want {w}"
           for app, w in want.items() if got.get(app) != w]
    if bad:
        return drift("race-count drift vs golden fixtures:", bad)
    print(f"race counts match golden fixtures for all {len(want)} apps")


def check_prune(table1):
    """Per-app pruned fractions pinned; TxRace+SA-flow geomean < 1.52x."""
    got = {r["app"]: r for r in table1}
    want = load(FIXTURES / "golden_prune.json")
    bad = []
    for w in want:
        g = got.get(w["app"])
        if g is None:
            bad.append(f"{w['app']}: missing from table1 output")
            continue
        for k in ("pruned_fraction", "pruned_fraction_flow"):
            if abs(g[k] - w[k]) > 1e-9:
                bad.append(f"{w['app']}.{k}: got {g[k]} want {w[k]}")
    if bad:
        return drift("prune-fraction drift vs golden fixtures:", bad)
    geo = geomean([got[w["app"]]["txrace_saflow_overhead"] for w in want])
    if not geo < 1.52:
        return f"TxRace+SA-flow geomean overhead {geo:.4f}x breaches the 1.52x gate"
    print(f"prune fractions match golden fixtures for all {len(want)} apps; "
          f"TxRace+SA-flow geomean {geo:.4f}x < 1.52x")


def check_channels(table1):
    got = {r["app"]: (r["tsan_races"], r["txrace_races"])
           for r in table1 if r["app"] in CHANNEL_APPS}
    want = golden_race_counts(CHANNEL_APPS)
    bad = [f"{app}: got {got.get(app)} want {w}"
           for app, w in want.items() if got.get(app) != w]
    bad += [f"{app}: {n} planted race(s) not reflected in fixture ({want.get(app)})"
            for app, n in CHANNEL_APPS.items() if want.get(app, (None,))[0] != n]
    if bad:
        return drift("channel workload race drift:", bad)
    print(f"channel race counts match fixtures for {len(want)} apps")


def check_frontier(rows):
    """Recalls pinned; at budget 1.2x every app within 1.2 x 1.05, the
    paper-app geomean <= 1.26x and mean recall >= 0.90; >= 4 budgets."""
    got = {(r["app"], r["budget"]): r for r in rows}
    want = {(r["app"], r["budget"]): r
            for r in load(FIXTURES / "golden_frontier.json")}
    bad = [f"{k}: got {got.get(k, {}).get('recall')} want {w['recall']}"
           for k, w in want.items()
           if k not in got or abs(got[k]["recall"] - w["recall"]) > 1e-9]
    if bad:
        return drift("recall drift vs golden frontier fixture:", bad)
    at12 = [r for r in got.values() if r["budget"] == 1.2]
    over = [f"{r['app']}: {r['overhead']:.3f}x" for r in at12
            if r["overhead"] > 1.2 * 1.05]
    if over:
        return drift("budget 1.2x overhead cap (1.26x) breached:", over)
    paper = [r for r in at12 if r["paper_app"]]
    geo = geomean([r["overhead"] for r in paper])
    mean_recall = sum(r["recall"] for r in paper) / len(paper)
    if not geo <= 1.26:
        return f"paper-app geomean overhead {geo:.4f}x breaches the 1.26x gate"
    if not mean_recall >= 0.90:
        return f"paper-app mean recall {mean_recall:.4f} below the 0.90 gate"
    budgets = sorted({b for (_, b) in got})
    if len(budgets) < 4:
        return f"frontier needs >= 4 budget points, got {budgets}"
    print(f"frontier: {len(want)} cells match fixture; budget 1.2x geomean "
          f"{geo:.4f}x <= 1.26x, mean recall {mean_recall:.4f} >= 0.90 "
          f"over {len(paper)} paper apps; {len(budgets)} budget points")


def check_replay(rows):
    """Sweep speedup >= 2x."""
    total = rows[-1]
    if total.get("row") != "total":
        return "missing (total) row"
    if total["sweep_speedup"] < 2.0:
        return f"replay sweep speedup regressed: {total['sweep_speedup']}x < 2x"
    print(f"bench_replay: {total['sweep_speedup']}x sweep speedup")


def check_perfbench(path):
    """The run's last line reports every check correct, none failed."""
    lines = Path(path).read_text().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        return f"{path}: last line is not a perfbench JSON result"
    if not isinstance(last, dict):
        return f"{path}: last line is not a perfbench JSON result"
    if last.get("correct") is not True or last.get("failed") != 0:
        return (f"{path}: correct={last.get('correct')} "
                f"failed={last.get('failed')} of {last.get('attempted')}")
    print(f"{path}: correct, 0 failed of {last.get('attempted')}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("table1", help="race counts, prune fractions + 1.52x gate, "
                   "channel counts").add_argument("table1_json")
    sub.add_parser("frontier", help="recall fixture + budget gates"
                   ).add_argument("frontier_json")
    sub.add_parser("replay", help="sweep speedup gate"
                   ).add_argument("replay_json")
    sub.add_parser("perfbench", help="each run's last line: correct, 0 failed"
                   ).add_argument("outputs", nargs="+")
    args = ap.parse_args()

    if args.cmd == "table1":
        table1 = load(args.table1_json)
        failures = [check(table1)
                    for check in (check_race_counts, check_prune, check_channels)]
    elif args.cmd == "frontier":
        failures = [check_frontier(load(args.frontier_json))]
    elif args.cmd == "perfbench":
        failures = [check_perfbench(out) for out in args.outputs]
    else:
        failures = [check_replay(load(args.replay_json))]
    failures = [f for f in failures if f]
    for f in failures:
        print(f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
