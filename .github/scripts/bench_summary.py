#!/usr/bin/env python3
"""Merge the perf job's BENCH_*.json reports into one markdown table.

Usage: bench_summary.py BENCH_scale.json BENCH_paper.json ... >> "$GITHUB_STEP_SUMMARY"

Each report is the self-describing JSON a collabsim-bench binary writes
(`"bench"` name plus per-cell/tier/grid objects). The script is schema-
tolerant: it walks every JSON object, keeps the ones that carry a
steps_per_sec-like throughput number, and renders one row per entry —
a missing or unreadable file becomes a visible row, never a crash, so the
step summary still renders when a bench is skipped.
"""

import json
import sys


def rows_from_report(name, doc):
    """Yield (bench, entry, steps/sec, extra) rows from one report."""
    bench = doc.get("bench", name)

    def walk(node, label):
        if isinstance(node, dict):
            sps = node.get("steps_per_sec") or node.get("aggregate_steps_per_sec")
            if sps is not None:
                entry = node.get("label") or label or "-"
                extras = []
                for key in ("peers", "cells", "total_steps"):
                    if key in node:
                        extras.append(f"{key}={node[key]}")
                if node.get("peak_rss_mb") is not None:
                    extras.append(f"rss={node['peak_rss_mb']:.0f}MB")
                yield (bench, str(entry), float(sps), " ".join(extras))
            for key, value in node.items():
                if isinstance(value, (dict, list)) and key != "phases":
                    yield from walk(value, key)
        elif isinstance(node, list):
            for item in node:
                yield from walk(item, label)

    yield from walk(doc, None)
    total = doc.get("total_steps_per_sec")
    if total is not None:
        extra = ""
        warm = doc.get("warm_start")
        if isinstance(warm, dict) and "wall_seconds_saved" in warm:
            extra = (
                f"warm-start saved {warm['wall_seconds_saved']:.2f}s "
                f"across {warm.get('cells', '?')} forked cells"
            )
        yield (bench, "aggregate", float(total), extra)


def arms_table(doc):
    """Render the arms_race per-defence robustness table, if present."""
    defences = doc.get("defences")
    if doc.get("bench") != "arms_race" or not isinstance(defences, list):
        return
    print()
    print("### Arms race: trained vs scripted attackers, per defence")
    print()
    print(
        "| defence | trained damage | scripted damage | trained retained "
        "| scripted retained | q-updates | winner |"
    )
    print("| --- | ---: | ---: | ---: | ---: | ---: | --- |")
    for arm in defences:
        trained = arm.get("trained", {})
        scripted = arm.get("scripted", {})
        winner = "trained" if arm.get("trained_beats_scripted") else "scripted"
        print(
            f"| {arm.get('defence', '-')} "
            f"| {trained.get('damage', 0):,.2f} "
            f"| {scripted.get('damage', 0):,.2f} "
            f"| {trained.get('mean_reputation_retained', 0):.4f} "
            f"| {scripted.get('mean_reputation_retained', 0):.4f} "
            f"| {arm.get('q_updates', 0)} "
            f"| {winner} |"
        )
    wins = doc.get("trained_wins")
    if wins is not None:
        print()
        print(
            f"Trained attacker out-damages the scripted whitewasher on "
            f"**{wins}/{len(defences)}** defences."
        )


def main(paths):
    print("## Bench results")
    print()
    print("| bench | entry | steps/sec | detail |")
    print("| --- | --- | ---: | --- |")
    docs = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except FileNotFoundError:
            # An earlier gate failing means later benches never wrote
            # their reports; the summary must still render what exists.
            print(f"| {path} | - | - | missing (bench did not run) |")
            continue
        except (OSError, ValueError) as err:
            print(f"| {path} | - | - | unreadable: {err} |")
            continue
        docs.append(doc)
        emitted = False
        for bench, entry, sps, extra in rows_from_report(path, doc):
            print(f"| {bench} | {entry} | {sps:,.1f} | {extra} |")
            emitted = True
        if not emitted:
            print(f"| {path} | - | - | no throughput entries found |")
    for doc in docs:
        arms_table(doc)


if __name__ == "__main__":
    main(sys.argv[1:])
