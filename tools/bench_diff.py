#!/usr/bin/env python3
"""Diff two google-benchmark JSON files benchmark-by-benchmark.

Usage:
    tools/bench_diff.py OLD.json NEW.json [--format text|md] [--threshold PCT]
                        [--gate PCT] [--only REGEX] [--max-alloc VALUE]

Matches benchmarks by name (repetition aggregates: the ``_median`` row is
preferred when repetitions > 1, then ``_mean``, otherwise the raw row — one
slow repetition on a noisy host moves a mean but not a median). For each benchmark
present in both files it reports real time, the throughput-style counters
(items_per_second / bytes_per_second), and any alloc-budget counters
(allocs_per_*), with the relative change. Rows whose |time delta| exceeds
--threshold (default 5%) are marked so a reader can skim for regressions on
a noisy box.

By default the exit status is always 0: a reporting tool, not a gate. With
--gate PCT it becomes one — exit 1 when any benchmark's time regressed
(got slower) by more than PCT percent. Speedups never gate. Benchmarks
present only in the candidate file are reported as ``NEW`` with their
measured values (so a fresh benchmark's numbers land in the report the run
they first appear, instead of vanishing until a baseline is re-recorded)
but never gate. Benchmarks present only in the *baseline* DO fail a
--gate run: a row that silently vanished is how a perf gate rots — a
rename must re-record the baseline in the same change. --only REGEX restricts the
diff (and any gating) to benchmarks whose name matches the pattern — used
in CI to gate just the hot-path rows. --max-alloc VALUE gates on the
alloc-budget counters themselves: exit 1 when any candidate row's
allocs_per_* counter exceeds VALUE in any repetition (so the relay's
zero-allocation budget is enforced even when timings are too noisy to
gate, and a median cannot hide one allocating repetition). The numbers only
mean anything when both files came from Release builds of the same machine
(see tools/run_simcore_bench.sh, which refuses Debug trees).

Only the Python standard library is used.
"""

from __future__ import annotations

import argparse
import json
import re
import sys


TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_rows(path: str) -> dict[str, dict]:
    """Return {base_name: row} preferring the _median aggregate, then _mean,
    over raw rows. Each row's ``allocs_max`` holds every allocs_per_*
    counter's maximum over the run's repetitions."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    rows: dict[str, dict] = {}
    aggregates: dict[str, dict[str, dict]] = {}
    allocs_max: dict[str, dict[str, float]] = {}
    for row in doc.get("benchmarks", []):
        name = row.get("name", "")
        run_name = row.get("run_name", name)
        run_type = row.get("run_type", "iteration")
        scale = TIME_UNIT_NS.get(row.get("time_unit", "ns"), 1.0)
        row["real_time_ns"] = row.get("real_time", 0.0) * scale
        if run_type == "aggregate":
            aggregates.setdefault(run_name, {})[row.get("aggregate_name")] = row
            continue
        worst = allocs_max.setdefault(run_name, {})
        for key, value in row.items():
            if key.startswith("allocs_per_"):
                worst[key] = max(worst.get(key, value), value)
        # Keep the first iteration row per run_name (repetitions repeat it).
        rows.setdefault(run_name, row)
    for run_name, aggs in aggregates.items():
        for preferred in ("median", "mean"):
            if preferred in aggs:
                rows[run_name] = aggs[preferred]
                break
    for run_name, row in rows.items():
        row["allocs_max"] = allocs_max.get(run_name, {})
    return rows


def fmt_time(ns: float) -> str:
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.3g}{unit}"
    return f"{ns:.3g}ns"


def fmt_rate(v: float) -> str:
    for unit, scale in (("G", 1e9), ("M", 1e6), ("k", 1e3)):
        if v >= scale:
            return f"{v / scale:.3g}{unit}/s"
    return f"{v:.3g}/s"


def pct(old: float, new: float) -> float | None:
    if old == 0:
        return None
    return (new - old) / old * 100.0


def fmt_pct(p: float | None) -> str:
    if p is None:
        return "n/a"
    return f"{p:+.1f}%"


COUNTER_KEYS = ("items_per_second", "bytes_per_second")


def diff_rows(old: dict[str, dict], new: dict[str, dict], threshold: float):
    names = sorted(set(old) | set(new))
    out = []
    for name in names:
        o, n = old.get(name), new.get(name)
        if o is None or n is None:
            entry = {"name": name, "only_in": "new" if o is None else "old"}
            row = n if o is None else o
            entry["time_ns"] = row.get("real_time_ns", 0.0)
            for key in COUNTER_KEYS:
                if key in row:
                    entry["rate_key"] = key
                    entry["rate"] = row[key]
                    break
            allocs = sorted(k for k in row if k.startswith("allocs_per_"))
            if allocs:
                worst = worst_allocs(row, allocs)
                entry["alloc"] = worst[allocs[0]]
                if o is None:
                    entry["new_allocs"] = worst
            out.append(entry)
            continue
        entry = {
            "name": name,
            "old_time_ns": o.get("real_time_ns", 0.0),
            "new_time_ns": n.get("real_time_ns", 0.0),
        }
        entry["time_pct"] = pct(entry["old_time_ns"], entry["new_time_ns"])
        entry["flag"] = (entry["time_pct"] is not None
                         and abs(entry["time_pct"]) >= threshold)
        for key in COUNTER_KEYS:
            if key in o and key in n:
                entry["rate_key"] = key
                entry["old_rate"] = o[key]
                entry["new_rate"] = n[key]
                entry["rate_pct"] = pct(o[key], n[key])
                break
        allocs = sorted(k for k in n if k.startswith("allocs_per_"))
        if allocs:
            entry["alloc_key"] = allocs[0]
            entry["new_allocs"] = worst_allocs(n, allocs)
            entry["new_alloc"] = entry["new_allocs"][allocs[0]]
            if allocs[0] in o:
                entry["old_alloc"] = worst_allocs(o, allocs[:1])[allocs[0]]
        out.append(entry)
    return out


def worst_allocs(row: dict, keys: list[str]) -> dict[str, float]:
    """The gated values: each counter's worst repetition when known."""
    worst = row.get("allocs_max", {})
    return {k: worst.get(k, row[k]) for k in keys}


def render(entries, fmt: str, threshold: float) -> str:
    header = ["benchmark", "old time", "new time", "Δtime",
              "old rate", "new rate", "Δrate", "allocs"]
    table = []
    for e in entries:
        if "only_in" in e:
            time_s = fmt_time(e.get("time_ns", 0.0))
            rate_s = fmt_rate(e["rate"]) if "rate" in e else ""
            alloc_s = f"{e['alloc']:.3g}" if "alloc" in e else ""
            if e["only_in"] == "new":
                # A benchmark seen for the first time: report its values in
                # the "new" columns so the numbers are on record immediately.
                table.append([e["name"], "", time_s, "NEW",
                              "", rate_s, "", alloc_s])
            else:
                table.append([e["name"], time_s, "", "VANISHED",
                              rate_s, "", "", alloc_s])
            continue
        mark = " !" if e["flag"] else ""
        alloc = ""
        if "alloc_key" in e and e["new_alloc"] is not None:
            alloc = f"{e['new_alloc']:.3g}"
            if e.get("old_alloc") is not None:
                alloc = f"{e['old_alloc']:.3g} -> {alloc}"
        table.append([
            e["name"],
            fmt_time(e["old_time_ns"]),
            fmt_time(e["new_time_ns"]),
            fmt_pct(e["time_pct"]) + mark,
            fmt_rate(e["old_rate"]) if "old_rate" in e else "",
            fmt_rate(e["new_rate"]) if "new_rate" in e else "",
            fmt_pct(e.get("rate_pct")) if "rate_pct" in e else "",
            alloc,
        ])
    lines = []
    if fmt == "md":
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join("---" for _ in header) + "|")
        for row in table:
            lines.append("| " + " | ".join(row) + " |")
    else:
        widths = [max(len(header[i]), *(len(r[i]) for r in table))
                  if table else len(header[i]) for i in range(len(header))]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in table:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    lines.append("")
    lines.append(f"'!' marks |time delta| >= {threshold:g}% "
                 "(negative time delta = faster)")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="baseline benchmark JSON")
    ap.add_argument("new", help="candidate benchmark JSON")
    ap.add_argument("--format", choices=("text", "md"), default="text")
    ap.add_argument("--threshold", type=float, default=5.0,
                    help="flag rows whose |time delta %%| exceeds this")
    ap.add_argument("--gate", type=float, default=None, metavar="PCT",
                    help="exit 1 when any time regression exceeds PCT%%")
    ap.add_argument("--only", default=None, metavar="REGEX",
                    help="restrict the diff (and gating) to benchmarks "
                         "whose name matches this pattern")
    ap.add_argument("--max-alloc", type=float, default=None, metavar="VALUE",
                    help="exit 1 when any allocs_per_* counter in the new "
                         "file exceeds VALUE")
    args = ap.parse_args(argv)
    entries = diff_rows(load_rows(args.old), load_rows(args.new),
                        args.threshold)
    if args.only is not None:
        pattern = re.compile(args.only)
        entries = [e for e in entries if pattern.search(e["name"])]
    if not entries:
        print("no benchmarks found in either file", file=sys.stderr)
        return 0
    print(render(entries, args.format, args.threshold))
    failed = False
    if args.max_alloc is not None:
        over = [(e["name"], key, value)
                for e in entries
                for key, value in e.get("new_allocs", {}).items()
                if value > args.max_alloc]
        if over:
            failed = True
            print(f"\nALLOC GATE FAILED: {len(over)} counter(s) above "
                  f"{args.max_alloc:g}:", file=sys.stderr)
            for name, key, value in over:
                print(f"  {name}: {key} = {value:g}", file=sys.stderr)
        else:
            print(f"\nalloc gate ok: all allocs_per_* counters <= "
                  f"{args.max_alloc:g}")
    if args.gate is not None:
        regressed = [e for e in entries
                     if e.get("time_pct") is not None
                     and e["time_pct"] > args.gate]
        vanished = [e for e in entries if e.get("only_in") == "old"]
        if regressed:
            failed = True
            print(f"\nGATE FAILED: {len(regressed)} benchmark(s) regressed "
                  f"beyond +{args.gate:g}%:", file=sys.stderr)
            for e in regressed:
                print(f"  {e['name']}: {fmt_pct(e['time_pct'])}",
                      file=sys.stderr)
        if vanished:
            # A baseline row with no candidate counterpart means the gate
            # quietly stopped covering it — fail so renames re-record the
            # baseline in the same change.
            failed = True
            print(f"\nGATE FAILED: {len(vanished)} baseline benchmark(s) "
                  "missing from the candidate file:", file=sys.stderr)
            for e in vanished:
                print(f"  {e['name']}", file=sys.stderr)
        if not regressed and not vanished:
            print(f"\ngate ok: no time regression beyond +{args.gate:g}% "
                  "and no vanished baseline rows")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
