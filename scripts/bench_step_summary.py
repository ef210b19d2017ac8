#!/usr/bin/env python3
"""Render BENCH_*.json records as a GitHub Actions step-summary table, and
gate on wall-time regressions against a committed baseline.

Usage:
  bench_step_summary.py BENCH_a.json [BENCH_b.json ...] >> "$GITHUB_STEP_SUMMARY"
  bench_step_summary.py --baseline scripts/bench_baseline.json BENCH_*.json
  bench_step_summary.py --baseline scripts/bench_baseline.json --update-baseline BENCH_*.json

Collects the wall-time fields every bench binary emits through the scenario
layer's JSON recorder ("timing" records: wall_seconds/points; microbench
records: wall_ms/cycles_per_sec) so perf trends are visible per PR without
downloading artifacts.

With --baseline, each bench's timing record is compared against the committed
previous record: any bench whose wall time regressed more than
REGRESSION_THRESHOLD (25%) is flagged in the table and the script exits 1, so
the CI trend check actually gates instead of just reporting.  Refresh the
baseline intentionally with --update-baseline after an accepted change.

The summary also reports the line count of the simulator's source
(src/**/*.hpp and *.cpp) — informational, never gated — so code size is
tracked next to the wall times.
"""
import argparse
import json
import os
import sys

REGRESSION_THRESHOLD = 0.25  # flag timing records that regressed > 25% ...
MIN_ABS_DELTA_SECONDS = 0.1  # ... by more than this (sub-100ms wall times
                             # are scheduler noise, not regressions)


def load_records(paths):
    timing_rows = []  # (bench, points, wall_seconds)
    rate_rows = []    # (bench, record label, per-second rate, park_rate|None)
    phase_rows = []   # (bench, record label, phase name, ns, share)
    for path in paths:
        try:
            with open(path) as handle:
                doc = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"<!-- skipped {path}: {error} -->")
            continue
        bench = doc.get("bench", path)
        for record in doc.get("records", []):
            name = record.get("name", "")
            if name == "timing":
                timing_rows.append(
                    (bench, record.get("points", ""), record.get("wall_seconds", 0.0))
                )
            elif "cycles_per_sec" in record or "items_per_sec" in record:
                rate = record.get("cycles_per_sec", record.get("items_per_sec", 0.0))
                label = " ".join(
                    str(record[key]) for key in ("label", "gating") if key in record
                )
                rate_rows.append(
                    (bench, f"{name} {label}".strip(), rate, record.get("park_rate"))
                )
                # The cycle profiler's per-phase attribution (BM_PhaseProfile):
                # phase_<name>_ns / phase_<name>_share field pairs.
                for key in sorted(record):
                    if key.startswith("phase_") and key.endswith("_share"):
                        phase = key[len("phase_"):-len("_share")]
                        phase_rows.append(
                            (bench, name, phase,
                             record.get(f"phase_{phase}_ns", 0), record[key])
                        )
    return timing_rows, rate_rows, phase_rows


def src_line_count():
    """Lines in src/**/*.hpp and *.cpp of the checkout holding this script."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    if not os.path.isdir(src):
        return None
    total = 0
    for directory, _, files in os.walk(src):
        for name in files:
            if name.endswith((".hpp", ".cpp")):
                with open(os.path.join(directory, name), "rb") as handle:
                    total += handle.read().count(b"\n")
    return total


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("records", nargs="+", help="BENCH_*.json files")
    parser.add_argument(
        "--baseline",
        help="committed baseline JSON ({bench: wall_seconds}); enables the"
        " >25%% regression gate",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline from the current timing records and exit 0",
    )
    args = parser.parse_args()

    timing_rows, rate_rows, phase_rows = load_records(args.records)

    baseline = {}
    baseline_error = None
    if args.baseline and not args.update_baseline:
        try:
            with open(args.baseline) as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as error:
            # A gate that silently stops gating is worse than a failing one:
            # still render the tables, but surface the broken baseline loudly
            # and fail the step at the end.
            baseline_error = str(error)
            print(f"**:warning: baseline {args.baseline} unreadable:"
                  f" {baseline_error} — the regression gate did NOT run.**")
            print("")

    if args.update_baseline:
        if not args.baseline:
            print("--update-baseline needs --baseline PATH", file=sys.stderr)
            return 2
        updated = {bench: wall for bench, _, wall in timing_rows}
        with open(args.baseline, "w") as handle:
            json.dump(updated, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.baseline} ({len(updated)} benches)")
        return 0

    # A bench that stops emitting its timing record must not silently stop
    # being gated: surface baseline entries with no current record.
    if baseline:
        seen = {bench for bench, _, _ in timing_rows}
        for missing in sorted(set(baseline) - seen):
            print(
                f"**:warning: baseline bench `{missing}` produced no timing"
                " record this run — it is not being gated.**"
            )
            print("")

    regressions = []
    print("## Bench wall times")
    if timing_rows:
        print("")
        header = "| bench | points | wall seconds |"
        divider = "|---|---:|---:|"
        if baseline:
            header += " baseline | vs baseline |"
            divider += "---:|---:|"
        print(header)
        print(divider)
        for bench, points, wall in timing_rows:
            row = f"| {bench} | {points} | {wall:.3f} |"
            if baseline:
                previous = baseline.get(bench)
                if isinstance(previous, (int, float)) and previous > 0:
                    ratio = wall / previous - 1.0
                    flag = ""
                    if (
                        ratio > REGRESSION_THRESHOLD
                        and wall - previous > MIN_ABS_DELTA_SECONDS
                    ):
                        flag = " :warning: REGRESSED"
                        regressions.append((bench, previous, wall, ratio))
                    row += f" {previous:.3f} | {ratio:+.1%}{flag} |"
                else:
                    row += " — | new |"
            print(row)
    else:
        print("")
        print("_no timing records found_")

    if rate_rows:
        print("")
        print("## Hot-path rates")
        print("")
        print("| bench | record | per second | park rate |")
        print("|---|---|---:|---:|")
        for bench, record, rate, park in rate_rows:
            park_cell = f"{park:.1%}" if isinstance(park, (int, float)) else "—"
            print(f"| {bench} | {record} | {rate:,.0f} | {park_cell} |")

    if phase_rows:
        print("")
        print("## Cycle-profiler phase attribution")
        print("")
        print("| bench | record | phase | ns | share |")
        print("|---|---|---|---:|---:|")
        for bench, record, phase, ns, share in phase_rows:
            print(f"| {bench} | {record} | {phase} | {ns:,} | {share:.1%} |")

    lines = src_line_count()
    if lines is not None:
        print("")
        print("## Source size")
        print("")
        print(f"`src/` (*.hpp, *.cpp): {lines:,} lines (informational, not gated)")

    if regressions:
        print("")
        print(
            f"**{len(regressions)} bench(es) regressed more than"
            f" {REGRESSION_THRESHOLD:.0%} against {args.baseline}:**"
        )
        for bench, previous, wall, ratio in regressions:
            print(f"- {bench}: {previous:.3f}s -> {wall:.3f}s ({ratio:+.1%})")
        print(
            "\nIf intentional, refresh with"
            f" `bench_step_summary.py --baseline {args.baseline}"
            " --update-baseline BENCH_*.json`."
        )
        # Stdout is redirected into $GITHUB_STEP_SUMMARY, so the failing CI
        # step's log would otherwise show an exit 1 with no explanation:
        # name the offending metric and both values on stderr too.
        for bench, previous, wall, ratio in regressions:
            print(
                f"REGRESSION: {bench} wall_seconds baseline={previous:.3f}"
                f" current={wall:.3f} ({ratio:+.1%} >"
                f" {REGRESSION_THRESHOLD:.0%} threshold)",
                file=sys.stderr,
            )
        return 1
    if baseline_error is not None:
        print(f"baseline {args.baseline} unreadable: {baseline_error}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
