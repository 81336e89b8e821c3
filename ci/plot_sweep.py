#!/usr/bin/env python3
"""Render the `net_sim --sweep` stale-information grid CSV to a PNG.

The sweep (ROADMAP stale-information study) emits one scenario CSV row
(sim::scenario_csv_row, wire columns included) per (latency model,
insert window) cell; this script draws the phase-change chart: mean max load and
stale-read fraction against the insert window, one line per latency
model. Headless (matplotlib Agg backend) so it runs as a CI step and
uploads the PNG as an artifact.

Usage:
  plot_sweep.py SWEEP_CSV [OUT_PNG]     (default OUT_PNG: SWEEP_CSV
                                         with a .png suffix)

Exits nonzero on a missing/empty CSV or missing matplotlib, so the CI
step fails loudly instead of uploading nothing.
"""
import csv
import os
import sys


def load_rows(path):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    required = {"latency", "window", "mean_max_load", "stale_fraction"}
    if not rows:
        raise SystemExit(f"FAIL: no data rows in {path}")
    missing = required - set(rows[0])
    if missing:
        raise SystemExit(
            f"FAIL: {path} lacks columns {sorted(missing)} — is this a "
            "net_sim --sweep CSV?")
    return rows


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__)
        return 2
    csv_path = argv[1]
    out_png = argv[2] if len(argv) == 3 else (
        os.path.splitext(csv_path)[0] + ".png")

    try:
        import matplotlib
    except ImportError:
        print("FAIL: matplotlib not available (CI installs "
              "python3-matplotlib; locally `apt install python3-matplotlib`)")
        return 1
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    rows = load_rows(csv_path)
    by_model = {}
    for r in rows:
        by_model.setdefault(r["latency"], []).append(
            (int(r["window"]), float(r["mean_max_load"]),
             float(r["stale_fraction"])))
    for series in by_model.values():
        series.sort()

    fig, (ax_load, ax_stale) = plt.subplots(
        1, 2, figsize=(11, 4.5), constrained_layout=True)
    for model, series in sorted(by_model.items()):
        windows = [s[0] for s in series]
        ax_load.plot(windows, [s[1] for s in series], marker="o",
                     label=model)
        ax_stale.plot(windows, [s[2] for s in series], marker="o",
                      label=model)

    n = rows[0].get("n", "?")
    trials = rows[0].get("trials", "?")
    for ax, ylabel in ((ax_load, "mean max keys per node"),
                       (ax_stale, "stale-read fraction")):
        ax.set_xscale("log", base=2)
        ax.set_xlabel("insert window (operations in flight)")
        ax.set_ylabel(ylabel)
        ax.grid(True, alpha=0.3)
        ax.legend(title="latency model")
    ax_stale.set_ylim(0.0, 1.0)
    fig.suptitle(
        f"Two-choice insertion with stale load information "
        f"(n = {n}, {trials} trials per cell)")

    fig.savefig(out_png, dpi=130)
    print(f"wrote {out_png} ({len(rows)} cells, "
          f"{len(by_model)} latency models)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
