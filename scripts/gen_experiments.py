#!/usr/bin/env python3
"""Generates EXPERIMENTS.md from the `figures --paper --json` output.

Usage: python3 scripts/gen_experiments.py target/figures_paper.json > EXPERIMENTS.md
"""
import json
import sys
from datetime import date

TITLES = {
    "t1": "Table 1 — Expected RTBH characteristics by use case",
    "f2": "Fig. 2 — MLE control/data-plane time offset",
    "f3": "Fig. 3 — Active parallel RTBHs over time",
    "f4": "Fig. 4 — Targeted-blackholing visibility percentiles",
    "f5": "Fig. 5 — Dropped-traffic shares by prefix length",
    "f6": "Fig. 6 — Drop-rate CDFs for /24 and /32",
    "f7": "Fig. 7 — Top-100 source ASes' reaction to /32 RTBHs",
    "f8": "Fig. 8 — Org types of the top-100 source ASes",
    "f9": "Fig. 9 — On-off re-announcement pattern (illustrative)",
    "f10": "Fig. 10 — Event fraction vs merge threshold Δ",
    "f11": "Fig. 11 — Pre-RTBH slot coverage",
    "f12": "Fig. 12 — Anomaly level and time offset",
    "f13": "Fig. 13 — Anomaly amplification factor",
    "t2": "Table 2 — Pre-RTBH event classes",
    "t3": "Table 3 — Amplification protocols per event",
    "f14": "Fig. 14 — Filterable share per event",
    "f15": "Fig. 15 — AS participation in amplification attacks",
    "f16": "Fig. 16 — RadViz host-feature projection",
    "f17": "Fig. 17 — Top-port variation and classification",
    "t4": "Table 4 — AS types of detected clients/servers",
    "f18": "Fig. 18 — Collateral damage on server top ports",
    "f19": "Fig. 19 — RTBH event use-case classification",
    "s31": "§3.1 — Drop provenance & corpus hygiene",
    "s54": "§5.4 — During-event capture & protocol mix",
}

def main() -> None:
    reports = json.load(open(sys.argv[1]))
    total = 0
    within = 0
    lines = []
    lines.append("# EXPERIMENTS — paper vs measured\n")
    lines.append(
        "Regenerated with `cargo run --release -p rtbh-bench --bin figures -- "
        "--paper --json target/figures_paper.json` (scenario `ScenarioConfig::paper()`: "
        "104 virtual days, 830 members, 2,001 planted RTBH events ≈ 1:17 of the "
        "paper's 34k; ~3.3M flow samples). Shape tolerance: ±35% of the paper "
        "value, or ±0.05 absolute for small shares. Scale-dependent absolutes "
        "(raw event/packet counts) are expected to differ by the scale factor and "
        f"carry no paper anchor. Generated on {date.today().isoformat()}.\n",
    )

    for r in reports:
        lines.append(f"## {TITLES.get(r['id'], r['id'])}\n")
        checks = r.get("checks", [])
        anchored = [c for c in checks if c.get("paper") is not None]
        if anchored:
            lines.append("| quantity | paper | measured | verdict |")
            lines.append("|---|---:|---:|---|")
            for c in anchored:
                p, m = c["paper"], c["measured"]
                tol = max(abs(p) * 0.35, 0.05)
                ok = abs(m - p) <= tol
                total += 1
                within += ok
                lines.append(
                    f"| {c['name']} | {p:.4g} | {m:.4g} | {'within' if ok else 'DEVIATES'} |"
                )
            lines.append("")
        unanchored = [c for c in checks if c.get("paper") is None]
        for c in unanchored:
            lines.append(f"* {c['name']}: measured {c['measured']:.4g} (shape/scale only)")
        if unanchored:
            lines.append("")
        # Keep a couple of rendered lines for context (skip big ASCII art).
        ctx = [l for l in r.get("lines", []) if len(l) < 110][:4]
        if ctx:
            lines.append("```")
            lines.extend(ctx)
            lines.append("```")
        lines.append("")

    lines.insert(
        2,
        f"**Summary: {within}/{total} paper-anchored checks within tolerance.** "
        "Deviations are discussed at the end of this file.\n",
    )

    lines.append("## Notes and residual deviations\n")
    lines.append(
        "* Absolute magnitudes (34k events, 590M samples, 1,086 amplifiers per\n"
        "  attack, 4,057 clients) are reproduced at ~1:17 scale by design; all\n"
        "  ratio/shape anchors above compare scale-free quantities. The rows\n"
        "  marked *shape/scale only* report the scaled value for reference.\n"
        "* A handful of anchors sit near the tolerance boundary and can\n"
        "  oscillate across seeds (the per-run summary line of `figures`\n"
        "  reports the exact count): the Fig. 13 last-slot-maximum share\n"
        "  (synthetic floods peak at the announcement slightly more often\n"
        "  than real fluctuating attacks), Table 4's server rows (only ~60\n"
        "  detected servers at this scale), and Fig. 7's bucket split.\n"
        "* **Fig. 7 dropping share of the top-100 sources** reads above the\n"
        "  paper's 0.32 and outside its ±0.112 tolerance (the paper splits the\n"
        "  top-100 into 32% dropping, 55% forwarding and 13% inconsistent).\n"
        "  The simulator and the tolerance are unchanged; whether it holds\n"
        "  across seeds, and a recalibration of the import-policy mix, are\n"
        "  open in ROADMAP item 2.\n"
        "* **Fig. 2 peak overlap** is ~0.98 vs the paper's 0.9936: the twin's\n"
        "  bilateral (non-route-server) blackholes contribute a slightly\n"
        "  larger share of dropped *samples* at this scale. The estimated\n"
        "  offset itself is exact (+0.040 s vs the injected −40 ms skew).\n"
        "* The calibration history — which generator mechanism each figure\n"
        "  shape demanded — is recorded in DESIGN.md §9.\n"
    )
    print("\n".join(lines))

if __name__ == "__main__":
    main()
