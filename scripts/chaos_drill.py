#!/usr/bin/env python
"""CI wrapper for the process-level crash-recovery chaos drill.

Runs :func:`repro.verify.chaoscheck.run_chaos_drill` — real
``repro-bigindex serve`` subprocesses, SIGKILLed mid-mutation-stream
(including simulated torn WAL tails), restarted, and compared against an
in-process oracle holding exactly the acked op prefix — then writes the
per-round event log (including the pre-kill flight-recorder timeline
captured from each doomed process and diffed against the recovered WAL
prefix) as a JSON report for the artifact upload and exits non-zero on
any violated durability contract.

Usage:
    PYTHONPATH=src python scripts/chaos_drill.py \
        --rounds 3 --ops-per-round 6 --seed 0 --out chaos-report.json
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.verify.chaoscheck import run_chaos_drill


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--ops-per-round", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="chaos-report.json")
    args = parser.parse_args()

    report = run_chaos_drill(
        rounds=args.rounds,
        ops_per_round=args.ops_per_round,
        seed=args.seed,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
    print(report.format())
    if not report.ok:
        print(
            f"FAIL: {len(report.problems)} durability violation(s); "
            f"reproduce with --seed {args.seed}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
