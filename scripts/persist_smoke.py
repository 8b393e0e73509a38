#!/usr/bin/env python
"""CI smoke for the v4 mmap index container.

Round-trips a real index (synt-1k, 2 layers) through the v4 binary
format and holds it to the format's core promises:

* the mmap-backed reload has the same ``state_digest`` as the
  heap-built original (zero-copy views must be semantically invisible);
* every graph in the reload reports itself mmap-backed.

Writes a JSON report for the artifact upload and exits non-zero on any
violated contract.

Usage:
    PYTHONPATH=src python scripts/persist_smoke.py --out persist-report.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from repro.core.cost import CostParams
from repro.core.index import BiGIndex
from repro.core.persistence import load_index, save_index
from repro.datasets.synthetic import synthetic_dataset


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="synt-1k")
    parser.add_argument("--layers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="persist-report.json")
    args = parser.parse_args()

    graph, ontology = synthetic_dataset(args.dataset, seed=args.seed)
    built = BiGIndex.build(
        graph,
        ontology,
        num_layers=args.layers,
        cost_params=CostParams(num_samples=25),
    )
    want = built.state_digest()
    report = {
        "dataset": args.dataset,
        "layers": built.num_layers,
        "digest": want,
        "failures": [],
    }

    def fail(message: str) -> None:
        report["failures"].append(message)
        print(f"FAIL: {message}", file=sys.stderr)

    with tempfile.TemporaryDirectory(prefix="persist-smoke-") as tmp:
        v4_dir = os.path.join(tmp, "idx-v4")
        save_index(built, v4_dir)
        report["v4_bytes"] = sum(
            os.path.getsize(os.path.join(v4_dir, name))
            for name in os.listdir(v4_dir)
        )

        start = time.perf_counter()
        v4 = load_index(v4_dir, ontology)
        report["v4_load_seconds"] = time.perf_counter() - start

        got = v4.state_digest()
        if got != want:
            fail(f"v4 round trip changed the digest: {got} != {want}")
        heap_resident = [
            m
            for m, g in enumerate(v4.iter_layer_graphs())
            if not g.is_mmap_backed
        ]
        report["mmap_backed"] = not heap_resident
        if heap_resident:
            fail(f"graphs {heap_resident} are heap-resident after a v4 "
                 f"load; the container should serve them zero-copy")

    report["ok"] = not report["failures"]
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"persist smoke: {'OK' if report['ok'] else 'FAIL'} "
        f"(digest {want[:12]}..., v4 load "
        f"{report['v4_load_seconds'] * 1e3:.1f} ms)"
    )
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
