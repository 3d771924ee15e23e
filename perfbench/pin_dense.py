"""Pin the chromatic numbers of the certify-dense host pool.

Writes dense_pool.json next to this file. The solver,
checks.chromatic_number, shares no code with monocert. The harness refuses
to run certify-dense if a regenerated host no longer matches its pin.

    python3 perfbench/pin_dense.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import instances  # noqa: E402
from checks import chromatic_number  # noqa: E402


def main() -> None:
    hosts = []
    for i in range(instances.DENSE_POOL):
        h = instances.dense_host(i)
        t0 = time.perf_counter()
        chi, omega = chromatic_number(h["n"], h["edges"])
        dt = time.perf_counter() - t0
        hosts.append({
            "index": i,
            "n": h["n"],
            "m": len(h["edges"]),
            "edges_sha256": instances.edge_digest(h["n"], h["edges"]),
            "clique_number": omega,
            "chi": chi,
        })
        print(f"host {i}: n={h['n']} m={len(h['edges'])} omega={omega} chi={chi} "
              f"({dt:.1f} s)", flush=True)
    doc = {
        "provenance": (
            "chi and clique_number computed by perfbench/pin_dense.py (Bron-Kerbosch "
            "clique, forward-checking k-colorability); no monocert code involved"
        ),
        "targets": list(instances.DENSE_TARGETS),
        "hosts": hosts,
    }
    (HERE / "dense_pool.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
