"""Record the expected outcome of every instance the generators can produce.

    python3 perfbench/record_reference.py

Runs each filtration and cli-batch instance once, applies the
hand-derived checks, and writes the digest of its canonical report
(timing fields removed) to ``reference.json``.  Recorded once, at the
commit whose outputs are the reference; rerun only when a change is meant
to alter certificates, and say so with the change.  Naturality draws have
no digests: their reference is the theorem itself (both identities hold).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, all_reference_keys, cli_op, filtration_op  # noqa: E402


def main() -> int:
    makers = {"filtration": filtration_op, "cli-batch": cli_op}
    table = {}
    failures = 0
    for workload, keys in all_reference_keys().items():
        wl = WORKLOADS[workload]
        table[workload] = {}
        for key in keys:
            op = makers[workload](key)
            _, _, outcome = wl.run(op)
            problem = wl.check(op, outcome, {key: outcome["digest"]})
            if problem:
                print(f"{key}: {problem}", file=sys.stderr)
                failures += 1
            table[workload][key] = outcome["digest"]
        print(f"{workload}: {len(keys)} instances")
    text = json.dumps(table, indent=0, sort_keys=True) + "\n"
    (HERE / "reference.json").write_text(text, encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
