"""Record the simulated-output digest of every workload for the default seeds.

Run from the repository root after a change that is *meant* to alter
simulated outputs (a speed-up must leave them untouched)::

    python3 perfbench/record_digests.py

It runs one untraced round per workload and default seed and rewrites
``perfbench/digests.json``, which ``run.py`` compares against.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Seeds whose digests are recorded; every other seed is held out.
DEFAULT_SEEDS = list(range(1, 11))


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    digests = {}
    for name, workload in workloads.WORKLOADS.items():
        digests[name] = {}
        for seed in DEFAULT_SEEDS:
            rnd = workload.round(seed, workload.prepare(seed))
            if rnd.checks.failed:
                print("{} seed {}: {}".format(name, seed, rnd.checks.failures),
                      file=sys.stderr)
                return 1
            digests[name][str(seed)] = rnd.digest
            print(name, seed, rnd.digest, flush=True)
    (HERE / "digests.json").write_text(json.dumps(
        {"default_seeds": DEFAULT_SEEDS, "digests": digests},
        indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
