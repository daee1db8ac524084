"""Record reference.json: the expected exit code and stdout SHA-256 of
every command of every workload.

Run from the root of a nilorb checkout whose output is trusted::

    python3 perfbench/record.py

The commands of seeds 0, 1 and 7 are all run, one pass each; a command
recorded under one key must give the same bytes for every seed, which
is what lets ``verify --format table`` be checked whatever --seed a run
passes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import HERE, run_child
import workloads

SEEDS = (0, 1, 7)


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    reference = {}
    for name, make in sorted(workloads.WORKLOADS.items()):
        for seed in SEEDS:
            commands = make(seed)
            run = run_child(root, commands, 0, 1, False)
            for argv, (digest, code, verdict_ok) in zip(
                    commands, run["passes"][0]["outcomes"]):
                key = workloads.reference_key(argv)
                entry = {"sha256": digest, "exit": code}
                if not verdict_ok:
                    raise SystemExit(f"{key}: verify did not PASS")
                if reference.setdefault(key, entry) != entry:
                    raise SystemExit(f"{key}: output depends on the seed")
            print(f"{name} seed {seed}: {len(commands)} commands")
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
