"""The benchmark's workloads: each is one pass of nilorb CLI commands.

A workload turns a seed into the argv lists of one pass.  The same seed
always gives the same pass.  Sizes are scaled so that one untraced pass
takes a few seconds on one core, which leaves room for several passes in
one run and a median over them.
"""

from __future__ import annotations

import json
import random
import re
from typing import Callable, Dict, List

Argv = List[str]

# list --format json: the rational (so_c), quaternion (sp_pq) and
# complex-doubling (sp_c) solver paths, dominated by centralizer assembly.
CATALOG_ALGEBRAS = (
    ("so_c", {"n": 14}),
    ("sp_pq", {"p": 4, "q": 4}),
    ("sp_c", {"n": 6}),
)

# verify --format table: dense random K elements make matmul, inverse and
# embedding the hot path.  The table bytes do not depend on --seed.
VERIFY_SWEEPS = (
    ("sp_pq", 5),
    ("so_pq", 6),
    ("sl_c", 6),
)

# describe, one command per orbit and format: short commands whose fixed
# costs (re-enumeration, argparse, rendering) are a large share.
DESCRIBE_ALGEBRAS = (
    ("so_pq", {"p": 4, "q": 4}),
    ("sp_pq", {"p": 4, "q": 3}),
    ("so_c", {"n": 10}),
    ("sl_h", {"n": 6}),
    ("sp_c", {"n": 4}),
)


def _params(params: Dict[str, int]) -> Argv:
    out: Argv = []
    for key, value in params.items():
        out += [f"--{key}", str(value)]
    return out


def catalog(seed: int) -> List[Argv]:
    cmds = [["list", "--algebra", fam] + _params(params) + ["--format", "json"]
            for fam, params in CATALOG_ALGEBRAS]
    random.Random(seed).shuffle(cmds)
    return cmds


def verify(seed: int) -> List[Argv]:
    cmds = [["verify", "--algebra", fam, "--max-verify-n", str(cap),
             "--format", "table", "--seed", str(seed)]
            for fam, cap in VERIFY_SWEEPS]
    random.Random(seed).shuffle(cmds)
    return cmds


def _datum_argv(datum) -> Argv:
    """--datum and, for signed diagrams, --signs naming every part."""
    partition = getattr(datum, "partition", datum)
    out = ["--datum", ",".join(str(d) for d in partition.parts())]
    if partition is not datum:
        out += ["--signs", ",".join(f"{d}:{p}" for d, p in datum.p_pairs)]
    return out


def describe(seed: int) -> List[Argv]:
    from nilorb.catalog import AlgebraSpec, enumerate_orbits

    cmds = []
    for fam, params in DESCRIBE_ALGEBRAS:
        for rec in enumerate_orbits(AlgebraSpec(fam, **params)):
            for fmt in ("json", "table"):
                cmds.append(["describe", "--algebra", fam] + _params(params)
                            + _datum_argv(rec.datum) + ["--format", fmt])
    random.Random(seed).shuffle(cmds)
    return cmds


WORKLOADS: Dict[str, Callable[[int], List[Argv]]] = {
    "catalog": catalog,
    "verify": verify,
    "describe": describe,
}


def reference_key(argv: Argv) -> str:
    """The command without its --seed, under which its output is recorded."""
    out = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
        elif arg == "--seed":
            skip = True
        else:
            out.append(arg)
    return " ".join(out)


_VERIFY_HEADER = re.compile(r"^verify \S+: (\d+) datum\(s\)$", re.MULTILINE)


def orbit_records(argv: Argv, stdout: str) -> int:
    """Orbit records a command processed, read from its output."""
    if argv[0] == "describe":
        return 1
    if argv[0] == "verify":
        return sum(int(m) for m in _VERIFY_HEADER.findall(stdout))
    return len(json.loads(stdout)["orbit_records"])


def verdict_ok(argv: Argv, stdout: str) -> bool:
    """False for a verify command whose table does not end in PASS."""
    return argv[0] != "verify" or stdout.endswith("verify: PASS\n")
