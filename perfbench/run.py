"""The nilorb benchmark: one workload, one seed, one run.

Run from the root of a nilorb checkout::

    python3 perfbench/run.py --workload verify --seed 3 --seconds 30 --trace 0

Each run starts fresh single-threaded interpreters (``child.py``) that call
``nilorb.cli.main`` in process on the workload's commands, as a closed loop
with one client.  Every command's stdout is checked against the SHA-256 and
exit code in ``reference.json``.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_RUNS = 11
CHILD_TIMEOUT_S = 170
# Imports nilorb under the speed sampler; prints raw and reference seconds.
# ``fractions`` is already loaded by the sampler, so its import is not counted.
IMPORT_TIMING = (
    "import sys, time\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "import speed\n"
    "sampler = speed.Sampler()\n"
    "sampler.start()\n"
    "t0 = time.perf_counter()\n"
    "import nilorb, nilorb.cli\n"
    "t1 = time.perf_counter()\n"
    "sampler.stop()\n"
    "print(t1 - t0, sampler.normalize(t0, t1))\n"
)


class BenchmarkError(Exception):
    """The run cannot produce trustworthy figures."""


def child_env(src: Path) -> Dict[str, str]:
    """The pinned environment of every interpreter the benchmark starts."""
    env = dict(os.environ)
    env.pop("NILORB_THREADS", None)
    # Bytecode is cached, so set-up times a warm import whatever the caller set.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(src)
    return env


def setup_times(src: Path) -> List[List[float]]:
    """Raw and reference import times of nilorb in fresh interpreters.

    The first interpreter only warms the bytecode cache and is not counted.
    """
    times = []
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMING, str(src), str(HERE)],
            env=child_env(src), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True)
        times.append([float(x) for x in proc.stdout.split()])
    return times[1:]


def run_child(root: Path, commands, seconds: float, min_passes: int,
              trace: bool, spans_path: Optional[Path] = None) -> dict:
    src = root / "src"
    job = {"src": str(src), "commands": commands, "seconds": seconds,
           "min_passes": min_passes, "trace": trace,
           "spans_path": str(spans_path) if spans_path else None}
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py")], input=json.dumps(job),
        env=child_env(src), cwd=root, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"benchmark process failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def failures(commands, run: dict, reference: Dict[str, dict]) -> List[str]:
    """Commands, one entry per pass, whose exit code, stdout or verdict is wrong."""
    bad = []
    for p in run["passes"]:
        for argv, (digest, code, verdict_ok) in zip(commands, p["outcomes"]):
            ref = reference.get(workloads.reference_key(argv))
            if (ref is None or digest != ref["sha256"] or code != ref["exit"]
                    or not verdict_ok):
                bad.append(" ".join(argv))
    return bad


def command_latencies_ms(passes) -> List[float]:
    """Each command's median reference latency over the passes, in ms."""
    return [statistics.median(lat) * 1e3
            for lat in zip(*(p["ref_latencies_s"] for p in passes))]


def median_over_passes(run: dict, key: str) -> float:
    return statistics.median(p[key] for p in run["passes"])


def p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(root: Path, commands, seconds: float) -> tuple:
    """End-to-end metrics; every time is in reference seconds (speed.py)."""
    setup = setup_times(root / "src")
    run = run_child(root, commands, seconds, 3, False)
    wall = median_over_passes(run, "ref_wall_s")
    latencies_ms = command_latencies_ms(run["passes"])
    values = {
        "setup_s": statistics.median(ref for _, ref in setup),
        "wall_s": wall,
        "orbits_per_s": run["orbits_per_pass"] / wall,
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p90_ms": p90(latencies_ms),
        "peak_rss_mb": run["peak_rss_kb"] / 1024,
    }
    run["raw"] = {"setup_s": statistics.median(raw for raw, _ in setup),
                  "wall_s": median_over_passes(run, "wall_s")}
    return values, [run]


def per_layer(root: Path, commands, seconds: float, spec: List[dict],
              spans_path: Optional[Path]) -> tuple:
    """Per-layer metrics of a traced child, checked against an untraced one."""
    plain = run_child(root, commands, seconds / 3, 1, False)
    traced = run_child(root, commands, seconds * 2 / 3, 2, True, spans_path)
    changed = [" ".join(argv) for argv, a, b in zip(
        commands, plain["passes"][0]["outcomes"], traced["passes"][0]["outcomes"])
        if a != b]
    if changed:
        raise BenchmarkError("tracing changed the output of:\n  "
                             + "\n  ".join(changed))
    layers = [p["layers"] for p in traced["passes"]]
    values = {"trace.wall_s": median_over_passes(traced, "wall_s"),
              "trace.overhead_s": median_over_passes(traced, "ref_wall_s")
              - median_over_passes(plain, "ref_wall_s")}
    for metric in spec:
        name = metric["name"]
        if name in values:
            continue
        if metric["unit"] == "s":
            values[name] = statistics.median(lay[name] for lay in layers)
            continue
        seen = {lay[name] for lay in layers}
        if len(seen) != 1:
            raise BenchmarkError(f"{name} differs between passes: {sorted(seen)}")
        values[name] = layers[0][name]
    return values, [plain, traced]


def measure(root: Path, commands, reference: Dict[str, dict], seconds: float,
            trace: bool, spans_path: Optional[Path] = None) -> tuple:
    """Run one workload; return the result object and the child reports."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    spec = bench["per_layer"] if trace else bench["end_to_end"]
    if trace:
        values, runs = per_layer(root, commands, seconds, spec, spans_path)
    else:
        values, runs = end_to_end(root, commands, seconds)
    bad = [cmd for run in runs for cmd in failures(commands, run, reference)]
    attempted = sum(len(commands) * len(run["passes"]) for run in runs)
    result = {
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }
    return result, runs, bad


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    src = root / "src"
    if not (src / "nilorb" / "__init__.py").is_file():
        print(f"error: no nilorb source tree at {src}; run from a nilorb checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    commands = workloads.WORKLOADS[args.workload](args.seed)
    reference = json.loads((HERE / "reference.json").read_text())
    spans_path = HERE / "out" / f"spans-{args.workload}.jsonl"
    try:
        result, runs, bad = measure(root, commands, reference, args.seconds,
                                    bool(args.trace), spans_path)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for cmd in sorted(set(bad)):
        print(f"wrong output: {cmd}", file=sys.stderr)
    first = runs[0]
    raw = "".join(f", raw {k} {v:.4f}" for k, v in first.get("raw", {}).items())
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(commands)} commands/pass, "
          f"passes {'+'.join(str(len(r['passes'])) for r in runs)}, "
          f"{first['orbits_per_pass']} orbit records/pass{raw}, "
          f"python {first['python']}, nproc {first['nproc']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
