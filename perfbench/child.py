"""One benchmark job, run in a fresh interpreter by ``run.py``.

Reads the job as JSON on stdin: ``src`` (the tree to import nilorb from),
``commands`` (one pass of argv lists), ``seconds``, ``min_passes``,
``trace`` and ``spans_path``.  Runs passes of the commands through
``nilorb.cli.main`` in this process, one command after the other, until
the next pass would end past ``seconds``.  Writes one JSON object to
stdout with every pass's wall time and command latencies, raw and in
reference seconds (see speed.py), output digests and exit codes, and,
when tracing, per-layer figures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

import speed
import workloads


def call_main(main, argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def run_pass(commands, main, tracer, keep_outputs: bool):
    """One closed-loop pass: each command starts when the previous returns."""
    intervals, outcomes, outputs = [], [], []
    if tracer is not None:
        tracer.reset()
    start = time.perf_counter()
    for index, argv in enumerate(commands):
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                code = call_main(main, argv)
            else:
                code = tracer.run_command(index, call_main, main, argv)
        intervals.append((t0, time.perf_counter()))
        out = buf.getvalue()
        outcomes.append([hashlib.sha256(out.encode()).hexdigest(), code,
                         workloads.verdict_ok(argv, out)])
        if keep_outputs:
            outputs.append(out)
    result = {"interval": (start, time.perf_counter()), "intervals": intervals,
              "outcomes": outcomes}
    if tracer is not None:
        result["layers"] = tracer.metrics()
    return result, outputs


def write_spans(path: str, commands, tracer) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    origin = tracer.spans[0][1] if tracer.spans else 0
    with open(path, "w") as fh:
        fh.write(json.dumps({"commands": commands}) + "\n")
        for idx, (name, start, end, parent, cmd) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": idx, "name": name,
                                 "start_ns": start - origin,
                                 "end_ns": end - origin,
                                 "parent": parent, "command": cmd}) + "\n")


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import nilorb
    import nilorb.cli

    src = os.path.realpath(job["src"])
    if not os.path.realpath(nilorb.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported nilorb from {nilorb.__file__}, not {src}")
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    commands = job["commands"]
    sampler = speed.Sampler()
    sampler.start()
    deadline = time.perf_counter() + job["seconds"]
    passes = []
    orbits = 0
    while True:
        first = not passes
        result, outputs = run_pass(commands, nilorb.cli.main, tracer, first)
        passes.append(result)
        if first:
            orbits = sum(workloads.orbit_records(argv, out)
                         for argv, out in zip(commands, outputs))
            if tracer is not None and job.get("spans_path"):
                write_spans(job["spans_path"], commands, tracer)
        typical = statistics.median(p["interval"][1] - p["interval"][0]
                                    for p in passes)
        if (len(passes) >= job["min_passes"]
                and time.perf_counter() + typical > deadline):
            break
    sampler.stop()
    if tracer is not None:
        tracer.uninstall()
    for p in passes:
        start, end = p.pop("interval")
        intervals = p.pop("intervals")
        p["wall_s"] = end - start
        p["latencies_s"] = [b - a for a, b in intervals]
        p["ref_wall_s"] = sampler.normalize(start, end)
        p["ref_latencies_s"] = [sampler.normalize(a, b) for a, b in intervals]
    json.dump({
        "passes": passes,
        "orbits_per_pass": orbits,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
