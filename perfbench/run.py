"""Benchmark for the spantree CLI: seeded workloads, checked outputs, median repeats.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload is a fixed call list of `spantree.cli.main(argv)` calls made
in-process, one at a time (a closed loop with one client).  The list is
repeated as rounds until --seconds have passed (at least three rounds,
always finishing the round in progress).  wall_s is the median round and a
call's latency its median repeat.  On a shared machine the host's speed
drifts by up to ~1.8x in phases that can outlast a run, so the gated
times are scaled to a host on which a fixed pure-Python probe loop takes
PROBE_REF_S: wall_norm_s divides each round by the median probe run between
its calls and reports the median round; setup_s does the same for each
set-up process with the probes run right around it.  Every call's stdout is
captured, so rendering is timed but never printed, and checked after timing
against references in `reference.py`.  See NOTES.md for the workloads and
metrics.

The last stdout line is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).  A full
record with provenance goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"

SETUP_REPEATS = 7
SETUP_PROBES = 10
MIN_BEYOND_P90 = 10
MIN_ROUNDS = 3
PROBE_INTERVAL_S = 0.1  # a probe between calls at most this often
# The unit of wall_norm_s and setup_s: seconds on a host where probe_loop
# takes 1 ms.
# Fixed, so that values from different commits and hosts compare.
PROBE_REF_S = 0.001
# The end-to-end metrics of BENCHMARK.json.  wall_s, call_p50_ms and
# call_p90_ms are printed and saved too, but their seed-to-seed spread on a
# shared host (wall_s up to 0.25 of the median, atlas call_p90_ms 0.5)
# reaches the largest allowed bound.
END_TO_END = ("setup_s", "wall_norm_s", "peak_rss_mb")


@dataclass(frozen=True)
class Result:
    rc: int | None  # None when the call raised
    stdout: str
    seconds: float


def import_program():
    """Import spantree from this checkout's src/ (never an installed copy)."""
    if not (SOURCE / "spantree" / "cli.py").is_file():
        raise SystemExit(f"error: no spantree sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import spantree.cli

    if Path(spantree.__file__).resolve().parent != SOURCE / "spantree":
        raise SystemExit(f"error: imported spantree from {spantree.__file__}")
    return spantree.cli


def invoke_cli(argv: list[str]) -> int:
    # looked up per call, so wrappers the tracer installs take effect
    return sys.modules["spantree.cli"].main(argv)


def run_round(calls, invoke=invoke_cli, tracer=None, probes=None) -> tuple[float, list[Result]]:
    """Make every call once, in order; returns round wall time and results.

    With a `probes` list, probe_seconds() runs before the first call, then
    between calls and after the last once PROBE_INTERVAL_S has passed since
    the previous probe; its times are appended and left out of the wall time.
    """
    results = []
    start = time.perf_counter()
    probing, last = 0.0, None

    def probe():
        nonlocal probing, last
        t0 = time.perf_counter()
        if probes is not None and (last is None or t0 - last >= PROBE_INTERVAL_S):
            probes.append(probe_seconds())
            last = time.perf_counter()
            probing += last - t0

    for i, call in enumerate(calls):
        probe()
        if tracer is not None:
            tracer.request = i
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = invoke(call.argv)
        except Exception:  # a crashing call is a failed call, not a failed benchmark
            rc = None
        results.append(Result(rc, out.getvalue(), time.perf_counter() - t0))
    probe()
    return time.perf_counter() - start - probing, results


def check_round(calls, results: list[Result]) -> list[bool]:
    """Per call: exit code 0 and a stdout that its check accepts."""
    ctx: dict = {}
    verdicts = []
    for call, res in zip(calls, results):
        try:
            ok = res.rc == 0 and call.check(res.stdout, ctx)
        except Exception:  # unparsable output fails the call
            ok = False
        verdicts.append(bool(ok))
    return verdicts


def p90_with_tail(samples: list[float]) -> tuple[float, int]:
    """90th percentile and the number of samples above it.

    Refuses when fewer than MIN_BEYOND_P90 samples lie beyond it, since a
    percentile resting on fewer is not reported.
    """
    if len(samples) < 10 * MIN_BEYOND_P90:
        raise ValueError(f"p90 needs >= {10 * MIN_BEYOND_P90} samples, got {len(samples)}")
    value = statistics.quantiles(samples, n=10)[-1]
    beyond = sum(1 for x in samples if x > value)
    if beyond < MIN_BEYOND_P90:
        raise ValueError(f"only {beyond} samples beyond p90")
    return value, beyond


def median_latencies(calls, rounds: list[tuple[float, list[Result]]]) -> dict[tuple, float]:
    """Each distinct call's median time over all its repeats, by argv."""
    times: dict[tuple, list[float]] = {}
    for _, results in rounds:
        for call, res in zip(calls, results):
            times.setdefault(tuple(call.argv), []).append(res.seconds)
    return {key: statistics.median(ts) for key, ts in times.items()}


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that import the program and write the inputs.

    Returns them as measured and normalised by the SETUP_PROBES probes run
    right before and right after each process.
    """
    times, normalised = [], []
    before = [probe_seconds() for _ in range(SETUP_PROBES)]
    for i in range(SETUP_REPEATS):
        target = WORK / f"{workload}-{seed}-{os.getpid()}-setup{i}"
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--setup-only", str(target)]
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(target)
        after = [probe_seconds() for _ in range(SETUP_PROBES)]
        normalised.append(normalised_wall(times[-1], before + after))
        before = after
    return times, normalised


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child (atlas workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def provenance(seed: int) -> dict:
    def getconf(name: str) -> int | None:
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return int(out.stdout) if out.stdout.strip().isdigit() else None

    return {
        "seed": seed,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
    }


def source_digest() -> str:
    """sha256 over the program's modules, for checkouts without .git."""
    digest = hashlib.sha256()
    for path in sorted((SOURCE / "spantree").glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        loose = git / ref_name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return None


def probe_loop() -> int:
    """Fixed interpreter work whose time tracks the host's current speed."""
    total = 0
    for i in range(12_000):
        total += i * i % 7
    return total


def probe_seconds() -> float:
    t0 = time.perf_counter()
    probe_loop()
    return time.perf_counter() - t0


def normalised_wall(wall: float, probes: list[float]) -> float:
    """A wall time on a host where the probe takes PROBE_REF_S.

    `probes` ran during or right around the timed stretch, so their median
    stands for the host's speed over it.
    """
    return wall * PROBE_REF_S / statistics.median(probes)


def measure(workload, seconds: float, trace: bool) -> dict:
    """Run rounds for `seconds` (at least MIN_ROUNDS), then with trace one traced round."""
    rounds: list[tuple[float, list[Result]]] = []
    probes: list[list[float]] = []  # per round
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        probes.append([])
        rounds.append(run_round(workload.calls, probes=probes[-1]))
    record = {"rounds": rounds, "probes": probes, "rss_mb": peak_rss_mb()}
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            record["traced"] = run_round(workload.calls, tracer=tracer)
        finally:
            tracer.uninstall()
        record["tracer"] = tracer
    return record


def end_to_end(workload, record: dict, setup: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    """Every end-to-end figure as {name: (value, unit)}, and supporting detail."""
    walls = [wall for wall, _ in record["rounds"]]
    probes = record["probes"]
    median = median_latencies(workload.calls, record["rounds"])
    latencies = list(median.values())
    p90, beyond = p90_with_tail(latencies)
    figures = {
        "setup_s": (statistics.median(setup[1]), "s"),
        "setup_raw_s": (statistics.median(setup[0]), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "wall_norm_s": (statistics.median(map(normalised_wall, walls, probes)), "s"),
        "probe_ms": (statistics.median(t for ts in probes for t in ts) * 1e3, "ms"),
        "call_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "call_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (record["rss_mb"], "MB"),
    }
    if workload.name == "atlas":
        n = str(workloads.ATLAS_MAX_N)
        by_jobs = {key[4]: t for key, t in median.items() if key[:4] == ("atlas", "--n", n, "--jobs")}
        figures["scaling_eff"] = (by_jobs["1"] / (2 * by_jobs["2"]), "1")
    detail = {
        "rounds_s": walls,
        "probes_s": probes,
        "setup_runs_s": setup[0],
        "setup_norm_runs_s": setup[1],
        "p90_samples": len(latencies),
        "p90_beyond": beyond,
        "call_median_ms": {" ".join(key): t * 1e3 for key, t in median.items()},
    }
    return figures, detail


def run_workload(args) -> int:
    import_program()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        record = measure(workload, args.seconds, bool(args.trace))
        setup = None if args.trace else measure_setup(args.workload, args.seed)
        all_rounds = record["rounds"] + ([record["traced"]] if args.trace else [])
        verdicts = [v for _, results in all_rounds for v in check_round(workload.calls, results)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = len(verdicts), verdicts.count(False)
    calls = len(workload.calls)
    failed_argv = {" ".join(workload.calls[i % calls].argv)
                   for i, ok in enumerate(verdicts) if not ok}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer = record["tracer"]
        untraced = statistics.median(wall for wall, _ in record["rounds"])
        figures = tracing.layer_metrics(tracer, record["traced"][0], untraced)
        metrics = dict(figures)
        spans = RESULTS / f"{stem}-spans.tsv.gz"
        tracer.write_spans(spans)
        layers = sum(v for k, (v, _) in figures.items() if k.endswith(".self_s"))
        notes = [f"layer self times sum to {layers:.6f} s = trace.wall_s - trace.glue_s",
                 f"spans written to {spans.relative_to(ROOT)}"]
        detail = {}
    else:
        figures, detail = end_to_end(workload, record, setup)
        metrics = {name: figures[name] for name in END_TO_END}
        notes = [f"call_p90_ms rests on {detail['p90_samples']} samples, "
                 f"{detail['p90_beyond']} beyond it; wall_s is the median of "
                 f"{len(detail['rounds_s'])} rounds; setup_s the median of {SETUP_REPEATS}"]
    figures["failed_ratio"] = (failed / attempted, "1")
    detail["failed_calls"] = sorted(failed_argv)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"  input: {workload.size}")
    for name, (value, unit) in figures.items():
        print(f"  {name:<26} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  {note}")

    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    full = dict(summary, workload=workload.name, input_size=workload.size,
                figures={name: {"value": v, "unit": u} for name, (v, u) in figures.items()},
                detail=detail, provenance=provenance(args.seed))
    (RESULTS / f"{stem}.json").write_text(json.dumps(full, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one summary line at the end."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
        lines = out.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        import_program()
        workloads.build(args.workload, args.seed, Path(args.setup_only))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
