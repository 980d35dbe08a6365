"""Measure one workload in a process of its own.

Started by ``run.py``; prints one JSON object as its last stdout line.  Doing
the measurement in its own process keeps ``peak_rss_mb`` to the memory of
the workload, not of the README check the runner does first.

Steps: time a fixed ``Fraction`` reference loop (host-drift diagnostic), set
the workload up several times and keep the median time, run whole blocks of
requests until ``--seconds`` have passed, time the reference loop again.
With ``--trace 1`` it then sets up afresh, wraps the library's public
functions and replays exactly the same requests with spans on; end-to-end
numbers always come from the untraced pass.

Host normalization.  The hosts this was built on change speed by up to 2x
in phases lasting seconds, and CPU time moves with wall time, so raw medians
of whole runs spread by a quarter from run to run.  A sampler thread
therefore times a small reference loop (in its own CPU time, so waiting for
the interpreter lock does not count, and with the cyclic garbage collector
held off, so a collection the loop happens to trigger does not count) every
0.1 s throughout.  Each timed span is scaled by ``NOMINAL_REF_S / r``, where
``r`` is the mean reference time of the samples taken during the span and up
to ``NEIGHBOURHOOD_S`` either side of it, and the sampler's own run time
inside the span is taken off first.  The compared time metrics are
these normalized values: seconds on a host where the reference loop takes
``NOMINAL_REF_S``.  The raw wall-clock values are reported beside them with
a ``wall_`` prefix.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from hashlib import sha256
from pathlib import Path
from time import perf_counter, thread_time

import spans
import workloads

SETUP_REPEATS = 9
OUT_DIR = workloads.BENCH_DIR / "out"
SAMPLE_INTERVAL_S = 0.1
NEIGHBOURHOOD_S = 1.0
REFERENCE_OPS = 1000
# Sampler reference time in a fast phase of the 2-vCPU host the bounds were
# set on (Python 3.11, Fraction backend); the unit the compared times are in.
NOMINAL_REF_S = 0.0025


def reference_loop(ops: int) -> None:
    acc = Fraction(0)
    for i in range(1, ops + 1):
        acc += Fraction(i % 7, 1 + i % 11)


def reference_loop_s() -> float:
    """Median of five timings of the reference loop, twelve times longer."""
    times = []
    for _ in range(5):
        start = perf_counter()
        reference_loop(12 * REFERENCE_OPS)
        times.append(perf_counter() - start)
    return statistics.median(times)


class HostSampler:
    """Background thread timing the reference loop every SAMPLE_INTERVAL_S."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.cpu_s: list[float] = []
        self.wall_s: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "HostSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            start, cpu = perf_counter(), thread_time()
            gc.disable()
            try:
                reference_loop(REFERENCE_OPS)
            finally:
                gc.enable()
            self.cpu_s.append(thread_time() - cpu)
            self.wall_s.append(perf_counter() - start)
            self.starts.append(start)

    def normalize(self, start: float, end: float) -> float:
        """The span [start, end] in nominal-host seconds (read after exit)."""
        own = end - start - sum(
            self.wall_s[bisect_left(self.starts, start) : bisect_right(self.starts, end)]
        )
        i = bisect_left(self.starts, start - NEIGHBOURHOOD_S)
        j = bisect_right(self.starts, end + NEIGHBOURHOOD_S)
        near = self.cpu_s[max(0, min(i, len(self.cpu_s) - 1)) : max(j, i + 1)]
        return own * NOMINAL_REF_S / statistics.fmean(near)


def live_modules(state) -> int:
    gc.collect()
    module_type = state.relrep.rep.Module
    return sum(1 for o in gc.get_objects() if isinstance(o, module_type))


@dataclass
class Phase:
    spans: list[tuple[float, float]] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    leaked_modules: int | None = None
    peak_rss_mb: float | None = None


def run_phase(state, seed: int, seconds: float, max_requests: int | None, tracer=None,
              module_baseline: int | None = None) -> Phase:
    """Issue whole blocks of requests until ``seconds`` pass or the cap is hit.

    Only the call is timed; answers are checked after the clock stops.  After
    the first block the live ``Module`` count and peak memory are read, so
    both cover a fixed amount of work and repeat for a seed.
    """
    phase = Phase()
    begin = perf_counter()
    for block_index, block in enumerate(state.blocks(seed)):
        for request in block:
            if max_requests is not None and len(phase.spans) >= max_requests:
                break
            if tracer is not None:
                tracer.begin_request(len(phase.spans))
            error = None
            start = perf_counter()
            try:
                answer = request.call()
            except Exception as exc:  # a failed request counts against error_ratio
                error = f"{type(exc).__name__}: {exc}"
            end = perf_counter()
            if tracer is not None:
                tracer.end_request()
            phase.spans.append((start, end))
            phase.kinds.append(request.kind)
            if error is None and not request.check(answer, request.expected):
                error = f"wrong answer {answer!r}, expected {request.expected!r}"
            if error is not None:
                phase.failed += 1
                if len(phase.errors) < 5:
                    phase.errors.append(f"{request.kind}: {error}")
        if block_index == 0 and module_baseline is not None:
            phase.leaked_modules = live_modules(state) - module_baseline
            phase.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if max_requests is not None and len(phase.spans) >= max_requests:
            break
        if perf_counter() - begin >= seconds:
            break
    return phase


def tail(durations: list[float]) -> dict | None:
    """The highest percentile that still has ten samples above it."""
    n = len(durations)
    if n < 11:
        return None
    ordered = sorted(durations)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "n": n}


def commit_id(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def source_digest(root: Path) -> str:
    digest = sha256()
    for path in sorted((root / "src" / "relrep").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".alg"):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def timings(durations: list[float]) -> dict:
    return {
        "request_p50_s": statistics.median(durations),
        "requests_per_s": len(durations) / sum(durations),
        "request_tail": tail(durations),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-requests", type=int)
    args = parser.parse_args()

    catalog = workloads.load_catalog() if args.workload == "ext_queries" else None
    drift_before = reference_loop_s()
    with HostSampler() as sampler:
        setup_spans = []
        state = None
        for _ in range(SETUP_REPEATS):
            state = None
            gc.collect()
            start = perf_counter()
            state = workloads.setup(args.workload, catalog)
            setup_spans.append((start, perf_counter()))
        baseline = live_modules(state)
        phase = run_phase(state, args.seed, args.seconds, args.max_requests, module_baseline=baseline)
        drift_after = reference_loop_s()
        env = {
            "python": platform.python_version(),
            "backend": state.relrep.backend,
            "commit": commit_id(workloads.ROOT),
            "src_sha256": source_digest(workloads.ROOT),
            "nproc": os.cpu_count(),
        }
        traced = tracer = None
        if args.trace:
            state = None
            gc.collect()
            state = workloads.setup(args.workload, catalog)
            tracer = spans.Tracer()
            tracer.install()
            traced = run_phase(state, args.seed, float("inf"), len(phase.spans), tracer=tracer)

    t0 = setup_spans[0][0]
    wall = [end - start for start, end in phase.spans]
    norm = [sampler.normalize(start, end) for start, end in phase.spans]
    measured = timings(norm)
    wall_measured = timings(wall)
    attempted = len(norm)
    by_kind = {}
    for kind in sorted(set(phase.kinds)):
        ds = [d for d, k in zip(norm, phase.kinds) if k == kind]
        by_kind[kind] = {"n": len(ds), "p50_s": statistics.median(ds)}
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": attempted,
        "failed": phase.failed,
        "errors": phase.errors,
        "end_to_end": {
            "setup_s": statistics.median(sampler.normalize(*span) for span in setup_spans),
            "request_p50_s": measured["request_p50_s"],
            "requests_per_s": measured["requests_per_s"],
            "peak_rss_mb": phase.peak_rss_mb,
            "leaked_modules": phase.leaked_modules,
            "error_ratio": phase.failed / attempted,
        },
        "request_tail": measured["request_tail"],
        "wall": {
            "setup_s": statistics.median(end - start for start, end in setup_spans),
            "request_p50_s": wall_measured["request_p50_s"],
            "requests_per_s": wall_measured["requests_per_s"],
            "request_tail": wall_measured["request_tail"],
            "busy_s": sum(wall),
        },
        "by_kind": by_kind,
        "host": {
            "drift_ref_before_s": drift_before,
            "drift_ref_after_s": drift_after,
            "samples": len(sampler.cpu_s),
            "sample_ref_p50_s": statistics.median(sampler.cpu_s),
            "nominal_ref_s": NOMINAL_REF_S,
        },
        "env": env,
        "raw": {
            "request_spans_s": [[a - t0, b - t0] for a, b in phase.spans],
            "setup_spans_s": [[a - t0, b - t0] for a, b in setup_spans],
            "samples": [
                [t - t0, cpu, w] for t, cpu, w in zip(sampler.starts, sampler.cpu_s, sampler.wall_s)
            ],
        },
    }
    if tracer is not None:
        per_layer = tracer.metrics()
        traced_norm = [sampler.normalize(start, end) for start, end in traced.spans]
        per_layer["trace_overhead"] = statistics.median(traced_norm) / measured["request_p50_s"]
        result["per_layer"] = per_layer
        result["attempted"] += len(traced.spans)
        result["failed"] += traced.failed
        result["errors"] += traced.errors
        result["trace_file"] = str(
            tracer.write(OUT_DIR / f"trace-{args.workload}").relative_to(workloads.ROOT)
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
