"""relrep benchmark: one command, every end-to-end metric, every answer checked.

Usage, from the repository root:

    python3 bench/run.py --workload theorem --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --self-check

Workloads (see ``workloads.py`` for why each was chosen): ``theorem``,
``maxortho_sweep``, ``ext_queries``.  Every run first replays the README's
``relrep`` examples on ``builtin:cyclic3`` in this process and compares their
lines with the README text (untimed), then measures the workload in a child
process (``worker.py``) and prints a human-readable report followed by one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones named in BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones from a traced replay of the
same requests.  Full results, environment and the host-drift reference go
to ``bench/out/``; span traces to ``bench/out/trace-<workload>.{json,bin}``.

End-to-end metrics (untraced).  Times are host-normalized (see ``worker.py``);
the raw wall-clock value is printed beside each with a ``wall`` label.
  setup_s         median of nine set-ups: import relrep, build the algebras,
                  enumerate indecomposables, build the long-lived pool
  request_p50_s   median time of one request
  request_tail_s  the highest percentile with ten samples above it (printed
                  with its percentile; needs at least 11 requests in the run)
  requests_per_s  requests completed / busy time
  peak_rss_mb     peak resident memory of the measuring process, read after
                  the first block of requests
  leaked_modules  live relrep Module objects after the first block and
                  gc.collect(), minus the count at the end of set-up
  error_ratio     requests that raised or answered wrongly / requests
BENCHMARK.json compares only the metrics that every workload reports and that
are never 0: request_tail_s needs more requests than a theorem run makes,
leaked_modules is 0 on theorem, and error_ratio must be 0 (it is carried by
the ``failed`` count instead).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shlex
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("theorem", "maxortho_sweep", "ext_queries")
# A run must end within 180 s; the worker gets what the README check left.
RUN_DEADLINE_S = 175
SELF_CHECK_REQUESTS = {"theorem": 1, "maxortho_sweep": 4, "ext_queries": 40}

UNITS = {
    "setup_s": "s",
    "request_p50_s": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "leaked_modules": "count",
    "error_ratio": "ratio",
}


def readme_examples(text: str) -> list[tuple[list[str], list[str]]]:
    """The ``$ relrep ...`` examples of the README with the lines they show."""
    examples = []
    blocks = text.split("```text\n")[1:]
    for block in blocks:
        lines = block.split("```", 1)[0].splitlines()
        if not lines or not lines[0].startswith("$ relrep "):
            continue
        command = lines[0][2:]
        rest = lines[1:]
        while command.endswith("\\"):
            command = command[:-1] + " " + rest.pop(0).strip()
        shown = [line for line in rest if line.strip() and line.strip() != "..."]
        examples.append((shlex.split(command)[1:], shown))
    return examples


def readme_check() -> list[str]:
    """Run every README example in-process; return the problems found."""
    from relrep.cli import main as relrep_main

    examples = readme_examples((ROOT / "README.md").read_text(encoding="utf-8"))
    problems = []
    if not examples:
        problems.append("README has no relrep examples")
    for argv, shown in examples:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            relrep_main(argv)
        produced = iter(out.getvalue().splitlines())
        # each shown line must appear, in order, in the real output
        missing = [line for line in shown if not any(line == p for p in produced)]
        if missing:
            problems.append(f"{argv[0]}: README line(s) not produced: {missing}")
    return problems


def benchmark_metrics() -> dict[str, list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def run_worker(workload: str, seed: int, seconds: float, trace: int, timeout: float,
               max_requests=None) -> dict:
    argv = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if max_requests is not None:
        argv += ["--max-requests", str(max_requests)]
    proc = subprocess.run(
        argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(result: dict, readme_problems: list[str], trace: int) -> dict:
    """Print the human-readable report; return the final JSON line's object."""
    e2e = result["end_to_end"]
    env = result["env"]
    print(f"# workload {result['workload']}  seed {result['seed']}  trace {trace}")
    print("# env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    host = result["host"]
    print(
        f"# host-drift reference loop: before {host['drift_ref_before_s']:.4f} s, "
        f"after {host['drift_ref_after_s']:.4f} s; sampler p50 {host['sample_ref_p50_s'] * 1e3:.3f} ms "
        f"over {host['samples']} samples (nominal {host['nominal_ref_s'] * 1e3:.3f} ms)"
    )
    print(f"# README examples: {'ok' if not readme_problems else 'MISMATCH'}")
    for problem in readme_problems:
        print(f"#   {problem}")
    wall = result["wall"]
    for name, value in e2e.items():
        raw = f"  (wall {wall[name]:.6g})" if name in wall else ""
        print(f"{name} = {value:.6g} {UNITS[name]}{raw}")
    for label, tail in (("request_tail_s", result["request_tail"]), ("wall_request_tail_s", wall["request_tail"])):
        if tail is None:
            print(f"{label} = n/a (fewer than 11 requests in the run)")
        else:
            print(f"{label} = {tail['value']:.6g} s (p{tail['percentile']:.1f} of n={tail['n']})")
    for kind, stats in result["by_kind"].items():
        print(f"#   {kind}: n={stats['n']} p50={stats['p50_s']:.6g} s")
    for error in result["errors"]:
        print(f"# error: {error}")

    names = benchmark_metrics()
    if trace:
        per_layer = result["per_layer"]
        wall = per_layer["traced_wall_s"]
        print(f"# traced replay: {wall:.4g} s wall, trace_overhead {per_layer['trace_overhead']:.4g}")
        for key in sorted(k for k in per_layer if k.count(".") == 1 and k.endswith(".self_s")):
            share = per_layer[key] / wall if wall else 0.0
            print(f"#   {key} = {per_layer[key]:.4g} s ({100 * share:.1f}%)")
        source, wanted = per_layer, names["per_layer"]
    else:
        source, wanted = e2e, names["end_to_end"]
    missing = [m["name"] for m in wanted if source.get(m["name"]) is None]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = not readme_problems and result["failed"] == 0 and result["attempted"] > 0
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def self_check(readme_problems: list[str]) -> int:
    """Tiny run of every workload: every named metric emitted, no errors."""
    ok = not readme_problems
    for workload in WORKLOADS:
        result = run_worker(workload, 0, 0, 1, RUN_DEADLINE_S, SELF_CHECK_REQUESTS[workload])
        line = report(result, readme_problems, 1)
        e2e_missing = [
            m["name"] for m in benchmark_metrics()["end_to_end"]
            if result["end_to_end"].get(m["name"]) is None
        ]
        good = line["correct"] and result["end_to_end"]["error_ratio"] == 0 and not e2e_missing
        print(f"self-check {workload}: {'ok' if good else 'FAILED'} {e2e_missing or ''}")
        ok = ok and good
    print(f"self-check: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    for needed in (ROOT / "src" / "relrep" / "__init__.py", ROOT / "README.md"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a relrep checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    readme_problems = readme_check()
    if args.self_check:
        return self_check(readme_problems)

    timeout = RUN_DEADLINE_S - (time.perf_counter() - started)
    result = run_worker(args.workload, args.seed, args.seconds, args.trace, timeout)
    line = report(result, readme_problems, args.trace)
    result["readme_problems"] = readme_problems
    result["wall_s"] = time.perf_counter() - started
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
