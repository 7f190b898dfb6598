"""jcsense benchmark: one command, three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload headline_ramp --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  headline_ramp  the default fidelity_sweep config through experiments.RUNNERS
                 and cli.render_csv (k = Omega/200 to eta = 0.995, n_max 121)
  estimation_mc  metrology.cramer_rao_ratio at eta = 0.995 for all three
                 schemes, shots 1e2/1e3/1e4, 500 replicas spawned from --seed
  probe_sweep    near-critical states at 12 points 1 - eta in [1e-4, 1e-1],
                 closed-form cross-checks and four CLI runners

Each run is one closed-loop client in one fresh worker process with BLAS and
OpenMP pinned to one thread.  jcsense is imported from ./src.  The worker
repeats full passes of the workload for --seconds (at least one pass) and
checks every output; known-limit failures (probe points above the n_max
clamp) are counted as failed but do not make the run incorrect, any other
failure does.

--trace 0 prints the end-to-end metrics:
  wall_ref_s   median time of one pass of the workload's work after set-up,
               rescaled to a reference core speed by speed.py; the raw wall
               times are in the result file
  setup_s      median, over 7 fresh processes, of process start until ready
               (imports of numpy, scipy and jcsense, argument resolution),
               rescaled to a reference core speed like wall_ref_s
  peak_rss_mb  peak resident memory of the worker process
  ok_frac      checked operations that passed / operations attempted
--trace 1 prints the per-layer metrics of a traced run: per-call times and
counts at each jcsense module boundary, per-layer self times, the tracing
overhead (traced minus untraced pass time, both at reference speed, against
an untraced pass of the same process), and known-limit accounting.  Deterministic work counters must repeat exactly from pass to
pass and from run to run of the same code; the benchmark fails otherwise.

--smoke runs every workload at a tiny size for the benchmark's own test.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; full results, spans and the run header are written to
.bench_out/ in the working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT_DIR = Path(".bench_out")
WORKLOADS = ("headline_ramp", "estimation_mc", "probe_sweep")
SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 170.0
SETUP_REFERENCE_S = speed.setup_probe().reference_s
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    return p.parse_args(argv)


def _code_hash() -> str:
    """Content hash of the package sources and the benchmark itself."""
    h = hashlib.sha256()
    files = sorted(Path("src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.as_posix()).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != Path.cwd().resolve():
        return None  # not a git checkout of its own
    return lines[1]


def _start(cmd, env):
    """Start a worker; return it and its set-up time, raw and at reference speed."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        line = proc.stdout.readline()
    except BaseException:
        _stop(proc)
        raise
    setup = perf_counter() - t0
    fields = line.split()
    if len(fields) != 4 or fields[0] != "READY":
        _stop(proc)
        raise BenchError(f"worker did not start: {line!r}")
    window, window_ref, mean_s = map(float, fields[1:])
    # the interpreter's start before the probe, scaled by the mean slowdown
    return proc, (setup, (setup - window) * SETUP_REFERENCE_S / mean_s + window_ref)


def _stop(proc) -> None:
    proc.kill()
    proc.communicate()


def _wait(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker timed out") from None
    return out


def _run_worker(args, env) -> tuple[dict, list]:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = _start(cmd + ["--setup-only"], env)
        _wait(proc, 30.0)
        setups.append(setup)
    proc, setup = _start(cmd, env)
    setups.append(setup)
    out = _wait(proc, RUN_TIMEOUT_S - sum(raw for raw, _ in setups))
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), setups


def _check_counters(result: dict, key: str) -> list:
    """Deterministic counters must agree across passes and with earlier runs."""
    runs = result.get("deterministic", [])
    if not runs:
        return []
    problems = [f"pass {i} counters {c} differ from pass 0 {runs[0]}"
                for i, c in enumerate(runs) if c != runs[0]]
    store = OUT_DIR / "counters.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known and known[key] != runs[0]:
        problems.append(f"counters {runs[0]} differ from an earlier run {known[key]}")
    elif key not in known:
        known[key] = runs[0]
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)
    return problems


def _median_metrics(runs: list) -> dict:
    return {k: statistics.median(run[k] for run in runs) for k in runs[0]}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


UNITS = (("_calls", "count"), ("_evals", "count"), ("_computed", "count"), ("_drawn", "count"),
         ("_warnings", "count"), ("_mass", "prob"), ("_s", "s"), ("_us", "us"))


def _unit(name: str) -> str:
    if name.endswith("pad_ratio_computed") or name.endswith("_per_probe"):
        return "ratio"
    if name.startswith("self_s.") or "_s." in name:  # self_s.<layer>, cramer_rao_s.<scheme>
        return "s"
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "ratio"


def main(argv=None) -> int:
    args = _parse(argv)
    if not (Path("src/jcsense/__init__.py").is_file() and WORKER.is_file()):
        print("run from the root of a jcsense checkout (src/jcsense not found)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be > 0", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env.update({var: "1" for var in THREAD_VARS})
    OUT_DIR.mkdir(exist_ok=True)
    code = _code_hash()
    try:
        result, setups = _run_worker(args, env)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    problems = _check_counters(result, f"{code}:{args.workload}:{'smoke' if args.smoke else 'full'}")
    if problems:
        for p in problems:
            print(f"deterministic counter mismatch: {p}", file=sys.stderr)
        return 1

    walls, ref_walls = result["walls"], result["ref_walls"]
    if args.trace:  # the end-to-end figures come from the untraced first pass
        walls, ref_walls = walls[:1], ref_walls[:1]
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": _git_sha(),
        "code_sha256": code,
        "nproc": os.cpu_count(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "load": "closed loop, 1 client, 1 worker process",
        **result["versions"],
    }
    stats = {
        # no percentile of a run's few passes has ten samples beyond it
        "wall_ref_s": {"median": statistics.median(ref_walls), "samples": len(ref_walls),
                       "p_high": None, "all": ref_walls},
        "wall_s": {"median": statistics.median(walls), "samples": len(walls), "all": walls},
        "probe_mean_s": result["probe_mean_s"],
        "setup_s": {"median": statistics.median(ref for _, ref in setups), "samples": len(setups),
                    "all": [ref for _, ref in setups], "raw": [raw for raw, _ in setups]},
    }
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        layer = _median_metrics(result["layer_runs"])
        layer.update(result["limits"])
        layer["bench.untraced_wall_s"] = result["untraced_wall_s"]
        layer["bench.untraced_wall_ref_s"] = result["untraced_wall_ref_s"]
        layer["bench.trace_overhead_s"] = (
            layer["bench.traced_wall_ref_s"] - result["untraced_wall_ref_s"]
        )
        layer["failed_frac"] = failed / attempted
        metrics = {k: _metric(v, _unit(k)) for k, v in sorted(layer.items())}
        metrics["bench.traced_peak_rss_mb"] = _metric(result["peak_rss_mb"], "MB")
        trace_doc = {"header": header, "layer_runs": result["layer_runs"], "passes": [
            {"calls": p["calls"], "total_s": p["total_s"],
             "spans": [dict(zip(("id", "name", "start", "end", "parent"), s)) for s in p["spans"]]}
            for p in result["traced_passes"]]}
        name = f"trace-{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}.json"
        (OUT_DIR / name).write_text(json.dumps(trace_doc))
    else:
        metrics = {
            "wall_ref_s": _metric(stats["wall_ref_s"]["median"], "s"),
            "setup_s": _metric(stats["setup_s"]["median"], "s"),
            "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
            "ok_frac": _metric((attempted - failed) / attempted, "ratio"),
        }
    correct = not result["unexpected"]
    doc = {"header": header, "stats": stats, "metrics": metrics, "ops": result["ops"],
           "unexpected_failures": result["unexpected"], "warnings": result["warnings"],
           "diagnostics": result["diagnostics"]}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT_DIR / name).write_text(json.dumps(doc, indent=1))

    print(json.dumps({"header": header}))
    print(json.dumps({"stats": stats, "unexpected_failures": result["unexpected"],
                      "warnings": [
                          {k: w[k] for k in ("layer", "where", "tail_mass")}
                          for w in result["warnings"]]}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
