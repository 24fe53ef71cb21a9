"""Run one benchmark workload through the tifem CLI and print its metrics.

    python3 perfbench/run.py --workload beam_convergence --seed 0 --seconds 20 --trace 0

Run from anywhere inside a tifem checkout; the program is imported from its
`src/`.  A pass runs each of the workload's commands once, each in a fresh
interpreter (worker.py) with BLAS/OpenMP threads pinned to 1, as a user's
`tifem` command runs: a closed loop, one caller, one command after another,
so nothing cached in one pass can serve the next.  Passes repeat for the
given seconds.

`--trace 0` reports the end-to-end metrics, as medians over the passes,
with times scaled to a reference host speed by a probe timed between passes
(probe.py), because the shared host's own speed drifts by more than a
change worth measuring.
`--trace 1` spends half the time on untraced passes and half on traced ones,
and reports the per-layer metrics (tracing.py) and the tracing overhead.
Every run checks every output against the recorded reference (compare.py).
The second-to-last line printed is the run's environment record and the last
its result; both also go to perfbench/out/<workload>-seed<n>-trace<t>/result.json.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import MAX_REL_DEV, check_output, read_reference
from probe import REFERENCE_S, SENSITIVITY, Probe, scale
from workloads import WORKLOADS, join_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"

THREAD_PINNING = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
DEADLINE_S = 170.0  # a run must end within 180 s


def pinned_env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_PINNING)
    # Cache bytecode as an installed package does, whatever the caller's setting.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def invoke(env, argv, trace, spans, deadline):
    """One CLI command in a fresh worker; its record gains `setup_s`, the
    seconds from spawning the interpreter to `tifem.cli` imported."""
    start = time.perf_counter()
    job = {"argv": argv, "trace": trace, "spans": str(spans)}
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=deadline - start,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker for {argv} exited with code {done.returncode}")
    record = json.loads(done.stdout.splitlines()[-1])
    record["setup_s"] = record.pop("ready") - start
    return record


def run_pass(env, commands, out_dir, trace, deadline):
    """Each command once; the pass's summed timings and counters, and its CSV."""
    records = []
    outputs = []
    for i, argv in enumerate(commands):
        path = out_dir / f"command{i}.csv"
        path.unlink(missing_ok=True)
        records.append(invoke(env, argv + ["--out", str(path)], trace,
                              out_dir / f"spans{i}.csv", deadline))
        outputs.append(path.read_bytes() if path.exists() else b"")
    summary = {
        "traced": trace,
        "wall_s": sum(r["wall_s"] for r in records),
        "setup_s": [r["setup_s"] for r in records],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
        "codes": [r["code"] for r in records],
        "versions": records[0]["versions"],
    }
    if trace:
        for key in ("self_s", "counts"):
            summary[key] = {k: sum(r[key][k] for r in records) for k in records[0][key]}
    return summary, join_csv(outputs)


def run_passes(env, commands, out_dir, seconds, trace, outputs, deadline, probe):
    """Passes while the next one, as long as the last, ends within `seconds`;
    at least one.  The probe runs before the first pass and after each; a
    pass's `probe_s` is the mean of the probes on either side of it.  Each
    distinct output is written once to `out_dir` and listed in `outputs`."""
    passes = []
    start = time.perf_counter()
    before = probe()
    last = 0.0
    while not passes or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        summary, data = run_pass(env, commands, out_dir, trace, deadline)
        after = probe()
        last = time.perf_counter() - began
        summary["probe_s"] = (before + after) / 2
        before = after
        summary["sha256"] = hashlib.sha256(data).hexdigest()
        if summary["sha256"] not in outputs:
            path = out_dir / f"output{len(outputs)}.csv"
            path.write_bytes(data)
            outputs[summary["sha256"]] = path
        passes.append(summary)
    return passes


def src_loc():
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )


def dofs_total(text):
    rows = csv.DictReader(io.StringIO(text))
    if "dofs" not in rows.fieldnames:
        return 0
    return sum(int(r["dofs"]) for r in rows if r["dofs"])


def end_to_end_metrics(passes):
    """Medians over the passes; times scaled to the reference host speed
    (probe.py) by the probe timed around their pass."""
    return {
        "wall_s": (statistics.median(p["wall_s"] * scale(p["probe_s"]) for p in passes), "s"),
        "setup_s": (statistics.median(s * scale(p["probe_s"])
                                      for p in passes for s in p["setup_s"]), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def raw_times(passes):
    """The unscaled medians and the probe's, for the environment record."""
    return {
        "raw_wall_s": statistics.median(p["wall_s"] for p in passes),
        "raw_setup_s": statistics.median(s for p in passes for s in p["setup_s"]),
        "probe_s": statistics.median(p["probe_s"] for p in passes),
        "probe_reference_s": REFERENCE_S,
        "probe_sensitivity": SENSITIVITY,
    }


def layer_metrics(passes, loc):
    """Per-layer metrics: medians of the traced passes' self times, their
    exact counters, and the tracing overhead against the untraced passes."""
    traced = [p for p in passes if p["traced"]]
    untraced_wall = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    self_s = {k: statistics.median(p["self_s"][k] for p in traced) for k in traced[0]["self_s"]}
    counts = traced[0]["counts"]
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    accounted = statistics.median(sum(p["self_s"].values()) / p["wall_s"] for p in traced)
    kernel_calls = counts["elements.kernel_calls"]
    assemble_calls = counts["assembly.assemble_calls"]
    metrics = {k: (v, "s") for k, v in self_s.items()}
    metrics.update({k: (v, "count") for k, v in counts.items()})
    metrics.update({
        "elements.kernel_us_per_call": (
            1e6 * self_s["elements.kernel_s"] / kernel_calls if kernel_calls else 0.0, "us"),
        "assembly.reuse_ratio": (
            counts["assembly.distinct_operators"] / assemble_calls if assemble_calls else 0.0,
            "ratio"),
        "src_loc": (loc, "lines"),
        "trace_overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.accounted_frac": (accounted, "ratio"),
    })
    return metrics


def check(workload, seed, passes, outputs):
    """Correctness problems, max_rel_dev, rows and dofs per pass, failed rows."""
    name = workload.reference_name(seed)
    manifest = json.loads((REFERENCE / "manifest.json").read_text(encoding="utf-8"))[name]
    reference = read_reference(REFERENCE / name)
    problems = []
    if hashlib.sha256(reference.encode("utf-8")).hexdigest() != manifest["sha256"]:
        problems.append(f"reference {name} does not match its recorded SHA-256")
    if len(outputs) > 1:
        problems.append(f"{len(outputs)} distinct outputs from {len(passes)} passes: "
                        "reruns are not byte-identical")
    bad_codes = sorted({c for p in passes for c in p["codes"] if c != 0})
    if bad_codes:
        problems.append(f"CLI exit codes {bad_codes}")
    rows = manifest["rows"]
    max_rel_dev = 0.0
    ok_rows = {}
    for digest, path in outputs.items():
        if digest == manifest["sha256"]:
            # The reference itself passed check_output when it was recorded.
            ok_rows[digest] = rows
            continue
        found, dev, _, ok_rows[digest] = check_output(path.read_text(encoding="utf-8"), reference)
        problems += found
        max_rel_dev = max(max_rel_dev, dev)
    failed = sum(max(0, rows - ok_rows[p["sha256"]]) for p in passes)

    traced = [p for p in passes if p["traced"]]
    if any(p["counts"] != traced[0]["counts"] for p in traced):
        problems.append("exact counters differ between traced passes")
    if traced and traced[0]["counts"]["trace.rows"] != rows:
        problems.append(f"traced {traced[0]['counts']['trace.rows']} rows, the CSV has {rows}")
    dofs = dofs_total(outputs[passes[0]["sha256"]].read_text(encoding="utf-8"))
    return problems, max_rel_dev, rows, dofs, failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "tifem" / "cli.py").is_file():
        print(f"perfbench: no tifem package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    commands = workload.commands_for(args.seed)
    out_dir = HERE / "out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    # The probe and the workers share one CPU, so that the probe measures the
    # speed of the CPU the work runs on; the workers inherit the affinity.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = pinned_env()
    # Warm the bytecode and file caches, as a user's earlier commands would.
    subprocess.run([sys.executable, "-c", "import tifem.cli"], env=env, cwd=ROOT,
                   check=True, timeout=60)

    outputs = {}
    probe = Probe()
    if args.trace:
        half = args.seconds / 2
        passes = run_passes(env, commands, out_dir, half, False, outputs, deadline, probe)
        passes += run_passes(env, commands, out_dir, half, True, outputs, deadline, probe)
    else:
        passes = run_passes(env, commands, out_dir, args.seconds, False, outputs, deadline,
                            probe)
    problems, max_rel_dev, rows, dofs, failed = check(workload, args.seed, passes, outputs)
    loc = src_loc()
    metrics = layer_metrics(passes, loc) if args.trace else end_to_end_metrics(passes)

    env_record = {
        **passes[0]["versions"],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "thread_pinning": THREAD_PINNING,
        "src_loc": loc,
        "workload": workload.name,
        "seed": args.seed,
        "angle": workload.angle(args.seed) or "default",
        "commands": commands,
        "passes": len(passes),
        **raw_times(passes),
        "rows_per_pass": rows,
        "dofs_per_pass": dofs,
        "max_rel_dev": max_rel_dev,
        "max_rel_dev_bound": MAX_REL_DEV,
        "problems": problems,
    }
    result = {
        "correct": not problems,
        "attempted": rows * len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out_dir / "result.json").write_text(
        json.dumps({"env": env_record, "result": result, "passes": passes}, indent=1),
        encoding="utf-8",
    )
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"env": env_record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
