"""Tests of the benchmark harness itself; not part of the tier-1 suite.

    python3 -m pytest perfbench -q

The slow tests run the real workloads (about two minutes in all).
"""

import hashlib
import json
import math
import shutil
import subprocess
import sys
import time

import pytest

from compare import MAX_REL_DEV, ROUNDOFF_ERROR, check_output, read_reference
from record_references import plain_output
from probe import REFERENCE_S, SENSITIVITY
from run import (
    HERE, REFERENCE, ROOT, end_to_end_metrics, layer_metrics, pinned_env, run_pass,
)
from workloads import ANGLE_STEPS, DEFAULT_SEED, WORKLOADS

MANIFEST = json.loads((REFERENCE / "manifest.json").read_text(encoding="utf-8"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_pass(out_dir, commands, trace):
    out_dir.mkdir(parents=True, exist_ok=True)
    return run_pass(pinned_env(), commands, out_dir, trace, time.perf_counter() + 170)


def test_benchmark_json_names_the_harness_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_end_to_end_times_are_scaled_to_the_reference_host_speed():
    # On a host where the probe takes four times REFERENCE_S, a pass's times
    # are divided by 4 ** SENSITIVITY.
    factor = 4 ** SENSITIVITY
    passes = [{"wall_s": 4.0 * factor, "setup_s": [0.8 * factor, 1.0 * factor],
               "peak_rss_mb": 70.0, "probe_s": 4 * REFERENCE_S}]
    metrics = end_to_end_metrics(passes)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        k: unit for k, (_, unit) in metrics.items()
    }
    assert math.isclose(metrics["wall_s"][0], 4.0)
    assert math.isclose(metrics["setup_s"][0], 0.9)
    assert metrics["peak_rss_mb"][0] == 70.0


def test_default_seed_runs_the_plain_commands():
    assert WORKLOADS["beam_convergence"].commands_for(DEFAULT_SEED) == [["beam"]]
    assert WORKLOADS["cook_sweep"].commands_for(DEFAULT_SEED) == [["cook"]]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seeds_redraw_only_the_fibre_angle(name):
    workload = WORKLOADS[name]
    default = workload.commands_for(DEFAULT_SEED)
    for seed in range(1, 60):
        commands = workload.commands_for(seed)
        assert commands == workload.commands_for(seed)
        if workload.default_step is None:
            assert commands == default
            continue
        for cmd, base in zip(commands, default):
            assert cmd[: len(base)] == base and cmd[len(base)] == "--angles"
            k, steps = cmd[-1].split("pi/")
            assert 0 <= int(k) < int(steps) == ANGLE_STEPS


def test_every_seed_has_a_recorded_reference():
    for workload in WORKLOADS.values():
        for seed in range(200):
            assert workload.reference_name(seed) in MANIFEST


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_references_match_their_manifest(name):
    text = read_reference(REFERENCE / name)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == MANIFEST[name]["sha256"]
    assert check_output(text, text) == ([], 0.0, MANIFEST[name]["rows"], MANIFEST[name]["rows"])


def _beam_reference(seed=DEFAULT_SEED):
    name = WORKLOADS["beam_convergence"].reference_name(seed)
    return read_reference(REFERENCE / name).splitlines(keepends=True)


def _row(lines, variant, p, refine):
    header = lines[0].rstrip("\n").split(",")
    cols = [header.index(c) for c in ("variant", "p", "refine")]
    return next(i for i, line in enumerate(lines)
                if [line.split(",")[j] for j in cols] == [variant, p, refine])


def _edit(lines, row, column, edit):
    header = lines[0].rstrip("\n").split(",")
    cells = lines[row].rstrip("\n").split(",")
    j = header.index(column)
    cells[j] = edit(cells[j])
    return "".join(lines[:row] + [",".join(cells) + "\n"] + lines[row + 1:])


def _scale_column(text, column, factor):
    header, *rows = [line.split(",") for line in text.splitlines()]
    j = header.index(column)
    for row in rows:
        row[j] = repr(float(row[j]) * factor)
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def test_max_rel_dev_passes_roundoff_and_fails_physics():
    # Scaling every tip_v is what a change of E_t does to the output.
    reference = "".join(_beam_reference())
    problems, dev, _, _ = check_output(_scale_column(reference, "tip_v", 1 + 1e-9), reference)
    assert problems == [] and 0 < dev < MAX_REL_DEV
    problems, dev, _, _ = check_output(_scale_column(reference, "tip_v", 1 + 1e-4), reference)
    assert dev > MAX_REL_DEV and any("max_rel_dev" in p for p in problems)


def test_a_change_in_one_small_cell_fails():
    # Each cell is judged on its own magnitude, not on its column's largest.
    lines = _beam_reference()
    row = _row(lines, "Q1_CG", "1.0001", "5")
    edited = _edit(lines, row, "tip_u", lambda c: repr(1.01 * float(c)))
    assert any("max_rel_dev" in p for p in check_output(edited, "".join(lines))[0])

    # At angle 0 the h1_error column reaches 6e3; a 1e-2 error must still count.
    lines = _beam_reference(seed=next(
        s for s in range(1, 99) if WORKLOADS["beam_convergence"].angle(s) == "0pi/12"))
    row = _row(lines, "Q1_CG", "3", "40")
    assert float(lines[row].split(",")[11]) < 1e-2
    edited = _edit(lines, row, "h1_error", lambda c: repr(1.001 * float(c)))
    assert any("max_rel_dev" in p for p in check_output(edited, "".join(lines))[0])


def test_roundoff_level_errors_that_grow_past_roundoff_fail():
    lines = _beam_reference()
    row = _row(lines, "Q2_CG", "3", "40")
    edited = _edit(lines, row, "l2_error", lambda c: repr(2 * ROUNDOFF_ERROR))
    problems, dev, _, _ = check_output(edited, "".join(lines))
    assert dev == math.inf and problems


def test_roundoff_level_errors_and_their_rates_pass():
    lines = _beam_reference()
    rows = [line.split(",") for line in lines]
    rate = rows[0].index("rate")
    q2 = next(i for i, r in enumerate(rows) if r[0] == "Q2_CG" and r[rate])
    edited = _edit(lines, q2, "h1_error", lambda c: repr(2 * float(c)))
    edited = _edit(edited.splitlines(keepends=True), q2, "rate", lambda c: "-7.5")
    assert check_output(edited, "".join(lines))[0] == []


def test_failed_rows_and_non_finite_cells_fail():
    lines = _beam_reference()
    failed = _edit(lines, 3, "status", lambda c: "error:SingularSystem")
    problems, _, rows, ok_rows = check_output(failed, "".join(lines))
    assert (rows, ok_rows) == (72, 71) and problems
    non_finite = _edit(lines, 3, "tip_u", lambda c: "nan")
    assert any("non-finite" in p for p in check_output(non_finite, "".join(lines))[0])


@pytest.mark.parametrize("name", ["beam_convergence", "cook_sweep", "stability_scan"])
def test_default_seed_output_is_the_plain_command_output(tmp_path, name):
    commands = WORKLOADS[name].commands_for(DEFAULT_SEED)
    _, output = one_pass(tmp_path, commands, trace=False)
    assert output.decode("utf-8") == plain_output(commands)
    # The default seed shares its reference with the commands' own angle.
    digest = MANIFEST[WORKLOADS[name].reference_name(DEFAULT_SEED)]["sha256"]
    assert hashlib.sha256(output).hexdigest() == digest


@pytest.mark.parametrize("name", ["cook_sweep", "panel_large"])
def test_exact_counters_repeat_across_runs(tmp_path, name):
    commands = WORKLOADS[name].commands_for(DEFAULT_SEED)
    untraced, _ = one_pass(tmp_path / "untraced", commands, trace=False)
    traced = [one_pass(tmp_path / str(i), commands, trace=True)[0] for i in range(2)]
    assert traced[0]["counts"] == traced[1]["counts"]
    counts = traced[0]["counts"]
    for key in ("elements.kernel_calls", "assembly.nnz", "assembly.lu_fill_nnz",
                "assembly.dofs", "mesh.builds", "assembly.distinct_operators"):
        assert counts[key] > 0
    assert counts["trace.rows"] == MANIFEST[WORKLOADS[name].reference_name(DEFAULT_SEED)]["rows"]

    metrics = layer_metrics([untraced] + traced, 0)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        k: unit for k, (_, unit) in metrics.items()
    }
    assert math.isclose(metrics["trace.accounted_frac"][0], 1.0, abs_tol=1e-3)


def test_exits_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cook_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0 and done.stdout == ""
