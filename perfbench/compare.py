"""Correctness check of a workload's CSV output against its recorded reference.

A numeric cell's deviation is |output - reference| divided by the reference
cell's own magnitude, or by FLOOR times the largest magnitude in its column
when the cell is smaller than that, so that a value that is roundoff next to
its column is not judged on its own digits.  The largest deviation over all
cells is `max_rel_dev`, and a run fails when it exceeds MAX_REL_DEV.

H1 and L2 errors below ROUNDOFF_ERROR (the Q2 beam errors, which are exact up
to 1.2e-7 at every angle; every other error is at least 3.4e-3) are roundoff:
such a cell passes as long as the output's error is also below
ROUNDOFF_ERROR, and the convergence rate of its row is not compared.

MAX_REL_DEV separates roundoff from a physics change.  Measured cell by cell
on the beam and cook defaults and the large panel: perturbing every
element-stiffness entry by a random relative 4e-16 moves a cell by at most
1.0e-6 (an L2 error of Q1_CG_UI_betalambda at p = 1e4, n = 40); solving with
another LU ordering moves one by at most 5.1e-7.  Raising E_t by a relative
1e-4 moves the tip displacements by 1e-4, and q = 1.001 in place of 1 moves
them by 8.4e-4.  A perturbation of 6e-14 on every entry, 150 times the
roundoff one, moves the L2 error of Q1_CG_UI_betalambda at p = 1e4, n = 40
by 1.1e-4 and fails: near the incompressible limit the error of a fine mesh
is a small difference of large displacements.
"""

import csv
import io
import lzma
import math

MAX_REL_DEV = 2e-5

# Relative to the largest magnitude in the column: the smallest scale a cell
# is judged on.
FLOOR = 1e-8

# Errors below this are roundoff; see the module docstring.
ROUNDOFF_ERROR = 1e-4
ERROR_COLUMNS = ("h1_error", "l2_error")


def read_reference(path):
    opener = lzma.open if path.suffix == ".xz" else open
    with opener(path, "rt", encoding="utf-8", newline="") as fh:
        return fh.read()


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def check_output(text, reference):
    """Return (problems, max_rel_dev, rows, ok_rows) of an output CSV.

    A row is ok when its `status` column reads "ok"; a CSV without a status
    column has only ok rows.
    """
    header, *rows = list(csv.reader(io.StringIO(text))) or [[]]
    ref_header, *ref_rows = list(csv.reader(io.StringIO(reference)))
    problems = []
    status = header.index("status") if "status" in header else None
    ok_rows = sum(1 for r in rows if status is None or r[status] == "ok")
    if ok_rows < len(rows):
        problems.append(f"{len(rows) - ok_rows} of {len(rows)} rows not ok")
    if header != ref_header or len(rows) != len(ref_rows):
        problems.append(
            f"shape {len(header)}x{len(rows)} differs from the reference's "
            f"{len(ref_header)}x{len(ref_rows)}"
        )
        return problems, math.inf, len(rows), ok_rows

    ref_numbers = [[_number(c) for c in r] for r in ref_rows]
    floor = [
        FLOOR * max((abs(r[j]) for r in ref_numbers if r[j] is not None), default=0.0)
        for j in range(len(header))
    ]
    errors = {header.index(c) for c in ERROR_COLUMNS if c in header}
    rate = header.index("rate") if "rate" in header else None
    h1 = header.index("h1_error") if "h1_error" in header else None

    max_dev = 0.0
    non_finite = mismatched = 0
    for row, ref_row, ref_nums in zip(rows, ref_rows, ref_numbers):
        for j, (cell, ref_cell, ref) in enumerate(zip(row, ref_row, ref_nums)):
            value = _number(cell)
            if value is not None and not math.isfinite(value):
                non_finite += 1
                continue
            if value is None or ref is None:
                mismatched += cell != ref_cell
                continue
            if value == ref:
                continue
            if j in errors and abs(ref) < ROUNDOFF_ERROR:
                dev = 0.0 if abs(value) < ROUNDOFF_ERROR else math.inf
            elif j == rate and ref_nums[h1] is not None and abs(ref_nums[h1]) < ROUNDOFF_ERROR:
                continue
            else:
                scale = max(abs(ref), floor[j])
                dev = abs(value - ref) / scale if scale else math.inf
            max_dev = max(max_dev, dev)
    if non_finite:
        problems.append(f"{non_finite} non-finite cells")
    if mismatched:
        problems.append(f"{mismatched} non-numeric cells differ from the reference")
    if max_dev > MAX_REL_DEV:
        problems.append(f"max_rel_dev {max_dev:.3g} exceeds {MAX_REL_DEV:g}")
    return problems, max_dev, len(rows), ok_rows
