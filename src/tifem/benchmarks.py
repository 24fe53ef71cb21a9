"""Benchmark drivers: Cook's membrane sweeps and the bending beam study.

Each driver produces an ErrorReport whose rows are canonically sorted, so
repeated runs with the same configuration are byte-identical when written
to CSV.  Failed rows are kept with an error marker instead of being dropped.
"""

import functools
import math
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from . import material as mat
from .assembly import apply_dirichlet, assemble, h1_error, solve
from .elements import FormulationVariant
from .mesh import COOK_CORNERS, cook_mesh, rectangle_mesh


class MissingReference(KeyError):
    pass


DEFAULT_ANGLES = tuple(
    math.pi * k for k in (0, 1 / 8, 1 / 6, 1 / 4, 1 / 3, 3 / 8, 1 / 2, 5 / 8, 3 / 4, 7 / 8, 1)
)

ALL_VARIANTS = tuple(FormulationVariant)

CSV_HEADER = (
    "variant,p,q,nu_t,nu_l,angle_rad,refine,h,dofs,tip_u,tip_v,"
    "h1_error,l2_error,rate,status"
)


@dataclass(frozen=True)
class CookConfig:
    E_t: float = 250.0
    f: float = 100.0
    nu_t: float = 0.49995
    nu_l: float = 0.49995
    q: float = 1.0
    p_list: tuple = (1.0001, 2.0, 5.0, 10.0, 1e2, 1e4)
    angles: tuple = (math.pi / 3,)
    refine: tuple = (16,)
    variants: tuple = ALL_VARIANTS


@dataclass(frozen=True)
class BeamConfig:
    L: float = 10.0
    H: float = 2.0
    f: float = 3000.0
    E_t: float = 1500.0
    nu_t: float = 0.49995
    nu_l: float = 0.49995
    q: float = 1.0
    p_list: tuple = (1.0001, 3.0, 1e4)
    angles: tuple = (math.pi / 4,)
    refine: tuple = (5, 10, 20, 40)
    variants: tuple = ALL_VARIANTS


@dataclass(frozen=True)
class ReportRow:
    # Field order is the CSV column order (CSV_HEADER).
    variant: str
    p: float
    q: float
    nu_t: float
    nu_l: float
    angle: float
    refine: int
    h: float | None = None
    dofs: int | None = None
    tip_u: float | None = None
    tip_v: float | None = None
    h1_error: float | None = None
    l2_error: float | None = None
    rate: float | None = None
    status: str = "ok"


@dataclass
class ErrorReport:
    rows: list = field(default_factory=list)

    def sort(self):
        self.rows.sort(key=lambda r: (r.variant, r.p, r.angle, r.refine))

    def attach_rates(self):
        """Observed rate log(e1/e2)/log(h1/h2) per consecutive refinement pair."""
        self.sort()
        rows = []
        for prev, row in zip([None] + self.rows, self.rows):
            rate = None
            if (
                prev is not None
                and (prev.variant, prev.p, prev.angle) == (row.variant, row.p, row.angle)
                and (prev.h1_error or 0) > 0
                and (row.h1_error or 0) > 0
                and None not in (prev.h, row.h)
                and prev.h != row.h
            ):
                rate = math.log(prev.h1_error / row.h1_error) / math.log(prev.h / row.h)
            rows.append(replace(row, rate=rate))
        self.rows = rows

    def to_csv(self):
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, str):
                return v
            return f"{float(v):.17g}"

        lines = [CSV_HEADER] + [",".join(map(fmt, astuple(r))) for r in self.rows]
        return "\n".join(lines) + "\n"

    @property
    def all_ok(self):
        return all(r.status == "ok" for r in self.rows)

    def find(self, variant, p, angle, refine):
        key = (variant, p, angle, refine)
        return next((r for r in self.rows if (r.variant, r.p, r.angle, r.refine) == key), None)


def _sweep(cfg, make_mesh, solve_row):
    """Rows over cfg's variants x p_list x angles x refine, sorted.

    make_mesh(refine, order) runs once per pair; solve_row(mesh, mp,
    frame, variant) returns the row's result fields.  Rows with equal
    refine, p, angle, order and reduced terms have the same operator and
    share one solve_row call, as Q1_CG_UI_beta and Q1_MIXED_P0_beta do.  A
    row that fails for any reason keeps its inputs and an error marker; a
    failed solve is not shared, so the next row with its key tries again.
    """
    report = ErrorReport()
    make_mesh = functools.cache(make_mesh)
    solved = {}
    for variant in cfg.variants:
        for p in cfg.p_list:
            for angle in cfg.angles:
                for n in cfg.refine:
                    row = ReportRow(
                        variant=variant.value, p=p, q=cfg.q,
                        nu_t=cfg.nu_t, nu_l=cfg.nu_l, angle=angle, refine=n,
                    )
                    try:
                        ec = mat.EngineeringConstants(cfg.E_t, p, cfg.q, cfg.nu_t, cfg.nu_l)
                        if not mat.check_stability(ec).admissible:
                            raise ValueError("inadmissible material")
                        mp = mat.derive_parameters(ec)
                        frame = mat.FibreFrame.from_angle(angle)
                        mesh = make_mesh(n, variant.order)
                        key = (n, variant.order, variant.reduced, p, angle)
                        if key not in solved:
                            solved[key] = solve_row(mesh, mp, frame, variant)
                        row = replace(
                            row, h=mesh.h, dofs=2 * mesh.n_nodes, **solved[key]
                        )
                    except Exception as err:  # noqa: BLE001 - per-row error marker
                        row = replace(row, status=f"error:{type(err).__name__}")
                    report.rows.append(row)
    report.sort()
    return report


def run_cook(cfg):
    """Tip-displacement sweep on the tapered panel: clamped left edge,
    uniform vertical shear on the right edge with resultant cfg.f."""

    def solve_row(mesh, mp, frame, variant):
        edge_len = COOK_CORNERS[2, 1] - COOK_CORNERS[1, 1]
        system = assemble(
            mesh, mp, frame, variant,
            tractions={"right": (0.0, cfg.f / edge_len)},
        )
        apply_dirichlet(system, {"left": (0.0, 0.0)})
        du, dv = solve(system).at_node(mesh.boundary_nodes["tip"][0])
        return {"tip_u": float(du), "tip_v": float(dv)}

    return _sweep(cfg, cook_mesh, solve_row)


def beam_exact(cfg, mp, frame):
    """Closed-form bending solution and its gradient for the beam problem.

    Returns field functions of scalar or array x, y: u_func(x, y) -> (u, v)
    and grad_func(x, y) -> ((du/dx, du/dy), (dv/dx, dv/dy)).
    """
    S = mat.plane_strain_compliance(mp, frame)
    s11, s21, s31 = S[0, 0], S[1, 0], S[2, 0]
    f, H = cfg.f, cfg.H
    c = f / H

    def u_func(x, y):
        u = -2.0 * c * (s11 * x * y + 0.5 * s31 * (y * y - H * H / 4.0))
        v = -c * (s21 * (y * y - H * H / 4.0) - s11 * x * x)
        return u, v

    def grad_func(x, y):
        return (
            (-2.0 * c * s11 * y, -2.0 * c * (s11 * x + s31 * y)),
            (2.0 * c * s11 * x, -2.0 * c * s21 * y),
        )

    return u_func, grad_func


def beam_edge_profile(cfg, mp, frame):
    """Prescribed horizontal displacement g(y) = u(0, y) on the built-in edge x = 0."""
    u_func, _ = beam_exact(cfg, mp, frame)
    return lambda y: u_func(0.0, y)[0]


def run_beam(cfg):
    """Beam bending study with the analytical solution as error reference.

    The horizontal component is prescribed along the whole edge x = 0, the
    vertical component is pinned at the bottom-left corner, and the edge
    x = L carries the linearly varying horizontal traction.
    """

    def bottom_node(mesh, x):
        return int(np.argmin(np.abs(mesh.nodes - (x, -cfg.H / 2)).sum(axis=1)))

    def solve_row(mesh, mp, frame, variant):
        u_func, grad_func = beam_exact(cfg, mp, frame)
        c = 2.0 * cfg.f / cfg.H
        system = assemble(
            mesh, mp, frame, variant,
            tractions={"right": lambda x, y: (-c * y, 0.0)},
        )
        apply_dirichlet(
            system,
            {"left": lambda x, y: (u_func(x, y)[0], None)},
            node_constraints=[(bottom_node(mesh, 0.0), 1, 0.0)],
        )
        sol = solve(system)
        h1, l2 = h1_error(sol, u_func, grad_func, relative=True)
        du, dv = sol.at_node(bottom_node(mesh, cfg.L))
        return {
            "tip_u": float(du), "tip_v": float(dv),
            "h1_error": float(h1), "l2_error": float(l2),
        }

    def make_mesh(nx, order):
        return rectangle_mesh(cfg.L, cfg.H, nx, max(1, nx // 5), order)

    report = _sweep(cfg, make_mesh, solve_row)
    report.attach_rates()
    return report


@dataclass(frozen=True)
class LockingRow:
    variant: str
    p: float
    angle: float
    refine: int
    ratio: float | None
    locked: bool


def locking_diagnostic(report, reference_variant, threshold=0.9):
    """Ratio of each row's vertical tip displacement to the reference variant's.

    Rows whose ratio falls below the threshold are flagged as locked.
    """
    ref_name = reference_variant.value
    refs = {
        (r.p, r.angle, r.refine): r
        for r in report.rows
        if r.variant == ref_name and r.status == "ok"
    }
    out = []
    for r in report.rows:
        if r.status != "ok":
            continue
        key = (r.p, r.angle, r.refine)
        if key not in refs:
            raise MissingReference(f"no {ref_name} row for (p, angle, refine) = {key}")
        ref_tip = refs[key].tip_v
        ratio = r.tip_v / ref_tip if ref_tip != 0.0 else None
        locked = ratio is not None and ratio < threshold
        out.append(LockingRow(r.variant, r.p, r.angle, r.refine, ratio, locked))
    return out
