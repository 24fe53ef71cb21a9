import math
from dataclasses import replace

import numpy as np
import pytest

from tifem import (
    BeamConfig,
    CookConfig,
    CSV_HEADER,
    DEFAULT_ANGLES,
    ErrorReport,
    FibreFrame,
    FormulationVariant,
    MissingReference,
    ReportRow,
    SingularSystem,
    beam_edge_profile,
    beam_exact,
    derive_parameters,
    locking_diagnostic,
    plane_strain_stiffness,
    run_beam,
    run_cook,
    solve,
)
from tifem import EngineeringConstants

V = FormulationVariant


def beam_material(cfg, p):
    ec = EngineeringConstants(cfg.E_t, p, cfg.q, cfg.nu_t, cfg.nu_l)
    return derive_parameters(ec)


class TestBeamExact:
    def test_boundary_conditions(self):
        cfg = BeamConfig()
        mp = beam_material(cfg, 3.0)
        frame = FibreFrame.from_angle(math.pi / 4)
        u_func, _ = beam_exact(cfg, mp, frame)
        g = beam_edge_profile(cfg, mp, frame)
        # pinned vertical displacement at the bottom-left corner
        _, v0 = u_func(0.0, -cfg.H / 2.0)
        assert v0 == pytest.approx(0.0, abs=1e-14)
        # prescribed horizontal profile along x = 0
        for y in np.linspace(-cfg.H / 2, cfg.H / 2, 7):
            u, _ = u_func(0.0, y)
            assert u == pytest.approx(g(y), abs=1e-14)

    def test_gradient_matches_finite_differences(self):
        cfg = BeamConfig()
        mp = beam_material(cfg, 1.0001)
        frame = FibreFrame.from_angle(math.pi / 4)
        u_func, grad_func = beam_exact(cfg, mp, frame)
        step = 1e-6
        for x, y in [(1.0, 0.3), (5.0, -0.7), (9.0, 0.9)]:
            G = grad_func(x, y)
            fd = np.empty((2, 2))
            for j, (dx, dy) in enumerate([(step, 0.0), (0.0, step)]):
                hi = np.array(u_func(x + dx, y + dy))
                lo = np.array(u_func(x - dx, y - dy))
                fd[:, j] = (hi - lo) / (2 * step)
            assert np.abs(G - fd).max() < 1e-5 * max(1.0, np.abs(G).max())

    def test_equilibrium_and_stress_state(self):
        # the displacement field must produce the pure-bending stress
        # sigma = (-2f/H * y, 0, 0), which is divergence-free
        cfg = BeamConfig()
        mp = beam_material(cfg, 3.0)
        frame = FibreFrame.from_angle(math.pi / 4)
        _, grad_func = beam_exact(cfg, mp, frame)
        C = plane_strain_stiffness(mp, frame)
        for x, y in [(2.0, 0.5), (7.0, -0.4)]:
            G = np.array(grad_func(x, y))
            eps = np.array([G[0, 0], G[1, 1], G[0, 1] + G[1, 0]])
            sigma = C @ eps
            expected = np.array([-2.0 * cfg.f / cfg.H * y, 0.0, 0.0])
            scale = np.abs(expected).max() + cfg.f
            assert np.abs(sigma - expected).max() < 1e-9 * scale

    def test_array_evaluation_matches_scalar(self, rng):
        # one call on an (E, q) grid gives the same bits as one call per point
        cfg = BeamConfig()
        mp = beam_material(cfg, 1.0001)
        u_func, grad_func = beam_exact(cfg, mp, FibreFrame.from_angle(math.pi / 3))
        x = rng.uniform(0.0, cfg.L, (5, 9))
        y = rng.uniform(-cfg.H / 2, cfg.H / 2, (5, 9))
        U, G = np.array(u_func(x, y)), np.array(grad_func(x, y))
        assert U.shape == (2, 5, 9) and G.shape == (2, 2, 5, 9)
        for e, q in np.ndindex(x.shape):
            xi, yi = float(x[e, q]), float(y[e, q])
            assert np.array_equal(U[:, e, q], np.array(u_func(xi, yi)))
            assert np.array_equal(G[:, :, e, q], np.array(grad_func(xi, yi)))


@pytest.fixture(scope="module")
def q2_report():
    cfg = BeamConfig(p_list=(3.0,), refine=(5, 10), variants=(V.Q2_CG,))
    return run_beam(cfg)


@pytest.fixture(scope="module")
def small_report():
    cfg = CookConfig(p_list=(2.0, 1e4), refine=(4, 8), variants=(V.Q1_CG, V.Q2_CG))
    return run_cook(cfg)


class TestRunBeam:
    def test_q2_reproduces_exact_solution(self, q2_report):
        assert q2_report.all_ok
        for row in q2_report.rows:
            assert row.h1_error < 1e-8
            assert row.l2_error < 1e-8

    def test_angle_zero_equals_pi(self):
        base = dict(p_list=(3.0,), refine=(5,), variants=(V.Q1_CG,))
        r0 = run_beam(BeamConfig(angles=(0.0,), **base)).rows[0]
        rpi = run_beam(BeamConfig(angles=(math.pi,), **base)).rows[0]
        assert rpi.tip_v == pytest.approx(r0.tip_v, rel=1e-10)
        assert rpi.h1_error == pytest.approx(r0.h1_error, rel=1e-8)

    def test_inadmissible_material_marks_row(self):
        cfg = BeamConfig(p_list=(0.5,), refine=(5,), variants=(V.Q1_CG,))
        report = run_beam(cfg)
        assert not report.all_ok
        assert report.rows[0].status == "error:ValueError"
        assert report.rows[0].h1_error is None

    def test_q1_errors_decrease_with_refinement(self):
        cfg = BeamConfig(p_list=(3.0,), refine=(5, 10, 20), variants=(V.Q1_CG,))
        rows = run_beam(cfg).rows
        errs = [r.h1_error for r in rows]
        assert errs[0] > errs[1] > errs[2]
        assert rows[0].rate is None
        assert rows[1].rate is not None and rows[2].rate is not None


class TestRunCook:
    def test_all_rows_present(self, small_report):
        assert len(small_report.rows) == 2 * 2 * 1 * 2
        assert small_report.all_ok

    def test_tip_monotone_under_refinement(self, small_report):
        for variant in ("Q1_CG", "Q2_CG"):
            for p in (2.0, 1e4):
                coarse = small_report.find(variant, p, math.pi / 3, 4)
                fine = small_report.find(variant, p, math.pi / 3, 8)
                assert fine.tip_v > coarse.tip_v > 0.0

    def test_q2_softer_than_q1(self, small_report):
        # conforming refinement from below: Q2 is closer to the true
        # solution, hence larger tip deflection, dramatically so at high p
        for p in (2.0, 1e4):
            q1 = small_report.find("Q1_CG", p, math.pi / 3, 8)
            q2 = small_report.find("Q2_CG", p, math.pi / 3, 8)
            assert q2.tip_v > q1.tip_v
        assert small_report.find("Q2_CG", 1e4, math.pi / 3, 8).tip_v > 2.0 * (
            small_report.find("Q1_CG", 1e4, math.pi / 3, 8).tip_v
        )

    def test_determinism(self):
        cfg = CookConfig(p_list=(2.0,), refine=(4,), variants=(V.Q1_CG,))
        assert run_cook(cfg).to_csv() == run_cook(cfg).to_csv()


class TestSharedSolve:
    """Q1_MIXED_P0_beta has Q1_CG_UI_beta's operator, so its rows take that
    variant's solve; every other row solves its own."""

    def test_mixed_rows_equal_the_unshared_sweep(self):
        shared = [r for r in run_cook(CookConfig()).rows if r.variant == "Q1_MIXED_P0_beta"]
        alone = run_cook(CookConfig(variants=(V.Q1_MIXED_P0_beta,))).rows
        assert len(shared) == len(alone) == len(CookConfig().p_list)
        assert shared == alone

    def test_every_row_equals_its_one_row_sweep(self):
        # two values of each key field, so a key that merged distinct
        # operators shows; a one-row sweep has nothing to share
        cfg = CookConfig(p_list=(2.0, 1e4), angles=(0.0, math.pi / 3), refine=(2, 4))
        for row in run_cook(cfg).rows:
            one = replace(cfg, variants=(V(row.variant),), p_list=(row.p,),
                          angles=(row.angle,), refine=(row.refine,))
            assert run_cook(one).rows == [row]

    @pytest.mark.parametrize("run, cfg, rows, calls", [
        (run_cook, CookConfig(), 36, 30),
        (run_beam, BeamConfig(), 72, 60),
    ], ids=["cook", "beam"])
    def test_one_solve_per_operator(self, run, cfg, rows, calls, monkeypatch):
        count = []

        def counting_solve(system):
            count.append(system.variant)
            return solve(system)

        monkeypatch.setattr("tifem.benchmarks.solve", counting_solve)
        report = run(cfg)
        assert report.all_ok and len(report.rows) == rows
        assert len(count) == calls
        assert V.Q1_MIXED_P0_beta not in count

    def test_failed_solve_is_not_shared(self, monkeypatch):
        count = []

        def failing_solve(system):
            count.append(system.variant)
            raise SingularSystem("no solution")

        monkeypatch.setattr("tifem.benchmarks.solve", failing_solve)
        cfg = CookConfig(p_list=(2.0,), refine=(2,),
                         variants=(V.Q1_CG_UI_beta, V.Q1_MIXED_P0_beta))
        report = run_cook(cfg)
        assert [r.status for r in report.rows] == ["error:SingularSystem"] * 2
        assert count == [V.Q1_CG_UI_beta, V.Q1_MIXED_P0_beta]


class TestErrorReport:
    def make_rows(self, errors, hs):
        return [
            ReportRow(
                variant="Q1_CG", p=2.0, q=1.0, nu_t=0.3, nu_l=0.3,
                angle=0.0, refine=i, h=h, h1_error=e,
            )
            for i, (e, h) in enumerate(zip(errors, hs))
        ]

    def test_attach_rates_values(self):
        report = ErrorReport(self.make_rows([1.0, 0.25, 0.0625], [1.0, 0.5, 0.25]))
        report.attach_rates()
        assert report.rows[0].rate is None
        assert report.rows[1].rate == pytest.approx(2.0)
        assert report.rows[2].rate == pytest.approx(2.0)

    def test_attach_rates_rescaling_invariance(self):
        errors, hs = [1.0, 0.31, 0.09], [1.0, 0.5, 0.25]
        r1 = ErrorReport(self.make_rows(errors, hs))
        r2 = ErrorReport(self.make_rows([7.0 * e for e in errors], hs))
        r1.attach_rates()
        r2.attach_rates()
        for a, b in zip(r1.rows[1:], r2.rows[1:]):
            assert b.rate == pytest.approx(a.rate, rel=1e-12)

    def test_csv_header_and_shape(self):
        report = ErrorReport(self.make_rows([1.0, 0.5], [1.0, 0.5]))
        lines = report.to_csv().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert all(len(ln.split(",")) == 15 for ln in lines)

    def test_csv_full_precision(self):
        row = ReportRow(
            variant="Q1_CG", p=2.0, q=1.0, nu_t=0.3, nu_l=0.3,
            angle=math.pi / 3, refine=1, tip_v=1.0 / 3.0,
        )
        csv = ErrorReport([row]).to_csv()
        assert f"{math.pi / 3:.17g}" in csv
        assert f"{1.0 / 3.0:.17g}" in csv

    def test_sort_order(self):
        rows = [
            ReportRow("Q2_CG", 2.0, 1.0, 0.3, 0.3, 0.0, 4),
            ReportRow("Q1_CG", 5.0, 1.0, 0.3, 0.3, 0.0, 8),
            ReportRow("Q1_CG", 2.0, 1.0, 0.3, 0.3, 0.0, 8),
            ReportRow("Q1_CG", 2.0, 1.0, 0.3, 0.3, 0.0, 4),
        ]
        report = ErrorReport(rows)
        report.sort()
        keys = [(r.variant, r.p, r.refine) for r in report.rows]
        assert keys == sorted(keys)


class TestLockingDiagnostic:
    def make_report(self):
        def row(variant, tip_v, status="ok"):
            return ReportRow(
                variant=variant, p=1e4, q=1.0, nu_t=0.49995, nu_l=0.49995,
                angle=math.pi / 3, refine=16, tip_v=tip_v, status=status,
            )

        return ErrorReport(
            [row("Q2_CG", 3.0), row("Q1_CG", 0.1), row("Q1_CG_UI_beta", 2.9)]
        )

    def test_flags_locked_variant(self):
        rows = locking_diagnostic(self.make_report(), V.Q2_CG)
        by_variant = {r.variant: r for r in rows}
        assert by_variant["Q2_CG"].ratio == pytest.approx(1.0)
        assert not by_variant["Q2_CG"].locked
        assert by_variant["Q1_CG"].locked
        assert not by_variant["Q1_CG_UI_beta"].locked

    def test_threshold_is_respected(self):
        rows = locking_diagnostic(self.make_report(), V.Q2_CG, threshold=0.99)
        by_variant = {r.variant: r for r in rows}
        assert by_variant["Q1_CG_UI_beta"].locked

    def test_missing_reference_raises(self):
        report = self.make_report()
        with pytest.raises(MissingReference):
            locking_diagnostic(report, V.Q1_MIXED_P0_beta)

    def test_empty_report(self):
        assert locking_diagnostic(ErrorReport([]), V.Q2_CG) == []

    def test_errored_rows_skipped(self):
        report = self.make_report()
        report.rows.append(
            ReportRow(
                variant="Q1_CG_UI_lambda", p=1e4, q=1.0, nu_t=0.49995,
                nu_l=0.49995, angle=math.pi / 3, refine=16,
                status="error:ValueError",
            )
        )
        rows = locking_diagnostic(report, V.Q2_CG)
        assert all(r.variant != "Q1_CG_UI_lambda" for r in rows)


class TestDefaults:
    def test_default_angles(self):
        assert len(DEFAULT_ANGLES) == 11
        assert DEFAULT_ANGLES[0] == 0.0
        assert DEFAULT_ANGLES[-1] == math.pi
        assert all(b > a for a, b in zip(DEFAULT_ANGLES, DEFAULT_ANGLES[1:]))

    def test_default_configs(self):
        cook, beam = CookConfig(), BeamConfig()
        assert cook.nu_t == 0.49995 and cook.E_t == 250.0 and cook.f == 100.0
        assert beam.L == 10.0 and beam.H == 2.0 and beam.f == 3000.0
        assert beam.refine == (5, 10, 20, 40)
