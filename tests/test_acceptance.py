"""End-to-end acceptance gates.

Each test records exactly one PASS/FAIL line, echoed in a terminal summary
section, so a scan of the output shows the verdict per criterion.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import conftest

from tifem import (
    BeamConfig,
    CookConfig,
    EngineeringConstants,
    FibreFrame,
    FormulationVariant,
    compliance_matrix_e3,
    cook_mesh,
    derive_parameters,
    element_stiffness,
    error_bound_constant,
    p0_projected_term,
    run_beam,
    run_cook,
    stiffness_matrix_e3,
)
from tifem.cli import main as cli_main
from conftest import one_point_oracle, random_parallelogram, random_quad, sample_admissible

V = FormulationVariant
PI4 = math.pi / 4
PI3 = math.pi / 3


def verdict(tag, ok, desc):
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {desc}"
    conftest.acceptance_lines.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def acc_rng():
    return np.random.default_rng(20240824)


@pytest.fixture(scope="module")
def beam_report():
    cfg = BeamConfig(
        p_list=(1.0001, 3.0, 1e4), angles=(PI4,), refine=(5, 10, 20, 40)
    )
    return run_beam(cfg)


@pytest.fixture(scope="module")
def cook_report():
    cfg = CookConfig(
        p_list=(1.0001, 1e5), angles=(PI3,), refine=(32,),
        variants=(V.Q1_CG, V.Q2_CG, V.Q1_CG_UI_lambda, V.Q1_CG_UI_betalambda),
    )
    return run_cook(cfg)


PANEL_LADDER = (16, 32, 64)


@pytest.fixture(scope="module")
def q2_panel_ladder(cook_report):
    """Q2_CG tip_v on the panel at n = 16, 32, 64 for each gated p.

    The n=32 rows come from cook_report; n=16 and n=64 are solved here.
    """
    cfg = CookConfig(
        p_list=(1.0001, 1e5), angles=(PI3,), refine=(16, 64), variants=(V.Q2_CG,)
    )
    extra = run_cook(cfg)
    ladders = {}
    for p in cfg.p_list:
        rows = [
            (cook_report if n == 32 else extra).find("Q2_CG", p, PI3, n)
            for n in PANEL_LADDER
        ]
        assert all(r is not None and r.status == "ok" for r in rows)
        ladders[p] = tuple(r.tip_v for r in rows)
    return ladders


def panel_reference(tag, regime, ladder):
    """Richardson limit of a Q2 tip_v ladder (h halved per step), with the text
    that explains it.

    The fully integrated Q2 element also locks as the material limit is
    approached, so Q2 at a single mesh is not a converged reference. The
    extrapolation only means something for a ladder that rises with
    contracting steps (0 < d2 < d1); any other ladder fails the gate.
    """
    q2 = "Q2 n=" + "/".join(map(str, PANEL_LADDER)) + " tip_v " + "/".join(
        f"{v:.4f}" for v in ladder
    )
    d1 = ladder[1] - ladder[0]
    d2 = ladder[2] - ladder[1]
    if not 0.0 < d2 < d1:
        verdict(tag, False, f"{regime} panel: {q2} does not rise with contracting steps")
    ref = ladder[2] + d2 * d2 / (d1 - d2)
    return ref, f"{q2} -> Richardson limit {ref:.4f} (order {math.log2(d1 / d2):.2f})"


def beam_ladder(report, variant, p):
    rows = [report.find(variant.value, p, PI4, n) for n in (5, 10, 20, 40)]
    assert all(r is not None and r.status == "ok" for r in rows)
    return rows


def ladder_slope(rows):
    return math.log(rows[0].h1_error / rows[-1].h1_error) / math.log(
        rows[0].h / rows[-1].h
    )


def test_criterion_1_isotropic_reduction():
    ok = True
    for E_t in (1.0, 250.0):
        for nu in (0.0, 0.3, 0.49995):
            mp = derive_parameters(EngineeringConstants(E_t, 1.0, 1.0, nu, nu))
            lam_ref = E_t * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
            ok &= abs(mp.alpha) < 1e-12 * E_t
            ok &= abs(mp.beta) < 1e-12 * E_t
            ok &= abs(mp.gamma) < 1e-12 * E_t
            if lam_ref != 0.0:
                ok &= abs(mp.lam - lam_ref) < 1e-12 * abs(lam_ref)
            else:
                ok &= abs(mp.lam) < 1e-12 * E_t
    verdict(1, ok, "isotropic reduction of derived parameters")


def test_criterion_2_stiffness_compliance_roundtrip(acc_rng):
    worst = 0.0
    for _ in range(200):
        ec = sample_admissible(acc_rng)
        C = stiffness_matrix_e3(derive_parameters(ec))
        S = compliance_matrix_e3(ec)
        worst = max(worst, float(np.abs(C @ S - np.eye(6)).max()))
    verdict(2, worst < 1e-10, f"6x6 stiffness-compliance round trip (max dev {worst:.2e})")


def test_criterion_3_stability_region(tmp_path):
    out = tmp_path / "stability.csv"
    code = cli_main(
        [
            "stability", "--p-min", "0", "--p-max", "5", "--p-steps", "200",
            "--nu-min", "-1", "--nu-max", "1", "--nu-steps", "200",
            "--out", str(out),
        ]
    )
    lines = out.read_text().splitlines()[1:]
    mismatches = 0
    for line in lines:
        p_s, nu_s, adm_s, _ = line.split(",", 3)
        p, nu = float(p_s), float(nu_s)
        # direct evaluation of the five admissibility inequalities with
        # q = 1, nu_l = nu_t = nu, E_t = 1
        mu_t_pos = nu > -1.0
        conds = (
            p > 0.0,
            mu_t_pos,  # mu_l = mu_t > 0
            nu > -1.0,
            (2.0 * nu + 1.0) * p - (2.0 * nu + 1.0) > 0.0,
            (1.0 - nu) * p - 2.0 * nu * nu > 0.0,
        )
        if int(all(conds)) != int(adm_s):
            mismatches += 1
    ok = code == 0 and len(lines) == 200 * 200 and mismatches == 0
    verdict(3, ok, f"stability scan vs direct inequalities ({mismatches} mismatches)")


def test_criterion_4_uniaxial_relations(acc_rng):
    ok = True
    for _ in range(50):
        ec = sample_admissible(acc_rng)
        S = compliance_matrix_e3(ec)
        eps = S @ np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        ok &= abs(eps[0] + ec.nu_l * eps[2]) < 1e-10 * abs(eps[2])
        ok &= abs(eps[1] + ec.nu_l * eps[2]) < 1e-10 * abs(eps[2])
        eps = S @ np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        ok &= abs(eps[2] + ec.nu_l * (ec.E_t / ec.E_l) * eps[0]) < 1e-10 * abs(eps[0])
    verdict(4, ok, "uniaxial compliance relations for 50 random materials")


def test_criterion_5_mixed_equivalence(acc_rng):
    ok = True
    for _ in range(20):
        ec = sample_admissible(acc_rng)
        mp = derive_parameters(ec)
        frame = FibreFrame.from_angle(acc_rng.uniform(0.0, math.pi))
        coords = random_parallelogram(acc_rng)
        K_ui = element_stiffness(coords, mp, frame, V.Q1_CG_UI_beta)
        K_mx = element_stiffness(coords, mp, frame, V.Q1_MIXED_P0_beta)
        ok &= np.abs(K_ui - K_mx).max() <= 1e-12 * np.abs(K_ui).max()
        K_oracle = mp.lam * one_point_oracle(coords, np.array([1.0, 1.0, 0.0]))
        K = p0_projected_term(coords, mp.lam, "volumetric", frame)
        ok &= np.abs(K - K_oracle).max() <= 1e-12 * max(np.abs(K).max(), 1.0)
    # general convex quads, then every element of the Cook mesh batched; the
    # one-point rule is also written out, so the gate does not rest on the
    # kernel building both variants from one term
    cook = cook_mesh(16, 1)
    for coords in [random_quad(acc_rng) for _ in range(20)] + [cook.nodes[cook.elements]]:
        mp = derive_parameters(sample_admissible(acc_rng))
        frame = FibreFrame.from_angle(acc_rng.uniform(0.0, math.pi))
        a1, a2 = frame.vec
        K_ui = element_stiffness(coords, mp, frame, V.Q1_CG_UI_beta)
        K_mx = element_stiffness(coords, mp, frame, V.Q1_MIXED_P0_beta)
        K_oracle = element_stiffness(coords, replace(mp, beta=0.0), frame, V.Q1_CG)
        K_oracle = K_oracle + mp.beta * one_point_oracle(
            coords, np.array([a1 * a1, a2 * a2, a1 * a2])
        )
        scale = np.abs(K_ui).max(axis=(-2, -1), keepdims=True)
        ok &= bool(np.all(np.abs(K_ui - K_mx) <= 1e-12 * scale))
        ok &= bool(np.all(np.abs(K_oracle - K_mx) <= 1e-12 * scale))
        quads = coords.reshape(-1, 4, 2)
        K_lam = mp.lam * one_point_oracle(quads, np.array([1.0, 1.0, 0.0]))
        for quad, K_oracle in zip(quads, K_lam):
            K = p0_projected_term(quad, mp.lam, "volumetric", frame)
            ok &= np.abs(K - K_oracle).max() <= 1e-12 * max(np.abs(K).max(), 1.0)
    verdict(5, ok, "mixed Q1-P0 equals selectively under-integrated form")


def test_criterion_6_beam_exactness():
    cfg = BeamConfig(
        p_list=(1.0001, 3.0, 1e4),
        angles=(math.pi / 4, math.pi / 2, 3 * math.pi / 4),
        refine=(5, 10),
        variants=(V.Q2_CG,),
    )
    report = run_beam(cfg)
    worst = max(r.h1_error for r in report.rows)
    ok = report.all_ok and worst < 1e-8
    verdict(6, ok, f"Q2 reproduces the bending solution (max rel H1 {worst:.2e})")


def test_criterion_7a_volumetric_locking_rates(beam_report):
    ui = beam_ladder(beam_report, V.Q1_CG_UI_lambda, 1.0001)
    cg = beam_ladder(beam_report, V.Q1_CG, 1.0001)
    slope = ladder_slope(ui)
    finest = cg[-1].rate
    ok = slope >= 1.0 and finest < 0.5
    verdict(
        "7a", ok,
        f"near-incompressible beam: UI-volumetric slope {slope:.2f} >= 1, "
        f"conforming finest-pair rate {finest:.2f} < 0.5",
    )


def test_criterion_7b_moderate_p_convergence(beam_report):
    ok = True
    slopes = {}
    for variant in V:
        rows = beam_ladder(beam_report, variant, 3.0)
        errs = [r.h1_error for r in rows]
        if variant is V.Q2_CG:
            # exact-representation regime: errors sit at roundoff level
            ok &= max(errs) < 1e-8
            continue
        ok &= all(a > b for a, b in zip(errs, errs[1:]))
        slopes[variant.value] = ladder_slope(rows)
        ok &= slopes[variant.value] >= 1.0
    detail = ", ".join(f"{k} {v:.2f}" for k, v in slopes.items())
    verdict("7b", ok, f"moderate-p beam: monotone errors, slopes >= 1 ({detail})")


def test_criterion_7c_extensional_locking_rates(beam_report):
    ui_b = beam_ladder(beam_report, V.Q1_CG_UI_beta, 1e4)
    ui_bl = beam_ladder(beam_report, V.Q1_CG_UI_betalambda, 1e4)
    cg = beam_ladder(beam_report, V.Q1_CG, 1e4)
    s_b, s_bl = ladder_slope(ui_b), ladder_slope(ui_bl)
    finest = cg[-1].rate
    ok = s_b >= 1.0 and s_bl >= 1.0 and finest < 0.5
    verdict(
        "7c", ok,
        f"near-inextensible beam: UI-extensional slopes {s_b:.2f}/{s_bl:.2f} >= 1, "
        f"conforming finest-pair rate {finest:.2f} < 0.5",
    )


def test_criterion_7d_panel_volumetric_locking(cook_report, q2_panel_ladder):
    regime = "near-incompressible"
    ref, ref_desc = panel_reference("7d", regime, q2_panel_ladder[1.0001])
    ui = cook_report.find("Q1_CG_UI_lambda", 1.0001, PI3, 32)
    cg = cook_report.find("Q1_CG", 1.0001, PI3, 32)
    r_ui = ui.tip_v / ref
    r_cg = cg.tip_v / ref
    ok = abs(r_ui - 1.0) <= 0.05 and r_cg < 0.9
    verdict(
        "7d", ok,
        f"{regime} panel: UI-volumetric tip ratio {r_ui:.4f}, "
        f"conforming tip ratio {r_cg:.4f}; {ref_desc}",
    )


def test_criterion_7e_panel_extensional_locking(cook_report, q2_panel_ladder):
    regime = "near-inextensible"
    ref, ref_desc = panel_reference("7e", regime, q2_panel_ladder[1e5])
    ui = cook_report.find("Q1_CG_UI_betalambda", 1e5, PI3, 32)
    cg = cook_report.find("Q1_CG", 1e5, PI3, 32)
    r_ui = ui.tip_v / ref
    r_cg = cg.tip_v / ref
    ok = abs(r_ui - 1.0) <= 0.05 and r_cg < 0.9
    verdict(
        "7e", ok,
        f"{regime} panel: UI-both tip ratio {r_ui:.4f}, "
        f"conforming tip ratio {r_cg:.4f}; {ref_desc}",
    )


def test_criterion_8_error_bound_constant():
    def c1(p):
        ec = EngineeringConstants(1.0, p, 1.0, 0.49995, 0.49995)
        return error_bound_constant(derive_parameters(ec))

    ok = c1(2.0) < c1(1.01) and c1(1e6) > c1(10.0)
    verdict(8, ok, "error-bound constant dips and then grows with p")


BOUND_LADDER = (1.0001, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0, 1e3, 1e4)


def test_criterion_8b_error_bound_predicts_locking():
    # the a-priori constant C(p) against the conforming beam's computed error:
    # both least at the same p (within one ladder step), the error monotone
    # in C on each side of C's least, and the nx = 20 -> 40 rate >= 1 where
    # C <= 30 (moderate anisotropy) and < 0.5 where C >= 3000 (locking)
    cfg = BeamConfig(p_list=BOUND_LADDER, refine=(20, 40), variants=(V.Q1_CG,))
    report = run_beam(cfg)
    assert report.all_ok
    C = [error_bound_constant(derive_parameters(
        EngineeringConstants(cfg.E_t, p, cfg.q, cfg.nu_t, cfg.nu_l))) for p in BOUND_LADDER]
    least = int(np.argmin(C))
    sides = (range(least, -1, -1), range(least, len(C)))
    ok = all(C[i] < C[j] for side in sides for i, j in zip(side, side[1:]))
    detail = []
    for n in cfg.refine:
        err = [report.find("Q1_CG", p, PI4, n).h1_error for p in BOUND_LADDER]
        ok &= abs(int(np.argmin(err)) - least) <= 1
        ok &= all(err[i] < err[j] for side in sides for i, j in zip(side, side[1:]))
        detail.append(f"nx={n} least error at p={BOUND_LADDER[int(np.argmin(err))]:g}")
    rates = [report.find("Q1_CG", p, PI4, 40).rate for p in BOUND_LADDER]
    moderate = [r for c, r in zip(C, rates) if c <= 30.0]
    locked = [r for c, r in zip(C, rates) if c >= 3000.0]
    ok &= min(moderate) >= 1.0 and max(locked) < 0.5
    verdict(
        "8b", ok,
        f"error-bound constant least at p={BOUND_LADDER[least]:g}, {', '.join(detail)}; "
        f"Q1_CG rate {min(moderate):.2f} >= 1 where C <= 30, {max(locked):.2f} < 0.5 where C >= 3000",
    )


def test_criterion_9_cli_determinism(tmp_path):
    ok = True
    runs = {
        "beam": ["beam", "--p", "3,10000", "--variants", "Q1_CG,Q1_CG_UI_beta",
                 "--refine", "5,10"],
        "cook": ["cook", "--p", "2", "--variants", "Q1_CG", "--refine", "4"],
        "material": ["material", "--p", "1.5,2,5", "--nu-t", "0.3", "--nu-l", "0.3"],
        "stability": ["stability", "--p-steps", "20", "--nu-steps", "20"],
    }
    for name, argv in runs.items():
        outs = []
        for i in (0, 1):
            path = tmp_path / f"{name}_{i}.csv"
            ok &= cli_main(argv + ["--out", str(path)]) == 0
            outs.append(path.read_bytes())
        ok &= outs[0] == outs[1]
    verdict(9, ok, "byte-identical CSV across repeated CLI runs")
