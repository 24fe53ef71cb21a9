import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import tifem
import tifem.benchmarks
from tifem.cli import (
    _fmt,
    build_parser,
    main,
    parse_angle,
    parse_angles,
    parse_variants,
    stability_grid,
)
from tifem.benchmarks import CSV_HEADER, DEFAULT_ANGLES, BeamConfig, CookConfig
from tifem.material import ALL_CONDITIONS, EngineeringConstants, check_stability
from tifem.assembly import _at_points, _error_rule
from tifem.elements import _interpolate


class TestParsing:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("pi", math.pi),
            ("pi/3", math.pi / 3),
            ("3pi/8", 3 * math.pi / 8),
            ("2pi", 2 * math.pi),
            ("0", 0.0),
            ("1.5707963", 1.5707963),
            (" pi / 4 ", math.pi / 4),
        ],
    )
    def test_parse_angle(self, token, expected):
        assert parse_angle(token) == pytest.approx(expected, abs=1e-15)

    def test_parse_angle_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_angle("pie/3")

    def test_parse_angles_default(self):
        assert parse_angles(None) == DEFAULT_ANGLES
        assert parse_angles("") == DEFAULT_ANGLES

    def test_parse_angles_list(self):
        angles = parse_angles("0,pi/6,pi/2")
        assert angles == pytest.approx((0.0, math.pi / 6, math.pi / 2))

    def test_parse_variants(self):
        variants = parse_variants("Q1_CG,Q2_CG")
        assert [v.value for v in variants] == ["Q1_CG", "Q2_CG"]
        assert len(parse_variants("")) == 6

    def test_parse_variants_unknown(self):
        with pytest.raises(ValueError):
            parse_variants("Q3_CG")


class TestStabilityCommand:
    def test_grid_is_open_interval(self):
        ps, nus = stability_grid(0.0, 1.0, 4, -1.0, 1.0, 4)
        assert min(ps) > 0.0 and max(ps) < 1.0
        assert min(nus) > -1.0 and max(nus) < 1.0
        assert len(ps) == len(nus) == 4

    def test_known_points(self, capsys):
        # one cell centred on (p, nu): midpoint sampling makes the single
        # cell's midpoint the evaluation point
        def verdict_at(p, nu):
            code = main(
                [
                    "stability",
                    "--p-min", str(p - 0.5), "--p-max", str(p + 0.5), "--p-steps", "1",
                    "--nu-min", str(nu - 0.05), "--nu-max", str(nu + 0.05),
                    "--nu-steps", "1",
                ]
            )
            assert code == 0
            line = capsys.readouterr().out.splitlines()[1]
            return line.split(",")[2] == "1"

        assert verdict_at(2.0, 0.3)
        assert not verdict_at(1.0, 0.6)  # discriminant condition fails
        assert not verdict_at(0.5, -2.0)  # nu_t bound fails

    def test_nu_t_bound_is_a_verdict(self, capsys):
        # the single nu cell is centred on nu_t = -1
        argv = ["stability", "--nu-min", "-1.5", "--nu-max", "-0.5", "--nu-steps", "1",
                "--p-steps", "2"]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 2
        assert all(r.split(",")[2] == "0" and "nu_t_bound" in r for r in rows)

    def test_overflowing_nu_is_a_verdict(self, capsys):
        # the single nu cell, about 5e199, squares past the float range
        argv = ["stability", "--nu-max", "1e200", "--p-steps", "1", "--nu-steps", "1"]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 1
        assert rows[0].endswith(",0,denominator")

    def test_malformed_grid(self, capsys):
        assert main(["stability", "--p-steps", "0"]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        argv = ["stability", "--p-steps", "10", "--nu-steps", "10"]
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert main(argv + ["--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("steps", [(40, 50), (1, 50), (40, 1)], ids="{0[0]}x{0[1]}".format)
    @pytest.mark.parametrize("q", [0.5, 1.0])
    def test_rows_match_the_per_row_form(self, q, steps, capsys):
        # a single nu cell makes each p value's block a join of one row
        p_steps, nu_steps = steps
        grid = dict(p_min=-1.0, p_max=3.0, p_steps=p_steps, nu_min=-1.5, nu_max=1.0,
                    nu_steps=nu_steps)
        argv = ["stability", f"--q={q}"] + [
            f"--{name.replace('_', '-')}={value}" for name, value in grid.items()
        ]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()
        expected = ["p,nu,admissible,violated"]
        ps, nus = stability_grid(**grid)
        for p in ps:
            for nu in nus:
                verdict = check_stability(EngineeringConstants(1.0, p, q, nu, nu))
                expected.append(
                    f"{_fmt(p)},{_fmt(nu)},{int(verdict.admissible)},"
                    + "|".join(verdict.violated)
                )
        assert rows == expected
        if steps != (40, 50):
            return
        # the full grid crosses every condition's boundary
        violated = {c for row in rows[1:] for c in row.split(",")[3].split("|")}
        assert violated - {""} == set(ALL_CONDITIONS)
        assert ("" in violated) == (q == 1.0)


class TestMaterialCommand:
    def test_isotropic_limit(self, capsys):
        assert main(["material", "--p", "1", "--nu-t", "0.3", "--nu-l", "0.3"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        alpha, beta, gamma = float(row[7]), float(row[8]), float(row[9])
        assert abs(alpha) < 1e-12 and abs(beta) < 1e-12 and gamma == 0.0

    def test_sweep_row_count(self, capsys):
        assert main(["material", "--p", "1.5,2,5", "--nu-t", "0.3", "--nu-l", "0.3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("p,q,nu_t,nu_l,lambda")

    def test_strict_rejects_inadmissible(self, capsys):
        code = main(["material", "--p", "0.5", "--nu-t", "0.3", "--nu-l", "0.3",
                     "--strict"])
        assert code == 3
        assert "inadmissible" in capsys.readouterr().err

    def test_degenerate_denominator(self, capsys):
        code = main(["material", "--p", "1", "--nu-t", "0.5", "--nu-l", "0.5"])
        assert code == 3

    @pytest.mark.parametrize("flag", ["--Et", "--nu-t"])
    def test_material_fault_exits_3(self, flag, capsys):
        # --Et -1 makes mu_t negative; --nu-t -1 zeroes the parameter denominator
        assert main(["material", flag, "-1"]) == 3
        assert capsys.readouterr().err.strip()

    @pytest.mark.parametrize("flag", ["--nu-l", "--p"])
    def test_overflowing_input_exits_3(self, flag, capsys):
        assert main(["material", flag, "1e200"]) == 3
        assert "overflow" in capsys.readouterr().err

    def test_non_strict_flags_inadmissible_row(self, capsys):
        code = main(["material", "--p", "0.5", "--nu-t", "0.3", "--nu-l", "0.3"])
        assert code == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[11] == "0"
        assert row[12] != ""


class TestCookCommand:
    def test_row_cardinality(self, tmp_path):
        out = tmp_path / "cook.csv"
        code = main(
            [
                "cook", "--p", "2,10", "--angles", "pi/3,pi/2",
                "--variants", "Q1_CG,Q2_CG", "--refine", "2", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2 * 2 * 1

    def test_error_rows_exit_code(self, tmp_path):
        out = tmp_path / "cook.csv"
        code = main(
            ["cook", "--p", "0.5", "--variants", "Q1_CG", "--refine", "2",
             "--out", str(out)]
        )
        assert code == 4
        assert "error:ValueError" in out.read_text()

    def test_indefinite_reduced_variants_are_error_rows(self, tmp_path):
        # an admissible material whose reduced variants have negative-energy
        # modes on the panel: their K_ff has negative eigenvalues
        out = tmp_path / "cook.csv"
        code = main(["cook", "--Et", "152.066", "--p", "0.647", "--q", "1.265",
                     "--nu-t", "-0.022", "--nu-l", "-0.546", "--angles", "0",
                     "--refine", "8,16", "--out", str(out)])
        assert code == 4
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        status = {(r[0], int(r[6])): r[14] for r in rows}
        conforming = {"Q1_CG", "Q2_CG"}
        assert {k: s for k, s in status.items() if k[0] not in conforming} == {
            (v, n): "error:IndefiniteSystem"
            for v in ("Q1_CG_UI_lambda", "Q1_CG_UI_beta", "Q1_CG_UI_betalambda",
                      "Q1_MIXED_P0_beta")
            for n in (8, 16)
        }
        tip_v = {(r[0], int(r[6])): float(r[10]) for r in rows if r[0] in conforming}
        assert all(status[k] == "ok" for k in tip_v)
        assert tip_v == pytest.approx({
            ("Q1_CG", 8): 10.74518613945655, ("Q1_CG", 16): 13.810369756886931,
            ("Q2_CG", 8): 15.557625482233075, ("Q2_CG", 16): 15.791026864858894,
        }, rel=1e-9)

    def test_strict_preempts_run(self, tmp_path, capsys):
        code = main(
            ["cook", "--p", "0.5", "--variants", "Q1_CG", "--refine", "2", "--strict"]
        )
        assert code == 2
        assert "inadmissible" in capsys.readouterr().err

    def test_strict_uses_the_commands_Et(self, capsys):
        code = main(["cook", "--Et", "-250", "--strict", "--p", "2", "--refine", "2",
                     "--variants", "Q1_CG"])
        assert code == 2
        assert "inadmissible" in capsys.readouterr().err


class TestBeamCommand:
    def test_q2_high_accuracy(self, tmp_path):
        out = tmp_path / "beam.csv"
        code = main(
            ["beam", "--p", "3", "--variants", "Q2_CG", "--refine", "5",
             "--out", str(out)]
        )
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        h1 = float(row[11])
        assert h1 < 1e-8

    def test_huge_p_is_a_singular_stiffness(self, tmp_path):
        # the exact solution's compliance at p = 1e110 is numerically
        # singular; its cofactor determinant used to overflow, with warnings
        out = tmp_path / "beam.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["beam", "--p", "1e110", "--refine", "5", "--variants", "Q1_CG",
                         "--out", str(out)])
        assert code == 4
        assert out.read_text().splitlines()[1].endswith(",error:SingularStiffness")

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["beam", "--p", "3,10000", "--variants", "Q1_CG,Q1_CG_UI_beta",
                "--refine", "5,10"]
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert main(argv + ["--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_csv_bytes_as_with_np_sum_reductions(self, tmp_path, monkeypatch):
        # h1_error adds the terms of each sum over the components itself,
        # the two of a vector and the four of a gradient, left to right; the
        # default sweep's CSV is the one np.sum over those axes gives
        def h1_error_by_np_sum(solution, exact_u, exact_grad, relative=False):
            mesh = solution.mesh
            vals, dN, wdet, x, y = _error_rule(mesh)
            ue = solution.displacements.reshape(-1, 2).take(mesh.elements, axis=0)
            uh = np.swapaxes(_interpolate(ue, vals), 1, 2)
            Gh = np.swapaxes(ue, 1, 2) @ dN
            Gh = np.swapaxes(Gh.reshape(x.shape[0], 2, -1, 2), 1, 2)
            ux = _at_points(exact_u, x, y, (2,))
            Gx = _at_points(exact_grad, x, y, (2, 2))
            l2_sq = np.sum(wdet * np.sum((uh - ux) ** 2, axis=-1))
            grad_sq = np.sum(wdet * np.sum((Gh - Gx) ** 2, axis=(-2, -1)))
            exact_l2_sq = np.sum(wdet * np.sum(ux**2, axis=-1))
            exact_h1_sq = exact_l2_sq + np.sum(wdet * np.sum(Gx**2, axis=(-2, -1)))
            l2, h1 = np.sqrt(l2_sq), np.sqrt(l2_sq + grad_sq)
            if relative:
                l2 /= max(np.sqrt(exact_l2_sq), 1e-300)
                h1 /= max(np.sqrt(exact_h1_sq), 1e-300)
            return h1, l2

        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert main(["beam", "--out", str(path)]) == 0
            outs.append(path.read_bytes())
            monkeypatch.setattr(tifem.benchmarks, "h1_error", h1_error_by_np_sum)
        assert len(outs[0].splitlines()) == 73
        assert outs[0] == outs[1]

    def test_rate_column_populated(self, tmp_path):
        out = tmp_path / "beam.csv"
        assert main(
            ["beam", "--p", "3", "--variants", "Q1_CG", "--refine", "5,10",
             "--out", str(out)]
        ) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        assert rows[0][13] == ""
        assert float(rows[1][13]) > 0.5


class TestConfigFile:
    def test_config_sets_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": "2", "refine": "2", "variants": "Q1_CG"}))
        out = tmp_path / "cook.csv"
        code = main(["cook", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("Q1_CG,2,")

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": "2", "refine": "2", "variants": "Q1_CG"}))
        out = tmp_path / "cook.csv"
        code = main(["cook", "--config", str(cfg), "--p", "5", "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[1].startswith("Q1_CG,5,")

    def test_unreadable_config(self, capsys):
        assert main(["cook", "--config", "/nonexistent.json"]) == 2
        assert "config" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["cook", "--config", str(cfg)]) == 2

    def test_equals_form(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": "2", "refine": "2", "variants": "Q1_CG"}))
        out = tmp_path / "cook.csv"
        assert main(["cook", f"--config={cfg}", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_top_level_must_be_object(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[2, 3]")
        assert main(["cook", "--config", str(cfg)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_numbers_and_booleans_read_as_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 2, "refine": 2, "nu_t": 0.3, "variants": "Q1_CG",
                                   "strict": False}))
        outs = [tmp_path / "file.csv", tmp_path / "flags.csv"]
        assert main(["cook", "--config", str(cfg), "--out", str(outs[0])]) == 0
        assert main(["cook", "--p", "2", "--refine", "2", "--nu-t", "0.3",
                     "--variants", "Q1_CG", "--out", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        cfg.write_text(json.dumps({"p": 0.5, "refine": 2, "variants": "Q1_CG",
                                   "strict": True}))
        assert main(["cook", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "content,named",
        [({"frob": 1}, "--frob"), ({"p": None}, "'p'"), ({"p": [2, 3]}, "'p'"),
         ({"refin": 2}, "--refin")],
        ids=["unknown-key", "null", "list", "prefix-of-a-flag"],
    )
    def test_bad_entry(self, tmp_path, capsys, content, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        assert main(["cook", "--config", str(cfg)]) == 2
        assert named in capsys.readouterr().err


class TestArgparseErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_bad_float(self, capsys):
        assert main(["cook", "--load", "abc"]) == 2
        capsys.readouterr()

    def test_abbreviated_flag(self, capsys):
        assert main(["cook", "--refin", "2"]) == 2
        assert "--refin" in capsys.readouterr().err

    def test_bad_angle_token(self, capsys):
        assert main(["cook", "--angles", "pie/3", "--p", "2", "--refine", "2",
                     "--variants", "Q1_CG"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["cook", "--load", "nan"],
            ["cook", "--Et=-inf"],
            ["cook", "--p", "2,inf"],
            ["cook", "--angles", "pi/0"],
            ["cook", "--angles", "nan"],
            ["cook", "--refine", "0"],
            ["beam", "--height", "inf"],
            ["beam", "--refine", "5,-1"],
            ["material", "--q", "nan"],
            ["stability", "--p-max", "inf"],
            ["stability", "--nu-min", "nan"],
        ],
        ids=" ".join,
    )
    def test_rejected_at_parse_time(self, argv, capsys):
        assert main(argv) == 2
        assert "error: argument" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, spec", [
        ("--variants", "Q1_CG,Q1_CG"),
        ("--p", "2,2"),
        ("--refine", "1,1"),
        # equal once parsed: pi/4 and 2pi/8 are the same float
        ("--angles", "pi/4,2pi/8"),
    ])
    def test_repeated_list_value_is_rejected(self, flag, spec, tmp_path, capsys):
        # each would write a duplicate row; nothing is written
        out = tmp_path / "out.csv"
        assert main(["cook", flag, spec, "--out", str(out)]) == 2
        assert f"error: argument {flag}" in capsys.readouterr().err
        assert not out.exists()


class TestStrictOnAdmissibleInput:
    @pytest.mark.parametrize("argv", [
        ["material", "--p", "1.5,2,5"],
        ["cook", "--p", "2", "--variants", "Q1_CG", "--refine", "4"],
    ], ids=" ".join)
    def test_same_bytes_as_without_strict(self, argv, tmp_path):
        plain, strict = tmp_path / "plain.csv", tmp_path / "strict.csv"
        assert main(argv + ["--out", str(plain)]) == 0
        assert main(argv + ["--strict", "--out", str(strict)]) == 0
        assert strict.read_bytes() == plain.read_bytes()


class TestUnwritableOut:
    @pytest.mark.parametrize("argv", [
        ["material"],
        ["stability", "--p-steps", "2", "--nu-steps", "2"],
        ["cook", "--p", "2", "--variants", "Q1_CG", "--refine", "2"],
    ], ids=" ".join)
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_exits_2_with_the_message(self, argv, target, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv" if target == "missing-directory" else tmp_path
        assert main(argv + ["--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err

    def test_sweep_does_not_start(self, tmp_path, monkeypatch, capsys):
        calls = []

        def run_cook(cfg):
            calls.append(cfg)
            raise AssertionError("the sweep ran before --out was opened")

        monkeypatch.setattr("tifem.cli.run_cook", run_cook)
        out = tmp_path / "missing" / "x.csv"
        assert main(["cook", "--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err
        assert calls == []

    def test_scan_does_not_start(self, tmp_path, monkeypatch, capsys):
        calls = []

        def counting(ec):
            calls.append(ec)
            return check_stability(ec)

        monkeypatch.setattr("tifem.material.check_stability", counting)
        grid = ["stability", "--p-steps", "2", "--nu-steps", "3", "--out"]
        assert main(grid + [str(tmp_path / "x.csv")]) == 0
        assert len(calls) == 6  # the counter sees every grid point
        calls.clear()
        out = tmp_path / "missing" / "x.csv"
        assert main(grid + [str(out)]) == 2
        assert str(out) in capsys.readouterr().err
        assert calls == []


class TestDefaults:
    @pytest.mark.parametrize("command,config", [("cook", CookConfig), ("beam", BeamConfig)])
    def test_flags_default_to_config(self, command, config):
        args = build_parser().parse_args([command])
        for f in fields(config):
            assert getattr(args, f.name) == getattr(config(), f.name), f.name


def test_startup_loads_no_scipy_sparse(tmp_path):
    # a fresh interpreter: importing the CLI loads no scipy module, not even
    # scipy's own package, and a small run of each command imports nothing
    # more, so no import's time falls inside a command
    script = """
import json, sys
import tifem.cli
loaded = set(sys.modules)
for argv in (["cook", "--p", "2", "--refine", "2", "--angles", "0"],
             ["beam", "--p", "2", "--refine", "5", "--angles", "0"],
             ["stability", "--p-steps", "3", "--nu-steps", "3"],
             ["material", "--p", "2", "--nu-t", "0.3", "--nu-l", "0.3"]):
    assert tifem.cli.main(argv + ["--out", sys.argv[1]]) == 0
print(json.dumps([sorted(m for m in loaded if m.split(".")[0] == "scipy"),
                  sorted(set(sys.modules) - loaded)]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(tifem.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out.csv")],
                          env=env, cwd=tmp_path, capture_output=True, text=True, check=True)
    scipy, imported = json.loads(done.stdout)
    assert scipy == []
    assert imported == []
