"""Batch driver: material diagnostics, stability scans, and the benchmarks.

Subcommands: stability, material, cook, beam.  All numeric output uses 17
significant digits; identical configurations produce byte-identical output.
Exit codes: 0 success, 2 parse/config error, 3 material degeneracy,
4 partial benchmark failure.
"""

import argparse
import json
import math
import re
import sys

from . import material as mat
from .benchmarks import (
    BeamConfig,
    CookConfig,
    DEFAULT_ANGLES,
    run_beam,
    run_cook,
)
from .elements import FormulationVariant

_ANGLE_RE = re.compile(r"^(\d*)pi(?:/(\d+))?$")


def parse_angle(token):
    """Angle in radians from 'pi/3', '3pi/8', 'pi', '0', or a float literal."""
    token = token.strip().replace(" ", "")
    m = _ANGLE_RE.match(token)
    if m:
        num = int(m.group(1)) if m.group(1) else 1
        den = int(m.group(2)) if m.group(2) else 1
        return num * math.pi / den
    return float(token)


def parse_angles(spec):
    if spec is None or spec == "":
        return DEFAULT_ANGLES
    return tuple(parse_angle(t) for t in spec.split(","))


def parse_floats(spec):
    return tuple(float(t) for t in spec.split(","))


def parse_ints(spec):
    return tuple(int(t) for t in spec.split(","))


def parse_variants(spec):
    if spec is None or spec == "":
        return tuple(FormulationVariant)
    return tuple(FormulationVariant(t.strip()) for t in spec.split(","))


def _fmt(v):
    return f"{float(v):.17g}"


def _write(path, text):
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def stability_grid(p_min, p_max, p_steps, nu_min, nu_max, nu_steps):
    """Midpoint sampling, so open interval bounds are never evaluated."""
    dp = (p_max - p_min) / p_steps
    dn = (nu_max - nu_min) / nu_steps
    ps = [p_min + (i + 0.5) * dp for i in range(p_steps)]
    nus = [nu_min + (j + 0.5) * dn for j in range(nu_steps)]
    return ps, nus


def cmd_stability(args):
    if args.p_steps < 1 or args.nu_steps < 1 or not (
        math.isfinite(args.p_min) and math.isfinite(args.p_max)
        and math.isfinite(args.nu_min) and math.isfinite(args.nu_max)
    ):
        print("malformed grid specification", file=sys.stderr)
        return 2
    ps, nus = stability_grid(
        args.p_min, args.p_max, args.p_steps, args.nu_min, args.nu_max, args.nu_steps
    )
    lines = ["p,nu,admissible,violated"]
    for p in ps:
        for nu in nus:
            ec = mat.EngineeringConstants(1.0, p, args.q, nu, nu)
            verdict = mat.check_stability(ec)
            lines.append(
                f"{_fmt(p)},{_fmt(nu)},{int(verdict.admissible)},"
                + "|".join(verdict.violated)
            )
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_material(args):
    ps = parse_floats(args.p)
    lines = ["p,q,nu_t,nu_l,lambda,mu_t,mu_l,alpha,beta,gamma,c1,admissible,violated"]
    for p in ps:
        ec = mat.EngineeringConstants(args.Et, p, args.q, args.nu_t, args.nu_l)
        verdict = mat.check_stability(ec)
        if args.strict and not verdict.admissible:
            print(f"inadmissible material at p={p}: {verdict.violated}", file=sys.stderr)
            return 3
        try:
            mp = mat.derive_parameters(ec)
        except mat.DegenerateDenominator as err:
            print(str(err), file=sys.stderr)
            return 3
        c1 = mat.error_bound_constant(mp)
        lines.append(
            ",".join(
                [
                    _fmt(p), _fmt(args.q), _fmt(args.nu_t), _fmt(args.nu_l),
                    _fmt(mp.lam), _fmt(mp.mu_t), _fmt(mp.mu_l),
                    _fmt(mp.alpha), _fmt(mp.beta), _fmt(mp.gamma), _fmt(c1),
                    str(int(verdict.admissible)), "|".join(verdict.violated),
                ]
            )
        )
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _strict_check(p_list, q, nu_t, nu_l):
    for p in p_list:
        ec = mat.EngineeringConstants(1.0, p, q, nu_t, nu_l)
        if not mat.check_stability(ec).admissible:
            print(f"inadmissible (p, nu) pair: p={p}, nu_t={nu_t}, nu_l={nu_l}",
                  file=sys.stderr)
            return False
    return True


def cmd_cook(args):
    p_list = parse_floats(args.p)
    if args.strict and not _strict_check(p_list, args.q, args.nu_t, args.nu_l):
        return 2
    cfg = CookConfig(
        E_t=args.Et, f=args.load, nu_t=args.nu_t, nu_l=args.nu_l, q=args.q,
        p_list=p_list, angles=parse_angles(args.angles),
        refine=parse_ints(args.refine), variants=parse_variants(args.variants),
    )
    report = run_cook(cfg)
    _write(args.out, report.to_csv())
    return 0 if report.all_ok else 4


def cmd_beam(args):
    p_list = parse_floats(args.p)
    if args.strict and not _strict_check(p_list, args.q, args.nu_t, args.nu_l):
        return 2
    cfg = BeamConfig(
        L=args.length, H=args.height, f=args.load, E_t=args.Et,
        nu_t=args.nu_t, nu_l=args.nu_l, q=args.q,
        p_list=p_list, angles=parse_angles(args.angles),
        refine=parse_ints(args.refine), variants=parse_variants(args.variants),
    )
    report = run_beam(cfg)
    _write(args.out, report.to_csv())
    return 0 if report.all_ok else 4


def _add_material_flags(sp, Et_default):
    sp.add_argument("--Et", type=float, default=Et_default)
    sp.add_argument("--q", type=float, default=1.0)
    sp.add_argument("--nu-t", dest="nu_t", type=float, default=0.49995)
    sp.add_argument("--nu-l", dest="nu_l", type=float, default=0.49995)


def _add_common(sp):
    sp.add_argument("--out", default=None)
    sp.add_argument("--strict", action="store_true")
    sp.add_argument("--config", default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tifem",
        description="Plane-strain FEM for transversely isotropic elasticity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("stability", help="scan the (p, nu) admissibility region")
    sp.add_argument("--p-min", type=float, default=0.0)
    sp.add_argument("--p-max", type=float, default=5.0)
    sp.add_argument("--p-steps", type=int, default=200)
    sp.add_argument("--nu-min", type=float, default=-1.0)
    sp.add_argument("--nu-max", type=float, default=1.0)
    sp.add_argument("--nu-steps", type=int, default=200)
    sp.add_argument("--q", type=float, default=1.0)
    _add_common(sp)
    sp.set_defaults(func=cmd_stability)

    sp = sub.add_parser("material", help="print derived material parameters")
    _add_material_flags(sp, 1.0)
    sp.add_argument("--p", default="2")
    _add_common(sp)
    sp.set_defaults(func=cmd_material)

    sp = sub.add_parser("cook", help="Cook's membrane tip-displacement sweep")
    _add_material_flags(sp, 250.0)
    sp.add_argument("--load", type=float, default=100.0)
    sp.add_argument("--p", default="1.0001,2,5,10,100,10000")
    sp.add_argument("--angles", default="pi/3")
    sp.add_argument("--variants", default="")
    sp.add_argument("--refine", default="16")
    _add_common(sp)
    sp.set_defaults(func=cmd_cook)

    sp = sub.add_parser("beam", help="bending beam convergence study")
    _add_material_flags(sp, 1500.0)
    sp.add_argument("--load", type=float, default=3000.0)
    sp.add_argument("--length", type=float, default=10.0)
    sp.add_argument("--height", type=float, default=2.0)
    sp.add_argument("--p", default="1.0001,3,10000")
    sp.add_argument("--angles", default="pi/4")
    sp.add_argument("--variants", default="")
    sp.add_argument("--refine", default="5,10,20,40")
    _add_common(sp)
    sp.set_defaults(func=cmd_beam)

    return parser


def _config_defaults(argv):
    """Load the optional JSON config file; command-line flags override it."""
    if "--config" not in argv:
        return None
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        return None
    with open(argv[idx + 1], encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        cfg = _config_defaults(argv)
    except (OSError, json.JSONDecodeError) as err:
        print(f"cannot read config file: {err}", file=sys.stderr)
        return 2
    if cfg:
        for action in parser._subparsers._group_actions[0].choices.values():
            action.set_defaults(**cfg)
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if err.code else 0
    try:
        return args.func(args)
    except (ValueError, KeyError) as err:
        print(str(err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
