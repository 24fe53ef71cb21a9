"""Batch driver: material diagnostics, stability scans, and the benchmarks.

Subcommands: stability, material, cook, beam.  All numeric output uses 17
significant digits; identical configurations produce byte-identical output.
Exit codes: 0 success, 2 parse/config error or an unwritable --out path,
3 material degeneracy, 4 partial benchmark failure.
"""

import argparse
import contextlib
import json
import locale  # noqa: F401  (argparse's gettext imports it for the first parser of a run)
import math
import re
import sys
from dataclasses import astuple, fields
from itertools import repeat
from operator import add, attrgetter

from . import material as mat
from .benchmarks import (
    BeamConfig,
    CookConfig,
    DEFAULT_ANGLES,
    run_beam,
    run_cook,
)
from .elements import FormulationVariant

_ANGLE_RE = re.compile(r"^(\d*)pi(?:/(0*[1-9]\d*))?$")


def parse_float(token):
    """A finite float; NaN and infinities are rejected."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {token!r}")
    return value


def parse_angle(token):
    """Angle in radians from 'pi/3', '3pi/8', 'pi', '0', or a float literal."""
    token = token.strip().replace(" ", "")
    m = _ANGLE_RE.match(token)
    if m:
        num = int(m.group(1)) if m.group(1) else 1
        den = int(m.group(2)) if m.group(2) else 1
        return num * math.pi / den
    return parse_float(token)


def _distinct(values, spec):
    """The parsed values, refused if one repeats: it would repeat its rows."""
    if len(set(values)) < len(values):
        raise ValueError(f"repeated value in {spec!r}")
    return values


def parse_angles(spec):
    if spec is None or spec == "":
        return DEFAULT_ANGLES
    return _distinct(tuple(parse_angle(t) for t in spec.split(",")), spec)


def parse_floats(spec):
    return _distinct(tuple(parse_float(t) for t in spec.split(",")), spec)


def parse_ints(spec):
    """Comma-separated mesh refinement levels, each at least 1."""
    values = tuple(int(t) for t in spec.split(","))
    if min(values) < 1:
        raise ValueError(f"refinement levels must be at least 1: {spec!r}")
    return _distinct(values, spec)


def parse_variants(spec):
    if spec is None or spec == "":
        return tuple(FormulationVariant)
    return _distinct(tuple(FormulationVariant(t.strip()) for t in spec.split(",")), spec)


def _fmt(v):
    return f"{float(v):.17g}"


@contextlib.contextmanager
def _output(path):
    """The --out file, opened (and emptied) for writing, or stdout."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


def stability_grid(p_min, p_max, p_steps, nu_min, nu_max, nu_steps):
    """Midpoint sampling, so open interval bounds are never evaluated."""
    dp = (p_max - p_min) / p_steps
    dn = (nu_max - nu_min) / nu_steps
    ps = [p_min + (i + 0.5) * dp for i in range(p_steps)]
    nus = [nu_min + (j + 0.5) * dn for j in range(nu_steps)]
    return ps, nus


class _Tails(dict):
    """The "admissible,violated" cells and line end of a stability row, keyed
    by the violated tuple and formatted on first use."""

    def __missing__(self, violated):
        tail = self[violated] = f"{int(not violated)},{'|'.join(violated)}\n"
        return tail


def cmd_stability(args):
    if args.p_steps < 1 or args.nu_steps < 1:
        print("malformed grid specification", file=sys.stderr)
        return 2
    ps, nus = stability_grid(
        args.p_min, args.p_max, args.p_steps, args.nu_min, args.nu_max, args.nu_steps
    )
    nu_cells = [f",{_fmt(nu)}," for nu in nus]
    tails = _Tails()
    check, q, violated = mat.check_stability, args.q, attrgetter("violated")
    with _output(args.out) as fh:  # an unwritable --out fails before the scan
        fh.write("p,nu,admissible,violated\n")
        for p in ps:
            # Built and iterated in C: the only Python code run per grid point
            # is check_stability, on a plain (E_t, p, q, nu_t, nu_l) tuple.
            verdicts = map(check, zip(repeat(1.0), repeat(p), repeat(q), nus, nus))
            rows = map(add, nu_cells, map(tails.__getitem__, map(violated, verdicts)))
            p_cell = _fmt(p)
            # Every row ends in a line end, so the join starts each later row.
            fh.write(p_cell + p_cell.join(rows))
    return 0


def _admissible(args):
    """--strict check of every p in --p, with the command's own material flags."""
    for p in args.p_list:
        ec = mat.EngineeringConstants(args.E_t, p, args.q, args.nu_t, args.nu_l)
        verdict = mat.check_stability(ec)
        if not verdict.admissible:
            print(f"inadmissible material at p={p}: {verdict.violated}", file=sys.stderr)
            return False
    return True


def cmd_material(args):
    if args.strict and not _admissible(args):
        return 3
    lines = ["p,q,nu_t,nu_l,lambda,mu_t,mu_l,alpha,beta,gamma,c1,admissible,violated"]
    for p in args.p_list:
        ec = mat.EngineeringConstants(args.E_t, p, args.q, args.nu_t, args.nu_l)
        verdict = mat.check_stability(ec)
        try:
            mp = mat.derive_parameters(ec)
            c1 = mat.error_bound_constant(mp)
        except ValueError as err:  # DegenerateDenominator, ParameterOverflow, mu_t <= 0
            print(str(err), file=sys.stderr)
            return 3
        values = (p, args.q, args.nu_t, args.nu_l, *astuple(mp), mp.gamma, c1)
        lines.append(
            ",".join(map(_fmt, values))
            + f",{int(verdict.admissible)},{'|'.join(verdict.violated)}"
        )
    with _output(args.out) as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def cmd_sweep(args):
    """Run `cook` or `beam` on the config whose fields are the parsed flags."""
    if args.strict and not _admissible(args):
        return 2
    cfg = args.config_class(
        **{f.name: getattr(args, f.name) for f in fields(args.config_class)}
    )
    with _output(args.out) as fh:  # an unwritable --out fails before the sweep
        report = args.run(cfg)
        fh.write(report.to_csv())
    return 0 if report.all_ok else 4


# A setting's flag is its name with - for _, except for these.
_FLAG_NAMES = {"L": "--length", "H": "--height", "f": "--load", "E_t": "--Et", "p_list": "--p"}
# Parser of each setting that is not a single finite float.
_TYPES = {
    "p_list": parse_floats, "angles": parse_angles, "refine": parse_ints,
    "variants": parse_variants, "p_steps": int, "nu_steps": int,
}


def _add_flags(sp, **defaults):
    """One flag per setting, its dest the setting's name, then --out and --config."""
    for name, default in defaults.items():
        flag = _FLAG_NAMES.get(name, "--" + name.replace("_", "-"))
        sp.add_argument(flag, dest=name, type=_TYPES.get(name, parse_float), default=default)
    sp.add_argument("--out", default=None)
    sp.add_argument("--config", default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tifem",
        description="Plane-strain FEM for transversely isotropic elasticity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("stability", allow_abbrev=False,
                        help="scan the (p, nu) admissibility region")
    _add_flags(sp, p_min=0.0, p_max=5.0, p_steps=200, nu_min=-1.0, nu_max=1.0,
               nu_steps=200, q=1.0)
    sp.set_defaults(func=cmd_stability)

    sp = sub.add_parser("material", allow_abbrev=False, help="print derived material parameters")
    _add_flags(sp, E_t=1.0, q=1.0, nu_t=0.49995, nu_l=0.49995, p_list=(2.0,))
    sp.add_argument("--strict", action="store_true")
    sp.set_defaults(func=cmd_material)

    # The drivers are looked up here, at call time, so that a wrapper
    # installed over the module's names is the one that runs.
    for name, help_, config_class, run in (
        ("cook", "Cook's membrane tip-displacement sweep", CookConfig, run_cook),
        ("beam", "bending beam convergence study", BeamConfig, run_beam),
    ):
        sp = sub.add_parser(name, allow_abbrev=False, help=help_)
        _add_flags(sp, **vars(config_class()))
        sp.add_argument("--strict", action="store_true")
        sp.set_defaults(func=cmd_sweep, config_class=config_class, run=run)

    return parser


def _config_flags(parser, path):
    """The JSON object in `path` as --key=value flags: keys are flag names with
    _ for -, `true` sets a switch and `false` leaves it off."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        parser.error(f"cannot read config file: {err}")
    if not isinstance(cfg, dict):
        parser.error(f"config file {path}: expected a JSON object of flags")
    flags = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            flags += [flag] if value else []
        elif isinstance(value, (str, int, float)):
            flags.append(f"{flag}={value}")
        else:
            parser.error(f"config key {key!r}: expected a string, number or boolean")
    return flags


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # The top-level parser takes no options, so argv[0] is the
            # subcommand; flags after the file's come later and win.
            argv[1:1] = _config_flags(parser, args.config)
            args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if err.code else 0
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as err:
        print(str(err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
