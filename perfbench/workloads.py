"""The benchmark's four workloads: the CLI commands each runs, and how a seed
changes them.

The default seed runs the CLI's own defaults, so its output is the output of
the plain `tifem cook` / `tifem beam` commands.  Any other seed redraws only
the fibre angle, from the twelve angles k*pi/12 in [0, pi); the work per run
stays the same while the numerics change, and every angle has a recorded
reference output.  The stability scan has no fibre angle, so its inputs do
not depend on the seed.  Why each workload exists is in BENCHMARK.json.
"""

import random
from dataclasses import dataclass
from typing import Optional

DEFAULT_SEED = 0
ANGLE_STEPS = 12


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple  # tifem CLI argument lists, run in order, without --out
    # k of the commands' own fibre angle k*pi/ANGLE_STEPS; None if they have none.
    default_step: Optional[int]
    compressed: bool = False  # reference stored as .csv.xz

    def angle(self, seed):
        """The --angles value a seed selects, or None to keep the command's own."""
        if seed == DEFAULT_SEED or self.default_step is None:
            return None
        return f"{random.Random(seed).randrange(ANGLE_STEPS)}pi/{ANGLE_STEPS}"

    def commands_for(self, seed):
        angle = self.angle(seed)
        extra = [] if angle is None else ["--angles", angle]
        return [list(cmd) + extra for cmd in self.commands]

    def reference_name(self, seed):
        """Reference file of a seed, relative to the reference directory.  The
        default seed shares the file of the commands' own angle: the CLI parses
        its default to the same float, so the output is the same byte for byte."""
        if self.default_step is None:
            key = "default"
        else:
            angle = self.angle(seed) or f"{self.default_step}pi/{ANGLE_STEPS}"
            key = "angle-" + angle.replace("/", "_")
        return f"{self.name}/{key}.csv{'.xz' if self.compressed else ''}"

    def reference_seeds(self):
        """One seed per distinct reference; a seed that passes --angles where
        there is one, so each file records the command that names its angle."""
        if self.default_step is None:
            return [DEFAULT_SEED]
        seeds = {}
        seed = DEFAULT_SEED
        while len(seeds) < ANGLE_STEPS:
            seed += 1
            seeds.setdefault(self.reference_name(seed), seed)
        return sorted(seeds.values())


WORKLOADS = {
    w.name: w
    for w in (
        Workload("beam_convergence", (("beam",),), default_step=3),
        Workload("cook_sweep", (("cook",),), default_step=4),
        Workload(
            "panel_large",
            (
                ("cook", "--p", "10000", "--variants", "Q2_CG", "--refine", "64"),
                ("cook", "--p", "10000", "--variants", "Q1_CG_UI_betalambda",
                 "--refine", "128"),
            ),
            default_step=4,
        ),
        Workload(
            "stability_scan",
            (("stability", "--p-steps", "600", "--nu-steps", "600"),),
            default_step=None,
            compressed=True,
        ),
    )
}


def join_csv(texts):
    """One CSV from the outputs of a workload's commands, which share a header."""
    return texts[0] + b"".join(t.partition(b"\n")[2] for t in texts[1:])
