"""The benchmark's workloads: seeded config generators and expected row counts.

Every workload is a closed loop of `premetric.cli.main` invocations with
one client: the next invocation starts when the previous one returned.
Invocation k of a run with seed s gets the config generated from seed
s + k, so the same seed always gives the same sequence of configs.  The
program only ever sees the generated config file; the benchmark's seed
reaches it as the config's own "seed" key.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                  # premetric subcommand
    extra_argv: tuple             # flags after --config
    make_config: Callable         # seed -> config dict
    rows_per_sample: int          # report rows each sample contributes
    traced_invocations: int       # fixed length of a traced pass
    why: str

    def config(self, seed):
        return self.make_config(seed)

    def config_text(self, seed):
        return json.dumps(self.config(seed), sort_keys=True)

    def argv(self, config_path):
        return [self.command, "--config", config_path, *self.extra_argv]

    @property
    def structured(self):
        return "structured" in self.extra_argv

    def expected_rows(self, cfg):
        return cfg["samples"] * self.rows_per_sample


def _check_n6(seed):
    # conservation: 1 row per sample; identities: sym, a, b, a+b.
    return {"n": 6, "p": 3, "mode": "real", "degree_bound": 2,
            "samples": 2, "seed": seed}


def _reciprocity_c4(seed):
    # reciprocity: square, densities, tensor, swap, eigen-plus, eigen-minus;
    # factorization: factor-F, factor-G, selfdual-plus, selfdual-minus.
    return {"n": 4, "p": 2, "mode": "complex",
            "metric": {"diagonal": [1, -1, -1, -1]},
            "Z0": "377/120", "z": [1, 2, -3, "1/5"],
            "samples": 4, "seed": seed}


def _chi_entry(rng):
    """A rational literal or a short polynomial in one or two coordinates.

    Position-dependent entries make d(chi)/dx_a nonzero along most
    coordinate directions, so most phi_u rows FAIL with a witness.
    """
    def q():
        return f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"

    def sign():
        return rng.choice("+-")

    if rng.random() < 0.4:
        return f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"
    a, b = rng.sample(range(4), 2)
    return (f"({q()}*x{a}^{rng.randint(1, 2)} {sign()} {q()}*x{b} "
            f"{sign()} {q()})")


def _constitutive_ll4(seed):
    # phi: u0..u3 for each F sample, each with a phi row and a balance row.
    rng = random.Random(f"{seed}:chi")
    chi = [[_chi_entry(rng) for _ in range(6)] for _ in range(6)]
    return {"n": 4, "p": 2, "samples": 3, "seed": seed,
            "constitutive": {"kind": "linear-local", "chi": chi}}


WORKLOADS = {w.name: w for w in (
    Workload(
        "check-n6", "check", (), _check_n6, rows_per_sample=5,
        traced_invocations=12,
        why="bulk Q polynomial work through forms at n=6, p=3: the "
            "conservation case of the coefficient-speed item; no hodge, "
            "no parsing, no Q(i)"),
    Workload(
        "reciprocity-c4", "reciprocity", ("--format", "structured"),
        _reciprocity_c4, rows_per_sample=10, traced_invocations=16,
        why="the only Q(i) workload: star_z, hodge with a per-call metric "
            "rebuild, the factorization suite and JSON rendering"),
    Workload(
        "constitutive-ll4", "constitutive", (), _constitutive_ll4,
        rows_per_sample=8, traced_invocations=20,
        why="one (F, G) pair reused across 4 directions and 2 checks, chi "
            "parsed from text, most phi rows FAIL with printed witnesses"),
)}
