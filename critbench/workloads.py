"""The three benchmark workloads.

Each workload builds its corpus from a seed, prepares the state the items
share (the set-up), and runs one item at a time.  ``run_item`` returns the
record that the digest covers, the list of failed assertions, and whether
the item raised a bad-prime warning.  Every call into critlocus goes through
the module namespace ``cl`` at call time, so a tracer that patched those
modules sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random


def strip_seconds(obj):
    """Drop every ``seconds`` field, as the determinism criterion does."""
    if isinstance(obj, dict):
        return {k: strip_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [strip_seconds(v) for v in obj]
    return obj


def _entry_bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _nilpotent(m) -> bool:
    n = len(m)
    power = m
    for _ in range(n - 1):
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in power]
    return all(x == 0 for row in power for x in row)


class ExtWorkload:
    """Per-point Ext cross-validation, as ``critlocus ext`` does it.

    The corpus is every partition point of size n, then points of the seeded
    ``random_conjugate_points`` stream: the first ``conjugated_partitions``
    that conjugate a partition point (all three matrices nilpotent) and the
    first ``conjugated_diagonals`` that conjugate a diagonal triple.  Fixing
    the two counts keeps the seed from changing the mix, whose two kinds
    differ in cost by more than half.  An item runs the endomorphism model
    (``ext_dims_at``) and the Koszul oracle over the workload's field; over
    QQ it also compares with the model over GF(p).
    """

    def __init__(self, name, n, field, conjugated_partitions, conjugated_diagonals):
        self.name = name
        self.n = n
        self.field_name = field  # "QQ" or "GF(p)" with p = DEFAULT_PRIME
        self.quota = {"c": conjugated_partitions, "d": conjugated_diagonals}

    def prepare(self, cl):
        fam = cl.family
        gf = cl.scalars.GF(cl.scalars.DEFAULT_PRIME)
        return {
            "model": fam.EndomorphismModel(fam.build_universal_family(self.n)),
            "field": cl.scalars.QQ if self.field_name == "QQ" else gf,
            "gf": gf,
        }

    def corpus(self, cl, seed):
        pts = cl.points
        items = [
            (f"p{i}", pts.point_from_partition(pp))
            for i, pp in enumerate(pts.enumerate_partitions(self.n))
        ]
        rng = random.Random(seed)
        drawn = {"c": [], "d": []}
        while any(len(drawn[k]) < q for k, q in self.quota.items()):
            (pt,) = pts.random_conjugate_points(self.n, 1, rng)
            kind = "c" if all(_nilpotent(m) for m in pt.matrices()) else "d"
            if len(drawn[kind]) < self.quota[kind]:
                drawn[kind].append(pt)
        for kind in ("c", "d"):
            items += [(f"{kind}{i}", pt) for i, pt in enumerate(drawn[kind])]
        return items

    def input_record(self, state, corpus):
        model = state["model"]
        return {
            "n": self.n,
            "field": self.field_name,
            "partition_points": sum(1 for key, _ in corpus if key[0] == "p"),
            "random_conjugate_points": {
                "of_partition_points": sum(1 for key, _ in corpus if key[0] == "c"),
                "of_diagonal_triples": sum(1 for key, _ in corpus if key[0] == "d"),
            },
            "max_entry_bits": {
                key: max(_entry_bits(x) for m in pt.matrices() for row in m for x in row)
                for key, pt in corpus
            },
            "differential_shapes": {
                str(k): [d.rows, d.cols] for k, d in sorted(model.complex.diff.items())
            },
        }

    def run_item(self, cl, state, pt):
        model, field = state["model"], state["field"]
        mine = cl.family.ext_dims_at(pt, field=field, model=model)
        oracle = cl.points.koszul_ext_oracle(pt, field)
        record = {
            "model": [mine["dims"][k] for k in range(4)],
            "oracle": [oracle["dims"][k] for k in range(4)],
            "pairing": [mine["pairing_ranks"][(0, 3)], mine["pairing_ranks"][(1, 2)]],
            "oracle_pairing": list(oracle["pairing_ranks"]),
        }
        failures = []
        if record["model"] != record["oracle"]:
            failures.append(f"model dims {record['model']} != oracle dims {record['oracle']}")
        if mine["euler"] != 0:
            failures.append(f"Euler characteristic {mine['euler']}")
        if not (mine["pairing_perfect"] and oracle["pairing_perfect"]):
            failures.append("trace pairing not perfect at a cyclic point")
        prime_warning = False
        if self.field_name == "QQ":
            try:
                mod_p = model.evaluate_at(pt.X, pt.Y, pt.Z, state["gf"]).homology_dims()
                prime_warning = mod_p != mine["dims"]
            except ZeroDivisionError:
                prime_warning = True
        return record, failures, prime_warning


# Random configurations per toric surface.  With the CLI's default of 100
# the seed moves an item's time by up to a quarter; 400 average it out.
TORIC_TRIALS = 400

# toric surfaces covered by the battery, as ``--surface`` arguments.  F2 is
# left out: on some seeds (13, 32 and 39 among 13-80) its chart search raises
# "pigeonhole violated in section search", and a benchmark item must not fail.
SURFACES = (
    {"base": "P2"},
    {"base": "F0"},
    {"base": "P2", "blowups": [0, 2]},
)


class BatteryWorkload:
    """Every non-Ext battery, each one CLI invocation through ``cli.main``."""

    name = "battery"

    def prepare(self, cl):
        # every invocation builds what it needs, so set-up is the import
        return {}

    def corpus(self, cl, seed):
        argvs = [
            ["verify", what, "--n", "4"]
            for what in ("cdga", "superpotential", "family", "resolution", "chainmap")
        ]
        argvs.append(["verify", "chainmap", "--n", "3"])
        argvs.append(["partitions", "--n", "6"])
        argvs += [
            ["toric", "cover-stats", "--surface", json.dumps(s), "--trials", str(TORIC_TRIALS)]
            for s in SURFACES
        ]
        return [(" ".join(a), a + ["--seed", str(seed)]) for a in argvs]

    def input_record(self, state, corpus):
        return {
            "field": "QQ",
            "invocations": [key for key, _ in corpus],
        }

    def run_item(self, cl, state, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cl.cli.main(list(argv))
        failures = [] if code == 0 else [f"exit code {code}"]
        return strip_seconds(json.loads(buf.getvalue())), failures, False


WORKLOADS = {
    "ext-qq-n4": ExtWorkload("ext-qq-n4", 4, "QQ", conjugated_partitions=2, conjugated_diagonals=9),
    "ext-gfp-n5": ExtWorkload("ext-gfp-n5", 5, "GF(p)", conjugated_partitions=10, conjugated_diagonals=6),
    "battery": BatteryWorkload(),
}
