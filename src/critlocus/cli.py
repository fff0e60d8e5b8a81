"""Command-line driver: every verification as a subcommand.

    critlocus verify cdga --n 2
    critlocus verify superpotential --n 3
    critlocus verify family --n 2
    critlocus verify resolution
    critlocus verify chainmap --n 2 --samples 20
    critlocus ext --corpus partitions --n 3
    critlocus partitions --n 6
    critlocus toric chart --surface '{"base": "P2"}' --points '[["1","2","3"]]'
    critlocus toric cover-stats --surface '{"base": "F2"}' --trials 50
    critlocus all --n 2

Global flags: --n, --prime, --seed, --samples, --format json|text,
--out FILE.  Exit code 0 when every check passes (warnings allowed),
1 otherwise; bad flags exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .report import Report
from .scalars import DEFAULT_PRIME, GF


def _configuration(args, **extra):
    cfg = {
        "n": args.n,
        "prime": args.prime,
        "seed": args.seed,
        "samples": args.samples,
    }
    cfg.update(extra)
    return cfg


# -- check batteries -------------------------------------------------------------


def checks_cdga(report: Report, n: int):
    from .potential import MatrixCdga, build_cotangent_complex

    cdga = MatrixCdga(n)

    def d_squared():
        bad = cdga.d_squared_on_generators()
        return not bad, f"{len(cdga.table)} generators", (
            f"d(d({bad[0][0]})) = {bad[0][1]}" if bad else None
        )

    report.run(
        "cdga.d_squared",
        "build_koszul_cdga",
        "the extended Koszul differential squares to zero on every generator",
        d_squared,
    )

    report.run(
        "cdga.koszul_display",
        "check_d_squared",
        "the displayed Koszul complex of the potential composes to zero",
        lambda: cdga.koszul_display().check_d_squared()[0],
    )

    def gradient_identity():
        return cdga.jacobian_entries() == cdga.commutator_entries_transposed()

    report.run(
        "cdga.gradient_is_commutators",
        "build_potential",
        "the potential gradient equals the transposed commutator entries",
        gradient_identity,
    )

    model = build_cotangent_complex(n, cdga)
    report.run(
        "cotangent.flatness",
        "build_cotangent_complex",
        "the cotangent model satisfies the twisted flatness identity",
        lambda: model.flatness_report()["ok"],
    )

    def self_duality():
        rep = model.self_duality_report()
        return rep["ok"], f"outer sign {rep['outer_sign']}, middle symmetric", None

    report.run(
        "cotangent.self_duality",
        "build_cotangent_complex",
        "outer differentials transpose-match and the middle block is symmetric",
        self_duality,
    )

    report.run(
        "cotangent.ranks",
        "build_cotangent_complex",
        "ranks are (n^2, 3n^2, 3n^2, n^2) with Euler characteristic zero",
        lambda: (
            model.complex.ranks
            == {-2: n * n, -1: 3 * n * n, 0: 3 * n * n, 1: n * n}
            and model.complex.euler_characteristic() == 0
        ),
    )
    return report


def checks_superpotential(report: Report, n: int):
    from .potential import MatrixCdga, verify_superpotential_identities

    rep = verify_superpotential_identities(MatrixCdga(n))
    for key, claim in (
        ("ddr_phi_equals_omega", "the de Rham derivative of the primitive equals the 2-form"),
        ("ddr_bigphi_plus_d_phi_zero", "ddr(Phi) + d(phi) vanishes"),
        ("omega_closed", "the 2-form is de Rham closed"),
        ("calculus_consistent", "d.d = 0, ddr.ddr = 0 and d anticommutes with ddr"),
    ):
        report.record(
            f"superpotential.{key}",
            "verify_superpotential_identities",
            claim,
            "pass" if rep[key] else "fail",
            0.0,
        )
    return report


def checks_family(report: Report, n: int):
    from .family import build_universal_family

    fam = build_universal_family(n)
    report.record(
        "family.resolution",
        "build_universal_family",
        "the action search resolves to one variant per letter",
        "pass",
        0.0,
        details=fam.provenance,
    )
    leib = fam.leibniz_report()
    for g in "xyzuvwt":
        report.record(
            f"family.leibniz.{g}",
            "build_universal_family",
            f"the graded Leibniz identity holds for the letter {g}",
            "pass" if leib[g] else "fail",
            0.0,
        )
    return report


def checks_resolution(report: Report):
    from .family import build_ginzburg_resolution

    rep = build_ginzburg_resolution().composites_vanish()
    for key, ok in rep.items():
        if key == "ok":
            continue
        report.record(
            f"resolution.{key.replace(' ', '_')}",
            "build_ginzburg_resolution",
            f"{key} cancels literally after commutation rewriting",
            "pass" if ok else "fail",
            0.0,
        )
    return report


def checks_chainmap(report: Report, n: int, samples: int, rng):
    from .family import build_comparison_map
    from .points import random_conjugate_points
    from .potential import MatrixCdga

    cdga = MatrixCdga(n)
    cm, record = build_comparison_map(n, cdga)
    details = {"chosen": str(record["chosen"])}
    if record.get("search"):
        details["solutions"] = record["symbolic_solutions"]
    report.record(
        "chainmap.symbolic",
        "build_comparison_map",
        "a signed permutation intertwines the models symbolically",
        "pass",
        0.0,
        details=details,
    )
    pts = random_conjugate_points(n, samples, rng)
    bad = 0
    invertible = True
    for pt in pts:
        rep = cm.check_at_point(cdga.point_assignment(pt.X, pt.Y, pt.Z))
        if not rep["ok"]:
            bad += 1
        invertible = invertible and rep["all_invertible"]
    report.record(
        "chainmap.points",
        "check_chain_map",
        f"the comparison squares commute at {samples} sampled commuting points",
        "pass" if bad == 0 else "fail",
        0.0,
        details={"samples": samples, "failures": bad},
    )
    report.record(
        "chainmap.invertible",
        "check_chain_map",
        "every degree of the comparison map is invertible at the samples",
        "pass" if invertible else "fail",
        0.0,
    )
    return report


def checks_ext(
    report: Report,
    n: int,
    corpus: str,
    samples: int,
    prime: int,
    rng,
    corpus_file=None,
    save_corpus_to=None,
):
    from .family import endomorphism_model, ext_dims_at
    from .points import (
        enumerate_partitions,
        koszul_ext_oracle,
        load_corpus,
        point_from_partition,
        random_conjugate_points,
        save_corpus,
    )

    points = []
    if corpus_file:
        points.extend(load_corpus(corpus_file))
        n = points[0].n if points else n
    if corpus in ("partitions", "both"):
        points.extend(point_from_partition(pp) for pp in enumerate_partitions(n))
    if corpus in ("random", "both"):
        points.extend(random_conjugate_points(n, samples, rng))
    if save_corpus_to:
        save_corpus(points, save_corpus_to)
    model = endomorphism_model(n)
    field_p = GF(prime)
    mismatches = []
    pairing_failures = []
    euler_failures = []
    prime_warnings = []
    per_point = []
    for idx, pt in enumerate(points):
        mine = ext_dims_at(pt, model=model)
        oracle = koszul_ext_oracle(pt)
        per_point.append(
            {
                "point": idx,
                "provenance": pt.provenance,
                "dims": [mine["dims"][k] for k in range(4)],
                "pairing_ranks": [
                    mine["pairing_ranks"][(0, 3)],
                    mine["pairing_ranks"][(1, 2)],
                ],
            }
        )
        if mine["dims"] != oracle["dims"]:
            mismatches.append((idx, mine["dims"], oracle["dims"]))
        if mine["euler"] != 0:
            euler_failures.append(idx)
        if not (mine["pairing_perfect"] and oracle["pairing_perfect"]):
            pairing_failures.append(idx)
        try:
            mod_p = model.evaluate_at(pt.X, pt.Y, pt.Z, field_p).homology_dims()
            if mod_p != mine["dims"]:
                prime_warnings.append(idx)
        except ZeroDivisionError:
            prime_warnings.append(idx)
    report.record(
        "ext.oracle_agreement",
        "ext_dims_at",
        "endomorphism-model Ext dimensions match the Koszul oracle at every corpus point",
        "pass" if not mismatches else "fail",
        0.0,
        details={"points": len(points), "per_point": per_point},
        counterexample=str(mismatches[:3]) if mismatches else None,
    )
    report.record(
        "ext.euler",
        "ext_dims_at",
        "the Euler characteristic vanishes at every corpus point",
        "pass" if not euler_failures else "fail",
        0.0,
    )
    report.record(
        "ext.serre_pairing",
        "ext_dims_at",
        "the composition-trace pairing is perfect at every corpus point",
        "pass" if not pairing_failures else "fail",
        0.0,
    )
    if prime_warnings:
        report.warn(
            "ext.prime_comparison",
            "homology_dims",
            f"dimensions over GF({prime}) disagree with the rational ones "
            f"at {len(prime_warnings)} points (possible bad prime)",
            details={"points": prime_warnings[:5]},
        )
    else:
        report.record(
            "ext.prime_comparison",
            "homology_dims",
            f"dimensions over GF({prime}) agree with the rational ones",
            "pass",
            0.0,
        )
    return report


def checks_partitions(report: Report, n: int):
    from .points import enumerate_partitions, enumerate_partitions_by_heights

    counts = []
    ok = True
    for size in range(1, n + 1):
        a = enumerate_partitions(size)
        b = enumerate_partitions_by_heights(size)
        counts.append(len(a))
        if sorted(p.cells for p in a) != sorted(p.cells for p in b):
            ok = False
    report.record(
        "partitions.two_strategies",
        "enumerate_partitions",
        f"two independent enumerations agree for sizes 1..{n}",
        "pass" if ok else "fail",
        0.0,
        details={"counts": counts},
    )
    return report


def cmd_toric_chart(args):
    from .toric import (
        FnPoint,
        P2Point,
        Surface,
        SurfaceSpec,
        TowerPoint,
        find_chart,
    )

    spec = SurfaceSpec.from_json_obj(json.loads(args.surface))
    surface = Surface(spec)
    raw_points = json.loads(args.points)
    points = []
    for rp in raw_points:
        if spec.blowups:
            if isinstance(rp, dict):
                points.append(
                    TowerPoint(
                        center=rp["center"],
                        direction=P2Point(*rp["direction"]),
                    )
                )
            else:
                points.append(TowerPoint(base=P2Point(*rp)))
        elif spec.base == "P2":
            points.append(P2Point(*rp))
        else:
            points.append(FnPoint(int(spec.base[1:]), *rp))
    result = find_chart(surface, points)
    payload = json.dumps(result.to_json_obj(), sort_keys=True, indent=1)
    _emit(args, payload)
    return 0


def cmd_toric_cover_stats(args):
    from .toric import Surface, SurfaceSpec, verify_cover_property

    spec = SurfaceSpec.from_json_obj(json.loads(args.surface))
    surface = Surface(spec)
    rng = random.Random(args.seed)
    report = Report(
        _configuration(args, surface=spec.to_json_obj(), trials=args.trials)
    )
    rep = verify_cover_property(surface, args.trials, args.points_per_trial, rng)
    report.record(
        "toric.cover_stats",
        "verify_cover_property",
        f"chart search succeeds with exact round trip on {args.trials} random configurations",
        "pass" if rep["ok"] else "fail",
        0.0,
        details={"successes": rep["successes"], "trials": rep["trials"]},
        counterexample=str(rep["failures"]) if rep["failures"] else None,
    )
    _emit_report(args, report)
    return 0 if report.ok else 1


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_report(args, report: Report):
    text = report.to_json() if args.format == "json" else report.to_text()
    _emit(args, text)


# -- wiring ------------------------------------------------------------------------


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _prime(text):
    value = int(text)
    try:
        GF(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _existing_file(text):
    if not os.path.isfile(text):
        raise argparse.ArgumentTypeError(f"no such file: {text}")
    return text


def _add_common(parser):
    parser.add_argument("--n", type=_positive_int, default=2, help="matrix rank")
    parser.add_argument("--prime", type=_prime, default=DEFAULT_PRIME)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=20)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--out", default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="critlocus",
        description="exact verification workbench for the matrix superpotential dg structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one verification battery")
    vsub = verify.add_subparsers(dest="what", required=True)
    for what in ("cdga", "superpotential", "family", "resolution", "chainmap"):
        p = vsub.add_parser(what)
        _add_common(p)

    ext = sub.add_parser("ext", help="Ext dimensions against the independent oracle")
    _add_common(ext)
    ext.add_argument(
        "--corpus", choices=("partitions", "random", "both", "none"), default="both"
    )
    ext.add_argument(
        "--corpus-file", type=_existing_file, default=None, help="read extra points from a corpus file"
    )
    ext.add_argument("--save-corpus", default=None, help="write the evaluated corpus to a file")

    parts = sub.add_parser("partitions", help="plane partition counts, two strategies")
    _add_common(parts)

    toric = sub.add_parser("toric", help="toric surface chart operations")
    tsub = toric.add_subparsers(dest="what", required=True)
    chart = tsub.add_parser("chart")
    _add_common(chart)
    chart.add_argument("--surface", required=True, help="surface spec as JSON")
    chart.add_argument("--points", required=True, help="point list as JSON")
    cover = tsub.add_parser("cover-stats")
    _add_common(cover)
    cover.add_argument("--surface", required=True)
    cover.add_argument("--trials", type=int, default=100)
    cover.add_argument("--points-per-trial", type=int, default=4)

    allcmd = sub.add_parser("all", help="the full battery at one rank")
    _add_common(allcmd)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error
        return exc.code
    rng = random.Random(args.seed) if hasattr(args, "seed") else random.Random(0)

    if args.command == "verify":
        report = Report(_configuration(args, battery=args.what))
        if args.what == "cdga":
            checks_cdga(report, args.n)
        elif args.what == "superpotential":
            checks_superpotential(report, args.n)
        elif args.what == "family":
            checks_family(report, args.n)
        elif args.what == "resolution":
            checks_resolution(report)
        elif args.what == "chainmap":
            checks_chainmap(report, args.n, args.samples, rng)
        _emit_report(args, report)
        return 0 if report.ok else 1

    if args.command == "ext":
        report = Report(_configuration(args, corpus=args.corpus))
        checks_ext(
            report,
            args.n,
            args.corpus,
            args.samples,
            args.prime,
            rng,
            corpus_file=args.corpus_file,
            save_corpus_to=args.save_corpus,
        )
        _emit_report(args, report)
        return 0 if report.ok else 1

    if args.command == "partitions":
        report = Report(_configuration(args))
        checks_partitions(report, args.n)
        _emit_report(args, report)
        return 0 if report.ok else 1

    if args.command == "toric":
        if args.what == "chart":
            return cmd_toric_chart(args)
        return cmd_toric_cover_stats(args)

    if args.command == "all":
        report = Report(_configuration(args, battery="all"))
        checks_cdga(report, args.n)
        checks_superpotential(report, args.n)
        checks_family(report, args.n)
        checks_resolution(report)
        checks_chainmap(report, args.n, args.samples, rng)
        checks_ext(report, args.n, "both", args.samples, args.prime, rng)
        checks_partitions(report, max(args.n, 4))
        from .toric import Surface, SurfaceSpec, verify_cover_property

        for base in ("P2", "F0", "F2"):
            rep = verify_cover_property(
                Surface(SurfaceSpec(base)), 25, 4, rng
            )
            report.record(
                f"toric.cover.{base}",
                "verify_cover_property",
                f"chart search round-trips on {base}",
                "pass" if rep["ok"] else "fail",
                0.0,
                details={"successes": rep["successes"]},
            )
        rep = verify_cover_property(Surface(SurfaceSpec("P2", [0, 2])), 25, 3, rng)
        report.record(
            "toric.cover.tower",
            "verify_cover_property",
            "chart search round-trips on a two-blowup tower",
            "pass" if rep["ok"] else "fail",
            0.0,
            details={"successes": rep["successes"]},
        )
        _emit_report(args, report)
        return 0 if report.ok else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
