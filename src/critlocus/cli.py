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

Every report comes from one registry of batteries, ``BATTERIES``.
``verify <what>``, ``ext``, ``partitions`` and ``toric cover-stats`` each
run one battery; ``all`` runs them all in registry order, with the settings
listed next to each.  A battery runs each of its checks through
``Report.run``, so every record carries a measured ``seconds`` and an
exception becomes a failing record instead of aborting the run.

Global flags: --n, --prime, --seed, --samples, --format json|text,
--out FILE.  Exit code 0 when every check passes (warnings allowed),
1 otherwise; usage errors (bad flags, malformed JSON arguments, a bad
corpus file) exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .report import CheckWarning, Report
from .scalars import DEFAULT_PRIME, GF


def _shared(fn):
    """A thunk that calls fn once: later calls return its result, or raise
    its exception, again.  Records built from one computation share it, and
    its time lands on the first record that needs it.  Unlike
    ``functools.cache`` it keeps the exception too, so a failed computation
    that drew from the rng is not run (and drawn from) a second time."""
    memo = []

    def thunk():
        if not memo:
            try:
                memo.append((True, fn()))
            except Exception as exc:
                memo.append((False, exc))
        ok, value = memo[0]
        if not ok:
            raise value
        return value

    return thunk


# -- check batteries ---------------------------------------------------------------
#
# A battery is a function (report, args, rng) that runs its checks, each a
# (name, operation, claim, fn) record, through Report.run.


def _run(report: Report, checks):
    for name, operation, claim, fn in checks:
        report.run(name, operation, claim, fn)


def checks_cdga(report: Report, args, rng):
    from .potential import MatrixCdga, build_cotangent_complex

    n = args.n
    cdga = _shared(lambda: MatrixCdga(n))
    model = _shared(lambda: build_cotangent_complex(n, cdga()))

    def d_squared():
        bad = cdga().d_squared_on_generators()
        counterexample = f"d(d({bad[0][0]})) = {bad[0][1]}" if bad else None
        return not bad, f"{len(cdga().table)} generators", counterexample

    def self_duality():
        rep = model().self_duality_report()
        return rep["ok"], f"outer sign {rep['outer_sign']}, middle symmetric", None

    def ranks():
        cx = model().complex
        expected = {-2: n * n, -1: 3 * n * n, 0: 3 * n * n, 1: n * n}
        return cx.ranks == expected and cx.euler_characteristic() == 0

    _run(report, (
        ("cdga.d_squared", "build_koszul_cdga",
         "the extended Koszul differential squares to zero on every generator", d_squared),
        ("cdga.koszul_display", "check_d_squared",
         "the displayed Koszul complex of the potential composes to zero",
         lambda: cdga().koszul_display().check_d_squared()[0]),
        ("cdga.gradient_is_commutators", "build_potential",
         "the potential gradient equals the transposed commutator entries",
         lambda: cdga().jacobian_entries() == cdga().commutator_entries_transposed()),
        ("cotangent.flatness", "build_cotangent_complex",
         "the cotangent model satisfies the twisted flatness identity",
         lambda: model().flatness_report()["ok"]),
        ("cotangent.self_duality", "build_cotangent_complex",
         "outer differentials transpose-match and the middle block is symmetric", self_duality),
        ("cotangent.ranks", "build_cotangent_complex",
         "ranks are (n^2, 3n^2, 3n^2, n^2) with Euler characteristic zero", ranks),
    ))


def checks_superpotential(report: Report, args, rng):
    from .potential import MatrixCdga, verify_superpotential_identities

    rep = _shared(lambda: verify_superpotential_identities(MatrixCdga(args.n)))
    _run(report, (
        (f"superpotential.{key}", "verify_superpotential_identities", claim, lambda key=key: rep()[key])
        for key, claim in (
            ("ddr_phi_equals_omega", "the de Rham derivative of the primitive equals the 2-form"),
            ("ddr_bigphi_plus_d_phi_zero", "ddr(Phi) + d(phi) vanishes"),
            ("omega_closed", "the 2-form is de Rham closed"),
            ("calculus_consistent", "d.d = 0, ddr.ddr = 0 and d anticommutes with ddr"),
        )
    ))


def checks_family(report: Report, args, rng):
    from .family import build_universal_family

    fam = _shared(lambda: build_universal_family(args.n))
    leib = _shared(lambda: fam().leibniz_report())
    report.run(
        "family.resolution",
        "build_universal_family",
        "the action search resolves to one variant per letter",
        lambda: (True, fam().provenance),
    )
    _run(report, (
        (f"family.leibniz.{g}", "build_universal_family",
         f"the graded Leibniz identity holds for the letter {g}", lambda g=g: leib()[g])
        for g in "xyzuvwt"
    ))


def checks_resolution(report: Report, args, rng):
    from .family import build_ginzburg_resolution

    _run(report, (
        (f"resolution.{key.replace(' ', '_')}", "build_ginzburg_resolution",
         f"{key} cancels literally after commutation rewriting",
         lambda image=image: image().normalize().is_zero())
        for key, image in build_ginzburg_resolution().composites().items()
    ))


def checks_chainmap(report: Report, args, rng):
    from .family import build_comparison_map
    from .points import random_conjugate_points
    from .potential import MatrixCdga

    n, samples = args.n, args.samples
    cdga = _shared(lambda: MatrixCdga(n))
    comparison = _shared(lambda: build_comparison_map(n, cdga()))

    def symbolic():
        record = comparison()[1]
        details = {"chosen": str(record["chosen"])}
        if record.get("search"):
            details["solutions"] = record["symbolic_solutions"]
        return True, details

    @_shared
    def at_points():
        # draw the samples before anything can fail, so the batteries after
        # this one see the same rng state either way
        pts = random_conjugate_points(n, samples, rng)
        cm = comparison()[0]
        reps = [cm.check_at_point(cdga().point(pt.X, pt.Y, pt.Z)) for pt in pts]
        return sum(not rep["ok"] for rep in reps), all(rep["all_invertible"] for rep in reps)

    _run(report, (
        ("chainmap.symbolic", "build_comparison_map",
         "a signed permutation intertwines the models symbolically", symbolic),
        ("chainmap.points", "check_chain_map",
         f"the comparison squares commute at {samples} sampled commuting points",
         lambda: (at_points()[0] == 0, {"samples": samples, "failures": at_points()[0]})),
        ("chainmap.invertible", "check_chain_map",
         "every degree of the comparison map is invertible at the samples", lambda: at_points()[1]),
    ))


def checks_ext(report: Report, args, rng):
    from .family import check_ext_point, endomorphism_model
    from .points import enumerate_partitions, point_from_partition, random_conjugate_points, save_corpus

    prime = args.prime

    @_shared
    def ext():
        points = list(args.corpus_points or [])
        n = args.n
        if args.corpus in ("partitions", "both"):
            points.extend(point_from_partition(pp) for pp in enumerate_partitions(n))
        if args.corpus in ("random", "both"):
            points.extend(random_conjugate_points(n, args.samples, rng))
        if args.save_corpus:
            save_corpus(points, args.save_corpus)
        model = endomorphism_model(n)
        field_p = GF(prime)
        return points, [check_ext_point(pt, model, field_p) for pt in points]

    def oracle_agreement():
        points, records = ext()
        per_point, bad = [], []
        for idx, (pt, rec) in enumerate(zip(points, records)):
            shown = ("exception",) if "exception" in rec else ("dims", "pairing_ranks")
            per_point.append({"point": idx, "provenance": pt.provenance, **{k: rec[k] for k in shown}})
            if "exception" in rec:
                bad.append((idx, rec["exception"]))
            elif rec["dims"] != rec["oracle_dims"]:
                bad.append((idx, rec["dims"], rec["oracle_dims"]))
        return not bad, {"points": len(points), "per_point": per_point}, str(bad[:3]) if bad else None

    def everywhere(verdict):
        """A raising point has no verdicts, so it fails every one."""
        bad = [idx for idx, rec in enumerate(ext()[1]) if not rec.get(verdict)]
        return not bad, None, f"points {bad[:3]}" if bad else None

    def prime_comparison():
        # a raising point is a failure of the other three records
        bad = [idx for idx, rec in enumerate(ext()[1]) if "exception" not in rec and not rec["prime"]]
        if bad:
            raise CheckWarning(
                f"dimensions over GF({prime}) disagree with the rational ones "
                f"at {len(bad)} points (possible bad prime)",
                {"points": bad[:5]},
            )
        return True

    _run(report, (
        ("ext.oracle_agreement", "ext_dims_at",
         "endomorphism-model Ext dimensions match the Koszul oracle at every corpus point",
         oracle_agreement),
        ("ext.euler", "ext_dims_at",
         "the Euler characteristic vanishes at every corpus point", lambda: everywhere("euler")),
        ("ext.serre_pairing", "ext_dims_at",
         "the composition-trace pairing is perfect at every corpus point", lambda: everywhere("pairing")),
        ("ext.prime_comparison", "homology_dims",
         f"dimensions over GF({prime}) agree with the rational ones", prime_comparison),
    ))


def checks_partitions(report: Report, args, rng):
    from .points import enumerate_partitions, enumerate_partitions_by_heights

    n = args.n

    def two_strategies():
        counts = []
        ok = True
        for size in range(1, n + 1):
            a = enumerate_partitions(size)
            b = enumerate_partitions_by_heights(size)
            counts.append(len(a))
            if sorted(p.cells for p in a) != sorted(p.cells for p in b):
                ok = False
        return ok, {"counts": counts}

    report.run(
        "partitions.two_strategies",
        "enumerate_partitions",
        f"two independent enumerations agree for sizes 1..{n}",
        two_strategies,
    )


# (record name, claim, surface, trials, points per trial) of the covers `all` checks
ALL_COVERS = (
    ("toric.cover.P2", "chart search round-trips on P2", {"base": "P2"}, 25, 4),
    ("toric.cover.F0", "chart search round-trips on F0", {"base": "F0"}, 25, 4),
    ("toric.cover.F2", "chart search round-trips on F2", {"base": "F2"}, 25, 4),
    ("toric.cover.tower", "chart search round-trips on a two-blowup tower",
     {"base": "P2", "blowups": [0, 2]}, 25, 3),
)


def checks_covers(report: Report, args, rng):
    """Chart search round trips on random configurations.  ``all`` passes its
    covers as ``args.covers``; ``toric cover-stats`` checks the one surface
    of its flags and also reports the trial count and the failures."""
    from .toric import Surface, SurfaceSpec, verify_cover_property

    single = "covers" not in args
    covers = args.covers if not single else [(
        "toric.cover_stats",
        f"chart search succeeds with exact round trip on {args.trials} random configurations",
        args.surface, args.trials, args.points_per_trial,
    )]
    for name, claim, surface, trials, per_trial in covers:

        def cover(surface=surface, trials=trials, per_trial=per_trial):
            surface = Surface(SurfaceSpec.from_json_obj(surface))
            rep = verify_cover_property(surface, trials, per_trial, rng)
            if not single:
                return rep["ok"], {"successes": rep["successes"]}
            failures = str(rep["failures"]) if rep["failures"] else None
            return rep["ok"], {"successes": rep["successes"], "trials": rep["trials"]}, failures

        report.run(name, "verify_cover_property", claim, cover)


# Every battery under the name its subcommand looks it up by, in the order
# `all` runs them, with the settings `all` runs it with on top of its own
# flags (a callable setting is computed from those flags).
BATTERIES = {
    "cdga": (checks_cdga, {}),
    "superpotential": (checks_superpotential, {}),
    "family": (checks_family, {}),
    "resolution": (checks_resolution, {}),
    "chainmap": (checks_chainmap, {}),
    "ext": (checks_ext, {"corpus": "both", "corpus_points": None, "save_corpus": None}),
    "partitions": (checks_partitions, {"n": lambda args: max(args.n, 4)}),
    "cover-stats": (checks_covers, {"covers": ALL_COVERS}),
}


def _with_settings(args, settings):
    out = argparse.Namespace(**vars(args))
    for key, value in settings.items():
        setattr(out, key, value(args) if callable(value) else value)
    return out


def cmd_toric_chart(parser, args):
    from .toric import FnPoint, P2Point, Surface, SurfaceSpec, TowerPoint, find_chart

    spec = SurfaceSpec.from_json_obj(args.surface)

    def coords(raw, width):
        if not isinstance(raw, list) or len(raw) != width:
            raise ValueError(f"expected a list of {width} coordinates, got {json.dumps(raw)}")
        return raw

    def point(raw):
        if spec.blowups and isinstance(raw, dict):
            direction = P2Point(*coords(raw.get("direction"), 3))
            return TowerPoint(center=raw.get("center"), direction=direction)
        if spec.blowups:
            return TowerPoint(base=P2Point(*coords(raw, 3)))
        if spec.base == "P2":
            return P2Point(*coords(raw, 3))
        return FnPoint(spec.k, *coords(raw, 4))

    # a malformed point is a usage error, and so is a point the chart search
    # refuses (a plane point at a blowup center, say)
    try:
        points = []
        for idx, raw in enumerate(args.points):
            try:
                points.append(point(raw))
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"point {idx}: {exc}") from None
        result = find_chart(Surface(spec), points)
    except ValueError as exc:
        parser.error(f"argument --points: {exc}")
    _emit(args, json.dumps(result.to_json_obj(), sort_keys=True, indent=1))
    return 0


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


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


def _json(text):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not JSON: {exc}") from None


def _point_list(text):
    value = _json(text)
    if not isinstance(value, list):
        raise argparse.ArgumentTypeError("expected a JSON list of points")
    return value


def _surface(text):
    """A surface spec the chart search supports, as its normalized JSON."""
    from .toric import Surface, SurfaceSpec, find_chart

    obj = _json(text)
    if not isinstance(obj, dict):
        raise argparse.ArgumentTypeError('expected {"base": "P2" or "F<k>", "blowups": [...]}')
    try:
        spec = SurfaceSpec.from_json_obj(obj)
        find_chart(Surface(spec), [])
    except (TypeError, ValueError, IndexError) as exc:
        raise argparse.ArgumentTypeError(f"unsupported surface: {exc}") from None
    return spec.to_json_obj()


def _corpus(path):
    """The points of a corpus file: at least one, all of one rank, each commuting."""
    from .points import load_corpus

    if not os.path.isfile(path):
        raise argparse.ArgumentTypeError(f"no such file: {path}")
    try:
        points = load_corpus(path)
    except (TypeError, ValueError, KeyError) as exc:
        raise argparse.ArgumentTypeError(f"malformed corpus {path}: {exc}") from None
    if not points:
        raise argparse.ArgumentTypeError(f"{path} holds no points")
    for idx, pt in enumerate(points):
        if pt.n != points[0].n:
            raise argparse.ArgumentTypeError(
                f"point {idx} of {path} has n={pt.n}, point 0 has n={points[0].n}"
            )
        if not pt.is_commuting():
            raise argparse.ArgumentTypeError(f"point {idx} of {path} is not a commuting triple")
    return points


def _writable_file(path):
    """A file path whose directory exists and can be written to."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"no such directory: {directory}")
    if os.path.isdir(path) or not os.access(directory, os.W_OK):
        raise argparse.ArgumentTypeError(f"cannot write to {path}")
    return path


def _add_common(parser, battery=None, reported=()):
    """The flags every subcommand takes; ``battery`` names the registry entry
    the subcommand runs and ``reported`` the flags its configuration adds."""
    parser.add_argument("--n", type=_positive_int, default=2, help="matrix rank")
    parser.add_argument("--prime", type=_prime, default=DEFAULT_PRIME)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=_positive_int, default=20)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--out", type=_writable_file, default=None)
    parser.set_defaults(battery=battery, reported=reported)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="critlocus",
        description="exact verification workbench for the matrix superpotential dg structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one verification battery")
    vsub = verify.add_subparsers(dest="what", required=True)
    for what in ("cdga", "superpotential", "family", "resolution", "chainmap"):
        _add_common(vsub.add_parser(what), what, ("battery",))

    ext = sub.add_parser("ext", help="Ext dimensions against the independent oracle")
    _add_common(ext, "ext", ("corpus",))
    ext.add_argument(
        "--corpus", choices=("partitions", "random", "both", "none"), default="both"
    )
    ext.add_argument(
        "--corpus-file",
        dest="corpus_points",
        metavar="FILE",
        type=_corpus,
        default=None,
        help="read extra points from a corpus file",
    )
    ext.add_argument(
        "--save-corpus", type=_writable_file, default=None, help="write the evaluated corpus to a file"
    )

    parts = sub.add_parser("partitions", help="plane partition counts, two strategies")
    _add_common(parts, "partitions")

    toric = sub.add_parser("toric", help="toric surface chart operations")
    tsub = toric.add_subparsers(dest="what", required=True)
    chart = tsub.add_parser("chart")
    _add_common(chart)
    chart.add_argument("--surface", type=_surface, required=True, help="surface spec as JSON")
    chart.add_argument("--points", type=_point_list, required=True, help="point list as JSON")
    cover = tsub.add_parser("cover-stats")
    _add_common(cover, "cover-stats", ("surface", "trials"))
    cover.add_argument("--surface", type=_surface, required=True)
    cover.add_argument("--trials", type=_positive_int, default=100)
    cover.add_argument("--points-per-trial", type=_positive_int, default=4)

    _add_common(sub.add_parser("all", help="the full battery at one rank"), "all", ("battery",))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.battery is None:  # toric chart
            return cmd_toric_chart(parser, args)
        if getattr(args, "corpus", None) == "none" and args.corpus_points is None:
            parser.error("--corpus none checks no points without --corpus-file")
    except SystemExit as exc:  # argparse has printed the usage error
        return exc.code
    if getattr(args, "corpus_points", None):
        args.n = args.corpus_points[0].n  # the rank of every corpus point
    rng = random.Random(args.seed)
    configuration = {"n": args.n, "prime": args.prime, "seed": args.seed, "samples": args.samples}
    configuration.update((key, getattr(args, key)) for key in args.reported)
    report = Report(configuration)
    if args.battery == "all":
        for battery, settings in BATTERIES.values():
            battery(report, _with_settings(args, settings), rng)
    else:
        BATTERIES[args.battery][0](report, args, rng)
    _emit(args, report.to_json() if args.format == "json" else report.to_text())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
