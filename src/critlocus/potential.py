"""The matrix superpotential W = tr(X0 [Y0, Z0]) and its Koszul cdga.

Conventions (the transpose ledger, fixed once here and imported everywhere):

* W = tr(X0 [Y0, Z0]); its partial derivative in the (i,j) entry of X0 is
  the (j,i) entry of [Y0, Z0], i.e. the transposed commutator.
* The cdga differential sends Xm1(i,j) to [Y0,Z0]^T(i,j), cyclically for
  Ym1, Zm1, and T(i,j) to ([X0, Xm1^T] + [Y0, Ym1^T] + [Z0, Zm1^T])(i,j).
  The transposes on the odd blocks in dT are forced: with dXm1 = [Y0,Z0]^T,
  the untransposed combination [X0, Xm1] fails d.d = 0 in rank >= 3, while
  this one reduces to the matrix Jacobi identity.
* gl_n acts on X0, Y0, Z0 and T by the commutator action E.M = [E, M] and
  on the odd generators by E.M = -[E^T, M]; this is the unique assignment
  making the differential equivariant.
* The de Rham differential anticommutes with the cdga differential, so the
  internal differential of the module of Kahler differentials is
  d(dg) = -ddr(d g).

The cotangent complex of the quotient by GL_n is modelled as a free complex
in degrees -2..1 with ranks (n^2, 3n^2, 3n^2, n^2).  Its basis in degree
q <= 0 is the generators of cdeg q in table order (T; then Xm1, Ym1, Zm1;
then X0, Y0, Z0), and in degree 1 the gl_n slots (a,b), row-major.  The
adjacent blocks are the degree-0 components of the total differential, and
the components that jump two or three degrees (entries of negative degree)
are kept as twist components, so the flatness identity of
:meth:`FreeComplex.check_flatness` holds exactly.  Setting the odd
generators to zero recovers an honest complex at every commuting triple.
"""

from __future__ import annotations

from .complexes import FreeComplex, SymMatrix, _Point
from .points import check_square
from .scalars import QQ
from .superpoly import Derivation, GeneratorTable, SuperPoly


def symbol_matrix(table, name: str, n: int) -> SymMatrix:
    """The n x n matrix whose (i,j) entry is the generator name(i+1,j+1),
    read by table offset (``GeneratorTable.block_start``).  A table that is
    not a canonical table of rank n, nor its extension by forms, raises
    ValueError naming both ranks."""
    if table.n != n:
        raise ValueError(f"a rank-{n} matrix {name} needs a rank-{n} canonical table, not one of rank {table.n}")
    start = GeneratorTable.block_start(name, n)
    rows = [[SuperPoly.gen(table, start + i * n + j) for j in range(n)] for i in range(n)]
    return SymMatrix(table, n, n, rows)


def commutator(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    return a.matmul(b).add(b.matmul(a).scale(-1))


def trace(a: SymMatrix) -> SuperPoly:
    return sum((row[i] for i, row in enumerate(a.sparse_rows) if i in row), SuperPoly.zero(a.table))


def cdga_of_rank(n: int, cdga: "MatrixCdga" = None) -> "MatrixCdga":
    """``cdga``, or a new rank-n cdga when it is None; a cdga of another
    rank raises ValueError naming both ranks."""
    if cdga is None:
        return MatrixCdga(n)
    if cdga.n != n:
        raise ValueError(f"a rank-{cdga.n} cdga cannot build a rank-{n} model")
    return cdga


def build_potential(n: int, table=None) -> SuperPoly:
    """W = tr(X0 [Y0, Z0]) as a degree-0 element of the rank-n cdga."""
    if table is None:
        table = GeneratorTable.canonical(n)
    x, y, z = (symbol_matrix(table, name, n) for name in ("X0", "Y0", "Z0"))
    return trace(x.matmul(commutator(y, z)))


class MatrixCdga:
    """The rank-n Koszul cdga with its degree +1 differential."""

    def __init__(self, n: int):
        self.n = n
        self.table = GeneratorTable.canonical(n)
        t = self.table
        self.x0, self.y0, self.z0, self.xm1, self.ym1, self.zm1, self.tgen = (
            symbol_matrix(t, name, n) for name, _ in GeneratorTable.MATRIX_BLOCKS
        )
        self.potential = build_potential(n, t)
        self.differential = self._build_differential()
        self._ext = None

    # -- the differential ----------------------------------------------------

    def _odd_images(self):
        """dXm1 = [Y0,Z0]^T entrywise, cyclically for Ym1, Zm1."""
        t = self.table
        trips = (
            ("Xm1", self.y0, self.z0),
            ("Ym1", self.z0, self.x0),
            ("Zm1", self.x0, self.y0),
        )
        images = {}
        for name, a, b in trips:
            images.update(_entry_images(t, name, commutator(a, b).transpose()))
        return images

    def _t_images(self):
        mu = commutator(self.x0, self.xm1.transpose())
        mu = mu.add(commutator(self.y0, self.ym1.transpose()))
        mu = mu.add(commutator(self.z0, self.zm1.transpose()))
        return _entry_images(self.table, "T", mu)

    def _build_differential(self) -> Derivation:
        images = self._odd_images()
        images.update(self._t_images())
        d = Derivation(self.table, images, parity=1, cdeg_shift=1)
        d.check_degrees()
        return d

    # -- checks ----------------------------------------------------------------

    def d_squared_on_generators(self):
        """d(d(g)) for every generator; returns list of nonzero offenders."""
        bad = []
        d = self.differential
        for k in range(len(self.table)):
            val = d.apply(d.image_of(k))
            if not val.is_zero():
                bad.append((self.table.gen(k).name, val))
        return bad

    def jacobian_entries(self):
        """The 3n^2 entries of dW, in block order.  W is linear in each of
        X0, Y0 and Z0, so splitting W by one block's generators gives that
        block's partial derivatives."""
        n, t = self.n, self.table
        out = []
        for name in ("X0", "Y0", "Z0"):
            start = GeneratorTable.block_start(name, n)
            block = range(start, start + n * n)
            split = self.potential.linear_coefficients(block)
            out.extend(split[k] if k in split else SuperPoly.zero(t) for k in block)
        return out

    def commutator_entries_transposed(self):
        """[Y0,Z0]^T, [Z0,X0]^T, [X0,Y0]^T entries in the same order."""
        n, out = self.n, []
        for a, b in ((self.y0, self.z0), (self.z0, self.x0), (self.x0, self.y0)):
            c = commutator(a, b)
            out.extend(c.entry(j, i) for i in range(n) for j in range(n))
        return out

    def koszul_display(self) -> FreeComplex:
        """The low wedge degrees of the Koszul complex of dW, extended by the
        degree -2 generators: ranks (n^2, 3n^2, 1) in degrees -2, -1, 0.

        d(-1 -> 0) is the row vector of Jacobian entries, d(-2 -> -1)
        expresses dT in the odd-generator basis; the composite vanishes
        identically by the matrix Jacobi identity.
        """
        n, t = self.n, self.table
        nn = n * n
        d_top = SymMatrix(t, 1, 3 * nn, [self.jacobian_entries()])
        d_bot = SymMatrix(t, 3 * nn, nn)
        # the odd generators, in table order, are the rows of d_bot
        start = degree_starts(t)
        odd = range(start[-1], start[-1] + 3 * nn)
        for col in range(nn):
            image = self.differential.image_of(start[-2] + col)
            for k, coeff in image.linear_coefficients(odd).items():
                d_bot.set(k - start[-1], col, coeff)
        return FreeComplex(
            t,
            {-2: nn, -1: 3 * nn, 0: 1},
            {-2: d_bot, -1: d_top},
        )

    # -- the de Rham extension --------------------------------------------------

    def extended(self):
        """(ext table, d extended, ddr) with d(dg) = -ddr(d g)."""
        if self._ext is not None:
            return self._ext
        t = self.table
        ext = t.extend_with_forms()
        base = len(t)

        def lift(p: SuperPoly) -> SuperPoly:
            # base and extension share generator indices below ``base``
            return SuperPoly(ext, dict(p.terms))

        ddr_images = {k: SuperPoly.gen(ext, base + k) for k in range(base)}
        ddr = Derivation(ext, ddr_images, parity=1)
        d_images = {}
        for k in range(base):
            d_images[k] = lift(self.differential.image_of(k))
        for k in range(base):
            d_images[base + k] = -ddr.apply(d_images[k])
        d_ext = Derivation(ext, d_images, parity=1)
        self._ext = (ext, d_ext, ddr)
        return self._ext

    def point_assignment(self, X, Y, Z) -> dict:
        """Map degree-0 generator k to entry k of X, Y, Z, each read
        row-major, in that order, as the canonical table lists X0, Y0, Z0.

        A matrix of any other shape raises ValueError naming both shapes,
        and a float or bool entry raises TypeError naming it (``QQ.of``).
        """
        for name, m in (("X", X), ("Y", Y), ("Z", Z)):
            check_square(name, m, self.n)
        entries = (x for m in (X, Y, Z) for row in m for x in row)
        return {k: QQ.of(x) for k, x in enumerate(entries)}

    def point(self, X, Y, Z) -> _Point:
        """The point X0 = X, Y0 = Y, Z0 = Z with its denominators cleared,
        which every evaluation at the triple reads."""
        return _Point(self.table, self.point_assignment(X, Y, Z))


def degree_starts(table) -> dict:
    """{q: index of the first generator of cdeg q}.  The canonical table
    lists each degree's generators contiguously, so a generator's slot in
    the cotangent basis of its degree is its index minus this start."""
    starts = {}
    for k in range(len(table)):
        starts.setdefault(table.cdeg(k), k)
    return starts


def _entry_images(table, name: str, m: SymMatrix) -> dict:
    """The nonzero entries of ``m`` keyed by the index of the generator
    name(i+1,j+1) at their position; a missing image is zero."""
    n = table.n
    start = GeneratorTable.block_start(name, n)
    return {start + i * n + j: p for i, row in enumerate(m.sparse_rows) for j, p in row.items()}


# -- the action of gl_n -----------------------------------------------------------


def coaction_derivation(cdga: MatrixCdga, a: int, b: int) -> Derivation:
    """The vector field of the elementary matrix E_(a,b), 1-based indices;
    an index that is not an int in 1..n raises ValueError naming it.

    Even generators transform by M -> [E, M], odd ones by M -> -[E^T, M];
    this is the unique extension under which the differential is
    equivariant.  Only the nonzero images are written, by table offset
    (``GeneratorTable.block_start``).
    """
    n, t = cdga.n, cdga.table
    for label, v in (("a", a), ("b", b)):
        if type(v) is not int or not 1 <= v <= n:
            raise ValueError(f"gl_{n} index {label} = {v!r} is not an int in 1..{n}")
    images = {}
    for name, deg in GeneratorTable.MATRIX_BLOCKS:
        start, odd = GeneratorTable.block_start(name, n), deg & 1
        # s * [E_pq, M](i,j) = s * (delta_ip M(q,j) - M(i,p) delta_jq), 0-based,
        # with -[E_ab^T, M] = -[E_ba, M] on the odd blocks
        p, q, s = (b - 1, a - 1, -1) if odd else (a - 1, b - 1, 1)

        def term(i, j):
            k = start + i * n + j
            return ((), (k,)) if odd else (((k, 1),), ())

        for i in range(n):
            if i != p:
                images[start + i * n + q] = SuperPoly._of_terms(t, {term(i, p): -s})
                continue
            for j in range(n):
                terms = {term(q, j): s}
                if j == q:
                    if p == q:
                        continue
                    terms[term(i, p)] = -s
                images[start + i * n + j] = SuperPoly._of_terms(t, terms)
    return Derivation(t, images, parity=0, cdeg_shift=0)


# -- the cotangent model ------------------------------------------------------------


class CotangentModel:
    """Generator-degree presentation of the stacky cotangent complex.

    The basis of degree q <= 0 is the de Rham symbols of the generators of
    cdeg q, in table order (see :func:`degree_starts`):

    * degree -2: tau(i,j), the symbols of the T generators
    * degree -1: xi_A(i,j) for A = X, Y, Z, symbols of the odd generators
    * degree  0: eta_A(i,j), symbols of the degree-0 generators
    * degree  1: the dual gl_n slots g(a,b), row-major

    ``complex`` holds the free complex with adjacent differentials and
    twist components; ``self_duality_report`` checks the transpose match
    of the outer blocks (pairing tau(i,j) ~ g(j,i)) and the symmetry of
    the middle block (pairing xi_A(i,j) ~ eta_A(i,j)).
    """

    COACTION_SIGN = -1

    def __init__(self, cdga: MatrixCdga):
        self.cdga = cdga
        self.n = cdga.n
        nn = self.n * self.n
        self.ranks = {-2: nn, -1: 3 * nn, 0: 3 * nn, 1: nn}
        self.complex = self._build()

    def _build(self) -> FreeComplex:
        """One pass over the table, then one over the gl actions' images:
        generator k of cdeg q is column k - start[q] of every component
        out of degree q."""
        cdga = self.cdga
        n, t = self.n, cdga.table
        start = degree_starts(t)
        ext, d_ext, _ = cdga.extended()
        base = len(t)
        forms = range(base, len(ext))
        # the gl slots (a,b), row-major
        actions = [coaction_derivation(cdga, a + 1, b + 1) for a in range(n) for b in range(n)]
        # every component, empty ones included; a target in any other
        # degree has no block and raises KeyError
        blocks = {
            (q, r): SymMatrix(t, self.ranks[r], self.ranks[q])
            for q in range(-2, 1)
            for r in range(q + 1, 2)
        }
        for k in range(base):
            q = t.cdeg(k)
            col = k - start[q]
            # -ddr(d g), split by its one form symbol per term, so the
            # coefficients live in the base
            split = d_ext.image_of(base + k).linear_coefficients(forms)
            for tgt, coeff in split.items():
                r = t.cdeg(tgt - base)
                blocks[(q, r)].set(tgt - base - start[r], col, SuperPoly._of_terms(t, coeff.terms))
        # an action's row is its gl slot; it stores about 2n images a block
        for slot, action in enumerate(actions):
            for k, image in action.images.items():
                q = t.cdeg(k)
                blocks[(q, 1)].set(slot, k - start[q], image.scale(self.COACTION_SIGN))
        diff = {q: blocks[(q, q + 1)] for q in range(-2, 1)}
        twist = {(q, r): m for (q, r), m in blocks.items() if r >= q + 2}
        return FreeComplex(t, self.ranks, diff, twist)

    # -- reports -------------------------------------------------------------

    def flatness_report(self):
        ok, failures = self.complex.check_flatness(self.cdga.differential)
        return {"ok": ok, "failures": failures}

    def self_duality_report(self):
        """Outer blocks transpose-match under tau(i,j) ~ g(j,i); middle is
        symmetric under xi_A(i,j) ~ eta_A(i,j).  Records the matching sign."""
        n, c = self.n, self.complex
        # d(0) transposed, its columns relabelled (a,b) -> (b,a)
        top = c.differential(0).sparse_rows
        mirror = SymMatrix(self.cdga.table, n * n, 3 * n * n)
        mirror.sparse_rows = [top[j * n + i] for i in range(n) for j in range(n)]
        mirror = mirror.transpose()
        signs = [sign for sign in (1, -1) if c.differential(-2) == mirror.scale(sign)]
        # both signs match only when both outer blocks vanish (n = 1)
        outer_sign = signs[0] if len(signs) == 1 else None
        mid = c.differential(-1)
        mid_symmetric = mid == mid.transpose()
        return {
            "ok": bool(signs) and mid_symmetric,
            "outer_sign": outer_sign,
            "middle_symmetric": mid_symmetric,
        }

    def evaluate_at(self, X, Y, Z, field=None) -> FreeComplex:
        return self.complex.evaluate_at(self.cdga.point(X, Y, Z), field or QQ)


def build_cotangent_complex(n: int, cdga: MatrixCdga = None) -> CotangentModel:
    return CotangentModel(cdga_of_rank(n, cdga))


# -- the shifted 2-form and its primitive -------------------------------------------


def build_two_form(cdga: MatrixCdga) -> SuperPoly:
    """omega = sum_ij d(Xm1(i,j)) ^ d(X0(i,j)) + the Y and Z terms."""
    return _pair_odd_with_d_even(cdga, len(cdga.table))


def build_primitive_one_form(cdga: MatrixCdga) -> SuperPoly:
    """phi = tr(Xm1 (ddr X0)^T + ...) = sum_ij Xm1(i,j) d(X0(i,j)) + cyc."""
    return _pair_odd_with_d_even(cdga, 0)


def _pair_odd_with_d_even(cdga: MatrixCdga, odd_shift: int) -> SuperPoly:
    """sum_ij o(i,j) d(X0(i,j)) + the Y and Z terms, o(i,j) being Xm1(i,j)
    for ``odd_shift`` 0 and its de Rham symbol d(Xm1(i,j)) for ``odd_shift``
    the size of the base table.  The odd blocks follow the degree-0 ones
    in the same order, so generator odd + r pairs with d(generator r)."""
    ext, _, _ = cdga.extended()
    base = len(cdga.table)
    odd = GeneratorTable.block_start("Xm1", cdga.n)
    acc = SuperPoly.zero(ext)
    for r in range(odd):
        acc += SuperPoly.gen(ext, odd_shift + odd + r) * SuperPoly.gen(ext, base + r)
    return acc


def verify_superpotential_identities(cdga: MatrixCdga) -> dict:
    """Checks, as symbolic normal forms:

    (i)   ddr(phi) = omega
    (ii)  ddr(Phi) + d(phi) = 0 with Phi = -W
    plus the calculus consistency d.d = 0, ddr.ddr = 0, d.ddr + ddr.d = 0
    on all generators of the extended table.
    """
    ext, d_ext, ddr = cdga.extended()
    base = len(cdga.table)

    omega = build_two_form(cdga)
    phi = build_primitive_one_form(cdga)
    w_lift = SuperPoly(ext, dict(cdga.potential.terms))
    big_phi = -w_lift

    report = {}
    report["ddr_phi_equals_omega"] = ddr.apply(phi) == omega
    report["ddr_bigphi_plus_d_phi_zero"] = (
        ddr.apply(big_phi) + d_ext.apply(phi)
    ).is_zero()
    report["omega_closed"] = ddr.apply(omega).is_zero()
    report["omega_form_degree"] = omega.fdeg()
    report["omega_internal_degree"] = omega.cdeg()

    calc_ok = True
    for k in range(len(ext)):
        g = SuperPoly.gen(ext, k)
        if not d_ext.apply(d_ext.apply(g)).is_zero():
            calc_ok = False
        if not ddr.apply(ddr.apply(g)).is_zero():
            calc_ok = False
        anti = d_ext.apply(ddr.apply(g)) + ddr.apply(d_ext.apply(g))
        if not anti.is_zero():
            calc_ok = False
    report["calculus_consistent"] = calc_ok
    report["ok"] = (
        report["ddr_phi_equals_omega"]
        and report["ddr_bigphi_plus_d_phi_zero"]
        and report["omega_closed"]
        and calc_ok
    )
    return report
