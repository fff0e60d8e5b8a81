"""The universal family, its endomorphism complex, and the comparison map.

The rank-n family is the free module on V = k^n over the Koszul cdga,
with the free dga letters acting through n x n matrices over the cdga:
x, y, z act by the degree-0 symbol matrices, and the actions of u, v, w, t
are pinned by the graded Leibniz rule.  The letter images are searched over
the natural index variants (symbol matrix, its transpose, and for t the two
diagonal readings); requiring Leibniz leaves exactly one variant of each.

``EndomorphismModel`` packages RHom(F, F) as a twisted complex: the free
module End(V) (x) Lambda(e_x, e_y, e_z) placed in degrees 0..3, with
differential the graded commutator against the superconnection

    A = X0 (x) e_x + Y0 (x) e_y + Z0 (x) e_z
        - Mu (x) e_y e_z - Mv (x) e_z e_x - Mw (x) e_x e_y
        - Mt (x) e_x e_y e_z,

whose flatness dA + A^2 = 0 is equivalent to the Leibniz identities.  The
differential is built by blocks: on vec(E), E in End(V) read row-major,
[M, E] = (M (x) 1 - 1 (x) M^T) vec(E), so a term M (x) e_a of A maps the
slot of e_S to that of e_(a|S) by M (x) 1 from the left and by 1 (x) M^T
from the right, each signed by ``product_sign``, the sign rule of products
in End(V) (x) cdga (x) Lambda.  The adjacent blocks are the maps induced by
the length-3 bimodule resolution of k[x,y,z] (left-minus-right
multiplication patterns); the jump components carry the homotopies and
vanish at every classical point.

``TangentModel`` is the shifted dual of the cotangent model, placed in
degrees 0..3, and ``build_comparison_map`` finds the signed permutation
identifying it with the endomorphism model, block by block.

``BimodElement`` is the element type of the Ginzburg resolution: a
``scalars.Terms`` keyed by (left word, slot, right word), adding only the
outer multiplications and the commutative normal form.
"""

from __future__ import annotations

from itertools import product as iproduct

from .complexes import ChainMap, FreeComplex, SymMatrix, homology_representatives
from .freenc import DEGREE, DIFFERENTIAL_ON_LETTERS, NCElement
from .linalg import DenseMatrix
from .points import koszul_ext_oracle
from .potential import CotangentModel, MatrixCdga, cdga_of_rank
from .scalars import QQ, Terms, accumulate
from .superpoly import SuperPoly

LETTER_NAMES = ("x", "y", "z", "u", "v", "w", "t")
EPS_BITS = {"x": 1, "y": 2, "z": 4}
FULL_MASK = 7
# degree-2 slots ordered as the complements of x, y, z
MASKS_BY_DEGREE = {0: (0,), 1: (1, 2, 4), 2: (6, 5, 3), 3: (7,)}


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def eps_merge_sign(m1: int, m2: int) -> int:
    """Sign of e_{m1} ^ e_{m2} against the canonical order, 0 if they meet."""
    if m1 & m2:
        return 0
    sign = 1
    for b2 in range(3):
        if not m2 >> b2 & 1:
            continue
        higher = sum(1 for b1 in range(b2 + 1, 3) if m1 >> b1 & 1)
        if higher & 1:
            sign = -sign
    return sign


def product_sign(a1: int, a2: int, p2: int) -> int:
    """Sign of (M1 (x) e_a1)(M2 (x) e_a2) = M1 M2 (x) e_(a1|a2) for M2 of
    parity p2: the wedge sign times (-1)^(|a1| p2), 0 if the masks meet."""
    sign = eps_merge_sign(a1, a2)
    return -sign if popcount(a1) & p2 & 1 else sign


# -- the module structure -----------------------------------------------------------


class DModuleAction:
    """Action matrices of the dga letters on the rank-n family.

    ``matrices[g]`` is the n x n ``SymMatrix`` over the cdga with
    g . (1 (x) e_i) = sum_j M(j, i) (x) e_j.
    """

    def __init__(self, cdga: MatrixCdga, matrices: dict, provenance: dict):
        self.cdga = cdga
        self.n = cdga.n
        self.matrices = matrices
        self.provenance = provenance

    def act_word(self, word) -> SymMatrix:
        """Matrix of a word of letters (product in word order)."""
        out = None
        for letter in word:
            m = self.matrices[letter]
            out = m if out is None else out.matmul(m)
        return SymMatrix.identity(self.cdga.table, self.n) if out is None else out

    def act(self, element: NCElement) -> SymMatrix:
        acc = SymMatrix(self.cdga.table, self.n, self.n)
        for word, c in element.terms.items():
            acc = acc.add(self.act_word(word).scale(c))
        return acc

    def leibniz_defect(self, letter: str) -> SymMatrix:
        """d(M_g) - M_(dg), zero iff the Leibniz rule holds for g."""
        lhs = self.matrices[letter].map_entries(self.cdga.differential.apply)
        return lhs.add(self.act(DIFFERENTIAL_ON_LETTERS[letter]).scale(-1))

    def leibniz_report(self) -> dict:
        out = {}
        for g in LETTER_NAMES:
            out[g] = self.leibniz_defect(g).is_zero()
        out["ok"] = all(out[g] for g in LETTER_NAMES)
        return out


def build_universal_family(n: int, cdga: MatrixCdga = None) -> DModuleAction:
    """Resolve the letter actions by the Leibniz search.

    x, y, z always act by the degree-0 symbol matrices.  For each of
    u, v, w the candidates are the odd symbol matrix and its transpose; for
    t they are the T symbol matrix, its transpose, and the two diagonal
    readings of the summed formula.  Exactly one candidate (up to equal
    matrices) may survive; anything else raises.  A ``cdga`` of another
    rank than n raises ValueError.
    """
    cdga = cdga_of_rank(n, cdga)
    d = cdga.differential
    matrices = {
        "x": cdga.x0,
        "y": cdga.y0,
        "z": cdga.z0,
    }
    provenance = {"x": "symbol", "y": "symbol", "z": "symbol"}

    partial = DModuleAction(cdga, dict(matrices), {})

    def resolve(letter, candidates):
        target = partial.act(DIFFERENTIAL_ON_LETTERS[letter])
        winners = []
        for tag, cand in candidates:
            if cand.map_entries(d.apply) == target:
                if not any(cand == w[1] for w in winners):
                    winners.append((tag, cand))
        if len(winners) != 1:
            raise ValueError(
                f"Leibniz search for {letter!r} found {len(winners)} inequivalent "
                f"candidates: {[w[0] for w in winners]}"
            )
        return winners[0]

    for letter, sym in (("u", cdga.xm1), ("v", cdga.ym1), ("w", cdga.zm1)):
        tag, m = resolve(
            letter, [("symbol", sym), ("transposed symbol", sym.transpose())]
        )
        matrices[letter] = m
        provenance[letter] = tag
        partial = DModuleAction(cdga, dict(matrices), {})

    tag, m = resolve(
        "t",
        [
            ("symbol", cdga.tgen),
            ("transposed symbol", cdga.tgen.transpose()),
            ("row-summed diagonal", _row_sum_diagonal(cdga.tgen)),
            ("column-summed diagonal", _row_sum_diagonal(cdga.tgen.transpose())),
        ],
    )
    matrices["t"] = m
    provenance["t"] = tag
    return DModuleAction(cdga, matrices, provenance)


def _row_sum_diagonal(m: SymMatrix) -> SymMatrix:
    """The diagonal matrix whose (i,i) entry is the sum of row i of ``m``."""
    out = SymMatrix(m.table, m.rows, m.rows)
    for i, row in enumerate(m.sparse_rows):
        out.set(i, i, sum(row.values(), SuperPoly.zero(m.table)))
    return out


# -- the bimodule resolution of k[x,y,z] ----------------------------------------------


class BimodElement(Terms):
    """Element of C (x) S (x) C for C = k[x,y,z] and a slot alphabet S.

    Terms are (left word, slot, right word) with words kept as written;
    ``normalize`` rewrites each word to sorted order (the commutation
    relations xy = yx, yz = zy, zx = xz) and merges, so cancellation after
    rewriting is literal dictionary cancellation.  The linear structure,
    hashing included, is inherited from :class:`Terms`.
    """

    __slots__ = ()

    @classmethod
    def term(cls, left, slot, right, coeff=1):
        return cls({(tuple(left), slot, tuple(right)): coeff})

    def lmul(self, word):
        return self._like({(tuple(word) + l, s, rt): c for (l, s, rt), c in self.terms.items()})

    def rmul(self, word):
        return self._like({(l, s, rt + tuple(word)): c for (l, s, rt), c in self.terms.items()})

    def normalize(self) -> "BimodElement":
        return self._like(accumulate({}, (
            ((tuple(sorted(l)), s, tuple(sorted(rt))), c) for (l, s, rt), c in self.terms.items()
        )))


CYCLIC_NEXT = {"x": ("y", "z"), "y": ("z", "x"), "z": ("x", "y")}


class GinzburgResolution:
    """The length-3 self-dual bimodule resolution of C = k[x,y,z].

    Slots: None for C (x) C, a letter for C (x) E (x) C, a starred letter
    for C (x) E* (x) C.
    """

    def alpha0(self, elem: BimodElement) -> BimodElement:
        out = BimodElement()
        for (l, s, rt), c in elem.terms.items():
            if s is None or s.endswith("*"):
                raise ValueError("alpha0 expects E-slot elements")
            out += BimodElement.term(l + (s,), None, rt, c)
            out -= BimodElement.term(l, None, (s,) + rt, c)
        return out

    def alpha_m1(self, elem: BimodElement) -> BimodElement:
        out = BimodElement()
        for (l, s, rt), c in elem.terms.items():
            if s is None or not s.endswith("*"):
                raise ValueError("alpha_m1 expects E*-slot elements")
            a = s[0]
            b, d = CYCLIC_NEXT[a]
            img = (
                BimodElement.term((b,), d, ())
                + BimodElement.term((), b, (d,))
                - BimodElement.term((d,), b, ())
                - BimodElement.term((), d, (b,))
            )
            out += img.lmul(l).rmul(rt).scale(c)
        return out

    def alpha_m2(self, elem: BimodElement) -> BimodElement:
        out = BimodElement()
        for (l, s, rt), c in elem.terms.items():
            if s is not None:
                raise ValueError("alpha_m2 expects C (x) C elements")
            img = BimodElement()
            for a in ("x", "y", "z"):
                img += BimodElement.term((), a + "*", (a,))
                img -= BimodElement.term((a,), a + "*", ())
            out += img.lmul(l).rmul(rt).scale(c)
        return out

    def multiply_out(self, elem: BimodElement) -> BimodElement:
        """The augmentation C (x) C -> C, as sorted words with empty slot."""
        out = BimodElement()
        for (l, s, rt), c in elem.terms.items():
            if s is not None:
                raise ValueError("augmentation expects C (x) C elements")
            out += BimodElement.term(tuple(sorted(l + rt)), None, (), c)
        return out

    def composites(self) -> dict:
        """Every composite that must cancel, by name: a thunk returning its
        image on the generator, not yet normalized."""
        term = BimodElement.term
        out = {}
        for a in ("x", "y", "z"):
            out[f"alpha0.alpha_m1 on {a}*"] = lambda a=a: self.alpha0(self.alpha_m1(term((), a + "*", ())))
        out["alpha_m1.alpha_m2"] = lambda: self.alpha_m1(self.alpha_m2(term((), None, ())))
        for a in ("x", "y", "z"):
            out[f"augmentation.alpha0 on {a}"] = lambda a=a: self.multiply_out(self.alpha0(term((), a, ())))
        return out


def build_ginzburg_resolution() -> GinzburgResolution:
    return GinzburgResolution()


# -- the endomorphism complex ---------------------------------------------------------


class EndomorphismModel:
    """RHom(F, F) as a twisted complex in degrees 0..3.

    Basis at degree q: pairs ((i,j), mask) with popcount(mask) = q, masks
    ordered as in MASKS_BY_DEGREE and (i,j) row-major inside each mask
    block.  The differential is [A, -] for the superconnection A; the
    coefficient differential of the base cdga completes it to a flat
    twisted complex.  The block from slot S to slot a | S is, for the
    term M (x) e_a of A,

        s_a (eps(a, S) M (x) 1 - (-1)^|S| eps'(S, a) 1 (x) M^T),

    s_a the term's sign, eps(a, S) = product_sign(a, S, 0) and
    eps'(S, a) = product_sign(S, a, parity of M).
    """

    def __init__(self, action: DModuleAction):
        self.action = action
        self.cdga = action.cdga
        self.n = action.n
        nn = self.n * self.n
        self.ranks = {0: nn, 1: 3 * nn, 2: 3 * nn, 3: nn}
        self.terms = self._superconnection_terms()
        self.complex = self._build()

    def _superconnection_terms(self):
        """(matrix, mask, sign, parity) per term M (x) e_mask of A, the parity
        being that of the letter's degree."""
        # the homotopy letters enter with minus signs; v flips once more
        # because e_z e_x is written against the canonical order
        m, e = self.action.matrices, EPS_BITS
        terms = [
            ("x", e["x"], 1),
            ("y", e["y"], 1),
            ("z", e["z"], 1),
            ("u", e["y"] | e["z"], -1),
            ("v", e["z"] | e["x"], 1),
            ("w", e["x"] | e["y"], -1),
            ("t", FULL_MASK, -1),
        ]
        return [(m[g], mask, sign, DEGREE[g] & 1) for g, mask, sign in terms]

    def _build(self) -> FreeComplex:
        """[A, -] by blocks: for each term M (x) e_a and source mask S, the
        block from slot S to slot a | S holds the left action M (x) 1, which
        sends E_(j,f) to M(i,j) E_(i,f), and the right action 1 (x) M^T,
        which sends E_(f,i) to M(i,j) E_(f,j), each signed by
        ``product_sign``."""
        n, t = self.n, self.cdga.table
        nn = n * n
        slots = {mask: (q, b * nn) for q, masks in MASKS_BY_DEGREE.items() for b, mask in enumerate(masks)}
        blocks = {}
        for matrix, amask, sgn, parity in self.terms:
            for mask, (q, src) in slots.items():
                if amask & mask:
                    continue
                r, tgt = slots[amask | mask]
                if (q, r) not in blocks:
                    blocks[(q, r)] = SymMatrix(t, self.ranks[r], self.ranks[q])
                block = blocks[(q, r)]
                # [A, b] = A b - (-1)^{|b|} b A, with |b| = |S|
                left = sgn * product_sign(amask, mask, 0)
                right = -sgn * product_sign(mask, amask, parity) * (-1) ** popcount(mask)
                for i, row in enumerate(matrix.sparse_rows):
                    for j, poly in row.items():
                        lpoly, rpoly = poly.scale(left), poly.scale(right)
                        for f in range(n):
                            block.add_to(tgt + i * n + f, src + j * n + f, lpoly)
                            block.add_to(tgt + f * n + j, src + f * n + i, rpoly)
        blocks = {key: m for key, m in blocks.items() if not m.is_zero()}
        diff = {q: blocks[(q, q + 1)] for q in range(3) if (q, q + 1) in blocks}
        twist = {
            (q, r): m for (q, r), m in blocks.items() if r >= q + 2
        }
        return FreeComplex(t, self.ranks, diff, twist)

    # -- evaluation ----------------------------------------------------------------

    def evaluate_at(self, X, Y, Z, field=None) -> FreeComplex:
        return self.complex.evaluate_at(self.cdga.point(X, Y, Z), field or QQ)


_ENDO_CACHE = {}


def endomorphism_model(n: int) -> EndomorphismModel:
    if n not in _ENDO_CACHE:
        _ENDO_CACHE[n] = EndomorphismModel(build_universal_family(n))
    return _ENDO_CACHE[n]


# -- the trace pairing --------------------------------------------------------------


_PARTNER_CACHE = {}


def _pairing_partners(n: int, qk: int) -> dict:
    """Slot of degree 3 - qk -> (the slot of degree qk it pairs with, sign),
    built once per (n, qk)."""
    key = (n, qk)
    if key not in _PARTNER_CACHE:
        nn = n * n
        partner = {}
        for b, mask in enumerate(MASKS_BY_DEGREE[qk]):
            comp = FULL_MASK ^ mask
            block = MASKS_BY_DEGREE[3 - qk].index(comp) * nn
            sign = product_sign(mask, comp, 0)
            for i in range(n):
                for j in range(n):
                    partner[block + j * n + i] = (b * nn + i * n + j, sign)
        _PARTNER_CACHE[key] = partner
    return _PARTNER_CACHE[key]


def trace_pairing_matrix(model_n: int, qk: int, reps_k, reps_comp, field=QQ) -> DenseMatrix:
    """Pairing <a, b> = sum over complementary slots of the matrix trace
    weighted by the orientation of e_S ^ e_S', between representatives
    ``reps_k`` of degree ``qk`` and ``reps_comp`` of degree 3 - qk, each a
    sparse row ``{slot: value}`` as ``homology_representatives`` returns.

    Slot (i, j, S) pairs with exactly one slot, (j, i, S'), S' the
    complement of S, with sign the orientation of e_S ^ e_S'; so the pairing
    is reps_k times the transpose of reps_comp reindexed by that partner and
    signed.
    """
    partner = _pairing_partners(model_n, qk)
    partnered = []
    for rep in reps_comp:
        row = {}
        for slot, x in rep.items():
            pos, sign = partner[slot]
            row[pos] = x if sign > 0 else field.neg(x)
        partnered.append(row)
    a = DenseMatrix.from_sparse(field, len(reps_k), len(partner), reps_k)
    return a.matmul(DenseMatrix.from_sparse(field, len(reps_comp), len(partner), partnered).transpose())


def ext_dims_at(point, field=QQ, model: EndomorphismModel = None) -> dict:
    """Homology dimensions of the endomorphism complex at a commuting point,
    plus the ranks of the trace pairing between complementary degrees.

    ``point`` carries X, Y, Z as n x n arrays of rationals; ``model``, if
    given, must have the same n.
    """
    return _ext_dims(_model_complex(point, field, model), point.n, field)


def _model_complex(point, field, model):
    """The model's complex at a commuting ``point``, over ``field``."""
    if not point.is_commuting():
        raise ValueError("ext dimensions require a commuting triple")
    model = model or endomorphism_model(point.n)
    if model.n != point.n:
        raise ValueError(f"a rank-{model.n} model cannot evaluate a rank-{point.n} point")
    return model.evaluate_at(point.X, point.Y, point.Z, field)


def _ext_dims(cx, n, field) -> dict:
    """``ext_dims_at`` of the evaluated complex ``cx`` of the rank-n model."""
    dims = cx.homology_dims()
    reps = {k: homology_representatives(cx, k) for k in range(4)}
    ranks = {
        (k, 3 - k): trace_pairing_matrix(n, k, reps[k], reps[3 - k], field).rank()
        for k in (0, 1)
    }
    return {
        "dims": dims,
        "euler": sum((-1) ** k * v for k, v in dims.items()),
        "pairing_ranks": ranks,
        "pairing_perfect": all(dims[k] == dims[3 - k] == ranks[(k, 3 - k)] for k in (0, 1)),
    }


def check_ext_point(point, model: EndomorphismModel, field_p) -> dict:
    """One corpus point's Ext check: the model's and the Koszul oracle's
    dims over QQ and the model's pairing ranks, with the verdicts ``euler``,
    ``pairing`` (both pairings perfect) and ``prime`` (the model's dims over
    ``field_p`` are the rational ones; the rational complex is reduced mod p,
    not evaluated again).  A point that raises gives only
    ``{"exception": ...}``."""
    try:
        cx = _model_complex(point, QQ, model)
        mine = _ext_dims(cx, point.n, QQ)
        oracle = koszul_ext_oracle(point)
        try:
            prime = cx.reduced_mod(field_p).homology_dims() == mine["dims"]
        except ZeroDivisionError:
            prime = False
    except Exception as exc:
        return {"exception": f"exception: {exc}"}
    return {
        "dims": [mine["dims"][k] for k in range(4)],
        "oracle_dims": [oracle["dims"][k] for k in range(4)],
        "pairing_ranks": [mine["pairing_ranks"][(0, 3)], mine["pairing_ranks"][(1, 2)]],
        "euler": mine["euler"] == 0,
        "pairing": mine["pairing_perfect"] and oracle["pairing_perfect"],
        "prime": prime,
    }


# -- the tangent model and the comparison map ---------------------------------------------


class TangentModel:
    """The shifted dual of the cotangent model, in degrees 0..3.

    Degree q holds the duals of the cotangent generators in degree 1 - q;
    the component (q -> r) is the transpose of the cotangent component
    (1-r -> 1-q) times the Koszul sign of dualizing and shifting.
    """

    def __init__(self, cotangent: CotangentModel):
        self.cotangent = cotangent
        self.n = cotangent.n
        nn = self.n * self.n
        self.ranks = {0: nn, 1: 3 * nn, 2: 3 * nn, 3: nn}
        self.complex = self._build()

    # Signs of the dualized components by (source, target) degree.  The
    # flat dualizations form a single orbit under flipping basis-block
    # signs; this is the representative with every adjacent block positive.
    DUAL_SIGNS = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 2): 1, (0, 3): -1, (1, 3): 1}

    def _build(self) -> FreeComplex:
        c = self.cotangent.complex
        diff = {}
        twist = {}
        for q in range(4):
            for r in range(q + 1, 4):
                a, b = 1 - q, 1 - r
                src = c.component(b, a)
                m = src.transpose()
                if self.DUAL_SIGNS[(q, r)] < 0:
                    m = m.scale(-1)
                if m.is_zero():
                    continue
                if r == q + 1:
                    diff[q] = m
                else:
                    twist[(q, r)] = m
        return FreeComplex(c.base, self.ranks, diff, twist)


def _signed_permutation(table, n, slot_signs, flavor):
    """Block-diagonal signed permutation: slot b gets sign slot_signs[b],
    and flavor = 1 transposes the (i,j) labels inside each slot."""
    nn = n * n
    size = len(slot_signs) * nn
    m = SymMatrix(table, size, size)
    for b, sign in enumerate(slot_signs):
        s = SuperPoly.scalar(table, sign)
        for i in range(n):
            for j in range(n):
                src = b * nn + i * n + j
                tgt = b * nn + (j * n + i if flavor else i * n + j)
                m.set(tgt, src, s)
    return m


# Identity on the gl block and the letter slots, transposed labels with the
# complement orientation signs on the two-letter slots, identity on top.
CANONICAL_COMPARISON = ((0, (1,)), (0, (1, 1, 1)), (1, (-1, 1, -1)), (0, (1,)))


def build_comparison_map(n: int, cdga: MatrixCdga = None, search: bool = None):
    """The signed-permutation chain map from the shifted tangent model to
    the endomorphism model.

    Per degree, the candidates are: transpose the (i,j) labels inside each
    slot or not, and one of four slot sign patterns (uniform signs, or
    signs following the wedge orientation of the complementary slots).
    Candidates are prefiltered at a commuting point square by square:
    square q involves only the blocks of degrees q and q+1, so each pair of
    adjacent candidates is tested once, and a combination survives when all
    three of its squares commute.  Survivors are verified symbolically,
    twist components included.  Returns (chain map, record).

    ``search`` defaults to n <= 3; above that the canonical solution is
    constructed directly.  Either way the returned map is verified
    symbolically, twist components included.
    """
    cdga = cdga_of_rank(n, cdga)
    cot = CotangentModel(cdga)
    tangent = TangentModel(cot)
    endo = EndomorphismModel(build_universal_family(n, cdga))
    t = cdga.table

    def chain_map(blocks):
        return ChainMap(tangent.complex, endo.complex, dict(enumerate(blocks)))

    if search is None:
        search = n <= 3

    if not search:
        combo = CANONICAL_COMPARISON
        cm = chain_map(_signed_permutation(t, n, signs, flavor) for flavor, signs in combo)
        rep = cm.check_symbolic()
        if not rep["ok"]:
            raise ValueError(f"canonical comparison map fails: {rep['failures'][:3]}")
        return cm, {"chosen": combo, "search": False, "symbolic": True}

    # numeric prefilter at a simple cyclic commuting point
    from .points import nilpotent_regular_point

    pt = nilpotent_regular_point(n)
    point = cdga.point(pt.X, pt.Y, pt.Z)
    src_num = tangent.complex.evaluate_at(point)
    tgt_num = endo.complex.evaluate_at(point)

    sign_patterns = {
        1: [(1,), (-1,)],
        3: [(1, 1, 1), (-1, -1, -1), (1, -1, 1), (-1, 1, -1)],
    }
    candidates = [
        [(flavor, signs) for flavor in (0, 1) for signs in sign_patterns[len(MASKS_BY_DEGREE[q])]]
        for q in range(4)
    ]
    blocks = [[_signed_permutation(t, n, signs, flavor) for flavor, signs in row] for row in candidates]
    numeric = [[block.evaluate(point) for block in row] for row in blocks]

    # commuting[q]: the index pairs (a, b) of candidates at degrees q and
    # q + 1 whose square commutes at the point
    commuting = []
    for q in range(3):
        d_src, d_tgt = src_num.differential(q), tgt_num.differential(q)
        commuting.append({
            (a, b)
            for a, lo in enumerate(numeric[q])
            for b, hi in enumerate(numeric[q + 1])
            if hi.matmul(d_src) == d_tgt.matmul(lo)
        })
    survivors = [
        idx
        for idx in iproduct(*(range(len(row)) for row in candidates))
        if all(idx[q:q + 2] in commuting[q] for q in range(3))
    ]

    verified = []
    for idx in survivors:
        cm = chain_map(blocks[q][i] for q, i in enumerate(idx))
        if cm.check_symbolic()["ok"]:
            verified.append((tuple(candidates[q][i] for q, i in enumerate(idx)), cm))

    record = {
        "numeric_survivors": len(survivors),
        "symbolic_solutions": len(verified),
        "solutions": [c for c, _ in verified],
        "search": True,
    }
    if not verified:
        raise ValueError(f"no signed permutation intertwines the models: {record}")
    by_canonical = [vc for vc in verified if vc[0] == CANONICAL_COMPARISON]
    combo, cm = by_canonical[0] if by_canonical else verified[0]
    record["chosen"] = combo
    return cm, record
