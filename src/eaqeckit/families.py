"""Three verified constructions of entanglement-assisted MDS codes.

Each construction returns a FamilyCertificate holding the built matrices,
the closed-form parameter prediction, the machine-computed parameters (with
both ebit formulas), and a verdict.  Nothing is trusted from the closed
forms: each code is proved MDS once, and the ebit count is computed twice.
A rank-metric G1 or H2 must be the Moore matrix that its own row 0 rebuilds
on coordinates independent over GF(p), so that it spans a Gabidulin code,
MRD and so MDS; no column scan runs.  The other two families go to is_mds,
with automorphisms of their codes that it checks before they shrink the
scan: the cyclic shift of the Vandermonde family at n = q-1, and x -> gamma x
and x -> x + 1 of the extended evaluation family.  C2 goes to the call that
proves C1 as its twin, proved there when C2 = C1 D for a nonzero diagonal D
(every Vandermonde C2 of Table 1, the dual of a GRS code being GRS on the
same nodes; the extended-GRS C2 = C1 with D = I), and scanned otherwise.
No proof passes from one certification to another.

Canonical instantiations (the closed forms leave them open):
  * Vandermonde nodes are powers of the canonical primitive element, which
    makes every consecutive-row code Reed-Solomon-equivalent and hence
    provably MDS instance by instance.
  * The extended evaluation construction uses all q field elements in enc
    order with all-one weights; its duality identity is checked per instance
    on the canonical codes, and a failure is a hard error, never patched over.
  * The rank-metric construction uses the polynomial-basis prefix
    (1, b, ..., b^(n-1)) as generator vector.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import errors
from .eaqec import EaqecParams, PairReport, assemble
from .fmatrix import FMatrix
from .gf import FieldSpec, field_new
from .lincode import DEFAULT_BUDGET, from_generator, from_parity_check, is_mds
from .rankmetric import moore_matrix


@dataclass(frozen=True)
class GrsSpec:
    """Extended evaluation code inputs: dimension k over field, evaluated at
    every field element in enc order with all-one weights."""
    field: FieldSpec
    k: int


@dataclass(frozen=True)
class FamilyCertificate:
    family: str  # vandermonde | grs_extended | gabidulin
    inputs: dict
    G1: FMatrix
    H2: FMatrix
    pair: PairReport
    params: EaqecParams  # computed: k and c from pair, d from the MDS proofs
    predicted: EaqecParams
    verified: bool

    def to_json(self, emit_matrices: bool = False) -> dict:
        out = {
            "family": self.family,
            "inputs": dict(self.inputs),
            "predicted": self.predicted.to_json(),
            "computed": self.params.to_json(),
            "c_product": self.pair.c_product,
            "c_stack": self.pair.c_stack,
            "verified": self.verified,
        }
        if emit_matrices:
            out["G1"] = self.G1.to_text()
            out["H2"] = self.H2.to_text()
        return out


def _require(cond: bool, inequality: str, actual: str) -> None:
    if not cond:
        raise errors.ConstraintViolation(f"{inequality} violated: {actual} is false")


def _within_budget(entries: int) -> None:
    if entries > DEFAULT_BUDGET:
        raise errors.Infeasible(f"the matrices would hold {entries} entries, "
                                f"over the budget of {DEFAULT_BUDGET}")


def _certify(family: str, inputs: dict, G1: FMatrix, H2: FMatrix, k1: int, k2: int,
             predicted: EaqecParams, symmetries=(), moore: bool = False) -> FamilyCertificate:
    """Certify the pair C1 = rowspace(G1), C2 = ker(H2) against its closed form.

    A dimension other than k1, k2 or a code that fails its MDS proof is a
    FormulaMismatch.  With moore, G1 and H2 must each equal the Moore matrix
    that its own row 0 rebuilds (each row the Frobenius image of the one
    above, row 0 independent over GF(p)), so each spans a Gabidulin code,
    MRD and so MDS (Gabidulin 1985), and C2 is the dual of one.  Otherwise
    is_mds proves C1 with the family's symmetries, monomial maps that it
    checks before they shrink the scan, and C2 as C1's twin (C2 = C1 is its
    scaling by D = I); only a C2 that is no checked column scaling of C1 is
    scanned.  The extended-GRS pair is one code: G1 H2^T = 0 iff C1 = C2 at
    dimensions k, else a DualityFailure.  c and k come from assemble, and
    d = n - max(k1, k2) + 1, the lesser of the two distances.
    """
    C1, C2 = from_generator(G1), from_parity_check(H2)
    for label, C, k in (("C1", C1, k1), ("C2", C2, k2)):
        if C.k != k:
            raise errors.FormulaMismatch(f"{family} dim {label} = {C.k}, expected {k}")
    if family == "grs_extended" and C1 != C2:
        raise errors.DualityFailure("G1 H2^T != 0 for the canonical points/weights")
    if moore:
        for label, M in (("G1", G1), ("H2", H2)):
            try:
                rebuilt = moore_matrix(M.field, M.rows[0], M.nrows)
            except (errors.DependentGenerators, errors.LengthExceedsDegree) as exc:
                raise errors.FormulaMismatch(f"{family} {label} is no Moore matrix: {exc}")
            if M != rebuilt:
                raise errors.FormulaMismatch(f"{family} {label} is no Moore matrix: a row "
                                             "is no Frobenius image of the one above")
    else:
        twin = C2
        for label, C in (("C1", C1), ("C2", C2)):
            report = is_mds(C, symmetries, twin)
            if not report.is_mds:
                raise errors.FormulaMismatch(f"{family} {label} failed MDS certification; "
                                             f"dependent columns {report.witness}")
            if report.twin_mds:  # C2 is proved
                break
            twin = None
    pair = assemble(C1, C2, 0)
    n = C1.n
    params = EaqecParams.build(C1.field, n, pair.k, n - max(k1, k2) + 1, pair.c_product)
    return FamilyCertificate(family, inputs, G1, H2, pair, params, predicted,
                             verified=params == predicted)


# ---------------------------------------------------------------------------
# Construction 1: consecutive rows of a Vandermonde matrix
# ---------------------------------------------------------------------------

def vandermonde_family(field: FieldSpec, n: int, k: int, t: int, j: int) -> FamilyCertificate:
    """Pair two consecutive-row Vandermonde codes over nodes gamma^(i-1).

    G1 takes rows 1..k, H2 rows t..t+j; the overlap pattern of the two row
    ranges yields c = j - k + t ebits and the parameter tuple
    [[n, t-1, min(n-k+1, j+2); j-k+t]]_q.
    """
    q = field.q
    _require(n <= q - 1, "n <= q-1", f"{n} <= {q - 1}")
    _require(0 < k < n, "0 < k < n", f"0 < {k} < {n}")
    _require(1 <= t <= k + 1, "t <= k+1", f"{t} <= {k + 1}")
    _require(k + 1 <= t + j, "k+1 <= t+j", f"{k + 1} <= {t + j}")
    _require(t + j <= n, "t+j <= n", f"{t + j} <= {n}")
    _require(n - j - 1 >= 1, "n-j-1 >= 1", f"{n - j - 1} >= 1")
    _within_budget((t + j) * n)

    gamma, mul = field.primitive_element().enc, field.mul
    # 0-based row i holds x_c^i for the nodes x_c = gamma^c, each row the
    # entrywise product of the one before with x; rows 0..t+j-1 cover G1 and H2
    x = [field.pow(gamma, c) for c in range(n)]
    rows = [[1] * n]
    for _ in range(t + j - 1):
        rows.append(list(map(mul, rows[-1], x)))
    # at n = q-1 the nodes are all of GF(q)*, and x -> gamma x scales row i
    # by gamma^i: the column shift c -> c+1 mod n fixes both codes.  When
    # H2 holds rows k..n-1, C2 is the dual of the GRS code C1 on the same
    # nodes, a GRS code with other column multipliers, so C2 is C1's twin.
    shift = ([(c + 1) % n for c in range(n)], [1] * n)
    return _certify(
        "vandermonde", {"q": field.label, "n": n, "k": k, "t": t, "j": j},
        FMatrix._of(field, rows[:k], n), FMatrix._of(field, rows[t - 1:], n),
        k, n - j - 1,
        EaqecParams.build(field, n, t - 1, min(n - k + 1, j + 2), j - k + t),
        [shift] if n == q - 1 else ())


# ---------------------------------------------------------------------------
# Construction 2: extended evaluation (generalized Reed-Solomon) codes
# ---------------------------------------------------------------------------

def grs_extended_spec(field: FieldSpec, k: int) -> GrsSpec:
    """Canonical inputs: all q points in enc order, all-one weights."""
    return GrsSpec(field, k)


def grs_extended_generator(spec: GrsSpec) -> FMatrix:
    """k x (q+1) generator: monomial evaluation rows plus a top-coefficient column.

    Row i (0-based) is (a^i for the q field elements a in enc order,
    [i == k-1]); the final coordinate tracks the coefficient of x^(k-1).
    Uses 0^0 = 1.
    """
    q, k, power = spec.field.q, spec.k, spec.field.pow
    if not 1 <= k <= q:
        raise errors.ShapeMismatch(f"k={k} out of range for {q} points")
    rows = [[power(a, i) for a in range(q)] + [int(i == k - 1)] for i in range(k)]
    return FMatrix._of(spec.field, rows, q + 1)


def grs_extended_family(field: FieldSpec, k: int) -> FamilyCertificate:
    """Pair an extended evaluation code with its dual-description twin.

    C1 is generated by the k-row matrix; C2 is defined by the
    (q-k+1)-row matrix as parity checks.  Both are the same [q+1, k, q-k+2]
    MDS code: the orthogonality G1 H2^T = 0 is checked as C1 = C2 on the
    canonical codes, which are then proved MDS once, and the pair yields
    [[q+1, 1, q-k+2; q-2k+2]]_q.

    k stays below ceil((q+1)/2): at k = (q+1)/2 the two generators coincide,
    the code is self-dual and the pair needs no ebits and encodes no logical
    qubit ([[q+1, 0, (q+3)/2; 0]]_q).
    """
    q = field.q
    _require(1 <= k, "1 <= k", f"1 <= {k}")
    half = (q + 2) // 2  # ceil((q+1)/2)
    _require(k < half, "k < ceil((q+1)/2)", f"{k} < {half}")
    _within_budget((q + 2) * (q + 1))

    G1 = grs_extended_generator(grs_extended_spec(field, k))
    H2 = grs_extended_generator(grs_extended_spec(field, q - k + 1))
    # x -> gamma x (row i scales by gamma^i, the marker column by gamma^(k-1))
    # and x -> x + 1 on the q points generate AGL(1, q), 2-transitive on them
    gamma = field.primitive_element().enc
    scaling = ([field.mul(gamma, a) for a in range(q)] + [q],
               [1] * q + [field.pow(gamma, k - 1)])
    translation = ([field.add(a, 1) for a in range(q)] + [q], [1] * (q + 1))
    return _certify("grs_extended", {"q": field.label, "k": k}, G1, H2, k, k,
                    EaqecParams.build(field, q + 1, 1, q - k + 2, q - 2 * k + 2),
                    (scaling, translation))


# ---------------------------------------------------------------------------
# Construction 3: rank-metric (Gabidulin) codes
# ---------------------------------------------------------------------------

def gabidulin_family(field: FieldSpec, n: int, k1: int, k2: int, t: int) -> FamilyCertificate:
    """Pair two Moore-matrix codes over the polynomial-basis prefix.

    G1 applies Frobenius powers 0..k1-1, H2 powers t..t+k2-1; the union of
    the two consecutive exponent ranges gives c = k2 - k1 + t ebits and the
    tuple [[n, t, min(n-k1+1, k2+1); k2-k1+t]]_q.
    """
    m = field.e
    _require(n <= m, "n <= m", f"{n} <= {m}")
    _require(1 <= k1 <= n, "1 <= k1 <= n", f"1 <= {k1} <= {n}")
    _require(0 <= t, "0 <= t", f"0 <= {t}")
    _require(t <= k1 - 1, "t <= k1-1", f"{t} <= {k1 - 1}")
    _require(k1 - t + 1 <= k2, "k1-t+1 <= k2", f"{k1 - t + 1} <= {k2}")
    _require(k2 <= m - t, "k2 <= m-t", f"{k2} <= {m - t}")
    _require(k2 <= n - 1, "k2 <= n-1", f"{k2} <= {n - 1}")

    g = [field.p**i for i in range(n)]  # x^i has enc p^i
    # G1 is rows 0..k1-1 and H2 rows t..t+k2-1 of one Moore matrix (k1 < t+k2)
    rows = moore_matrix(field, g, t + k2).rows
    return _certify(
        "gabidulin", {"q": field.label, "n": n, "k1": k1, "k2": k2, "t": t},
        FMatrix._of(field, rows[:k1], n), FMatrix._of(field, rows[t:], n), k1, n - k2,
        EaqecParams.build(field, n, t, min(n - k1 + 1, k2 + 1), k2 - k1 + t),
        moore=True)


# ---------------------------------------------------------------------------
# Published parameter tables
# ---------------------------------------------------------------------------

# (p, e, n, k, t, j) rows of the Vandermonde table
TABLE1_ROWS = (
    (13, 1, 12, 4, 5, 7),
    (13, 1, 12, 5, 6, 6),
    (13, 1, 12, 6, 7, 5),
    (13, 1, 12, 8, 9, 3),
) + tuple((3, 3, 15, k, k + 1, 14 - k) for k in range(2, 12))

# (p, m, n, d, c) rows of the rank-metric table; the construction inputs
# are recovered as k1 = n-d+1, k2 = n-k1 (the distance-optimal case) and
# t = c - k2 + k1.
TABLE2_ROWS = (
    (11, 5, 5, 3, 1),
    (13, 6, 6, 4, 2),
    (17, 8, 8, 4, 2),
)


def table1() -> list[FamilyCertificate]:
    """All published Vandermonde rows, in table order."""
    return [vandermonde_family(field_new(p, e), n, k, t, j)
            for (p, e, n, k, t, j) in TABLE1_ROWS]


def table2() -> list[FamilyCertificate]:
    """All published rank-metric rows, in table order."""
    out = []
    for (p, m, n, d, c) in TABLE2_ROWS:
        k1 = n - d + 1
        k2 = n - k1
        t = c - k2 + k1
        out.append(gabidulin_family(field_new(p, m), n, k1, k2, t))
    return out
