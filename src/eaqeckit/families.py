"""Three verified constructions of entanglement-assisted MDS codes.

Each construction returns a FamilyCertificate holding the built matrices,
the closed-form parameter prediction, the machine-computed parameters (with
both ebit formulas), and a verdict.  Nothing is trusted from the closed
forms: classical distances are certified by the MDS column criterion and
the ebit count is computed twice.

Canonical instantiations (the closed forms leave them open):
  * Vandermonde nodes are powers of the canonical primitive element, which
    makes every consecutive-row code Reed-Solomon-equivalent and hence
    provably MDS instance by instance.
  * The extended evaluation construction uses all q field elements in enc
    order with all-one weights; its duality identity is checked per instance
    and a failure is a hard error, never patched over.
  * The rank-metric construction uses the polynomial-basis prefix
    (1, b, ..., b^(n-1)) as generator vector.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import errors
from .eaqec import EaqecParams, PairReport, assemble
from .fmatrix import FMatrix
from .gf import FieldSpec, field_new
from .lincode import DistanceReport, from_generator, from_parity_check, is_mds
from .rankmetric import moore_matrix


@dataclass(frozen=True)
class GrsSpec:
    """Extended evaluation code inputs over field: points a and weights v as
    enc ints, dimension k."""
    field: FieldSpec
    a: tuple[int, ...]
    v: tuple[int, ...]
    k: int


@dataclass(frozen=True)
class FamilyCertificate:
    family: str  # vandermonde | grs_extended | gabidulin
    inputs: dict
    G1: FMatrix
    H2: FMatrix
    pair: PairReport
    predicted: EaqecParams
    verified: bool

    @property
    def params(self) -> EaqecParams:
        return self.pair.params

    def to_json(self, emit_matrices: bool = False) -> dict:
        out = {
            "family": self.family,
            "inputs": dict(self.inputs),
            "predicted": self.predicted.to_json(),
            "computed": self.pair.params.to_json(),
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


def _certify(family: str, inputs: dict, G1: FMatrix, H2: FMatrix, k1: int, k2: int,
             predicted: EaqecParams) -> FamilyCertificate:
    """Certify the pair C1 = rowspace(G1), C2 = ker(H2) against its closed form.

    A dimension other than k1, k2 or a code that fails the MDS column
    criterion is a FormulaMismatch; the ebit count comes from assemble.
    """
    C1, C2 = from_generator(G1), from_parity_check(H2)
    for label, C, k in (("C1", C1, k1), ("C2", C2, k2)):
        if C.k != k:
            raise errors.FormulaMismatch(f"{family} dim {label} = {C.k}, expected {k}")
        report = is_mds(C)
        if not report.is_mds:
            raise errors.FormulaMismatch(f"{family} {label} failed MDS certification; "
                                         f"dependent columns {report.witness}")
    d1, d2 = (DistanceReport(C.n - C.k + 1, "mds-columns") for C in (C1, C2))
    pair = assemble(C1, C2, 0, d1, d2)
    return FamilyCertificate(family, inputs, G1, H2, pair, predicted,
                             verified=pair.params == predicted)


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

    gamma = field.primitive_element().enc
    # 0-based row i holds node^c = gamma^(i*c); rows 0..t+j-1 cover G1 and H2
    rows = [[field.pow(gamma, i * c) for c in range(n)] for i in range(t + j)]
    return _certify(
        "vandermonde", {"q": field.label, "n": n, "k": k, "t": t, "j": j},
        FMatrix._of(field, rows[:k], n), FMatrix._of(field, rows[t - 1:], n),
        k, n - j - 1,
        EaqecParams.build(field, n, t - 1, min(n - k + 1, j + 2), j - k + t))


# ---------------------------------------------------------------------------
# Construction 2: extended evaluation (generalized Reed-Solomon) codes
# ---------------------------------------------------------------------------

def grs_extended_spec(field: FieldSpec, k: int) -> GrsSpec:
    """Canonical inputs: all q points in enc order, all-one weights."""
    return GrsSpec(field, tuple(range(field.q)), (1,) * field.q, k)


def grs_extended_generator(spec: GrsSpec) -> FMatrix:
    """k x (n+1) generator: monomial evaluation rows plus a top-coefficient column.

    Row i (0-based) is (v_1 a_1^i, ..., v_n a_n^i, [i == k-1]); the final
    coordinate tracks the coefficient of x^(k-1).  Uses 0^0 = 1.
    """
    if not 1 <= spec.k <= len(spec.a):
        raise errors.ShapeMismatch(f"k={spec.k} out of range for {len(spec.a)} points")
    mul, power = spec.field.mul, spec.field.pow
    rows = [[mul(v, power(a, i)) for a, v in zip(spec.a, spec.v)] + [int(i == spec.k - 1)]
            for i in range(spec.k)]
    return FMatrix._of(spec.field, rows, len(spec.a) + 1)


def grs_extended_family(field: FieldSpec, k: int) -> FamilyCertificate:
    """Pair an extended evaluation code with its dual-description twin.

    C1 is generated by the k-row matrix; C2 is defined by the
    (q-k+1)-row matrix as parity checks.  The orthogonality G1 H2^T = 0 is
    verified before anything else; both codes are the same
    [q+1, k, q-k+2] MDS code and the pair yields [[q+1, 1, q-k+2; q-2k+2]]_q.

    k stays below ceil((q+1)/2): at k = (q+1)/2 the two generators coincide,
    the code is self-dual and the pair needs no ebits and encodes no logical
    qubit ([[q+1, 0, (q+3)/2; 0]]_q).
    """
    q = field.q
    _require(1 <= k, "1 <= k", f"1 <= {k}")
    half = (q + 2) // 2  # ceil((q+1)/2)
    _require(k < half, "k < ceil((q+1)/2)", f"{k} < {half}")

    G1 = grs_extended_generator(grs_extended_spec(field, k))
    H2 = grs_extended_generator(grs_extended_spec(field, q - k + 1))
    if not (G1 @ H2.transpose()).is_zero():
        raise errors.DualityFailure("G1 H2^T != 0 for the canonical points/weights")
    return _certify("grs_extended", {"q": field.label, "k": k}, G1, H2, k, k,
                    EaqecParams.build(field, q + 1, 1, q - k + 2, q - 2 * k + 2))


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
    return _certify(
        "gabidulin", {"q": field.label, "n": n, "k1": k1, "k2": k2, "t": t},
        moore_matrix(field, g, k1), moore_matrix(field, g, k2, t),
        k1, n - k2,
        EaqecParams.build(field, n, t, min(n - k1 + 1, k2 + 1), k2 - k1 + t))


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
