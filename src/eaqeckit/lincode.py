"""Linear [n,k]_q codes: Galois duals, distance, MDS certification.

A code is stored canonically: G is the reduced row echelon basis of the row
space, H the canonical kernel basis of G.  Two codes are equal exactly when
their canonical generator matrices are equal, which makes set-level
identities decidable and testable.

Serialized form: a "code n k" header line followed by the fmatrix text
format of G.
"""
from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import errors
from .fmatrix import FMatrix
from .gf import FieldSpec

DEFAULT_BUDGET = 2**22
# Largest dependent parity-check column set that min_distance rung (c) seeks.
COLUMN_SEARCH_MAX = 6


@dataclass(frozen=True)
class LinearCode:
    field: FieldSpec
    n: int
    k: int
    G: FMatrix  # k x n, canonical RREF basis
    H: FMatrix  # (n-k) x n, canonical kernel basis of G

    def to_text(self) -> str:
        return f"code {self.n} {self.k}\n" + self.G.to_text()

    @classmethod
    def from_text(cls, text: str) -> "LinearCode":
        first, _, rest = text.partition("\n")
        head = first.split()
        if len(head) != 3 or head[0] != "code":
            raise errors.ShapeMismatch("missing 'code n k' header")
        code = from_generator(FMatrix.from_text(rest))
        if (code.n, code.k) != (int(head[1]), int(head[2])):
            raise errors.ShapeMismatch("header disagrees with generator matrix")
        return code


@dataclass(frozen=True)
class DistanceReport:
    """Exact minimum Hamming distance with the strategy that proved it.

    certificate is a minimum-weight codeword (enc tuple) for exhaustive
    search, a dependent column set for the parity-column search, and None
    for the MDS column criterion (where the proof is the absence of any
    dependent column subset).
    """
    d: int
    method: str  # exhaustive | mds-columns | parity-columns
    certificate: Optional[tuple] = None


@dataclass(frozen=True)
class MdsReport:
    """is_mds's verdict on code, and how it was reached: by the subset scan
    (relation None), or with no scan from a twin that is_mds had proved, by
    a checked relation, "scaled" (C = twin D) or "frobenius-dual"
    (C^perp = the twin's Frobenius twist).  The code takes no part in ==."""
    is_mds: bool
    checked_matrix: str  # "generator" or "parity"
    subset_size: int
    witness: Optional[tuple[int, ...]] = None  # dependent columns, when not MDS
    fixed: int = 0  # leading columns that every scanned subset held
    relation: Optional[str] = None  # "scaled" or "frobenius-dual": from a twin, no scan
    code: Optional[LinearCode] = field(default=None, compare=False, repr=False)

    def __bool__(self):
        return self.is_mds


# The MDS reports that is_mds returned, by id: a twin counts only if it is one
# of them, the very object, so no report built elsewhere is taken on trust.
_PROVED: "weakref.WeakValueDictionary[int, MdsReport]" = weakref.WeakValueDictionary()


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _kernel_basis(M: FMatrix) -> FMatrix:
    """M's kernel basis, Infeasible if it would hold more than DEFAULT_BUDGET
    entries: (ncols - rank) * ncols, which ncols - nrows bounds from below
    before any elimination."""
    n = M.ncols
    size = (n - M.nrows) * n
    if size <= DEFAULT_BUDGET:  # rref's rank, which kernel_basis then reads
        size = (n - M.rref()[1]) * n
    if size > DEFAULT_BUDGET:
        raise errors.Infeasible(
            f"a kernel basis of {size} entries exceeds the budget of {DEFAULT_BUDGET}")
    return M.kernel_basis()


def from_generator(G: FMatrix) -> LinearCode:
    """Code spanned by the rows of G (dependent rows and the zero code allowed)."""
    H = _kernel_basis(G)  # G and its row basis share a kernel
    basis = G.row_basis()  # on the RREF that the kernel memoized
    return LinearCode(G.field, G.ncols, basis.nrows, basis, H)


def from_parity_check(H: FMatrix) -> LinearCode:
    """Code {x : H x^T = 0}.  The zero code (H of full column rank) is allowed.

    One elimination, of H with its columns reversed: that copy's kernel basis
    is the identity on its free columns, with every other entry of a row left
    of the row's 1 (an RREF row is zero left of its pivot).  In original order
    the free columns are the code's lexicographically first information set;
    with columns and rows reversed, the basis is the unique RREF of ker H.
    """
    n = H.ncols
    K = _kernel_basis(FMatrix._of(H.field, [row[::-1] for row in H.rows], n))
    rows = [row[::-1] for row in reversed(K.rows)]  # each zero left of its leading 1
    return from_generator(FMatrix._reduced(H.field, rows, n, [row.index(1) for row in rows]))


def galois_dual(C: LinearCode, s: int) -> LinearCode:
    """All x with sum_i c_i x_i^(p^s) = 0 for every codeword c.

    Computed as the code generated by H^(p^(e-s)), which equals the twisted
    dual; the equivalence with the defining linear system is covered by the
    test suite.
    """
    return from_generator(C.H.frobenius_entrywise(-s))


def check_pair(C1: LinearCode, C2: LinearCode) -> None:
    """Raise unless the two codes share their field and length."""
    if C1.field != C2.field:
        raise errors.FieldMismatch("codes over different fields")
    if C1.n != C2.n:
        raise errors.LengthMismatch(f"lengths {C1.n} and {C2.n} differ")


# ---------------------------------------------------------------------------
# MDS certification (column criterion)
# ---------------------------------------------------------------------------

def is_mds(C: LinearCode, symmetries: Sequence[tuple[Sequence[int], Sequence[int]]] = (),
           twin: Optional[MdsReport] = None, twist: Optional[int] = None) -> MdsReport:
    """Column criterion: d = n-k+1 iff every k-subset of G's columns has rank k.

    Equivalently every (n-k)-subset of H's columns has rank n-k; the cheaper
    side is checked (G on ties), which is sound because a code is MDS iff its
    dual is.  The scan is FMatrix.first_dependent_columns; the fmatrix
    docstring states its backends and its fixed prefix.  The report carries
    C.

    twin is a report that is_mds itself returned for another code A, with
    is_mds true: the very object, not an equal one; anything else is
    ignored.  Without twist, if _scales_twin finds C = A D for a nonzero
    diagonal D, C is MDS too (D maps every column subset to one of the same
    rank), and the report's relation is "scaled".  With twist t, if
    _frobenius_dual finds C^perp = sigma^t(A), sigma the entrywise map
    a -> a^p, C is MDS too (neither duality nor a field automorphism changes
    a column-subset rank), and the relation is "frobenius-dual".  Either way
    no subset is scanned; if the check fails, the scan runs as without a
    twin.

    symmetries are monomial maps (perm, scale) offered as automorphisms of
    C: the image of a matrix M has column j equal to scale[j] (an enc) times
    column perm[j] of M.  Nothing is taken on trust: _fixed_prefix checks
    every map on the scanned matrix and, if all hold, the scan visits only
    the subsets that hold column 0, or columns 0 and 1, as the orbits of the
    checked permutations allow; the witness of a code that is not MDS then
    holds them.  A map that fails its check leaves the full scan, never an
    error.
    """
    if not 1 <= C.k <= C.n:
        raise errors.ZeroCode("MDS certification needs 1 <= k <= n")
    if C.k == C.n:
        return _issued(MdsReport(True, "generator", C.n, code=C))
    if C.k <= C.n - C.k:
        M, side, w = C.G, "generator", C.k
    else:
        M, side, w = C.H, "parity", C.n - C.k
    if twin is not None and _PROVED.get(id(twin)) is twin:
        if twist is None and _scales_twin(C, twin.code):
            return _issued(MdsReport(True, side, w, relation="scaled", code=C))
        if twist is not None and _frobenius_dual(C, twin.code, twist):
            return _issued(MdsReport(True, side, w, relation="frobenius-dual", code=C))
    fixed = _fixed_prefix(M, w, symmetries, side == "parity") if symmetries else 0
    witness = M.first_dependent_columns(w, fixed)
    return _issued(MdsReport(witness is None, side, w, witness, fixed, code=C))


def _issued(report: MdsReport) -> MdsReport:
    """report, entered in _PROVED if it proves its code MDS."""
    if report.is_mds:
        _PROVED[id(report)] = report
    return report


def _frobenius_dual(C: LinearCode, twin: LinearCode, t: int) -> bool:
    """Whether C^perp = sigma^t(twin), sigma the entrywise map a -> a^p,
    decided on the canonical generators: twin.k + C.k = n, and
    sigma^t(twin.G) C.G^T = 0, so sigma^t(twin), of dimension twin.k, lies
    in C^perp, of dimension n - C.k, and fills it."""
    if C.field != twin.field or C.n != twin.n or C.k + twin.k != C.n:
        return False
    product = twin.G.frobenius_entrywise(t) @ C.G.transpose()
    return not any(map(any, product.rows))


def _scales_twin(C: LinearCode, twin: LinearCode) -> bool:
    """Whether C = twin D for a nonzero diagonal D, decided on the canonical
    generators B of C and A of twin, by multiplies alone.

    C = twin D holds iff B = E^-1 A D with E the diagonal of D on the
    pivots: the same k and pivots, and B[i][c] e_i = A[i][c] d_c on every
    free column c.  With c0 the first free column, the reference entries
    of A and B on row 0 and on column c0 must be nonzero, else False (all
    free entries of an MDS twin and of its scalings are); they fix d_c =
    B[0][c] / A[0][c] and e_i = d_c0 A[i][c0] / B[i][c0], and the rest is
    the cross ratio of each entry, B[i][c] B[0][c0] A[0][c] A[i][c0] =
    A[i][c] A[0][c0] B[0][c] B[i][c0], which also forces the zero patterns
    of A and B to agree.
    """
    if C.k != twin.k or C.n != twin.n or C.field != twin.field:
        return False
    B, A = C.G.rows, twin.G.rows
    pivots = [row.index(1) for row in A]  # an RREF row's first nonzero is its 1
    if [row.index(1) for row in B] != pivots:
        return False
    free = [c for c in range(C.n) if c not in pivots]
    c0, mul = free[0], C.field.mul
    if not all([A[0][c] for c in free] + [B[0][c] for c in free] + [r[c0] for r in A + B]):
        return False
    for a, b in zip(A[1:], B[1:]):
        left, right = mul(B[0][c0], a[c0]), mul(A[0][c0], b[c0])
        if any(mul(mul(b[c], A[0][c]), left) != mul(mul(a[c], B[0][c]), right)
               for c in free):
            return False
    return True


def _fixed_prefix(M: FMatrix, w: int, maps, dual: bool) -> int:
    """Leading columns that a scan of M's w-subsets may fix, by the maps.

    Each map must send M's row space onto itself: perm a permutation of the
    columns, every scale a nonzero enc, and rank(M stacked on its image) =
    M.nrows (a scan that proves MDS also proves M of full row rank).  M
    spans the dual when dual is set, and (perm, s) fixes a code iff
    (perm, 1/s) fixes its dual, so the scales are inverted first.  If one
    map fails, 0.  Otherwise, with Omega the orbit of column 0 under the
    permutations, every w-subset meets Omega when w > n - |Omega|, and a
    permutation of the group moves it onto one that holds column 0.  It
    holds columns 0 and 1 as well when two of its columns lie in Omega
    (w >= n - |Omega| + 2) and the maps that fix column 0 move column 1
    onto every column of Omega - {0}.
    """
    f, n, columns = M.field, M.ncols, list(range(M.ncols))
    perms = []
    for perm, scale in maps:
        perm, scale = list(perm), list(scale)
        if sorted(perm) != columns or len(scale) != n or not all(0 < x < f.q for x in scale):
            return 0
        if dual:
            scale = list(map(f.inv, scale))
        image = [[f.mul(x, row[j]) for x, j in zip(scale, perm)] for row in M.rows]
        if M.vstack(FMatrix._of(f, image, n)).rank() != M.nrows:
            return 0
        perms.append(perm)
    omega = _orbit(0, perms)
    if w <= n - len(omega):
        return 0
    stabilizer = [perm for perm in perms if perm[0] == 0]
    if w >= n - len(omega) + 2 and _orbit(1, stabilizer) == omega - {0}:
        return 2
    return 1


def _orbit(c: int, perms) -> set[int]:
    """Orbit of column c under the group that the permutations generate."""
    orbit, todo = {c}, [c]
    while todo:
        x = todo.pop()
        for perm in perms:
            if perm[x] not in orbit:
                orbit.add(perm[x])
                todo.append(perm[x])
    return orbit


# ---------------------------------------------------------------------------
# Minimum distance
# ---------------------------------------------------------------------------

def projective_min_weight(C: LinearCode, weight) -> tuple[int, tuple[int, ...]]:
    """Least weight(word) over the nonzero codewords, by projective enumeration.

    weight maps a word of enc integers to an int >= 1 on nonzero words and
    must be invariant under scaling by a nonzero constant (Hamming and rank
    weight are), so only messages whose first nonzero coordinate is 1 are
    expanded: the word of message (0, .., 0, 1, tail) is row lead of G plus
    m * G[r] for each nonzero tail digit m.  The witness is the first
    least-weight codeword in message enc order.  Needs C.k >= 1.
    """
    add, mul = C.field.add, C.field.mul
    best, best_word = C.n + 1, ()
    for lead in range(C.k):
        later = C.G.rows[lead + 1:]
        for tail in itertools.product(range(C.field.q), repeat=len(later)):
            word = C.G.rows[lead]
            for m, grow in zip(tail, later):
                if m:
                    word = [add(w, mul(m, g)) for w, g in zip(word, grow)]
            w = weight(word)
            if w < best:
                best, best_word = w, tuple(word)
                if best == 1:
                    return best, best_word
    return best, best_word


def min_distance(C: LinearCode, budget: int = DEFAULT_BUDGET) -> DistanceReport:
    """Exact minimum distance via a fixed strategy ladder.

    (a) exhaustive projective enumeration when q^k <= budget;
    (b) the MDS column criterion, which when it holds proves d = n-k+1;
    (c) smallest w <= COLUMN_SEARCH_MAX with w dependent parity-check
        columns, which is exactly d when found.
    Raises Infeasible when no rung applies.
    """
    if C.k < 1:
        raise errors.ZeroCode("distance of the zero code is undefined")
    if C.field.q**C.k <= budget:
        d, witness = projective_min_weight(C, lambda word: len(word) - word.count(0))
        return DistanceReport(d, "exhaustive", witness)
    if is_mds(C).is_mds:
        return DistanceReport(C.n - C.k + 1, "mds-columns")
    # Not MDS, so some n-k columns of H are dependent and w <= n-k suffices.
    for w in range(1, min(COLUMN_SEARCH_MAX, C.n - C.k) + 1):
        dep = C.H.first_dependent_columns(w)
        if dep is not None:
            return DistanceReport(w, "parity-columns", dep)
    raise errors.Infeasible(
        f"q^k = {C.field.q}^{C.k} over budget, not MDS, and no dependent "
        f"column set of size <= {COLUMN_SEARCH_MAX}")

