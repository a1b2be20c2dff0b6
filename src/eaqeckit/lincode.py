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
from dataclasses import dataclass
from typing import Optional

from . import errors
from .fmatrix import FMatrix, pivot_step
from .gf import FieldSpec

DEFAULT_BUDGET = 2**22
# Largest dependent parity-check column set that min_distance rung (c) seeks.
COLUMN_SEARCH_MAX = 6
# Sibling nodes expanded per numpy step of the subset scan.
_SCAN_CHUNK = 1 << 10


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
    is_mds: bool
    checked_matrix: str  # "generator" or "parity"
    subset_size: int
    witness: Optional[tuple[int, ...]] = None  # dependent columns, when not MDS

    def __bool__(self):
        return self.is_mds


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def from_generator(G: FMatrix) -> LinearCode:
    """Code spanned by the rows of G (dependent rows and the zero code allowed)."""
    basis = G.row_basis()
    # G and its row basis share a kernel, and G's RREF is already memoized
    return LinearCode(G.field, G.ncols, basis.nrows, basis, G.kernel_basis())


def from_parity_check(H: FMatrix) -> LinearCode:
    """Code {x : H x^T = 0}.  The zero code (H of full column rank) is allowed."""
    return from_generator(H.kernel_basis())


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

def _all_subsets_full_rank(M: FMatrix, w: int) -> Optional[tuple[int, ...]]:
    """First w-subset of M's columns with rank < w, or None if all have rank w.

    Depth-first in lexicographic order, sharing the elimination of each column
    prefix: a node is a prefix P whose other rows are reduced on P, and child
    P+{c} costs one pivot step on them.  If column c is zero there, every
    subset extending P+{c} is dependent and the first, P + (c, c+1, ...), is
    the witness.  Fields with numpy tables build up to _SCAN_CHUNK nodes per
    step, which bounds memory; others run the recursion in plain Python.
    """
    if (ops := M.field.vec_ops()) is not None:
        return _scan_batched(M, w, ops)
    f, n = M.field, M.ncols

    def visit(prefix, cols):
        # cols: the columns after prefix, reduced on the rows it left over
        depth, first = len(prefix), prefix[-1] + 1 if prefix else 0
        for c, v in enumerate(cols[:n - w + depth + 1 - first], first):
            if not any(v):
                return prefix + tuple(range(c, c + w - depth))
            if depth + 1 == w:
                continue
            i = next(r for r, x in enumerate(v) if x)
            s, vi, rest = v[i], v[:i] + v[i + 1:], []
            for u in cols[c - first + 1:]:
                # s*u - a*v needs no field inverse; the factor s != 0 keeps ranks
                a, u = u[i], u[:i] + u[i + 1:]
                rest.append([f.sub(f.mul(s, x), f.mul(a, y)) for x, y in zip(u, vi)]
                            if a else u)
            if found := visit(prefix + (c,), rest):
                return found
        return None

    return visit((), M.transpose().rows)


def _scan_batched(M: FMatrix, w: int, ops) -> Optional[tuple[int, ...]]:
    """_all_subsets_full_rank on numpy tables: each pivot_step builds up to
    _SCAN_CHUNK nodes of one level, and pending chunks wait on a stack."""
    import numpy as np
    n = M.ncols
    columns = np.arange(n)
    S = np.array(M.rows, dtype=np.int64).reshape(1, M.nrows, n)  # node states
    last, prefix = np.full(1, -1), np.zeros((1, 0), dtype=np.int64)
    stack, best = [], None
    while True:
        depth = prefix.shape[1]
        valid = (columns > last[:, None]) & (columns <= n - w + depth)
        nonzero = S.any(axis=1)
        live, dead = valid & nonzero, valid & ~nonzero
        if dead.any():
            b, c = divmod(int(dead.argmax()), n)
            best = tuple(prefix[b].tolist()) + tuple(range(c, c + w - depth))
            stack.clear()  # every pending node comes after best
            live.ravel()[b * n + c:] = False
        if depth + 1 < w:
            bs, cs = np.nonzero(live)
            for a in reversed(range(0, len(bs), _SCAN_CHUNK)):
                stack.append((S, prefix, bs[a:a + _SCAN_CHUNK], cs[a:a + _SCAN_CHUNK]))
        if not stack:
            return best
        S, prefix, bs, last = stack.pop()
        S, prefix = pivot_step(ops, S[bs], last), np.column_stack((prefix[bs], last))


def is_mds(C: LinearCode) -> MdsReport:
    """Column criterion: d = n-k+1 iff every k-subset of G's columns has rank k.

    Equivalently every (n-k)-subset of H's columns has rank n-k; the cheaper
    side is checked (G on ties), which is sound because a code is MDS iff its
    dual is.
    """
    if not 1 <= C.k <= C.n:
        raise errors.ZeroCode("MDS certification needs 1 <= k <= n")
    if C.k == C.n:
        return MdsReport(True, "generator", C.n)
    if C.k <= C.n - C.k:
        witness = _all_subsets_full_rank(C.G, C.k)
        return MdsReport(witness is None, "generator", C.k, witness)
    witness = _all_subsets_full_rank(C.H, C.n - C.k)
    return MdsReport(witness is None, "parity", C.n - C.k, witness)


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
        dep = _all_subsets_full_rank(C.H, w)
        if dep is not None:
            return DistanceReport(w, "parity-columns", dep)
    raise errors.Infeasible(
        f"q^k = {C.field.q}^{C.k} over budget, not MDS, and no dependent "
        f"column set of size <= {COLUMN_SEARCH_MAX}")

