"""Rank-metric machinery over GF(l^m) with l = p prime: Moore matrices, MRD checks.

The rank weight of a codeword is the dimension over the prime field of the
span of its coordinates; coordinates are expanded to their coefficient
vectors, so the base field is always the prime subfield.  Moore matrices
apply successive Frobenius powers l^(t), l^(t+1), ... to a generator
vector of coordinates that are independent over the prime field: the first
row by FieldSpec.frobenius at offset t, every later row by iterating the
GF(l)-linear map a -> a^l on the row above.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import errors
from .fmatrix import FMatrix
from .gf import Element, FieldSpec, field_new
from .lincode import DEFAULT_BUDGET, LinearCode, projective_min_weight


@dataclass(frozen=True)
class MooreSpec:
    """Inputs of a Moore matrix: generators g, row count k, Frobenius offset t."""
    field: FieldSpec
    g: tuple[Element | int, ...]
    k: int
    t: int = 0


@dataclass(frozen=True)
class MrdReport:
    is_mrd: bool
    min_rank: int  # exact, by exhaustive enumeration

    def __bool__(self):
        return self.is_mrd


def _coefficient_rank(field: FieldSpec, v: Sequence[int]) -> int:
    """Rank over GF(p) of the n x e matrix of the coordinates' coefficient vectors."""
    if not any(v):
        return 0
    return FMatrix._of(field_new(field.p, 1), map(field._coeffs, v), field.e).rank()


def moore_matrix(spec: MooreSpec) -> FMatrix:
    """k x n matrix with entry (i, j) = g_j^(l^((t+i) mod m)).

    Row 0 is g under Frobenius^(t mod m), and each further row is the one
    above under Frobenius^1; x^(l^m) = x, so the exponent wraps by itself.
    Generators may be Elements of the field or enc ints.
    """
    field = spec.field
    n, m = len(spec.g), field.e
    if n > m:
        raise errors.LengthExceedsDegree(f"n={n} generators but extension degree m={m}")
    if spec.k < 1:
        raise errors.ShapeMismatch("k must be at least 1")
    g = [field.to_enc(x) for x in spec.g]
    if _coefficient_rank(field, g) != n:
        raise errors.DependentGenerators(
            "generators are dependent over the prime subfield")
    frobenius = field.frobenius
    rows = [[frobenius(x, spec.t) for x in g]]
    for _ in range(spec.k - 1):
        rows.append([frobenius(x, 1) for x in rows[-1]])
    return FMatrix._of(field, rows, n)


def min_rank_distance_exhaustive(C: LinearCode, budget: int = DEFAULT_BUDGET) -> int:
    """Exact minimum rank weight over nonzero codewords.

    Enumerates one representative per projective message class; scaling by a
    nonzero field constant is a GF(p)-linear bijection on coordinates, so it
    preserves rank weight.
    """
    if C.k < 1:
        raise errors.ZeroCode("rank distance of the zero code is undefined")
    if C.field.q**C.k > budget:
        raise errors.Infeasible(f"{C.field.q}^{C.k} codewords exceed budget {budget}")
    return projective_min_weight(C, lambda word: _coefficient_rank(C.field, word))[0]


def is_mrd(C: LinearCode, budget: int = DEFAULT_BUDGET) -> MrdReport:
    """True iff the minimum rank distance attains n - k + 1.

    Proved by exhaustive enumeration; Infeasible when q^k exceeds budget.
    """
    if C.n > C.field.e:
        raise errors.LengthExceedsDegree(
            f"rank-metric certification needs n <= m ({C.n} > {C.field.e})")
    dr = min_rank_distance_exhaustive(C, budget)
    return MrdReport(dr == C.n - C.k + 1, dr)
