"""Entanglement-assisted code parameters from pairs of classical codes.

The ebit count c is computed two independent ways:

  * product form:  c = rank(H1 (H2^(p^(e-s)))^T)
  * stacked form:  c = rank(G1 stacked on H2^(p^(e-s))) - k1

The two are provably equal; both are always computed and compared, and a
mismatch is surfaced as an internal error rather than silently trusted.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import errors
from .gf import FieldSpec
from .lincode import LinearCode, check_pair


@dataclass(frozen=True)
class EaqecParams:
    """An [[n, k, d; c]]_q parameter tuple with its Singleton slack."""
    field: FieldSpec
    n: int
    k: int
    d: int
    c: int
    slack: int
    is_mds: bool

    @classmethod
    def build(cls, field: FieldSpec, n: int, k: int, d: int, c: int) -> "EaqecParams":
        slack = (n - k + c) - 2 * (d - 1)
        return cls(field, n, k, d, c, slack, slack == 0)

    def __str__(self):
        return f"[[{self.n},{self.k},{self.d};{self.c}]]_{self.field.label}"

    def to_json(self) -> dict:
        return {
            "q": self.field.label,
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "c": self.c,
            "slack": self.slack,
            "mds": self.is_mds,
            "rate": self.k / self.n,
            "net_rate": (self.k - self.c) / self.n,
        }


@dataclass(frozen=True)
class PairReport:
    C1: LinearCode
    C2: LinearCode
    s: int
    c_product: int
    c_stack: int
    k: int  # k1 + k2 - n + c


def ebits_product(C1: LinearCode, C2: LinearCode, s: int) -> int:
    """rank(H1 (H2^(p^(e-s)))^T)."""
    check_pair(C1, C2)
    H2t = C2.H.frobenius_entrywise(-s)
    return (C1.H @ H2t.transpose()).rank()


def ebits_stack(C1: LinearCode, C2: LinearCode, s: int) -> int:
    """rank(G1 over H2^(p^(e-s))) - k1."""
    check_pair(C1, C2)
    H2t = C2.H.frobenius_entrywise(-s)
    return C1.G.vstack(H2t).rank() - C1.k


def assemble(C1: LinearCode, C2: LinearCode, s: int) -> PairReport:
    """The ebit count c and the logical dimension k = k1+k2-n+c of a code pair.

    Both c formulas are evaluated; disagreement raises FormulaMismatch since
    it can only mean a defect in the linear algebra underneath.  A negative
    k raises NegativeLogicalDim.
    """
    check_pair(C1, C2)
    c_product = ebits_product(C1, C2, s)
    c_stack = ebits_stack(C1, C2, s)
    if c_product != c_stack:
        raise errors.FormulaMismatch(
            f"ebit formulas disagree: product={c_product}, stack={c_stack}")
    k = C1.k + C2.k - C1.n + c_product
    if k < 0:
        raise errors.NegativeLogicalDim(f"k1+k2-n+c = {k} < 0")
    return PairReport(C1, C2, s, c_product, c_stack, k)
