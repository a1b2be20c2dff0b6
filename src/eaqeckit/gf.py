"""Exact arithmetic in the finite field GF(p^e).

Elements are polynomials c_0 + c_1 b + ... + c_{e-1} b^(e-1) over Z_p, where
b is a root of the monic defining modulus f.  The integer encoding
enc(a) = sum c_i * p^i is a bijection onto [0, p^e); every canonical choice
made here (defining modulus, primitive element, element ordering) minimizes
this encoding, so all downstream constructions are bit-reproducible.

Enc integers are the working representation: matrices and codes store them
and compute with the field's enc-level add/sub/neg/mul/inv/pow.  Element is
the API-boundary type; its operators delegate to those same operations.
Every field with q <= 1024, prime or not, has one set of flat numpy tables
of sub, mul and inv for the batched subset scan, and extension fields of that
size read their scalar operations from them.  Above that, GF(2^e) computes
on the enc as a bit vector.  Odd p adds digit by digit on the enc and
multiplies by Kronecker substitution: the digits go into bit slots of one
integer, each slot wide enough for e(p-1)^2 (1 + (e-1)(p-1)) so that none
carries, and a polynomial product is one integer product, folded by
x^(e+i) mod f.  Each has one mul and one square-and-multiply on it; the
Rabin test that picks f and the exp tables of the small fields run on the
same mul in Z_p[x]/(f).  Frobenius powers a^(p^s), and the x^(p^i) of the
Rabin test, are a GF(p)-linear map on the basis, applied from the images of
x^0 .. x^(e-1), one per field and s, built on first use.  Z_p[x] routines on
coefficient lists serve only Euclid (odd-p inverses and the Rabin gcds) and
the reduction rows x^(e+i) mod f.

Size bounds: p < 2^31 and e <= 16.  Coefficient arithmetic is done with
Python integers, so q = p^e itself may exceed machine word size.
"""
from __future__ import annotations

from itertools import zip_longest
from math import gcd
from operator import xor
from typing import Sequence

from . import errors

MAX_PRIME = 2**31
MAX_DEGREE = 16

# Fields with q up to this bound, prime or extension, get flat numpy
# sub/mul/inv tables (the batched subset scan in fmatrix/lincode); extension
# fields of that size take their scalar operations from the same tables.
_NP_TABLE_MAX = 1024

# Deterministic Miller-Rabin witnesses, the first 13 primes: is_prime is
# exact for all n < _MR_PROVEN (about 3.3 * 10^24; Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN = 3317044064679887385961981

# _prime_factors trial-divides below _TRIAL_MAX, then gives Pollard-Brent rho
# _RHO_STEPS steps, rounded up to the end of a doubling round, to split each
# cofactor left over.
_TRIAL_MAX = 2**12
_RHO_STEPS = 2**18


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _MR_BASES:
        if n == b:
            return True
        if n % b == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending: trial division below _TRIAL_MAX,
    then Pollard-Brent rho on what is left.  A factor counts as prime only when
    is_prime proves it, so Infeasible for a cofactor that is a probable prime
    of _MR_PROVEN or more, or that rho does not split within _RHO_STEPS."""
    out, d = set(), 2
    while d < _TRIAL_MAX and d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if is_prime(m):
            if m >= _MR_PROVEN:
                raise errors.Infeasible(f"cannot prove the probable prime {m} prime")
            out.add(m)
        else:
            g = _rho(m)
            rest += [g, m // g]
    return sorted(out)


def _rho(n: int) -> int:
    """A proper factor of the composite n by Pollard-Brent rho on x^2 + c,
    trying c = 1, 2, ...; Infeasible after the round that reaches _RHO_STEPS
    steps in all."""
    steps, c = 0, 0
    while steps < _RHO_STEPS:
        c += 1
        y, r, g = 2, 1, 1
        while g == 1 and steps < _RHO_STEPS:
            x, acc, k = y, 1, 0
            for _ in range(r):
                y = (y * y + c) % n
            while k < r and g == 1:  # gcd once per 128 steps: ys restarts a batch
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g, k = gcd(acc, n), k + 128
            steps += 2 * r
            r *= 2
        if g == n:  # the batch overshot: step it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if 1 < g < n:
            return g
    raise errors.Infeasible(f"no factor of {n} within {_RHO_STEPS} rho steps")


# ---------------------------------------------------------------------------
# Z_p[x] on coefficient lists, lowest degree first, for Euclid (_pxgcd) and
# the reduction table of the odd-p mul.  Results are trimmed of trailing
# zeros ([] is the zero polynomial); arguments need not be.
# ---------------------------------------------------------------------------

def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _psub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    return _ptrim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    t = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                t[j] += ai * bj
    return _ptrim([c % p for c in t])


def _pdivmod(a: Sequence[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by b, which is trimmed and nonzero."""
    r, db = list(a), len(b) - 1
    lead_inv = pow(b[-1], p - 2, p)
    quo = [0] * (len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] * lead_inv % p
        if c:
            quo[i - db] = c
            for j in range(db):
                r[i - db + j] = (r[i - db + j] - c * b[j]) % p
    return _ptrim(quo), _ptrim(r[:db])


def _pxgcd(a: Sequence[int], f: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Extended Euclid: (g, u) with g = gcd(a, f) monic and u * a = g mod f.

    f is trimmed and nonzero.  For a prime to f, g = [1] and u = a^-1 mod f."""
    r0, r1 = f, _ptrim(list(a))
    u0, u1 = [], [1]
    while r1:
        quo, rem = _pdivmod(r0, r1, p)
        r0, r1, u0, u1 = r1, rem, u1, _psub(u0, _pmul(quo, u1, p), p)
    lead_inv = pow(r0[-1], p - 2, p)
    return [c * lead_inv % p for c in r0], [c * lead_inv % p for c in u0]


def _reduction_table(f: list[int], p: int) -> list[list[int]]:
    """x^(e+i) mod f for i < e - 1, the degrees above e of a product of two
    residues, where f is monic of degree e."""
    return [_pdivmod([0] * (len(f) - 1 + i) + [1], f, p)[1] for i in range(len(f) - 2)]


def _digits(a: int, p: int, e: int) -> list[int]:
    """The coefficients c_0 .. c_{e-1} of the enc a (its base-p digits)."""
    out = []
    for _ in range(e):
        a, c = divmod(a, p)
        out.append(c)
    return out


def _is_irreducible(tail: Sequence[int], p: int, e: int) -> bool:
    """Rabin test for the monic f = x^e + tail (tail = c_0..c_{e-1}): x^(p^e) = x
    mod f, and gcd(x^(p^(e/r)) - x, f) = 1 for each prime r | e.  x^(p^i) is x
    after i steps of the GF(p)-linear map a -> a^p on Z_p[x]/(f)."""
    if e == 1:
        return True
    f = list(tail) + [1]
    _, sub, mul, power = (_bin_ops if p == 2 else _poly_ops)(p, e, tail)
    # x^p (the enc of x is p); p < q - 1, so power's reduction of the
    # exponent mod q - 1, which holds only when f is irreducible, is void
    step = _linear_map(p, e, mul, power(p, p))
    gcd_at = {e // r for r in _prime_factors(e)}
    y = p
    for i in range(1, e + 1):
        y = step(y)
        if i in gcd_at and len(_pxgcd(_digits(sub(y, p), p, e), f, p)[0]) != 1:
            return False
    return y == p


def _min_irreducible_tail(p: int, e: int) -> tuple[int, ...]:
    """Non-leading coefficients of the enc-minimal monic irreducible of degree e."""
    # The binomials x^e + c_0 (enc < p) are all reducible unless every prime
    # factor of e divides p-1 and p = 1 mod 4 when 4 | e (Lidl-Niederreiter 3.75).
    binomials = all((p - 1) % r == 0 for r in _prime_factors(e)) and (e % 4 or p % 4 == 1)
    for enc in range(0 if binomials else p, p**e):  # e = 1 gives (0,), the polynomial x
        tail = tuple(enc // p**i % p for i in range(e))
        if _is_irreducible(tail, p, e):
            return tail
    raise errors.UnsupportedSize(f"no irreducible polynomial found for p={p}, e={e}")


# ---------------------------------------------------------------------------
# FieldSpec / Element
# ---------------------------------------------------------------------------

class FieldSpec:
    """The finite field GF(p^e) with a fixed defining modulus.

    Immutable after construction.  Arithmetic works on enc integers through
    add, sub, neg, mul, inv, pow and frobenius.  The field picks add, sub,
    mul and pow once from p, e and q: residues mod p for prime fields, the
    flat tables of vec_ops for extension fields with q <= _NP_TABLE_MAX, and
    above that the enc as a bit vector for p = 2 and, for odd p, digitwise
    add and sub and a Kronecker-substitution mul.  Prefer :func:`field_new`:
    one shared instance per modulus, enc-minimal by default.
    """

    __slots__ = ("p", "e", "q", "modulus", "_primitive", "_vec", "_frob",
                 "add", "sub", "mul", "pow")

    def __init__(self, p: int, e: int, modulus: Sequence[int] | None = None):
        if not isinstance(p, int) or not is_prime(p):
            raise errors.NonPrime(f"p={p} is not prime")
        if not isinstance(e, int) or e < 1:
            raise errors.UnsupportedSize(f"e={e} must be a positive integer")
        if p >= MAX_PRIME or e > MAX_DEGREE:
            raise errors.UnsupportedSize(
                f"GF({p}^{e}) exceeds supported bounds (p < 2^31, e <= 16)")
        self.p, self.e, self.q = p, e, p**e
        if modulus is not None:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != e:
                raise errors.UnsupportedSize(
                    f"modulus must list the {e} non-leading coefficients")
            if not _is_irreducible(modulus, p, e):
                raise errors.UnsupportedSize(
                    f"x^{e} + {list(modulus)} is not irreducible over GF({p})")
        if modulus is None or e == 1:  # every x + c gives GF(p) the same arithmetic
            modulus = _min_irreducible_tail(p, e)
        self.modulus = tuple(modulus)
        self._primitive: Element | None = None
        self._vec = None
        self._frob: dict = {}  # s -> the map a -> a^(p^s), built on first use
        self.add, self.sub, self.mul, self.pow = (
            _prime_ops(p) if e == 1 else (_bin_ops if p == 2 else _poly_ops)(p, e, self.modulus))
        if e > 1 and self.q <= _NP_TABLE_MAX:
            # the tables are built with the enc routines installed above
            self._vec = _VecOps(self)
            self.add, self.sub, self.mul, self.pow = _table_ops(self._vec)

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def inv(self, a: int) -> int:
        """Inverse of a nonzero enc; DivisionByZero for 0."""
        return self.pow(a, -1)

    def frobenius(self, a: int, s: int) -> int:
        """a^(p^s), s taken mod e: the GF(p)-linear map sending x to x^(p^s),
        which is x^p after s - 1 steps of the map for s = 1."""
        s %= self.e
        if not s:
            return a
        frob = self._frob.get(s)
        if frob is None:
            xs = self.pow(self.p, self.p)  # the enc of x is p
            for _ in range(s - 1):
                xs = self.frobenius(xs, 1)
            frob = self._frob[s] = _linear_map(self.p, self.e, self.mul, xs)
        return frob(a)

    # -- identity / ordering ------------------------------------------------

    def __eq__(self, other):
        return (self is other or
                (isinstance(other, FieldSpec) and self.p == other.p
                 and self.e == other.e and self.modulus == other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __reduce__(self):  # the installed operations are closures; rebuild them
        return FieldSpec, (self.p, self.e, self.modulus)

    def __repr__(self):
        return f"FieldSpec({self.text!r})"

    @property
    def label(self) -> str:
        """Short name of the field, e.g. '13' or '3^3'."""
        return str(self.p) if self.e == 1 else f"{self.p}^{self.e}"

    @property
    def text(self) -> str:
        """Canonical text form, e.g. '3^3;mod=1,2,0'."""
        return f"{self.label};mod={','.join(map(str, self.modulus))}"

    # -- element construction ----------------------------------------------

    def to_enc(self, value) -> int:
        """Enc of an int (reduced mod q), a coefficient sequence, or an Element."""
        if isinstance(value, int):
            return value % self.q
        if isinstance(value, Element):
            if value.field != self:
                raise errors.FieldMismatch(f"{value!r} is not in {self!r}")
            return value.enc
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.e:
            raise errors.LengthMismatch(
                f"expected {self.e} coefficients, got {len(coeffs)}")
        return self._enc(coeffs)

    def element(self, value) -> "Element":
        """Element from an enc integer, a coefficient sequence, or an Element."""
        return Element(self, self.to_enc(value))

    @property
    def one(self) -> "Element":
        return self.element(1)

    # -- enc <-> coefficients ---------------------------------------------------

    def _enc(self, coeffs) -> int:
        enc, m = 0, 1
        for c in coeffs:
            enc += c * m
            m *= self.p
        return enc

    def _coeffs(self, enc: int) -> tuple[int, ...]:
        return tuple(_digits(enc, self.p, self.e))

    # -- acceleration tables --------------------------------------------------

    def primitive_element(self) -> "Element":
        """The enc-minimal generator of the multiplicative group."""
        if self._primitive is None:
            q = self.q
            try:
                order_factors = _prime_factors(q - 1)
            except errors.Infeasible as exc:
                raise errors.Infeasible(f"GF({self.label}): cannot factor q - 1: {exc}") from None
            # for e > 1 the encs below p are GF(p) constants, of order < q - 1
            self._primitive = self.element(next(
                a for a in range(1 if self.e == 1 else self.p, q)
                if all(self.pow(a, (q - 1) // r) != 1 for r in order_factors)))
        return self._primitive

    def vec_ops(self):
        """Numpy-vectorized enc arithmetic, or None for fields too large.

        sub/mul/inv on integer numpy arrays of enc values, the same flat
        tables for prime and extension fields.  Built at construction for
        extension fields, whose scalar operations read them, and on first
        call for prime fields.  Results never depend on this accelerator.
        """
        if self.q > _NP_TABLE_MAX:
            return None
        if self._vec is None:
            self._vec = _VecOps(self)
        return self._vec


# ---------------------------------------------------------------------------
# Enc-level operations.  Each builder returns (add, sub, mul, pow) on enc
# integers in [0, q); FieldSpec installs one set at construction.
# ---------------------------------------------------------------------------

def _zero_power(n: int) -> int:
    """0^n, with the convention 0^0 = 1 (constant row of evaluation maps)."""
    if n < 0:
        raise errors.DivisionByZero("0 has no inverse")
    return 1 if n == 0 else 0


def _prime_ops(p: int):
    """GF(p): the enc is the residue itself."""
    def add(a, b):
        return (a + b) % p

    def sub(a, b):
        return (a - b) % p

    def mul(a, b):
        return a * b % p

    def power(a, n):
        return pow(a, n % (p - 1), p) if a else _zero_power(n)

    return add, sub, mul, power


def _table_ops(vec: "_VecOps"):
    """Small extension fields: the flat tables of vec_ops, read as Python ints.

    sub_t[b] is -b, so a + b is a - (-b).  The memoryviews share the numpy
    buffers and index to plain ints.
    """
    q, q1 = vec.q, vec.q - 1
    sub_t, mul_t, exp, log = map(memoryview, (vec.sub_t, vec.mul_t, vec.exp, vec.log))

    def add(a, b):
        return sub_t[a * q + sub_t[b]]

    def sub(a, b):
        return sub_t[a * q + b]

    def mul(a, b):
        return mul_t[a * q + b]

    def power(a, n):
        return exp[log[a] * n % q1] if a else _zero_power(n)

    return add, sub, mul, power


def _power(mul, inv, q1: int):
    """pow on one representation's mul: a^n by left-to-right square-and-multiply
    from a (n reduced mod q1 = q - 1), and a^-n as inv(a)^n."""
    def power(a, n):
        if not a:
            return _zero_power(n)
        if n < 0:
            a, n = inv(a), -n
        n %= q1
        if not n:
            return 1
        r = a
        for bit in bin(n)[3:]:
            r = mul(r, r)
            if bit == "1":
                r = mul(a, r)  # a first: for p = 2, cheap for a sparse a such as x
        return r

    return power


def _bin_ops(p: int, e: int, tail: Sequence[int]):
    """Z_2[x]/(f), f = x^e + tail: the enc is the coefficient bit vector, so add
    and sub are xor and a product is shift-and-xor, reduced by f at each shift."""
    top = 1 << e
    f = sum(c << i for i, c in enumerate(tail)) | top

    def mul(a, b):  # one step per bit of a, so a small first factor is cheap
        r = 0
        while a:
            if a & 1:
                r ^= b
            a, b = a >> 1, b << 1
            if b & top:
                b ^= f
        return r

    def inv(a):  # extended Euclid, with g1 * a = u and g2 * a = v mod f throughout
        u, v, g1, g2 = a, f, 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2, j = v, u, g2, g1, -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    return xor, xor, mul, _power(mul, inv, top - 1)


def _poly_ops(p: int, e: int, tail: Sequence[int]):
    """Z_p[x]/(f), f = x^e + tail, for odd p: add and sub digit by digit on the
    enc (digit i of a is a // p^i mod p); an inverse is one _pxgcd.

    mul is Kronecker substitution: each operand's digits go into s-bit slots
    of one integer, so the polynomial product is one integer product.  The
    e - 1 high slots fold into the low e as slot times x^(e+i) mod f, packed
    the same way, and the low slots read back mod p.  A product slot is below
    e(p-1)^2, and the fold adds e - 1 of them times reduction entries below p,
    so s bits hold e(p-1)^2 (1 + (e-1)(p-1)) and no slot carries into the next.
    Operands are packed h digits at a time through tab, which maps v < p^h to
    its digits in h slots; h is the largest with p^h <= _NP_TABLE_MAX (at most
    e), and for h = 1 tab is range(p), the digit itself."""
    f, pw = list(tail) + [1], [p**i for i in range(e)]
    s = (e * (p - 1) ** 2 * (1 + (e - 1) * (p - 1))).bit_length()
    slot, low, h = (1 << s) - 1, (1 << s * e) - 1, 1
    while h < e and p ** (h + 1) <= _NP_TABLE_MAX:
        h += 1
    base, step = p**h, s * h
    tab = range(base)
    if h > 1:
        tab = [0]
        for v in range(1, base):  # digit 0 of v in the lowest slot
            tab.append(tab[v // p] << s | v % p)

    def pack(a):
        r, k = 0, 0
        while a:
            a, c = divmod(a, base)
            r |= tab[c] << k
            k += step
        return r

    red = [sum([c << s * j for j, c in enumerate(row)]) for row in _reduction_table(f, p)]

    def add(a, b):
        r = 0
        for m in pw:
            r += (a // m + b // m) % p * m
        return r

    def sub(a, b):
        if not b:
            return a
        r = 0
        for m in pw:
            r += (a // m - b // m) % p * m
        return r

    def mul(a, b):
        if not (a and b):
            return 0
        t = pack(a) * pack(b)
        r, t = t & low, t >> s * e
        for row in red:  # slot e + i times x^(e+i) mod f
            r += (t & slot) * row
            t >>= s
        out = 0
        for m in pw:
            out += (r & slot) % p * m
            r >>= s
        return out

    def inv(a):
        return sum([c * m for c, m in zip(_pxgcd(_digits(a, p, e), f, p)[1], pw)])

    return add, sub, mul, _power(mul, inv, p**e - 1)


def _linear_map(p: int, e: int, mul, xs: int):
    """The GF(p)-linear map of Z_p[x]/(f) sending x to xs (and 1 to 1), so
    sum a_i x^i to sum a_i xs^i: the images xs^i, i < e, come from mul."""
    images = [1, xs]
    while len(images) < e:
        images.append(mul(images[-1], xs))

    if p == 2:
        def frob(a):  # xor the images over the set bits of a
            r = 0
            for b in images:
                if a & 1:
                    r ^= b
                a >>= 1
            return r
        return frob

    pw = [p**i for i in range(e)]
    digits = [_digits(b, p, e) for b in images]

    def frob(a):  # digit times image, summed digitwise and reduced mod p once
        t = [0] * e
        for d in digits:
            a, c = divmod(a, p)
            if c:
                for j, x in enumerate(d):
                    t[j] += c * x
        return sum([c % p * m for c, m in zip(t, pw)])
    return frob


class _VecOps:
    """Flat numpy operation tables for one small field, prime or extension.

    op(a, b) is op_t[a * q + b] on numpy arrays of enc values, which
    broadcast as usual; inv_t[0] is 0.  exp[i] = g^i for i < q-1 and
    log[g^i] = i, g the primitive element, built with the field's mul.
    """

    __slots__ = ("q", "sub_t", "mul_t", "inv_t", "exp", "log")

    def __init__(self, field: FieldSpec):
        import numpy as np
        q, p = field.q, field.p
        a, b = np.arange(q)[:, None], np.arange(q)[None, :]
        # enc-level subtraction is digitwise mod p, and a // m = digit i of a (mod p)
        sub, m = np.zeros((q, q), dtype=np.int64), 1
        for _ in range(field.e):
            sub += (a // m - b // m) % p * m
            m *= p
        g, x = field.primitive_element().enc, 1
        exp, log = [0] * (q - 1), [0] * q
        for i in range(q - 1):
            exp[i], log[x] = x, i
            x = field.mul(g, x)  # for p = 2 a product skips g's zero bits
        exp, log = np.array(exp, dtype=np.int64), np.array(log, dtype=np.int64)
        mul = exp[(log[:, None] + log[None, :]) % (q - 1)]
        mul[0, :] = mul[:, 0] = 0
        self.q, self.sub_t, self.mul_t = q, sub.ravel(), mul.ravel()
        self.exp, self.log, self.inv_t = exp, log, exp[-log % (q - 1)]
        self.inv_t[0] = 0

    def sub(self, a, b):
        return self.sub_t[a * self.q + b]

    def mul(self, a, b):
        return self.mul_t[a * self.q + b]

    def inv(self, a):
        return self.inv_t[a]


class Element:
    """An element of a :class:`FieldSpec`, immutable and hashable.

    The API-boundary type: matrices and codes store enc integers, and every
    operator here delegates to the field's enc-level operations.  An int
    operand of +, -, * and / is the integer's image n*1 in GF(p), enc n mod p;
    == against an int compares encs exactly, as the hash of an equal int must
    match.
    """

    __slots__ = ("field", "coeffs", "enc")

    def __init__(self, field: FieldSpec, enc: int):
        self.field = field
        self.enc = enc
        self.coeffs = field._coeffs(enc)

    def _coerce(self, other) -> "Element":
        if isinstance(other, Element):
            if other.field != self.field:
                raise errors.FieldMismatch(
                    f"elements of {self.field.label} and {other.field.label}")
            return other
        if isinstance(other, int):
            return self.field.element(other % self.field.p)
        return NotImplemented

    def _binary(op: str):
        def method(self, other):
            o = self._coerce(other)
            if o is NotImplemented:
                return o
            f = self.field
            return f.element(getattr(f, op)(self.enc, o.enc))
        return method

    __add__ = __radd__ = _binary("add")
    __sub__ = _binary("sub")
    __mul__ = __rmul__ = _binary("mul")
    del _binary

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __neg__(self):
        return self.field.element(self.field.neg(self.enc))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def inverse(self) -> "Element":
        return self.field.element(self.field.inv(self.enc))

    def __pow__(self, n: int):
        return self.field.element(self.field.pow(self.enc, n))

    def __bool__(self):
        return self.enc != 0

    def __eq__(self, other):
        if isinstance(other, Element):
            return self.field == other.field and self.enc == other.enc
        if isinstance(other, int):  # exact, as the hash of an equal int must match
            return self.enc == other
        return NotImplemented

    def __hash__(self):
        return hash(self.enc)

    def __int__(self):
        return self.enc

    def __repr__(self):
        return f"<{self.enc} in GF({self.field.label})>"

    def __str__(self):
        return str(self.enc)


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------

# The shared fields, by (p, e, modulus) as given and as normalized.
_FIELDS: dict[tuple, FieldSpec] = {}


def field_new(p: int, e: int, modulus: Sequence[int] | None = None) -> FieldSpec:
    """GF(p^e), one shared instance per defining modulus.

    Without a modulus the canonical enc-minimal one is taken, so passing that
    modulus returns the same object as field_new(p, e).
    """
    key = (p, e, modulus and tuple(modulus))
    if key not in _FIELDS:
        field = FieldSpec(p, e, modulus)
        _FIELDS[key] = _FIELDS.setdefault((p, e, field.modulus), field)
    return _FIELDS[key]
