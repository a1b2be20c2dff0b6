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
of sub, mul and inv for fmatrix's elimination, and extension fields of that
size read their scalar operations from them.  Above that, GF(2^e) computes
on the enc as a bit vector.  Odd p adds digit by digit on the enc, and every
odd-p product in Z_p[x]/(f) is Kronecker substitution on one slot layout
(_kronecker, one per p and e): the digits go into w-bit slots of one
integer, a polynomial product is one integer product, and one reduction by
f (_barrett: polynomial Barrett, then one Barrett step mod p on every slot)
brings every entry of it back to digits below p.  Each has one mul and one
square-and-multiply on it; the Rabin test that picks f and the exp tables of
the small fields run on the same mul.  Frobenius powers a^(p^s), and the
x^(p^i) of the Rabin test, are a GF(p)-linear map on the basis, applied from
the images of x^0 .. x^(e-1) in the same slots, one per field and s, built
on first use.  GF(2^e) inverts by Euclid on the bit vector, odd p by the
norm chain: a^-1 = b N(a)^(p-2) for b the conorm a^(p+...+p^(e-1)).  The
Rabin test decides coprimality by the norm test on Z_p[x]/(f), and for
p <= e (so e >= 2) the modulus search drops a candidate with a root in GF(p)
before its Rabin test.  The primitive element search reads the norm of a
linear element ux + c from the modulus, as (-u)^e f(-c/u), and the chain
re-checks the norm of the element it picks.  Elements never become
coefficient lists: they stay encs, and only the modulus tuple is evaluated
mod p, by the root filter and the linear norm.

row_ops is the row layout of elimination and matrix products, which each
representation defines beside its scalar operations and row_ops builds on
first call; the fmatrix docstring says which kernel runs on it and which on
vec_ops.  Odd-p extension fields above q = 1024 pack each row into one
integer, so s X - a V is two integer products and one reduction of every
entry at once, by masks sized to the entries the product holds; the other
fields keep rows as lists of encs.

Size bounds: p < 2^31 and e <= 16.  Coefficient arithmetic is done with
Python integers, so q = p^e itself may exceed machine word size.
"""
from __future__ import annotations

from functools import cache, partial
from math import gcd
from operator import getitem, xor
from typing import Callable, NamedTuple, Sequence

from . import errors

MAX_PRIME = 2**31
MAX_DEGREE = 16

# Fields with q up to this bound, prime or extension, get flat numpy
# sub/mul/inv tables (vec_ops, for the elimination kernels of fmatrix);
# extension fields of that size take their scalar operations from them.
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


def _is_irreducible(tail: Sequence[int], p: int, e: int) -> bool:
    """Rabin test for the monic f = x^e + tail (tail = c_0..c_{e-1}) on the ring
    R = Z_p[x]/(f): y_i = x^(p^i), x after i steps of the GF(p)-linear map
    a -> a^p, must reach y_e = x.  Then R is a product of fields GF(p^d) with
    d | e, on which a -> a^p has period e, and f is irreducible iff for each
    prime r | e, g = y_(e/r) - x is a unit: iff the product of its images
    under a -> a^(p^j), j < e, M = prod_j (y_((e/r+j) mod e) - y_j), which
    a -> a^p fixes and so lies in a product of copies of GF(p), has
    M^(p-1) = 1."""
    if e == 1:
        return True
    # bit vectors for p = 2: large-field's fields took 41-42 ms, not 20-22, without
    _, sub, mul, power, _ = (_bin_ops if p == 2 else _poly_ops)(p, e, tail)
    # x^p (the enc of x is p); power reduces exponents mod q - 1, valid only
    # for an irreducible f, but p and p - 1 are below q - 1
    step = _linear_map(p, e, mul, power(p, p))
    ys = [p]
    for _ in range(e):
        ys.append(step(ys[-1]))
    if ys.pop() != p:
        return False
    for r in _prime_factors(e):
        m = 1
        for j in range(e):
            m = mul(m, sub(ys[(e // r + j) % e], ys[j]))
        if power(m, p - 1) != 1:
            return False
    return True


def _monic_at(tail: Sequence[int], r: int, p: int) -> int:
    """f(r) mod p for the monic f = x^e + tail, by Horner."""
    v = 1
    for c in reversed(tail):
        v = (v * r + c) % p
    return v


def _min_irreducible_tail(p: int, e: int) -> tuple[int, ...]:
    """Non-leading coefficients of the enc-minimal monic irreducible of degree e.

    For p <= e a candidate with a root in GF(p), reducible, is dropped
    before its Rabin test: p Horner passes of e steps cost less than the
    test, and GF(5^9) takes 9 tests, not 34."""
    # The binomials x^e + c_0 (enc < p) are all reducible unless every prime
    # factor of e divides p-1 and p = 1 mod 4 when 4 | e (Lidl-Niederreiter 3.75).
    binomials = all((p - 1) % r == 0 for r in _prime_factors(e)) and (e % 4 or p % 4 == 1)
    roots = range(p) if p <= e else ()
    for enc in range(0 if binomials else p, p**e):  # e = 1 gives (0,), the polynomial x
        tail = tuple(enc // p**i % p for i in range(e))
        if all(_monic_at(tail, r, p) for r in roots) and _is_irreducible(tail, p, e):
            return tail
    raise errors.UnsupportedSize(f"no irreducible polynomial found for p={p}, e={e}")


# ---------------------------------------------------------------------------
# FieldSpec / Element
# ---------------------------------------------------------------------------

class FieldSpec:
    """The finite field GF(p^e) with a fixed defining modulus.

    Immutable after construction.  Arithmetic works on enc integers through
    add, sub, neg, mul, inv, pow and frobenius.  The field picks add, sub,
    mul, pow and the row layout of row_ops once, and only here, from p, e
    and q: residues mod p for prime fields, the flat tables of vec_ops for
    extension fields with q <= _NP_TABLE_MAX, and above that the enc as a
    bit vector for p = 2 and, for odd p, digitwise add and sub, a
    Kronecker-substitution mul and packed rows.  Prefer :func:`field_new`:
    one shared instance per modulus, enc-minimal by default.
    """

    __slots__ = ("p", "e", "q", "modulus", "_primitive", "_vec", "_frob", "_rows",
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
        self.add, self.sub, self.mul, self.pow, self._rows = (
            _prime_ops(p) if e == 1 else _bin_ops(p, e, self.modulus) if p == 2
            else _poly_ops(p, e, self.modulus, self._inv))
        if e > 1 and self.q <= _NP_TABLE_MAX:
            # the tables are built with the enc routines installed above
            self._vec = _VecOps(self)
            self.add, self.sub, self.mul, self.pow, self._rows = _table_ops(self._vec)

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def inv(self, a: int) -> int:
        """Inverse of a nonzero enc; DivisionByZero for 0."""
        return self.pow(a, -1)

    def frobenius(self, a: int, s: int) -> int:
        """a^(p^s), s taken mod e: the GF(p)-linear map sending x to x^(p^s),
        which is x^p after s - 1 steps of the map for s = 1."""
        s %= self.e
        if not s or a < self.p:  # GF(p), the encs below p, is fixed
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

    def __reduce__(self):  # unpickles to field_new's shared instance, tables and all
        return field_new, (self.p, self.e, self.modulus)

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
        """The coefficients c_0 .. c_{e-1} of an enc (its base-p digits)."""
        out = []
        for _ in range(self.e):
            enc, c = divmod(enc, self.p)
            out.append(c)
        return tuple(out)

    # -- acceleration tables --------------------------------------------------

    def _conorm(self, a: int) -> int:
        """b = a^(p+...+p^(e-1)), the image under a -> a^p of the Itoh-Tsujii
        chain t = a^(1+p+...+p^(k-1)), for k the leading bits of e - 1 read
        so far; 1 for e = 1."""
        t, k = a, 1
        for bit in bin(self.e - 1)[3:]:
            t, k = self.mul(t, self.frobenius(t, k)), 2 * k
            if bit == "1":
                t, k = self.mul(a, self.frobenius(t, 1)), k + 1
        return self.frobenius(t, 1) if self.e > 1 else 1

    def _norm(self, a: int, b: int | None = None) -> int:
        """N(a) = a^(1+p+...+p^(e-1)) = ab in GF(p), b the conorm of a (taken
        when not given).  With no b, a linear a = ux + c (p <= a < p^2) takes
        no chain: N(a) = prod_i (u x_i + c) over the roots x_i of f, the
        modulus, which is (-u)^e f(-c/u) on integers mod p."""
        p = self.p
        if b is None and p <= a < p * p:
            u, c = divmod(a, p)
            root = -c * pow(u, -1, p) % p
            return pow(-u, self.e, p) * _monic_at(self.modulus, root, p) % p
        t = self.mul(a, self._conorm(a) if b is None else b)
        if t >= p:
            raise errors.FormulaMismatch(
                f"GF({self.label}): the norm of {a} is {t}, not in GF({p})")
        return t

    def _inv(self, a: int) -> int:
        """a^-1 = b N(a)^(p-2) of a nonzero a, b the conorm: N(a) = ab is a
        unit of GF(p)."""
        b = self._conorm(a)
        return self.mul(b, pow(self._norm(a, b), self.p - 2, self.p))

    def primitive_element(self) -> "Element":
        """The enc-minimal generator: a^((q-1)/r) != 1 for each prime r | q - 1.
        For r | p - 1 that power is N(a)^((p-1)/r), a power of a residue, and
        only the candidates that pass those take a full pow for the other r.
        A linear candidate's norm is read from the modulus, so the winner's
        is taken again by the chain, which must agree: a wrong mul or
        Frobenius fails loudly even when no chain ran in the search."""
        if self._primitive is None:
            p, q = self.p, self.q
            try:
                order_factors = _prime_factors(q - 1)
            except errors.Infeasible as exc:
                raise errors.Infeasible(f"GF({self.label}): cannot factor q - 1: {exc}") from None
            by_norm = [(p - 1) // r for r in order_factors if (p - 1) % r == 0]
            by_pow = [(q - 1) // r for r in order_factors if (p - 1) % r]

            # the norm test: nine large fields took 82-120 ms without it, 38-44 with
            def generates(a):  # p = 2 has no r | p - 1 and takes no norm
                t = self._norm(a) if by_norm else 1
                return (all(pow(t, k, p) != 1 for k in by_norm)
                        and all(self.pow(a, k) != 1 for k in by_pow))

            # for e > 1 the encs below p are GF(p) constants, of order < q - 1
            g = next((a for a in range(1 if self.e == 1 else p, q) if generates(a)), None)
            if g is None:
                raise errors.FormulaMismatch(f"GF({self.label}): no element passes the order tests")
            if by_norm:
                chain, search = self._norm(g, self._conorm(g)), self._norm(g)
                if chain != search:
                    raise errors.FormulaMismatch(f"GF({self.label}): the norm of {g} is "
                                                 f"{chain} by the chain, {search} by the search")
            self._primitive = self.element(g)
        return self._primitive

    def row_ops(self) -> "RowOps":
        """The row layout of exact elimination and matrix products, the one
        that came with the scalar operations at construction, built on first
        call."""
        if not isinstance(self._rows, RowOps):  # the builder, until this call
            self._rows = self._rows()
        return self._rows

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
# integers in [0, q) and a builder of its RowOps; FieldSpec installs one set
# at construction, and row_ops builds the rows on first call.
# ---------------------------------------------------------------------------

def _zero_power(n: int) -> int:
    """0^n, with the convention 0^0 = 1 (constant row of evaluation maps)."""
    if n < 0:
        raise errors.DivisionByZero("0 has no inverse")
    return 1 if n == 0 else 0


def _prime_ops(p: int):
    """GF(p): the enc is the residue itself, and a row a list of residues."""
    def add(a, b):
        return (a + b) % p

    def sub(a, b):
        return (a - b) % p

    def mul(a, b):
        return a * b % p

    def power(a, n):
        return pow(a, n % (p - 1), p) if a else _zero_power(n)

    def comb(s, X, a, V):
        return [(s * x - a * y) % p for x, y in zip(X, V)]

    return add, sub, mul, power, partial(_enc_rows, comb, power)


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

    def comb(s, X, a, V):
        aq = a * q
        if s == 1:  # one table read less per entry: mds-scan passes 3% slower without
            return [sub_t[x * q + mul_t[aq + y]] for x, y in zip(X, V)]
        sq = s * q
        return [sub_t[mul_t[sq + x] * q + mul_t[aq + y]] for x, y in zip(X, V)]

    return add, sub, mul, power, partial(_enc_rows, comb, power)


def _power(mul, inv, q1: int):
    """pow on one representation's mul: a^n by left-to-right square-and-multiply
    from a (n reduced mod q1 = q - 1), and a^-n as inv(a)^n, or for inv None
    by Fermat, as a^(n mod q1)."""
    def power(a, n):
        if not a:
            return _zero_power(n)
        if n < 0 and inv:
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

    def comb(s, X, a, V):
        return [mul(s, x) ^ mul(a, y) for x, y in zip(X, V)]

    power = _power(mul, inv, top - 1)
    return xor, xor, mul, power, partial(_enc_rows, comb, power)


def _poly_ops(p: int, e: int, tail: Sequence[int], inv=None):
    """Z_p[x]/(f), f = x^e + tail, for odd p (and right for any p and e):
    add and sub digit by digit on the enc (digit i of a is a // p^i mod p),
    mul one integer product of two entries of _kronecker reduced by
    _barrett, and negative powers by inv (for FieldSpec the norm-chain
    inverse) or else by Fermat.  Rows are _packed_rows."""
    pw = [p**i for i in range(e)]
    *_, pack, unpack = _kronecker(p, e)
    reduce = _barrett(p, e, tail)

    def add(a, b):
        r = 0
        for m in pw:
            r += (a // m + b // m) % p * m
        return r

    def sub(a, b):
        r = 0
        for m in pw:
            r += (a // m - b // m) % p * m
        return r

    def mul(a, b):
        return unpack(reduce(pack(a) * pack(b)))

    power = _power(mul, inv, p**e - 1)
    return add, sub, mul, power, partial(_packed_rows, p, e, tail, power, reduce)


@cache
def _kronecker(p: int, e: int):
    """The slot layout of every product in Z_p[x]/(f), one per (p, e) as it
    does not depend on f: (b, c, t, k, m, w, pack, unpack).

    An entry holds the digits c_0 .. c_{e-1} of an enc in the low e of
    2e - 1 slots of w bits.  A product s X + (P - a) V of entries with digits
    below p, P - a having digits in [1, p], fills each slot with at most
    b = e (p-1) (2p-1).  _barrett adds c p to every slot so that none goes
    negative, and keeps every slot that it reduces mod p at most t.  Its
    Barrett step v - p ((v m >> k) & mask) reduces all slots at once:
    m = floor(2^k / p) + 1 with 2^k > t p gives v m >> k = v // p for every
    v <= t, and t m < 2^w, so no slot's product reaches the next slot.

    pack puts the digits of an enc into the slots h digits at a time through
    tab, which maps v < p^h to its digits in h slots; h is the largest in
    1..e with p^h <= _NP_TABLE_MAX, or 1.  unpack reads e slots back mod p
    as an enc."""
    b = e * (p - 1) * (2 * p - 1)
    c = -(-(e - 1) * (p - 1) ** 2 // p)  # Q tail mod x^e < c p once Q is mod p
    t = max((e - 1) * (p - 1) * b, b + c * p)  # bounds the slots of hi mu and of T mod f
    k = (t * p).bit_length()
    m = (1 << k) // p + 1
    w = (t * m).bit_length()
    # h digits per lookup: one digit per lookup made large-field passes 12% slower
    h = next(h for h in range(e, 0, -1) if h == 1 or p**h <= _NP_TABLE_MAX)
    tab = range(p)
    for _ in range(h - 1):  # tab[u p + d]: tab[u] one slot up, d in the lowest slot
        tab = [x << w | d for x in tab for d in range(p)]
    base, step, slot, pw = p**h, w * h, (1 << w) - 1, [p**i for i in range(e)]

    def pack(a):
        r, i = 0, 0
        while a:
            a, d = divmod(a, base)
            r |= tab[d] << i
            i += step
        return r

    def unpack(r):
        out = 0
        for mp in pw:
            out += (r & slot) % p * mp
            r >>= w
        return out

    return b, c, t, k, m, w, pack, unpack


def _barrett(p: int, e: int, tail: Sequence[int], rep: int = 1):
    """T -> T mod f, f = x^e + tail, on every entry of T at once: entry j at
    bit E j, E = (2e - 1) w, in the slots of _kronecker, each at most b.
    rep has a 1 at bit E j for every entry j, and repeats one entry's masks.

    Polynomial Barrett, exact for monic f: with hi = T div x^e and
    mu = x^(2e-2) div f mod p, Q = hi mu div x^(e-2) is T div f, so
    T mod f = (T mod x^e) + C - (Q tail mod x^e), C holding c p in every
    digit slot.  Q and then the result are reduced mod p by the Barrett
    step of _kronecker, which leaves every digit below p."""
    _, c, _, k, m, w, _, _ = _kronecker(p, e)
    f = [*tail, 1]
    mu, rem = [0] * (e - 1), [0] * (2 * e - 2) + [1]  # x^(2e-2), long-divided by f
    for d in reversed(range(e - 1)):
        mu[d] = rem[d + e] % p
        rem[d:d + e + 1] = [x - mu[d] * y for x, y in zip(rem[d:d + e + 1], f)]
    mu, tail = (sum(x << w * i for i, x in enumerate(v)) for v in (mu, tail))
    # masks: the digit slots, slots 0..e-2, the quotient bits of each slot, C
    low, his, quot, offset = (rep * x for x in (
        (1 << w * e) - 1, (1 << w * (e - 1)) - 1,
        sum(((1 << w - k) - 1) << w * i for i in range(e)),
        sum(c * p << w * i for i in range(e))))
    ew, sh = e * w, max(e - 2, 0) * w

    def reduce(T):
        Q = (T >> ew & his) * mu >> sh & his
        Q -= p * (Q * m >> k & quot)
        R = (T & low) + offset - (Q * tail & low)
        return R - p * (R * m >> k & quot)

    return reduce


def _linear_map(p: int, e: int, mul, xs: int):
    """The GF(p)-linear map of Z_p[x]/(f) sending x to xs (and 1 to 1), so
    sum a_i x^i to sum a_i xs^i: the images xs^i, i < e, come from mul."""
    images = [1, xs]
    while len(images) < e:
        images.append(mul(images[-1], xs))

    if p == 2:  # bit vectors: large-field passes 15.4-15.7 ms, 16.1-17.2 on Kronecker slots
        def frob(a):  # xor the images over the set bits of a
            r = 0
            for b in images:
                if a & 1:
                    r ^= b
                a >>= 1
            return r
        return frob

    *_, pack, unpack = _kronecker(p, e)
    rows = [pack(b) for b in images]

    def frob(a):  # digit times image in the slots of _kronecker (below e(p-1)^2)
        r = 0
        for row in rows:
            a, c = divmod(a, p)
            r += c * row
        return unpack(r)
    return frob


class RowOps(NamedTuple):
    """The row operations of one field's elimination layout (FieldSpec.row_ops).

    A row holds a sequence of encs and an entry one enc, each in the layout's
    own form: an entry is truthy iff its enc is nonzero and equals 1 iff its
    enc is 1.  comb(s, X, a, V) is s X - a V for an entry s != 0.
    """
    pack: Callable      # encs -> row
    unpack: Callable    # (row, n) -> its n encs, a list
    get: Callable       # (row, j) -> entry j
    drop: Callable      # (row, j) -> the row without entry j
    lead: Callable      # row -> index of its first nonzero entry, None for 0
    comb: Callable      # (s, X, a, V) -> s X - a V
    inv: Callable       # entry -> its inverse


def _enc_rows(comb, power) -> RowOps:
    """Rows as lists of encs, combined by one representation's comb and
    inverted by its power."""
    def unpack(X, n):
        return X

    def drop(X, j):
        return X[:j] + X[j + 1:]

    def lead(X):
        x = next(filter(None, X), 0)
        return X.index(x) if x else None

    def inv(a):
        return power(a, -1)

    return RowOps(list, unpack, getitem, drop, lead, comb, inv)


def _packed_rows(p: int, e: int, tail: Sequence[int], power, reduce) -> RowOps:
    """Rows of Z_p[x]/(f), f = x^e + tail, as one integer each (Kronecker
    substitution on whole rows): entry j is the entry of _kronecker at bit
    E j, E = (2e - 1) w, so an entry is the same integer for one element,
    which _kronecker's unpack reads, and 1 is 1.  An entry inverts by
    power(a, -1) on its enc.

    comb takes T = s X + (P - a) V in two integer products for any s and a:
    P holds p in each digit slot, so P - a has digits in [1, p] (all p for
    a = 0) and adds P V, a multiple of p, instead of a negative.  Each
    entry's product stays in its own 2e - 1 slots, and _barrett reduces
    every entry at once, with masks for the entries that T holds: the
    reducer for i + 1 entries, i = T.bit_length() // E, built on first use
    (reduce, the scalar one, is the reducer for one entry).  Every entry of
    T past them is zero, and so is its reduction, so a column of the subset
    scan, which holds at most w entries and loses one per depth, is reduced
    on no more entries than it holds, not on the longest row the field
    ever packed."""
    *_, w, pk, upk = _kronecker(p, e)
    E = (2 * e - 1) * w
    P, entry, lows = sum(p << w * i for i in range(e)), (1 << w * e) - 1, (1 << E) - 1
    reducers = {0: reduce}  # i -> the reducer for i + 1 entries

    def reducer(i):
        reducers[i] = _barrett(p, e, tail, ((1 << E * (i + 1)) - 1) // lows)
        return reducers[i]

    def pack(row):
        X = 0
        for j, a in enumerate(row):
            if a:  # tables passes 2-3% slower without
                X |= pk(a) << E * j
        return X

    def unpack(X, n):
        return [upk(get(X, j)) for j in range(n)]

    def get(X, j):
        return X >> E * j & entry

    def drop(X, j):
        cut = E * j
        return (X & (1 << cut) - 1) | (X >> cut + E) << cut

    def lead(X):
        return ((X & -X).bit_length() - 1) // E if X else None

    def comb(s, X, a, V):
        T = s * X + (P - a) * V
        i = T.bit_length() // E
        return (reducers.get(i) or reducer(i))(T)

    def inv(a):
        return pk(power(upk(a), -1))

    return RowOps(pack, unpack, get, drop, lead, comb, inv)


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

    def _binary(op, reflected=False):  # enc op(field, self, other), swapped if reflected
        def method(self, other):
            o = self._coerce(other)
            if o is NotImplemented:
                return o
            x, y = (o, self) if reflected else (self, o)
            return self.field.element(op(self.field, x.enc, y.enc))
        return method

    def _sub(f, x, y):
        return f.sub(x, y)

    def _div(f, x, y):  # DivisionByZero for y = 0
        return f.mul(x, f.inv(y))

    __add__ = __radd__ = _binary(lambda f, x, y: f.add(x, y))
    __sub__, __rsub__ = _binary(_sub), _binary(_sub, reflected=True)
    __mul__ = __rmul__ = _binary(lambda f, x, y: f.mul(x, y))
    __truediv__, __rtruediv__ = _binary(_div), _binary(_div, reflected=True)
    del _binary, _sub, _div

    def __neg__(self):
        return self.field.element(self.field.neg(self.enc))

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
