"""Exact arithmetic in small finite fields F_{p^k}, plus monic polynomial factorization.

A field is fixed by (p, k) and a monic degree-k defining polynomial over F_p.
``make_field`` picks the modulus deterministically: the monic irreducible whose
coefficient tuple (c0, ..., c_{k-1}), read as a base-p integer with c0 least
significant, is smallest.  For k = 1 that rule yields the polynomial x, so
prime fields are plain residues.  Elements are residue polynomials of degree
below k, stored as int coefficient tuples and interned per field, so equality
and hashing are cheap and arithmetic never mixes fields silently.

Each element's ``code`` is that base-p integer, and ``FieldSpec.add``,
``sub``, ``neg``, ``mul`` and ``inv`` compute on codes directly.  Prime fields
use plain ``% p`` and ``pow(a, p - 2, p)``.  A field with k > 1 builds, on
first use, three code tables of O(q) entries: exp and log to the first
primitive element in counting order, and the Zech (add-one) logarithm
Z(n) = log(1 + g^n), so that g^i + g^j = g^(i + Z(j - i)) (Lidl &
Niederreiter, Finite Fields).  Its sums, products and inverses read these
tables, with no extended Euclidean inverse; multiplicative orders read the
log table in every field, so a prime field builds the tables only when asked
for an order.  No field builds a q x q table.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd

SIZE_LIMIT = 1024


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def prime_power_split(q: int) -> tuple[int, int] | None:
    """Return (p, k) with p prime and p**k == q, or None."""
    if q < 2:
        return None
    ps = prime_factors(q)
    if len(ps) != 1:
        return None
    p = ps[0]
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


# ---------------------------------------------------------------------------
# Raw polynomials over F_p: int coefficient tuples, index = degree, no
# trailing zeros, () is the zero polynomial.  Used for moduli and to build
# the code tables.

def _rstrip(c: tuple[int, ...]) -> tuple[int, ...]:
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _rmul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _rstrip(tuple(out))


def _rdivmod(a: tuple[int, ...], b: tuple[int, ...], p: int):
    """Divide with remainder; b must have an invertible leading coefficient."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lead_inv = pow(b[-1], p - 2, p)
    rem = list(a)
    db = len(b) - 1
    if len(a) - 1 < db:
        return (), _rstrip(a)
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i] % p
        if c == 0:
            continue
        f = (c * lead_inv) % p
        quo[i - db] = f
        for j in range(db + 1):
            rem[i - db + j] = (rem[i - db + j] - f * b[j]) % p
    return _rstrip(tuple(quo)), _rstrip(tuple(rem))


@lru_cache(maxsize=None)
def _raw_monic_irreducibles(p: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Monic irreducibles of degree d over F_p as raw tuples, counting order."""
    found = []
    lower = [g for dd in range(1, d // 2 + 1) for g in _raw_monic_irreducibles(p, dd)]
    for code in range(p ** d):
        c, n = [], code
        for _ in range(d):
            c.append(n % p)
            n //= p
        cand = tuple(c) + (1,)
        if d > 1 and all(_rdivmod(cand, g, p)[1] for g in lower):
            found.append(cand)
        elif d == 1:
            found.append(cand)
    return tuple(found)


def _raw_is_irreducible(c: tuple[int, ...], p: int) -> bool:
    d = len(c) - 1
    if d < 1:
        return False
    for dd in range(1, d // 2 + 1):
        for g in _raw_monic_irreducibles(p, dd):
            if not _rdivmod(c, g, p)[1]:
                return False
    return True


# ---------------------------------------------------------------------------


class FieldSpec:
    """The finite field F_{p^k} presented as F_p[t] / (modulus)."""

    __slots__ = ("p", "k", "q", "modulus", "_els", "_zero", "_one", "_tabs")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if k < 1:
            raise ValueError(f"extension degree must be positive, got {k}")
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != k + 1 or modulus[k] != 1:
            raise ValueError("modulus must be monic of degree k")
        if k == 1:
            if modulus != (0, 1):
                raise ValueError("degree-1 modulus is normalized to x")
        elif not _raw_is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = modulus
        self._tabs = None
        els = []
        for code in range(self.q):
            c, n = [], code
            for _ in range(k):
                c.append(n % p)
                n //= p
            els.append(FieldElement(self, tuple(c), code))
        self._els = tuple(els)
        self._zero = els[0]
        self._one = els[1]

    # -- basics

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus))

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"FieldSpec(F{self.q})"

    def label(self) -> str:
        return f"F{self.q}"

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def elements(self) -> tuple["FieldElement", ...]:
        """All q elements in base-p counting order of the coefficient tuple."""
        return self._els

    def element(self, code: int) -> "FieldElement":
        return self._els[code]

    def from_coeffs(self, coeffs) -> "FieldElement":
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.k:
            raise ValueError(f"need {self.k} coefficients, got {len(coeffs)}")
        return self._els[self._code_of(coeffs)]

    def from_int(self, n: int) -> "FieldElement":
        """The image of the integer n under Z -> F_p -> F_{p^k}."""
        return self._els[n % self.p]

    def _code_of(self, coeffs: tuple[int, ...]) -> int:
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + c
        return code

    def _check(self, other: "FieldElement"):
        if other.spec is not self and other.spec != self:
            raise ValueError(f"mixed-field arithmetic: {self.label()} vs {other.spec.label()}")

    # -- arithmetic on codes

    def _tables(self):
        """(exp, log, zech) code tables, built on first use.

        exp[t] = g^t for the first primitive g in counting order, stored
        twice over (2(q - 1) entries) so a sum of two logs needs no
        reduction; log[0] and a Zech entry for 1 + g^n = 0 are None.
        """
        if self._tabs is None:
            n = self.q - 1
            for g in range(1, self.q):
                powers = [1]
                cur = g
                while cur != 1:
                    powers.append(cur)
                    cur = self._poly_mul(cur, g)
                if len(powers) == n:
                    break
            else:
                raise RuntimeError("no primitive element found")  # unreachable
            log: list = [None] * self.q
            for t, c in enumerate(powers):
                log[c] = t
            p = self.p
            # adding 1 raises the constant digit of the code
            zech = [log[c + 1 if c % p != p - 1 else c + 1 - p] for c in powers]
            self._tabs = (powers + powers, log, zech)
        return self._tabs

    def _poly_mul(self, a: int, b: int) -> int:
        """Product of two codes by polynomial multiplication mod the modulus."""
        prod = _rmul(_rstrip(self._els[a].coeffs), _rstrip(self._els[b].coeffs), self.p)
        rem = _rdivmod(prod, self.modulus, self.p)[1]
        return self._code_of(rem + (0,) * (self.k - len(rem)))

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if not a:
            return b
        if not b:
            return a
        exp, log, zech = self._tables()
        i = log[a]
        z = zech[(log[b] - i) % (self.q - 1)]
        return 0 if z is None else exp[i + z]

    def neg(self, a: int) -> int:
        if self.k == 1:
            return -a % self.p
        if not a or self.p == 2:
            return a
        exp, log, _ = self._tables()
        return exp[log[a] + (self.q - 1) // 2]  # -1 = g^((q-1)/2)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        if not a or not b:
            return 0
        exp, log, _ = self._tables()
        return exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError(f"zero of {self.label()} has no inverse")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        exp, log, _ = self._tables()
        return exp[self.q - 1 - log[a]]


class FieldElement:
    """An element of a FieldSpec; immutable, interned by the owning field."""

    __slots__ = ("spec", "coeffs", "code")

    def __init__(self, spec: FieldSpec, coeffs: tuple[int, ...], code: int):
        self.spec = spec
        self.coeffs = coeffs
        self.code = code

    def __bool__(self):
        return self.code != 0

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.code == other.code and self.spec == other.spec

    def __hash__(self):
        return hash((self.spec.p, self.spec.k, self.spec.modulus, self.code))

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        s = self.spec
        s._check(other)
        if s.k == 1:
            return s._els[(self.code + other.code) % s.p]
        return s._els[s.add(self.code, other.code)]

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        s = self.spec
        s._check(other)
        if s.k == 1:
            return s._els[(self.code - other.code) % s.p]
        return s._els[s.sub(self.code, other.code)]

    def __neg__(self):
        s = self.spec
        return s._els[s.neg(self.code)]

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        s = self.spec
        s._check(other)
        if s.k == 1:
            return s._els[(self.code * other.code) % s.p]
        return s._els[s.mul(self.code, other.code)]

    def __truediv__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        s = self.spec
        if n < 0:
            return self.inverse() ** (-n)
        if s.k == 1:
            return s._els[pow(self.code, n, s.p)]
        acc = s._one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; ZeroDivisionError for zero."""
        return self.spec._els[self.spec.inv(self.code)]

    def mult_order(self) -> int:
        """Least n >= 1 with self**n == 1; divides q - 1."""
        if self.code == 0:
            raise ZeroDivisionError("zero has no multiplicative order")
        n = self.spec.q - 1
        return n // gcd(n, self.spec._tables()[1][self.code])

    def __str__(self):
        s = self.spec
        if s.k == 1:
            return str(self.code)
        terms = []
        for i in range(s.k - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "t" if i == 1 else f"t^{i}"
                terms.append(var if c == 1 else f"{c}*{var}")
        return "+".join(terms) if terms else "0"

    def __repr__(self):
        return f"{self.spec.label()}({self})"


@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> FieldSpec:
    """F_{p^k} with the canonical minimal modulus.  Requires p**k < 1024."""
    if not is_prime(p):
        raise ValueError(f"characteristic must be prime, got {p}")
    if k < 1:
        raise ValueError(f"extension degree must be positive, got {k}")
    if p ** k >= SIZE_LIMIT:
        raise ValueError(f"field size {p ** k} out of supported range (< {SIZE_LIMIT})")
    if k == 1:
        return FieldSpec(p, 1, (0, 1))
    for code in range(p ** k):
        c, n = [], code
        for _ in range(k):
            c.append(n % p)
            n //= p
        cand = tuple(c) + (1,)
        if _raw_is_irreducible(cand, p):
            return FieldSpec(p, k, cand)
    raise RuntimeError("no irreducible modulus found")  # unreachable


# ---------------------------------------------------------------------------
# Polynomials with FieldElement coefficients.  Tuples, index = degree, no
# trailing zeros, () = 0.  These carry the factorization work and the CRT
# idempotent construction for cyclic group algebras.

def poly_strip(c):
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def poly_add(a, b):
    if not a:
        return poly_strip(b)
    if not b:
        return poly_strip(a)
    zero = a[0].spec.zero()
    out = itertools.zip_longest(a, b, fillvalue=zero)
    return poly_strip(tuple(x + y for x, y in out))


def poly_sub(a, b):
    if not b:
        return poly_strip(a)
    if not a:
        return poly_strip(tuple(-y for y in b))
    zero = a[0].spec.zero()
    out = itertools.zip_longest(a, b, fillvalue=zero)
    return poly_strip(tuple(x - y for x, y in out))


def poly_mul(a, b):
    if not a or not b:
        return ()
    zero = a[0].spec.zero()
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return poly_strip(tuple(out))


def poly_divmod(a, b):
    """(quotient, remainder); the divisor's leading coefficient must be a unit."""
    b = poly_strip(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    spec = b[-1].spec
    lead_inv = b[-1].inverse()
    rem = list(a)
    db = len(b) - 1
    if len(a) - 1 < db:
        return (), poly_strip(a)
    quo = [spec.zero()] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        f = c * lead_inv
        quo[i - db] = f
        for j in range(db + 1):
            rem[i - db + j] = rem[i - db + j] - f * b[j]
    return poly_strip(tuple(quo)), poly_strip(tuple(rem))


def poly_mod(a, b):
    return poly_divmod(a, b)[1]


def poly_ext_gcd(a, b):
    """(g, u, v) with u*a + v*b = g and g monic (or zero)."""
    spec = (a[0] if a else b[0]).spec
    one = spec.one()
    r0, s0, t0 = poly_strip(a), (one,), ()
    r1, s1, t1 = poly_strip(b), (), (one,)
    while r1:
        quo, rem = poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, poly_sub(s0, poly_mul(quo, s1))
        t0, t1 = t1, poly_sub(t0, poly_mul(quo, t1))
    if r0:
        lead_inv = r0[-1].inverse()
        scale = (lead_inv,)
        r0, s0, t0 = poly_mul(r0, scale), poly_mul(s0, scale), poly_mul(t0, scale)
    return r0, s0, t0


class MonicPoly:
    """A monic polynomial over a FieldSpec, coefficients ascending by degree."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs or coeffs[-1] != spec.one():
            raise ValueError("polynomial must be monic and nonzero")
        for c in coeffs:
            spec._check(c)
        self.spec = spec
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return (isinstance(other, MonicPoly)
                and self.spec == other.spec and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def __mul__(self, other: "MonicPoly") -> "MonicPoly":
        return MonicPoly(self.spec, poly_mul(self.coeffs, other.coeffs))

    def key(self) -> tuple[int, int]:
        """(degree, base-q counting integer of the non-leading coefficients)."""
        code = 0
        for c in reversed(self.coeffs[:-1]):
            code = code * self.spec.q + c.code
        return (self.degree, code)

    def __str__(self):
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            cs = str(c)
            if "+" in cs:
                cs = f"({cs})"
            if i == 0:
                terms.append(cs)
            else:
                var = "x" if i == 1 else f"x^{i}"
                terms.append(var if cs == "1" else f"{cs}*{var}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"MonicPoly({self.spec.label()}, {self})"


def x_power_minus_one(spec: FieldSpec, n: int) -> MonicPoly:
    if n < 1:
        raise ValueError("exponent must be positive")
    coeffs = [-spec.one()] + [spec.zero()] * (n - 1) + [spec.one()]
    return MonicPoly(spec, coeffs)


@lru_cache(maxsize=None)
def monic_irreducibles(spec: FieldSpec, d: int) -> tuple[MonicPoly, ...]:
    """All monic irreducibles of degree d over spec, in counting order."""
    if d < 1:
        raise ValueError("degree must be positive")
    lower = [g for dd in range(1, d // 2 + 1) for g in monic_irreducibles(spec, dd)]
    out = []
    one = spec.one()
    for tail in itertools.product(spec.elements(), repeat=d):
        # product varies the last slot fastest; counting order wants c0 fastest
        cand = MonicPoly(spec, tail[::-1] + (one,))
        if d == 1 or all(poly_divmod(cand.coeffs, g.coeffs)[1] for g in lower):
            out.append(cand)
    return tuple(out)


def factor_monic(f: MonicPoly) -> list[tuple[MonicPoly, int]]:
    """Irreducible factorization by trial division; factors sorted, with multiplicity."""
    if f.degree < 1:
        raise ValueError("cannot factor a constant")
    spec = f.spec
    work = f.coeffs
    found: dict[MonicPoly, int] = {}

    def deg(c):
        return len(c) - 1

    d = 1
    while 2 * d <= deg(work):
        for g in monic_irreducibles(spec, d):
            while True:
                quo, rem = poly_divmod(work, g.coeffs)
                if rem:
                    break
                work = quo
                found[g] = found.get(g, 0) + 1
            if 2 * d > deg(work):
                break
        d += 1
    if deg(work) >= 1:
        last = MonicPoly(spec, work)
        found[last] = found.get(last, 0) + 1
    out = sorted(found.items(), key=lambda kv: kv[0].key())
    # recombination guard: the product of the factors must be f
    acc = MonicPoly(spec, (spec.one(),))
    for g, m in out:
        for _ in range(m):
            acc = acc * g
    if acc != f:
        raise RuntimeError("factorization failed to recombine")  # unreachable
    return out
