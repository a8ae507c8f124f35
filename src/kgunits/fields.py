"""Exact arithmetic in small finite fields F_{p^k}, on int codes, plus monic
polynomial factorization.

A field is fixed by (p, k) and a monic degree-k defining polynomial over F_p.
``make_field`` picks the modulus deterministically: the monic irreducible whose
coefficient tuple (c0, ..., c_{k-1}), read as a base-p integer with c0 least
significant, is smallest.  For k = 1 that rule yields the polynomial x, so
prime fields are plain residues.

Every computation runs on that base-p integer, the element's code:
``FieldSpec.add``, ``sub``, ``neg``, ``mul`` and ``inv`` take and return codes.
Prime fields use plain ``% p`` and ``pow(a, p - 2, p)``.  A field with k > 1
builds, on first use, three code tables of O(q) entries: exp and log to the
first primitive element g in counting order, and the Zech (add-one)
logarithm Z(n) = log(1 + g^n), so that g^i + g^j = g^(i + Z(j - i)) (Lidl &
Niederreiter, Finite Fields).  Its sums, products and inverses read these
tables, with no extended Euclidean inverse.  g is found by the test
g^((q-1)/r) != 1 for every prime r | q - 1 on powers taken with
``poly_mul`` and ``poly_divmod`` over the prime field, and walked once as
the F_p-linear map "times g" on digit vectors.  ``FieldSpec.primitive``
hands g to the census of K[C1]; a prime field runs the same test on ints
there, with no table.  The one q x q table, ``_square_tables`` (sums and
products), is for the product of a group algebra K[G] with |G| >= 2 and
k > 1, which has at least q^2 elements itself (q <= 31 below the published
bound 1024); no other field builds one.  ``FieldElement`` wraps one code
for display: its text, and operators that call the ``FieldSpec`` code
operations.

Polynomials are tuples of codes over a given FieldSpec, index = degree.  The
one polynomial layer (``poly_*``, ``monic_irreducibles``, ``factor_monic``)
serves both the prime field, for moduli and code tables, and F_q, for the
factors of x^n - 1 that split an abelian group algebra into field blocks.

Every rule of the catalog bound |K[G]| < 1024 (``SIZE_LIMIT``) is here: the
``check_*`` refusals, the shapes (q, p, k, |G|) below a bound
(``algebra_shapes``), and ``parse_field_label``, which inverts ``label``.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache

SIZE_LIMIT = 1024


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            n = valuation(n, d)[1]
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def is_prime(n: int) -> bool:
    return prime_factors(n) == (n,)


def _first_primitive(q: int, power) -> int:
    """The first code g in counting order with power(g, (q-1)/r) != 1 for
    every prime r | q - 1, so the first primitive element of F_q, given
    its power map on codes (1 for F_2, where q - 1 has no prime factor)."""
    n = q - 1
    return next(g for g in range(1, q)
                if all(power(g, n // r) != 1 for r in prime_factors(n)))


def valuation(n: int, p: int) -> tuple[int, int]:
    """(e, m) with n == p**e * m and p not dividing m; ValueError for n < 1."""
    if n < 1 or p < 2:
        raise ValueError(f"valuation needs n >= 1 and p >= 2, got n={n}, p={p}")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def prime_power_split(q: int) -> tuple[int, int] | None:
    """Return (p, k) with p prime and p**k == q, or None."""
    ps = prime_factors(q)
    return (ps[0], valuation(q, ps[0])[0]) if len(ps) == 1 else None


def check_field_size(q: int) -> int:
    """q, if a field of that size is within the catalog; else ValueError."""
    if q >= SIZE_LIMIT:
        raise ValueError(f"field size {q} out of supported range (< {SIZE_LIMIT})")
    return q


def check_algebra_size(label: str, size: int) -> None:
    """ValueError if the algebra labelled label is too large for the catalog."""
    if size >= SIZE_LIMIT:
        raise ValueError(f"{label} has size {size}, outside the catalog bound "
                         f"{SIZE_LIMIT}")


def check_bound(bound: int) -> int:
    """bound, if it is a size bound from 2 to 1024; else ValueError.  The
    catalog builds no algebra of size 1024 or more, so a larger bound would
    give an incomplete catalog or scan."""
    if bound < 2:
        raise ValueError(f"must be at least 2, got {bound}")
    if bound > SIZE_LIMIT:
        raise ValueError(f"must be at most {SIZE_LIMIT} (the bound of the "
                         f"published catalog), got {bound}")
    return bound


def algebra_shapes(bound: int):
    """(q, p, k, n) for each prime power q = p^k and group order n with
    q^n < bound; q ascends, and n within a q."""
    for q in range(2, check_bound(bound)):
        split = prime_power_split(q)
        n = 1
        while split and q ** n < bound:
            yield (q, *split, n)
            n += 1


def parse_field_label(text: str) -> tuple[int, int]:
    """(p, k) from a label as FieldSpec.label writes it: F, then an ASCII
    number without a leading zero.  A size of 1024 or more is refused
    before it is factored."""
    digits = text[1:]
    if not (text.startswith("F") and digits.isascii() and digits.isdigit()
            and digits[0] != "0"):
        raise ValueError(f"field label must look like F9, got {text!r}")
    split = prime_power_split(check_field_size(int(digits)))
    if split is None:
        raise ValueError(f"{digits} is not a prime power")
    return split


class FieldSpec:
    """The finite field F_{p^k} presented as F_p[t] / (modulus)."""

    __slots__ = ("p", "k", "q", "modulus", "_tabs", "_sq")

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
        elif not is_irreducible(make_field(p, 1), modulus):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = modulus
        self._tabs = None
        self._sq = None

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

    def _digits(self, code: int) -> tuple[int, ...]:
        """The base-p digits of a code, c0 first: its coefficient tuple."""
        out = []
        for _ in range(self.k):
            code, c = divmod(code, self.p)
            out.append(c)
        return tuple(out)

    def _code_of(self, coeffs: tuple[int, ...]) -> int:
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + c
        return code

    # -- arithmetic on codes

    def _tables(self):
        """(exp, log, zech) code tables, built on first use from one walk.

        g is the first primitive element, found by ``_first_primitive`` on
        powers of polynomials over the prime field, and its powers are
        walked once, multiplying by g as a k x k matrix over F_p.  exp[t] =
        g^t is stored twice over (2(q - 1) entries) so a sum of two logs
        needs no reduction; log[0] and a Zech entry for 1 + g^n = 0 are
        None.
        """
        if self._tabs is None:
            p, q, n = self.p, self.q, self.q - 1
            prime = make_field(p, 1)

            def times(a, b):
                return poly_divmod(prime, poly_mul(prime, a, b), self.modulus)[1]

            def power(c, e):
                a, acc = self._digits(c), (1,)
                for bit in bin(e)[2:]:
                    acc = times(acc, acc)
                    if bit == "1":
                        acc = times(acc, a)
                return self._code_of(acc)

            g = self._digits(_first_primitive(q, power))
            # times g is F_p-linear on digit vectors: digit i of g * x is
            # sum_j x_j * (digit i of g * t^j), read off k precomputed columns
            cols = [g]
            while len(cols) < self.k:
                cols.append(times(cols[-1], (0, 1)))
            rows = tuple(zip(*(c + (0,) * (self.k - len(c)) for c in cols)))
            place, dot = tuple(p ** i for i in range(self.k)), operator.mul
            powers, cur = [], (1,) + (0,) * (self.k - 1)
            for _ in range(n):
                powers.append(sum(map(dot, cur, place)))
                cur = [sum(map(dot, cur, row)) % p for row in rows]
            log: list = [None] * q
            for t, c in enumerate(powers):
                log[c] = t
            # adding 1 raises the constant digit of the code
            zech = [log[c + 1 if c % p != p - 1 else c + 1 - p] for c in powers]
            self._tabs = (powers + powers, log, zech)
        return self._tabs

    def primitive(self) -> int:
        """The code of the first primitive element in counting order: exp[1]
        of the code tables when k > 1, and for a prime field the first
        primitive root mod p, found by the same test on ints."""
        if self.k > 1:
            return self._tables()[0][1]
        return _first_primitive(self.q, lambda g, e: pow(g, e, self.p))

    def _square_tables(self):
        """(add, mul) as q x q tuples of code tuples, built on first use for
        the product of a group algebra with |G| >= 2, whose q^|G| elements
        are at least the q^2 entries of each table."""
        if self._sq is None:
            codes = range(self.q)
            self._sq = tuple(tuple(tuple(op(a, b) for b in codes) for a in codes)
                             for op in (self.add, self.mul))
        return self._sq

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
        if self.k == 1:
            return (a - b) % self.p
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
    """An element of a FieldSpec, held as its code; immutable."""

    __slots__ = ("spec", "code")

    def __init__(self, spec: FieldSpec, code: int):
        self.spec = spec
        self.code = code

    def __bool__(self):
        return self.code != 0

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.code == other.code and self.spec == other.spec

    def __hash__(self):
        return hash((self.spec.p, self.spec.k, self.spec.modulus, self.code))

    def _lift(self, op, other):
        """op on the codes of self and other, as an element of the field."""
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.spec is not self.spec and other.spec != self.spec:
            raise ValueError(f"mixed-field arithmetic: {self.spec.label()} "
                             f"vs {other.spec.label()}")
        return FieldElement(self.spec, op(self.code, other.code))

    def __add__(self, other):
        return self._lift(self.spec.add, other)

    def __sub__(self, other):
        return self._lift(self.spec.sub, other)

    def __mul__(self, other):
        return self._lift(self.spec.mul, other)

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; ZeroDivisionError for zero."""
        return FieldElement(self.spec, self.spec.inv(self.code))

    def __str__(self):
        s = self.spec
        if s.k == 1:
            return str(self.code)
        digits = s._digits(self.code)
        terms = []
        for i in range(s.k - 1, -1, -1):
            c = digits[i]
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
    """F_{p^k} with the canonical minimal modulus.  Requires p**k < 1024,
    checked before p is factored."""
    check_field_size(p ** k)
    if k <= 1:  # FieldSpec refuses a p that is not prime, then a k below 1
        return FieldSpec(p, k, (0, 1))
    prime = make_field(p, 1)
    return FieldSpec(p, k, next(f for f in _monics(p, k) if is_irreducible(prime, f)))


# ---------------------------------------------------------------------------
# Polynomials over a FieldSpec: tuples of codes, index = degree, no trailing
# zeros, () = 0.

def poly_strip(c) -> tuple[int, ...]:
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def poly_mul(spec: FieldSpec, a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    add, mul = spec.add, spec.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return poly_strip(out)


def poly_divmod(spec: FieldSpec, a, b):
    """(quotient, remainder) of a by the nonzero b."""
    b = poly_strip(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    if len(a) - 1 < db:
        return (), poly_strip(a)
    sub, mul = spec.sub, spec.mul
    lead_inv = spec.inv(b[-1])
    rem = list(a)
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c:
            f = mul(c, lead_inv)
            quo[i - db] = f
            for j, bj in enumerate(b):
                rem[i - db + j] = sub(rem[i - db + j], mul(f, bj))
    return poly_strip(quo), poly_strip(rem)


def x_power_minus_one(spec: FieldSpec, n: int) -> tuple[int, ...]:
    if n < 1:
        raise ValueError("exponent must be positive")
    return (spec.neg(1),) + (0,) * (n - 1) + (1,)


def _monics(q: int, d: int):
    """Monic degree-d code tuples in counting order, c0 varying fastest."""
    for tail in itertools.product(range(q), repeat=d):
        yield tail[::-1] + (1,)


def is_irreducible(spec: FieldSpec, f) -> bool:
    """Whether the monic f has degree >= 1 and no monic factor of degree <= deg f / 2."""
    d = len(f) - 1
    return d >= 1 and all(poly_divmod(spec, f, g)[1] for e in range(1, d // 2 + 1)
                          for g in monic_irreducibles(spec, e))


@lru_cache(maxsize=None)
def monic_irreducibles(spec: FieldSpec, d: int) -> tuple[tuple[int, ...], ...]:
    """All monic irreducibles of degree d over spec, in counting order."""
    if d < 1:
        raise ValueError("degree must be positive")
    return tuple(f for f in _monics(spec.q, d) if is_irreducible(spec, f))


def factor_monic(spec: FieldSpec, f) -> list[tuple[tuple[int, ...], int]]:
    """Irreducible factorization by trial division, with multiplicities.

    Factors come in counting order: by degree, then by the non-leading
    coefficients read as a base-q integer with c0 least significant.
    """
    f = tuple(f)
    if len(f) < 2 or f[-1] != 1:
        raise ValueError("can only factor a monic polynomial of positive degree")
    work = f
    found: dict[tuple[int, ...], int] = {}
    d = 1
    while 2 * d <= len(work) - 1:
        for g in monic_irreducibles(spec, d):
            quo, rem = poly_divmod(spec, work, g)
            while not rem:
                work = quo
                found[g] = found.get(g, 0) + 1
                quo, rem = poly_divmod(spec, work, g)
            if 2 * d > len(work) - 1:
                break
        d += 1
    if len(work) > 1:
        found[work] = found.get(work, 0) + 1
    out = sorted(found.items(), key=lambda kv: (len(kv[0]), kv[0][::-1]))
    # recombination guard: the product of the factors must be f
    acc: tuple[int, ...] = (1,)
    for g, m in out:
        for _ in range(m):
            acc = poly_mul(spec, acc, g)
    if acc != f:
        raise RuntimeError("factorization failed to recombine")  # unreachable
    return out
