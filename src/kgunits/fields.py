"""Exact arithmetic in small finite fields F_{p^k}, on int codes, plus monic
polynomial factorization.

A field is fixed by (p, k) and a monic degree-k defining polynomial over F_p.
``FieldSpec(p, k)`` picks the modulus deterministically: the monic irreducible
whose coefficient tuple (c0, ..., c_{k-1}), read as a base-p integer with c0
least significant, is smallest.  For k = 1 that rule yields the polynomial x,
so prime fields are plain residues.  ``make_field`` caches one per (p, k).

Every computation runs on that base-p integer, the element's code:
``FieldSpec.add``, ``sub``, ``neg``, ``mul`` and ``inv`` take and return codes.
Prime fields use plain ``% p`` and ``pow(a, p - 2, p)``.  A field with k > 1
builds, on first use, three code tables of O(q) entries: exp and log to the
first primitive element g in counting order, and the Zech (add-one)
logarithm Z(n) = log(1 + g^n), so that g^i + g^j = g^(i + Z(j - i)) (Lidl &
Niederreiter, Finite Fields).  Its sums, products and inverses read these
tables, with no extended Euclidean inverse.  Each code c in counting order
is walked through its powers, as the F_p-linear map "times c" on digit
vectors, until they come back to 1; the first walk that meets all q - 1
units is g's, and is exp.  ``FieldSpec.primitive_powers`` hands that walk
to the census of K[C1]; a prime field finds g there by the test
g^((p-1)/r) != 1 mod p for every prime r | p - 1 and walks it on ints,
with no table.  The one q x q table, ``_square_tables`` (sums and
products), is for the product of a group algebra K[G] with |G| >= 2 and
k > 1, which has at least q^2 elements itself (q <= 31 below the published
bound 1024); no other field builds one.  ``FieldSpec.code_text`` prints a
code.  ``FieldElement`` wraps one code in operators that call the code
operations; no command builds one, and it stays for bench/tracing.py's
counters.

Polynomials are tuples of codes over a given FieldSpec, index = degree.  The
one polynomial layer (``poly_*``, ``monic_irreducibles``) serves the prime
field's search for moduli.  ``factor_monic``, trial division over any
FieldSpec, stays public; no command calls it.

Every rule of the catalog bound |K[G]| < 1024 (``SIZE_LIMIT``) is here: the
``check_*`` refusals, the shapes (q, p, k, |G|) below a bound
(``algebra_shapes``), ``parse_field_label``, which inverts ``label``, and
``read_int``, the one reader of a number the user types.
"""

from __future__ import annotations

import itertools
import operator
import sys
from functools import cached_property, lru_cache

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


def read_int(text: str, what: str) -> int:
    """text read as -?[0-9]+ of at most 4,300 digits (CPython's default limit)
    or the interpreter's lower int limit, else ValueError naming what; the
    length is checked before int() is, so int() and str() take the result."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid {what}: {text!r}")
    # a limit of 0 is none; CPython before 3.10.7 has no limit to read
    limit = min(4300, getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300)
    if len(digits) > limit:
        raise ValueError(f"{what} {text[:6]}... has {len(digits)} digits, "
                         f"more than {limit}")
    return int(text)


def parse_field_label(text: str) -> tuple[int, int]:
    """(p, k) from a label as FieldSpec.label writes it: F, then an ASCII
    number without a leading zero.  A size of 1024 or more is refused
    before it is factored."""
    digits = text[1:]
    if not (text.startswith("F") and digits.isascii() and digits.isdigit()
            and digits[0] != "0"):
        raise ValueError(f"field label must look like F9, got {text!r}")
    split = prime_power_split(check_field_size(read_int(digits, "field size")))
    if split is None:
        raise ValueError(f"{digits} is not a prime power")
    return split


class FieldSpec:
    """The finite field F_{p^k} presented as F_p[t] / (modulus), modulus the
    first monic irreducible of degree k in counting order.  The size is
    checked before p is factored."""

    def __init__(self, p: int, k: int):
        check_field_size(p ** k)
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if k < 1:
            raise ValueError(f"extension degree must be positive, got {k}")
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = (0, 1) if k == 1 else next(
            f for f in _monics(p, k) if is_irreducible(make_field(p, 1), f))

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

    def code_text(self, code: int) -> str:
        """A code as text: its polynomial in t, highest power first, as
        2*t^2+t+1, so the integer itself in a prime field, and 0 for zero."""
        terms = []
        for i, c in reversed(tuple(enumerate(self._digits(code)))):
            if c:
                var = "t" if i == 1 else f"t^{i}"
                terms.append(str(c) if i == 0 else var if c == 1 else f"{c}*{var}")
        return "+".join(terms) or "0"

    # -- arithmetic on codes

    @cached_property
    def _tables(self):
        """(exp, log, zech) code tables of a field with k > 1, from one walk.

        Each code c from p on, in counting order, is walked, multiplying by
        c as a k x k matrix over F_p, until its powers come back to 1; the
        first c whose walk meets all q - 1 units is the first primitive
        element g, and its walk is exp.  A code below p lies in F_p, with an
        order dividing p - 1, and a code met on an earlier walk has an order
        dividing that walk's length, so neither is walked.  exp[t] = g^t is
        stored twice over (2(q - 1) entries) so a sum of two logs needs no
        reduction; log[0] and a Zech entry for 1 + g^n = 0 are None.
        """
        p, q, k = self.p, self.q, self.k
        place, dot = tuple(p ** i for i in range(k)), operator.mul
        one = [1] + [0] * (k - 1)
        met = set()
        for c in range(p, q):
            if c in met:
                continue
            # times c is F_p-linear on digit vectors, with column j the
            # digits of c t^j: t times column j - 1, t^k reduced by the modulus
            cols = [self._digits(c)]
            while len(cols) < k:
                *low, top = cols[-1]
                cols.append(tuple((x - top * m) % p
                                  for x, m in zip((0, *low), self.modulus)))
            rows = tuple(zip(*cols))
            powers, cur = [1], list(cols[0])
            while cur != one and len(powers) < q:  # a unit returns in q - 1 steps
                powers.append(sum(map(dot, cur, place)))
                cur = [sum(map(dot, cur, row)) % p for row in rows]
            if len(powers) == q - 1:
                break
            met.update(powers)
        log: list = [None] * q
        for t, c in enumerate(powers):
            log[c] = t
        # adding 1 raises the constant digit of the code
        zech = [log[c + 1 if c % p != p - 1 else c + 1 - p] for c in powers]
        return powers + powers, log, zech

    def primitive_powers(self) -> list[int]:
        """[g^0, ..., g^(q-2)] as codes, g the first primitive element in
        counting order: exp of the code tables when k > 1, and for a prime
        field the walk of the first g with g^((p-1)/r) != 1 mod p for every
        prime r | p - 1 (g = 1 for F_2, where p - 1 has no prime factor)."""
        if self.k > 1:
            return self._tables[0][:self.q - 1]
        p, n = self.p, self.p - 1
        g = next(g for g in range(1, p)
                 if all(pow(g, n // r, p) != 1 for r in prime_factors(n)))
        powers = [1]
        for _ in range(n - 1):
            powers.append(powers[-1] * g % p)
        return powers

    @cached_property
    def _square_tables(self):
        """(add, mul) as q x q tuples of code tuples, built on first use for
        the product of a group algebra with |G| >= 2, whose q^|G| elements
        are at least the q^2 entries of each table."""
        codes = range(self.q)
        return tuple(tuple(tuple(op(a, b) for b in codes) for a in codes)
                     for op in (self.add, self.mul))

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if not a:
            return b
        if not b:
            return a
        exp, log, zech = self._tables
        i = log[a]
        z = zech[(log[b] - i) % (self.q - 1)]
        return 0 if z is None else exp[i + z]

    def neg(self, a: int) -> int:
        return self.mul(self.p - 1, a)  # the code p - 1 is the constant -1

    def sub(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        if not a or not b:
            return 0
        exp, log, _ = self._tables
        return exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError(f"zero of {self.label()} has no inverse")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        exp, log, _ = self._tables
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
        return self.spec.code_text(self.code)

    def __repr__(self):
        return f"{self.spec.label()}({self})"


@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> FieldSpec:
    """F_{p^k} with the canonical modulus, one FieldSpec per (p, k)."""
    return FieldSpec(p, k)


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
