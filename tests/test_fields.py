import operator
import random
import re
from functools import lru_cache
from math import lcm

import pytest

from kgunits.algebra import Algebra
from kgunits.catalog import build_row, catalog_specs
from kgunits.fields import (SIZE_LIMIT, FieldElement, FieldSpec,
                            factor_monic, is_prime,
                            make_field, monic_irreducibles, poly_divmod,
                            poly_mul, prime_factors, prime_power_split,
                            read_int, valuation)
from kgunits.groups import group_by_label
from kgunits.units import UnitGroup
from reference_checks import tower_blocks, x_power_minus_one

FIELD_SIZES = [q for q in range(2, SIZE_LIMIT) if prime_power_split(q)]


def field_for_size(q: int) -> FieldSpec:
    """make_field for a prime-power size q, e.g. 9 -> F_{3^2}."""
    pk = prime_power_split(q)
    if pk is None:
        raise ValueError(f"{q} is not a prime power")
    return make_field(*pk)


def poly_eval(spec, a, x):
    """The polynomial a (codes) at the code x, by Horner's rule."""
    acc = 0
    for c in reversed(a):
        acc = spec.add(spec.mul(acc, x), c)
    return acc


def test_prime_power_split():
    assert prime_power_split(2) == (2, 1)
    assert prime_power_split(8) == (2, 3)
    assert prime_power_split(9) == (3, 2)
    assert prime_power_split(625) == (5, 4)
    assert prime_power_split(6) is None
    assert prime_power_split(12) is None
    assert prime_power_split(1) is None
    assert prime_power_split(0) is None


@pytest.mark.parametrize("n,p,expected", [
    (1, 2, (0, 1)), (8, 2, (3, 1)), (24, 2, (3, 3)), (7, 3, (0, 7)),
    (625, 5, (4, 1)), (3 ** 20 * 10, 3, (20, 10)),
])
def test_valuation(n, p, expected):
    assert valuation(n, p) == expected


@pytest.mark.parametrize("n,p", [(0, 2), (-4, 2), (4, 1), (4, 0)])
def test_valuation_refuses_what_has_none(n, p):
    with pytest.raises(ValueError):
        valuation(n, p)


def test_prime_helpers():
    assert is_prime(2) and is_prime(97) and not is_prime(91) and not is_prime(1)
    assert prime_factors(360) == (2, 3, 5)
    assert prime_factors(1) == ()


def test_minimal_moduli_are_frozen():
    # deterministic modulus choice is part of the output contract
    assert make_field(2, 2).modulus == (1, 1, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(2, 3).modulus == (1, 1, 0, 1)


def test_field_constructor_chooses_its_own_modulus():
    """FieldSpec(p, k) picks the modulus; make_field only caches it."""
    assert len(FIELD_SIZES) == 197
    for q in FIELD_SIZES:
        fresh, cached = make_field.__wrapped__(*prime_power_split(q)), field_for_size(q)
        assert fresh is not cached and fresh == cached
        assert fresh.modulus == cached.modulus
    with pytest.raises(TypeError):
        FieldSpec(2, 2, (1, 1, 1))  # no caller chooses a modulus
    # the size first, before p is factored, then p, then k
    for args, message in (((1025, 1), "field size 1025 out of supported range"),
                          ((2, 10), "field size 1024 out of supported range"),
                          ((6, 1), "characteristic must be prime, got 6"),
                          ((4, 0), "characteristic must be prime, got 4"),
                          ((2, 0), "extension degree must be positive, got 0")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            FieldSpec(*args)


def test_field_size_cap():
    with pytest.raises(ValueError):
        make_field(2, 10)
    with pytest.raises(ValueError):
        make_field(1021, 2)
    # refused by size before the characteristic is factored
    with pytest.raises(ValueError, match=r"^field size 1000000000000000003 out "
                                         r"of supported range \(< 1024\)$"):
        make_field(1000000000000000003, 1)
    with pytest.raises(ValueError, match="field size 1025 out of supported range"):
        make_field(1025, 1)


def test_read_int_checks_the_length_before_int():
    assert read_int("0", "n") == 0 and read_int("-12", "n") == -12
    assert read_int("9" * 4300, "n") == 10 ** 4300 - 1
    assert read_int("-" + "9" * 4300, "n") == 1 - 10 ** 4300
    with pytest.raises(ValueError, match=r"^n 999999\.\.\. has 4301 digits, more than 4300$"):
        read_int("9" * 4301, "n")
    for text in ("", "-", "+9", "1_0", " 12 ", "\u0665", "12a", "--1"):
        with pytest.raises(ValueError, match=r"^invalid n: "):
            read_int(text, "n")


def test_field_labels():
    assert make_field(2, 1).label() == "F2"
    assert make_field(3, 2).label() == "F9"
    assert field_for_size(25).label() == "F25"
    with pytest.raises(ValueError):
        field_for_size(6)


def test_factorization_degree_patterns():
    cases = [
        (2, 1, 5, [1, 4]),
        (2, 1, 7, [1, 3, 3]),
        (2, 1, 9, [1, 2, 6]),
        (3, 1, 4, [1, 1, 2]),
        (5, 1, 4, [1, 1, 1, 1]),
        (2, 2, 3, [1, 1, 1]),
        (3, 1, 5, [1, 4]),
    ]
    for p, k, n, degrees in cases:
        spec = make_field(p, k)
        factors = factor_monic(spec, x_power_minus_one(spec, n))
        assert all(m == 1 for _, m in factors)
        assert sorted(len(f) - 1 for f, _ in factors) == degrees


def test_factorization_with_multiplicity():
    spec = make_field(2, 1)
    factors = factor_monic(spec, x_power_minus_one(spec, 4))
    assert factors == [((1, 1), 4)]  # (x - 1)^4 in characteristic 2
    with pytest.raises(ValueError):
        factor_monic(spec, (1,))
    with pytest.raises(ValueError):
        factor_monic(make_field(3, 1), (1, 2))  # 1 + 2x is not monic


def test_factors_multiply_back():
    for p, k, n in ((2, 1, 7), (3, 1, 8), (5, 1, 6), (2, 2, 5)):
        spec = make_field(p, k)
        target = x_power_minus_one(spec, n)
        product = (1,)
        for f, mult in factor_monic(spec, target):
            for _ in range(mult):
                product = poly_mul(spec, product, f)
        assert product == target


def test_monic_irreducible_counts():
    assert len(monic_irreducibles(make_field(2, 1), 2)) == 1
    assert len(monic_irreducibles(make_field(2, 1), 3)) == 2
    assert len(monic_irreducibles(make_field(2, 1), 4)) == 3
    assert len(monic_irreducibles(make_field(3, 1), 2)) == 3
    assert len(monic_irreducibles(make_field(5, 1), 2)) == 10


def test_x_power_minus_one_has_root_one():
    spec = make_field(3, 2)
    f = x_power_minus_one(spec, 8)
    assert len(f) - 1 == 8
    assert poly_eval(spec, f, 1) == 0


def test_frobenius_is_additive():
    spec = make_field(2, 3)
    for a in range(spec.q):
        for b in range(spec.q):
            s = spec.add(a, b)
            assert spec.mul(s, s) == spec.add(spec.mul(a, a), spec.mul(b, b))


# ---------------------------------------------------------------------------
# the code-level kernel against raw polynomial arithmetic on coefficients

def _raw_strip(c):
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _raw_mul(a, b, p):
    """Product of coefficient tuples over F_p, with no field object."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _raw_strip(out)


def _raw_mod(a, b, p):
    """Remainder of a by the monic b over F_p, with no field object."""
    rem = list(a)
    db = len(b) - 1
    for i in range(len(rem) - 1, db - 1, -1):
        f = rem[i] % p
        for j in range(db + 1):
            rem[i - db + j] = (rem[i - db + j] - f * b[j]) % p
    return _raw_strip(rem)


def _base_p(spec):
    """(digits, code): a code to its k base-p digits, c0 first, and back."""
    p, k = spec.p, spec.k

    def digits(a):
        return tuple(a // p ** i % p for i in range(k))

    def code(coeffs):
        return sum(c * p ** i for i, c in enumerate(coeffs))

    return digits, code


def _reference_ops(spec):
    """Field operations on codes by coefficient arithmetic mod p and mod the
    modulus: no exp, log or Zech table is read."""
    p = spec.p
    digits, code = _base_p(spec)

    def add(a, b):
        return code(tuple((x + y) % p for x, y in zip(digits(a), digits(b))))

    def sub(a, b):
        return code(tuple((x - y) % p for x, y in zip(digits(a), digits(b))))

    def neg(a):
        return code(tuple(-x % p for x in digits(a)))

    def mul(a, b):
        return code(_raw_mod(_raw_mul(_raw_strip(digits(a)), _raw_strip(digits(b)), p),
                             spec.modulus, p))

    return add, sub, neg, mul


def _check_pair(spec, ref, a, b):
    """The code operations on (a, b) against ref, and FieldElement's
    operators and equality against the code operations."""
    add, sub, neg, mul = ref
    assert spec.add(a, b) == add(a, b), (spec, a, b)
    assert spec.sub(a, b) == sub(a, b), (spec, a, b)
    assert spec.mul(a, b) == mul(a, b), (spec, a, b)
    x, y = FieldElement(spec, a), FieldElement(spec, b)
    assert ((x + y).code, (x - y).code, (x * y).code) == \
        (spec.add(a, b), spec.sub(a, b), spec.mul(a, b)), (spec, a, b)
    assert (x == y) == (a == b) and x == FieldElement(spec, a), (spec, a, b)


def _check_single(spec, ref, a):
    _, _, neg, mul = ref
    assert spec.neg(a) == neg(a), (spec, a)
    x = FieldElement(spec, a)
    assert bool(x) == bool(a) and str(x) == spec.code_text(a), (spec, a)
    if a:
        inv = spec.inv(a)
        assert mul(a, inv) == 1 and x.inverse().code == inv, (spec, a)
    else:
        with pytest.raises(ZeroDivisionError):
            spec.inv(a)
        with pytest.raises(ZeroDivisionError):
            x.inverse()


def test_code_kernel_matches_raw_polynomials_for_every_field():
    rng = random.Random(20091)
    assert len(FIELD_SIZES) == 197  # 172 primes and 25 higher prime powers
    for q in FIELD_SIZES:
        spec = make_field(*prime_power_split(q))
        ref = _reference_ops(spec)
        minus_one = spec.p - 1  # the constant digit p - 1
        if q <= 32:
            singles = range(q)
            pairs = [(a, b) for a in range(q) for b in range(q)]
        else:
            singles = [0, 1, minus_one] + [rng.randrange(q) for _ in range(20)]
            special = [(a, b) for a in (0, 1, minus_one) for b in (0, 1, minus_one)]
            pairs = special + [(rng.randrange(q), rng.randrange(q)) for _ in range(60)]
        for a in singles:
            _check_single(spec, ref, a)
        for a, b in pairs:
            _check_pair(spec, ref, a, b)
    # the operators refuse an element of another field
    x, y = FieldElement(make_field(2, 1), 1), FieldElement(make_field(2, 2), 1)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="^mixed-field arithmetic: F2 vs F4$"):
            op(x, y)


def _log_rule_neg(spec, a):
    """-a by the rule FieldSpec.neg had before it became a product with the
    code p - 1: -a mod p in a prime field, a in characteristic 2, and else
    g^(log a + (q - 1) / 2), since -1 = g^((q - 1) / 2)."""
    if spec.k == 1:
        return -a % spec.p
    if not a or spec.p == 2:
        return a
    exp, log, _ = spec._tables
    return exp[log[a] + (spec.q - 1) // 2]


def test_neg_is_the_log_rule_and_zero_minus_a_on_every_code_of_every_field():
    assert len(FIELD_SIZES) == 197
    for q in FIELD_SIZES:
        spec = make_field(*prime_power_split(q))
        for a in range(q):
            assert spec.neg(a) == _log_rule_neg(spec, a) == spec.sub(0, a), (spec, a)
            assert spec.add(a, spec.neg(a)) == 0, (spec, a)


def test_field_tables_stay_linear_in_q():
    for q in (4, 9, 64, 243, 512, 729, 961):
        spec = make_field(*prime_power_split(q))
        assert all(len(t) <= 2 * q for t in spec._tables), spec


def _first_primitive(q: int, power) -> int:
    """The first code g in counting order with power(g, (q-1)/r) != 1 for
    every prime r | q - 1, so the first primitive element of F_q, given
    its power map on codes (1 for F_2, where q - 1 has no prime factor):
    the rule the code tables used before their walk found g itself."""
    n = q - 1
    return next(g for g in range(1, q)
                if all(power(g, n // r) != 1 for r in prime_factors(n)))


def _polynomial_walk_tables(spec):
    """(exp, log, zech) from the walk that multiplies by g with poly_mul and
    poly_divmod at every power, as the tables were built before the walk
    became a linear map on digit vectors."""
    p, q, n = spec.p, spec.q, spec.q - 1
    prime = make_field(p, 1)
    digits, code = _base_p(spec)

    def times(a, b):
        return poly_divmod(prime, poly_mul(prime, a, b), spec.modulus)[1]

    def power(c, e):
        a, acc = digits(c), (1,)
        for bit in bin(e)[2:]:
            acc = times(acc, acc)
            if bit == "1":
                acc = times(acc, a)
        return code(acc)

    g = digits(_first_primitive(q, power))
    powers, cur = [], (1,)
    for _ in range(n):
        powers.append(code(cur))
        cur = times(cur, g)
    log = [None] * q
    for t, c in enumerate(powers):
        log[c] = t
    # 1 + c is c with its constant digit raised by 1 mod p
    zech = [log[code(((c0 + 1) % p, *rest))] for c0, *rest in map(digits, powers)]
    return powers + powers, log, zech


def _every_code_walk(spec):
    """[g^0, ..., g^(q-2)] from walking every code from 1 in counting order
    to the first walk that meets all q - 1 units, as the code tables were
    built before their walks started at p and skipped codes already met."""
    p, q, k = spec.p, spec.q, spec.k
    place, dot = tuple(p ** i for i in range(k)), operator.mul
    one = [1] + [0] * (k - 1)
    for c in range(1, q):
        cols = [spec._digits(c)]
        while len(cols) < k:
            *low, top = cols[-1]
            cols.append(tuple((x - top * m) % p for x, m in zip((0, *low), spec.modulus)))
        rows = tuple(zip(*cols))
        powers, cur = [1], list(cols[0])
        while cur != one and len(powers) < q:
            powers.append(sum(map(dot, cur, place)))
            cur = [sum(map(dot, cur, row)) % p for row in rows]
        if len(powers) == q - 1:
            return powers


def test_linear_walk_tables_match_the_polynomial_walk():
    fresh = make_field.__wrapped__  # a new FieldSpec, tables not yet built
    sizes = [q for q in FIELD_SIZES if prime_power_split(q)[1] > 1]
    assert len(sizes) == 25
    for spec in (fresh(*prime_power_split(q)) for q in sizes):
        exp, log, zech = spec._tables
        ref_exp, ref_log, ref_zech = _polynomial_walk_tables(spec)
        assert exp == ref_exp, spec
        assert log == ref_log, spec
        assert zech == ref_zech, spec


def test_primitive_is_the_first_element_of_the_tables_in_every_field():
    # a prime field finds g by the pow test on ints, and a field with k > 1
    # by walks that start at p and skip met codes; walking every code from 1
    # with its matrix until a walk meets every unit finds the same g
    assert len(FIELD_SIZES) == 197
    for q in FIELD_SIZES:
        spec = make_field(*prime_power_split(q))
        powers = spec.primitive_powers()
        assert powers == _every_code_walk(spec), spec
        assert sorted(powers) == list(range(1, q)), spec  # g has the order q - 1


TERM = re.compile(r"(?:(\d+)\*)?t(?:\^(\d+))?|(\d+)")


def test_code_text_writes_the_digits_of_every_code_highest_power_first():
    # terms c*t^i joined by +, with no c of 1 before t, no ^1, and 0 for zero
    for q in FIELD_SIZES:
        spec = make_field(*prime_power_split(q))
        digits, _ = _base_p(spec)
        assert spec.code_text(0) == "0"
        for a in range(1, q):
            read, powers = [0] * spec.k, []
            for term in spec.code_text(a).split("+"):
                c, e, constant = TERM.fullmatch(term).groups()
                assert c != "1" and e != "1", (spec, a)
                i = 0 if constant else int(e or 1)
                read[i] = int(constant or c or 1)
                powers.append(i)
            assert tuple(read) == digits(a), (spec, a)
            assert powers == sorted(set(powers), reverse=True), (spec, a)


def test_fields_and_code_census_build_no_field_element(monkeypatch):
    built = []
    real_init = FieldElement.__init__

    def counting(self, spec, code):
        built.append((spec, code))
        real_init(self, spec, code)
    monkeypatch.setattr(FieldElement, "__init__", counting)
    fresh = make_field.__wrapped__  # a new FieldSpec, not the cached one
    for q in FIELD_SIZES:
        spec = fresh(*prime_power_split(q))
        if spec.k > 1:
            spec._tables
    for p, k in ((1021, 1), (3, 6), (2, 9)):
        units = UnitGroup(Algebra(fresh(p, k), group_by_label("C1")))
        assert units.order == p ** k - 1
    # a catalog row over a field with k > 1, and a field row
    for p, k, label in ((3, 2, "C3"), (2, 9, "C1")):
        assert build_row.__wrapped__(p, k, label).unit_count
    assert built == []
    assert str(FieldElement(fresh(2, 3), 6)) == "t^2+t"
    assert len(built) == 1  # the counter sees a FieldElement that is built


# ---------------------------------------------------------------------------
# the polynomial layer against the same trial division on _reference_ops,
# which reads no code table

def _ref_mul(ops, a, b):
    add, _, _, mul = ops
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = add(out[i + j], mul(ai, bj))
    return _raw_strip(out)


def _ref_divmod(ops, a, b):
    """(quotient, remainder) of a by the monic b."""
    _, sub, _, mul = ops
    db = len(b) - 1
    if len(a) - 1 < db:
        return (), _raw_strip(a)
    rem = list(a)
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        f = rem[i]
        if f:
            quo[i - db] = f
            for j in range(db + 1):
                rem[i - db + j] = sub(rem[i - db + j], mul(f, b[j]))
    return _raw_strip(quo), _raw_strip(rem)


@lru_cache(maxsize=None)
def _ref_monic_irreducibles(spec, d):
    ops = _reference_ops(spec)
    lower = [g for dd in range(1, d // 2 + 1) for g in _ref_monic_irreducibles(spec, dd)]
    out = []
    for code in range(spec.q ** d):
        tail = []
        for _ in range(d):
            code, c = divmod(code, spec.q)
            tail.append(c)
        cand = tuple(tail) + (1,)
        if all(_ref_divmod(ops, cand, g)[1] for g in lower):
            out.append(cand)
    return tuple(out)


def _ref_factor_monic(spec, f):
    """Trial division of the monic f by monic irreducibles of rising degree."""
    ops = _reference_ops(spec)
    work = f
    found = {}
    d = 1
    while 2 * d <= len(work) - 1:
        for g in _ref_monic_irreducibles(spec, d):
            while True:
                quo, rem = _ref_divmod(ops, work, g)
                if rem:
                    break
                work = quo
                found[g] = found.get(g, 0) + 1
            if 2 * d > len(work) - 1:
                break
        d += 1
    if len(work) - 1 >= 1:
        found[work] = found.get(work, 0) + 1

    def key(g):  # (degree, base-q integer of the non-leading coefficients)
        code = 0
        for c in reversed(g[:-1]):
            code = code * spec.q + c
        return (len(g) - 1, code)
    out = sorted(found.items(), key=lambda kv: key(kv[0]))
    acc = (1,)
    for g, m in out:
        for _ in range(m):
            acc = _ref_mul(ops, acc, g)
    assert acc == f
    return out


def test_code_factorization_matches_the_reference_layer_on_the_catalog():
    calls = []
    cyclic_semisimple = 0
    for p, k, label in catalog_specs(1024):
        group = group_by_label(label)
        if not group.is_abelian():
            continue
        alg = Algebra(make_field(p, k), group)
        tower_blocks(alg, calls)
        if lcm(*map(group.element_order, range(group.order))) == group.order \
                and group.order % p:
            # x^|G| - 1 over K itself: the splitting of a cyclic semisimple K[G]
            calls.append((alg.field, x_power_minus_one(alg.field, group.order)))
            cyclic_semisimple += 1
    assert cyclic_semisimple == 221
    seen = set(calls)
    assert len(seen) == 221
    for spec, f in sorted(seen, key=lambda c: (c[0].q, c[1])):
        assert factor_monic(spec, f) == _ref_factor_monic(spec, f), (spec, f)
