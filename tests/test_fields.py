import random

import pytest

from kgunits.fields import (SIZE_LIMIT, FieldSpec, MonicPoly, _rdivmod, _rmul,
                            _rstrip, factor_monic, is_prime, make_field,
                            monic_irreducibles, poly_add, poly_divmod,
                            poly_ext_gcd, poly_mul, poly_sub, prime_factors,
                            prime_power_split, x_power_minus_one)


def field_for_size(q: int) -> FieldSpec:
    """make_field for a prime-power size q, e.g. 9 -> F_{3^2}."""
    pk = prime_power_split(q)
    if pk is None:
        raise ValueError(f"{q} is not a prime power")
    return make_field(*pk)


def poly_eval(a, x):
    acc = x.spec.zero()
    for c in reversed(a):
        acc = acc * x + c
    return acc


def test_prime_power_split():
    assert prime_power_split(2) == (2, 1)
    assert prime_power_split(8) == (2, 3)
    assert prime_power_split(9) == (3, 2)
    assert prime_power_split(625) == (5, 4)
    assert prime_power_split(6) is None
    assert prime_power_split(12) is None
    assert prime_power_split(1) is None


def test_prime_helpers():
    assert is_prime(2) and is_prime(97) and not is_prime(91) and not is_prime(1)
    assert prime_factors(360) == (2, 3, 5)
    assert prime_factors(1) == ()


def test_minimal_moduli_are_frozen():
    # deterministic modulus choice is part of the output contract
    assert make_field(2, 2).modulus == (1, 1, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(2, 3).modulus == (1, 1, 0, 1)


def test_field_size_cap():
    with pytest.raises(ValueError):
        make_field(2, 10)
    with pytest.raises(ValueError):
        make_field(1021, 2)


def test_field_labels():
    assert make_field(2, 1).label() == "F2"
    assert make_field(3, 2).label() == "F9"
    assert field_for_size(25).label() == "F25"
    with pytest.raises(ValueError):
        field_for_size(6)


def test_field_laws_exhaustive_f4():
    spec = make_field(2, 2)
    els = spec.elements()
    for a in els:
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
            for c in els:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_field_laws_pairs_f8_f9():
    for spec in (make_field(2, 3), make_field(3, 2)):
        els = spec.elements()
        probes = els[:4]
        for a in els:
            for b in els:
                assert a + b == b + a
                assert a * b == b * a
                for c in probes:
                    assert a * (b + c) == a * b + a * c
                    assert (a * b) * c == a * (b * c)


def test_inverses_and_orders():
    for p, k in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)):
        spec = make_field(p, k)
        n = spec.q - 1
        orders = set()
        for a in spec.elements():
            if not a:
                with pytest.raises(ZeroDivisionError):
                    a.inverse()
                continue
            assert a * a.inverse() == spec.one()
            assert a ** n == spec.one()
            o = a.mult_order()
            assert n % o == 0
            orders.add(o)
        assert n in orders  # the multiplicative group is cyclic


def test_poly_add_sub_empty_operands():
    spec = make_field(3, 1)
    one = spec.one()
    assert poly_add((), ()) == ()
    assert poly_sub((), ()) == ()
    assert poly_add((), (one,)) == (one,)
    assert poly_sub((), (one,)) == (-one,)
    assert poly_sub((one,), ()) == (one,)


def test_poly_ext_gcd_bezout():
    spec = make_field(3, 1)
    f = spec.from_int
    a = (f(1), f(2), f(0), f(1))       # 1 + 2x + x^3
    b = (f(2), f(1), f(1))             # 2 + x + x^2
    g, u, v = poly_ext_gcd(a, b)
    lhs = poly_add(poly_mul(a, u), poly_mul(b, v))
    assert lhs == g
    assert g[-1] == spec.one()  # monic


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
        factors = factor_monic(x_power_minus_one(spec, n))
        assert all(m == 1 for _, m in factors)
        assert sorted(f.degree for f, _ in factors) == degrees


def test_factorization_with_multiplicity():
    spec = make_field(2, 1)
    factors = factor_monic(x_power_minus_one(spec, 4))
    assert len(factors) == 1
    f, mult = factors[0]
    assert f.degree == 1 and mult == 4  # (x - 1)^4 in characteristic 2


def test_factors_multiply_back():
    for p, k, n in ((2, 1, 7), (3, 1, 8), (5, 1, 6), (2, 2, 5)):
        spec = make_field(p, k)
        target = x_power_minus_one(spec, n)
        product = None
        for f, mult in factor_monic(target):
            for _ in range(mult):
                product = f if product is None else product * f
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
    assert f.degree == 8
    assert not poly_eval(f.coeffs, spec.one())


def test_frobenius_is_additive():
    spec = make_field(2, 3)
    for a in spec.elements():
        for b in spec.elements():
            assert (a + b) ** 2 == a ** 2 + b ** 2


# ---------------------------------------------------------------------------
# the code-level kernel against raw polynomial arithmetic on coefficients

def _reference_ops(spec):
    p, k = spec.p, spec.k

    def digits(a):
        return spec.element(a).coeffs

    def code(coeffs):
        return spec.from_coeffs(coeffs + (0,) * (k - len(coeffs))).code

    def add(a, b):
        return code(tuple((x + y) % p for x, y in zip(digits(a), digits(b))))

    def sub(a, b):
        return code(tuple((x - y) % p for x, y in zip(digits(a), digits(b))))

    def neg(a):
        return code(tuple(-x % p for x in digits(a)))

    def mul(a, b):
        prod = _rmul(_rstrip(digits(a)), _rstrip(digits(b)), p)
        return code(_rdivmod(prod, spec.modulus, p)[1])

    return add, sub, neg, mul


def _check_pair(spec, ref, a, b):
    add, sub, neg, mul = ref
    assert spec.add(a, b) == add(a, b), (spec, a, b)
    assert spec.sub(a, b) == sub(a, b), (spec, a, b)
    assert spec.mul(a, b) == mul(a, b), (spec, a, b)
    x, y = spec.element(a), spec.element(b)
    assert ((x + y).code, (x - y).code, (x * y).code) == \
        (spec.add(a, b), spec.sub(a, b), spec.mul(a, b)), (spec, a, b)


def _check_single(spec, ref, a):
    _, _, neg, mul = ref
    assert spec.neg(a) == neg(a) == (-spec.element(a)).code, (spec, a)
    if a:
        inv = spec.inv(a)
        assert mul(a, inv) == 1 and spec.element(a).inverse().code == inv, (spec, a)
    else:
        with pytest.raises(ZeroDivisionError):
            spec.inv(a)


def test_code_kernel_matches_raw_polynomials_for_every_field():
    rng = random.Random(20091)
    sizes = [q for q in range(2, SIZE_LIMIT) if prime_power_split(q)]
    assert len(sizes) == 197  # 172 primes and 25 higher prime powers
    for q in sizes:
        spec = make_field(*prime_power_split(q))
        ref = _reference_ops(spec)
        minus_one = spec.from_int(-1).code
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


def test_mult_order_matches_power_walk():
    for p, k in ((2, 1), (2, 4), (3, 3), (5, 2), (7, 1), (2, 5), (31, 1)):
        spec = make_field(p, k)
        for a in range(1, spec.q):
            o, acc = 1, a
            while acc != 1:
                acc = spec.mul(acc, a)
                o += 1
            assert spec.element(a).mult_order() == o, (spec, a)


def test_field_tables_stay_linear_in_q():
    for q in (4, 9, 64, 243, 512, 961, 1021):
        spec = make_field(*prime_power_split(q))
        spec.element(2).mult_order()  # builds the tables of a prime field too
        assert all(len(t) <= 2 * q for t in spec._tables()), spec
