import random
import string
from fractions import Fraction

import pytest

from kgunits.expected import (D6_PRESENTATION_CORRECTED,
                              D6_PRESENTATION_PRINTED, PRESENTATION_SOURCES)
from kgunits.presentations import (DEFAULT_COSET_LIMIT, Certificate,
                                   CosetLimitExceeded, FpGroup, Refutation,
                                   certify_from_source,
                                   certify_unit_group_presentation,
                                   check_coset_table, commutator_word,
                                   coset_enumeration, coset_table, free_reduce,
                                   invert_word, parse_presentation, power_word,
                                   relator_columns)
from reference_checks import (D6_PRESENTATION_COMMUTATOR,
                              PRESENTATION_VARIANTS, REDUNDANT_RELATORS,
                              make_units)


def parse_word(text, names):
    """One relator item of the presentation grammar, over the given names."""
    relators = parse_presentation(f"{', '.join(names)} | {text}").relators
    assert len(relators) <= 1
    return relators[0] if relators else ()


def drop_relator(pres, i):
    return pres._replace(relators=pres.relators[:i] + pres.relators[i + 1:])


# generators 1, 2, 3 as one-letter words
A, B, C = ((1, 1),), ((2, 1),), ((3, 1),)


def test_word_utilities():
    assert invert_word(A + B + ((3, -1),)) == ((3, 1), (2, -1), (1, -1))
    assert free_reduce(A + ((1, -1),) + B + C + ((3, -1), (2, -1)) + A) == A
    # neighbouring runs of one generator merge into one run
    assert free_reduce(((1, 2), (1, -3), (2, 1))) == ((1, -1), (2, 1))
    assert power_word(A + B, 2) == A + B + A + B
    assert power_word(A + B, 0) == ()
    assert power_word(A, -2) == ((1, -2),)
    assert commutator_word(A, B) == ((1, -1), (2, -1), (1, 1), (2, 1))
    # a conjugate power keeps the conjugator and powers the cyclic core
    assert power_word(A + B + ((1, -1),), 3000000) == A + ((2, 3000000), (1, -1))
    # a^2 b a^-1 = a (a b) a^-1, so its -2nd power is a b^-1 a^-1 b^-1 a^-2
    assert power_word(((1, 2), (2, 1), (1, -1)), -2) == \
        ((1, 1), (2, -1), (1, -1), (2, -1), (1, -2))


def test_power_word_matches_the_written_out_power():
    rng = random.Random(20261018)
    for _ in range(3000):
        w = tuple((rng.randint(1, 3), rng.choice((-3, -2, -1, 1, 2, 3)))
                  for _ in range(rng.randint(0, 8)))
        n = rng.randint(-6, 6)
        written_out = w * n if n >= 0 else invert_word(w) * -n
        assert power_word(w, n) == free_reduce(written_out), (w, n)


def test_parse_word_forms():
    names = ["x", "y", "v1"]
    assert parse_word("x*y", names) == A + B
    assert parse_word("x^3", names) == ((1, 3),)
    assert parse_word("x^-2", names) == ((1, -2),)
    assert parse_word("v1*y^-1", names) == ((3, 1), (2, -1))
    assert parse_word("(x*y)^2", names) == A + B + A + B
    assert parse_word("[x,y]", names) == ((1, -1), (2, -1), (1, 1), (2, 1))
    # nested commutators associate left: [a,b,c] = [[a,b],c]
    assert parse_word("[x,y,v1]", names) == free_reduce(
        commutator_word(commutator_word(A, B), C))
    assert parse_word("x*x^-1", names) == ()
    with pytest.raises(ValueError):
        parse_word("z", names)
    with pytest.raises(ValueError):
        parse_word("x^", names)


def test_parse_presentation():
    g = parse_presentation("x, y | x^3, y^2, y*x*y = x^2")
    assert g.generator_names == ("x", "y")
    assert len(g.relators) == 3
    # an equation R = S becomes the relator R*S^-1
    assert g.relators[2] == free_reduce(B + A + B + ((1, -2),))
    with pytest.raises(ValueError):
        parse_presentation("x^2, y^2")
    with pytest.raises(ValueError):
        parse_presentation("x, x | x^2")
    with pytest.raises(ValueError):
        parse_presentation("x, y | x = y = x")
    # each generator is exactly one name token
    for text, item in (("x y | x", "x y"), ("1a | a", "1a"), ("a,,b | a", ""),
                       ("x- | x", "x-"), (" | x", ""), ("\u00b2 | \u00b2^3", "\u00b2"),
                       ("\u00bd | x", "\u00bd"), ("\u216b | x", "\u216b")):
        with pytest.raises(ValueError) as exc:
            parse_presentation(text)
        assert str(exc.value) == f"bad generator name {item!r}"


# The character-loop tokenizer and parser class that parse_presentation
# replaced, kept as the reference for test_parser_matches_the_character_loop.

def _old_tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        elif c == "-" or c.isdigit():
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if text[i:j] == "-":
                raise ValueError(f"stray '-' at position {i} in {text!r}")
            tokens.append(("int", int(text[i:j])))
            i = j
        elif c in "^*,()[]=|":
            tokens.append((c, c))
            i += 1
        else:
            raise ValueError(f"unexpected character {c!r} at position {i} in {text!r}")
    tokens.append(("end", None))
    return tokens


class _OldWordParser:
    def __init__(self, tokens, names):
        self.toks = tokens
        self.pos = 0
        self.names = names

    def peek(self):
        return self.toks[self.pos][0]

    def take(self, kind=None):
        t = self.toks[self.pos]
        if kind is not None and t[0] != kind:
            raise ValueError(f"expected {kind!r}, found {t[0]!r}")
        self.pos += 1
        return t

    def expr(self):
        w = self.factor()
        while self.peek() in ("*", "name", "(", "["):
            if self.peek() == "*":
                self.take()
            w = free_reduce(w + self.factor())
        return w

    def factor(self):
        w = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take("int")
            w = power_word(w, tok[1])
        return w

    def atom(self):
        kind = self.peek()
        if kind == "name":
            name = self.take()[1]
            if name not in self.names:
                raise ValueError(f"unknown generator {name!r}")
            return ((self.names.index(name) + 1, 1),)
        if kind == "(":
            self.take()
            w = self.expr()
            self.take(")")
            return w
        if kind == "[":
            self.take()
            args = [self.expr()]
            while self.peek() == ",":
                self.take()
                args.append(self.expr())
            self.take("]")
            if len(args) < 2:
                raise ValueError("commutator needs at least two arguments")
            w = args[0]
            for v in args[1:]:
                w = commutator_word(w, v)
            return w
        raise ValueError(f"unexpected token {kind!r} in word")

    def relator_item(self):
        lhs = self.expr()
        if self.peek() == "=":
            self.take()
            rhs = self.expr()
            return free_reduce(lhs + invert_word(rhs))
        return lhs


def _old_parse_presentation(text):
    if "|" not in text:
        raise ValueError("presentation must look like 'gens | relators'")
    gen_part, rel_part = text.split("|", 1)
    names = [n.strip() for n in gen_part.split(",")]
    for name in names:
        try:
            tokens = _old_tokenize(name)
        except ValueError:
            tokens = None
        if tokens != [("name", name), ("end", None)]:
            raise ValueError(f"bad generator name {name!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"bad generator list {gen_part!r}")
    parser = _OldWordParser(_old_tokenize(rel_part), names)
    relators = []
    while True:
        w = parser.relator_item()
        if w:
            relators.append(w)
        if parser.peek() == ",":
            parser.take()
            continue
        parser.take("end")
        break
    return FpGroup(tuple(names), tuple(relators))


_CHARACTERS = string.ascii_letters + string.digits + "_ \t\n^*,()[]=|-+!é"
_FRAGMENTS = ("x^-1", "[a,b]", "(a*b)^3", "a", "b", "x", "x^2", "b^-12", "é1",
              "[x, a*b, b]", "(x)", "b^")
_JOINS = (" ", " ", "*", "*", ", ", " = ", "")
_GENERATOR_PARTS = ("a, b, x, é1", "a,b,x,é1", " x , é1,a,b", "a, b, x", "_a, b2, x", "a, a")


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def test_parser_matches_the_character_loop():
    """The same FpGroup or the same error text as the tokenizer and parser
    it replaced, on every text without a non-ASCII digit or numeral."""
    rng = random.Random(22)
    parsed = 0
    for _ in range(20000):
        if rng.random() < 0.8:
            gens = rng.choice(_GENERATOR_PARTS)
        else:
            gens = "".join(rng.choice(_CHARACTERS) for _ in range(rng.randint(0, 4)))
        noise = rng.choice((0.0, 0.0, 0.05, 0.3))
        rels = "".join(rng.choice(_JOINS) * (k > 0) + (
            rng.choice(_CHARACTERS) if rng.random() < noise else rng.choice(_FRAGMENTS))
            for k in range(rng.randint(0, 10)))
        text = f"{gens} | {rels}" if rng.random() < 0.95 else gens + rels
        old = _outcome(_old_parse_presentation, text)
        assert _outcome(parse_presentation, text) == old, text
        parsed += isinstance(old, FpGroup)
    # both outcomes are well represented
    assert 2000 < parsed < 18000


def test_fp_group_validation_and_helpers():
    g = FpGroup(("a", "b"), (((1, 2),), ((2, 2),)))
    assert drop_relator(g, 0).relators == (((2, 2),),)
    with pytest.raises(ValueError):
        FpGroup(("a",), (((1, 1), (1, -1)),))
    with pytest.raises(ValueError):
        FpGroup(("a",), (((2, 1),),))
    # flat letter words are not runs
    with pytest.raises(ValueError, match="not a tuple of runs"):
        FpGroup(("a", "b"), ((1, 1), (2, 2)))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 29, 64])
def test_coset_enumeration_cyclic(n):
    g = FpGroup(("x",), (((1, n),),))
    assert coset_enumeration(g) == n


def test_coset_enumeration_known_groups():
    assert coset_enumeration(parse_presentation("x, y | x^3, y^2, (x*y)^2")) == 6
    assert coset_enumeration(parse_presentation("x, y | x^4, y^2, (x*y)^2")) == 8
    assert coset_enumeration(parse_presentation("x, y | [x,y], x^3, y^5")) == 15
    # trivializing relator collapses everything
    assert coset_enumeration(parse_presentation("x, y | x, y")) == 1


def test_relator_columns_are_runs():
    # x is generator 2 (columns 2, 3) and a generator 1 (columns 0, 1);
    # x^2 = a^3 is the relator x^2 a^-3
    pres = parse_presentation("a, x | x^2 = a^3, x^-1*a*x = a^-1")
    assert relator_columns(pres) == [((2, 2), (1, 3)),
                                     ((3, 1), (0, 1), (2, 1), (0, 1))]
    assert relator_columns(parse_presentation("a | a^1500")) == [((0, 1500),)]


def test_coset_enumeration_limit():
    # free group of rank 1 is infinite; a tight limit must abort loudly
    with pytest.raises(CosetLimitExceeded):
        coset_enumeration(FpGroup(("x", "y"), (((1, 2),),)), limit=50)


def _columns(*cycles_of_x):
    """Columns x, x^-1 of a one-generator table from the cycles of x."""
    x = {}
    for cycle in cycles_of_x:
        for k, i in enumerate(cycle):
            x[i] = cycle[(k + 1) % len(cycle)]
    n = len(x)
    column = [x[i] for i in range(n)]
    inverse = [None] * n
    for i, j in enumerate(column):
        inverse[j] = i
    return [column, inverse]


def test_closing_check_runs_relators_by_cycles():
    x6 = [((0, 6),)]
    assert check_coset_table(_columns((0, 1, 2)), [0, 1, 2], x6) == [0, 1, 2]
    assert check_coset_table(_columns((0,), (1, 2), (3, 4, 5)), list(range(6)), x6) \
        == list(range(6))
    with pytest.raises(RuntimeError, match="relator fails to close"):
        check_coset_table(_columns((0, 1, 2, 3)), [0, 1, 2, 3], x6)
    with pytest.raises(RuntimeError, match="relator fails to close"):
        check_coset_table(_columns((0, 1), (2, 3, 4, 5)), list(range(6)), x6)


def test_closing_check_needs_a_permutation_table():
    inconsistent = "coset table inconsistent after enumeration"
    x3 = [((0, 3),)]
    missing = _columns((0, 1, 2))
    missing[0][2] = None
    with pytest.raises(RuntimeError, match=inconsistent):
        check_coset_table(missing, [0, 1, 2], x3)
    # coset 2 merged into 1, but coset 1 still points at it
    dead = [[1, 2, 0], [2, 0, 1]]
    with pytest.raises(RuntimeError, match=inconsistent):
        check_coset_table(dead, [0, 1, 1], x3)
    mismatch = _columns((0, 1, 2))
    mismatch[1][0] = 1
    with pytest.raises(RuntimeError, match=inconsistent):
        check_coset_table(mismatch, [0, 1, 2], x3)


def test_closing_check_on_a_dihedral_table():
    pres = parse_presentation("r, s | r^4, s^2, (s*r)^2")
    columns, p = coset_table(pres)
    words = relator_columns(pres)
    assert len(check_coset_table(columns, p, words)) == 8
    # send s to the identity: r^4 and s^2 still hold, (s*r)^2 = r^2 does not
    broken = [columns[0], columns[1], list(range(8)), list(range(8))]
    assert check_coset_table(broken, p, words[:2]) == list(range(8))
    with pytest.raises(RuntimeError, match="relator fails to close"):
        check_coset_table(broken, p, words)


def test_closing_check_refuses_every_single_corrupted_entry():
    # a table with dead cosets, so that an entry can point at one
    pres = parse_presentation("a, b | a^6, b^10, a*b = b*a")
    columns, p = coset_table(pres)
    words = relator_columns(pres)
    live = check_coset_table(columns, p, words)
    dead = next(i for i in range(len(p)) if p[i] != i)
    assert len(live) == 60
    inconsistent = "coset table inconsistent after enumeration"
    # One entry at a time, in generator and inverse columns alike.  The
    # relators go letter by letter here, so a corruption that got past the
    # first pass fails this test rather than looping in _column_power.
    letters = [tuple((c, 1) for c, e in runs for _ in range(e)) for runs in words]
    for c, column in enumerate(columns):
        for k, i in enumerate(live):
            wrong = live[k - 1] if live[k - 1] != column[i] else live[k - 2]
            for bad in (None, dead, wrong):
                corrupted = [list(col) for col in columns]
                corrupted[c][i] = bad
                with pytest.raises(RuntimeError, match=inconsistent):
                    check_coset_table(corrupted, p, letters)
    # consistent columns, one relator that fails: c r acts as generator c
    for k, runs in enumerate(words):
        (c, e), rest = runs[0], runs[1:]
        failing = words[:k] + [((c, e + 1),) + rest] + words[k + 1:]
        with pytest.raises(RuntimeError, match="relator fails to close"):
            check_coset_table(columns, p, failing)


def test_printed_dihedral_presentation_collapses():
    # 'y^1' forces y = 1, then y*x*y = x^2 gives x = x^2, so x = 1 too
    assert coset_enumeration(parse_presentation(D6_PRESENTATION_PRINTED)) == 1
    assert coset_enumeration(parse_presentation(D6_PRESENTATION_CORRECTED)) == 6


def test_commutator_convention_changes_the_group():
    left = parse_presentation(D6_PRESENTATION_COMMUTATOR)
    # the same text with the right-normed [x,y] = x y x^-1 y^-1
    right = FpGroup(("x", "y"), (((1, 3),), ((2, 2),),
                                 ((1, 1), (2, 1), (1, -1), (2, -1), (1, -1))))
    assert left.relators[:2] == right.relators[:2]
    assert coset_enumeration(left) == 6
    assert coset_enumeration(right) != 6


CERTIFIABLE = [
    ((2, 1, "D6"), ("F2", "D6"), 12),
    ((2, 1, "D8"), ("F2", "D8"), 128),
    ((2, 1, "Q8"), ("F2", "Q8"), 128),
    ((3, 1, "D6"), ("F3", "D6"), 324),
]


@pytest.fixture(scope="module")
def certified():
    out = {}
    for (p, k, label), key, order in CERTIFIABLE:
        u = make_units(p, k, label)
        src = PRESENTATION_SOURCES[key]
        gens = src.build_generators(u.algebra)
        out[key] = (u, src, gens, certify_from_source(u, src.text, gens), order)
    return out


def test_published_presentations_certify(certified):
    for key, (u, src, gens, res, order) in certified.items():
        assert isinstance(res, Certificate), key
        assert res.order == order == u.order


def test_certification_reads_the_left_convention_only():
    # in U(F2D6), w y w^-1 y^-1 = w^2 holds and w^-1 y^-1 w y = w^2 does not
    u = make_units(2, 1, "D6")
    gens = PRESENTATION_SOURCES["F2", "D6"].build_generators(u.algebra)
    right_only = certify_from_source(u, "w, y | w^6, y^2, [w,y] = w^2", gens)
    assert isinstance(right_only, Refutation)
    assert right_only.failed_step == 1
    left = certify_from_source(u, "w, y | w^6, y^2, [w,y] = w^4", gens)
    assert isinstance(left, Certificate) and left.order == 12


def test_dropping_any_single_relator(certified):
    # provably redundant relators still certify; every other drop is refuted
    # because the presented group grows (or blows past the coset limit)
    for key, (u, src, gens, res, order) in certified.items():
        pres = res.presentation
        for i in range(len(pres.relators)):
            mutated = certify_unit_group_presentation(
                u, drop_relator(pres, i), gens, limit=4000)
            if i in REDUNDANT_RELATORS[key]:
                assert isinstance(mutated, Certificate), (key, i)
                assert mutated.order == order
            else:
                assert isinstance(mutated, Refutation), (key, i)
                assert mutated.failed_step == 3
                assert "refuted at step 3" in mutated.summary()


def _free_abelian_rank(pres):
    """Rank of the presented group's abelianization modulo torsion: the
    number of generators less the rational rank of the exponent-sum matrix."""
    n = len(pres.generator_names)
    rows = [[Fraction(sum(e for h, e in r if h == g + 1)) for g in range(n)]
            for r in pres.relators]
    rank = 0
    for g in range(n):
        pivot = next((r for r in rows if r[g]), None)
        if pivot is not None:
            rows.remove(pivot)
            rows = [[x - r[g] / pivot[g] * y for x, y in zip(r, pivot)] for r in rows]
            rank += 1
    return n - rank


def test_presented_order_is_a_multiple_of_the_generated_subgroup(certified):
    # The relators of a presentation and of each of its drop_relator
    # mutations hold on the published generators, so by von Dyck the
    # presented group maps onto the subgroup they generate: a finite order
    # is a multiple of the closure, equal to it exactly when the dropped
    # relator is redundant.  A mutation whose abelianization is infinite
    # presents an infinite group, and must run into the cap.
    infinite = 0
    for key, (u, src, gens, res, order) in certified.items():
        pres = res.presentation
        span = u.closure(gens[name] for name in pres.generator_names)
        assert coset_enumeration(pres) == span == order
        for i in range(len(pres.relators)):
            mutated = drop_relator(pres, i)
            try:
                n = coset_enumeration(mutated, MUTATION_LIMIT)
            except CosetLimitExceeded:
                assert i not in REDUNDANT_RELATORS[key], (key, i)
                infinite += _free_abelian_rank(mutated) > 0
                continue
            assert _free_abelian_rank(mutated) == 0, (key, i)
            assert n % span == 0 and (n == span) == (i in REDUNDANT_RELATORS[key]), (key, i, n)
    # F2[D8] without y^2 or a^4, F2[Q8] without a^4 or y^2 = x^2
    assert infinite == 4


def _swap_relator(text, index, old, new):
    gens, rels = text.split(" | ")
    items = rels.split(", ")
    assert items[index] == old
    items[index] = new
    return gens + " | " + ", ".join(items)


def test_squaring_relation_distinguishes_the_sources(certified):
    # the dihedral and quaternion sources differ only in y^2 vs y^2 = x^2;
    # swapping them must break step 1 on the true generators
    u8, src8, gens8, _, _ = certified[("F2", "D8")]
    uq, srcq, gensq, _, _ = certified[("F2", "Q8")]
    d8_as_q8 = _swap_relator(src8.text, 1, "y^2", "y^2 = x^2")
    q8_as_d8 = _swap_relator(srcq.text, 4, "y^2 = x^2", "y^2")
    res = certify_from_source(u8, d8_as_q8, gens8)
    assert isinstance(res, Refutation) and res.failed_step == 1
    res = certify_from_source(uq, q8_as_d8, gensq)
    assert isinstance(res, Refutation) and res.failed_step == 1


def test_extra_relator_is_refuted(certified):
    u, src, gens, _, _ = certified[("F2", "D6")]
    res = certify_from_source(u, src.text + ", w^2", gens)
    assert isinstance(res, Refutation) and res.failed_step == 1


def test_variant_relator_registry(certified):
    # one source circulates with an alternate final relator; the alternate
    # fails on the true generators while the primary text certifies
    u, src, gens, res, order = certified[("F3", "D6")]
    assert isinstance(res, Certificate)
    assert PRESENTATION_VARIANTS[("F3", "D6")]
    for name, alt_text in PRESENTATION_VARIANTS[("F3", "D6")]:
        alt = certify_from_source(u, alt_text, gens)
        assert isinstance(alt, Refutation), name
        assert alt.failed_step == 1


def test_relator_order_is_irrelevant(certified):
    u, src, gens, res, order = certified[("F2", "D8")]
    rels = list(res.presentation.relators)
    random.Random(7).shuffle(rels)
    shuffled = FpGroup(res.presentation.generator_names, tuple(rels))
    again = certify_unit_group_presentation(u, shuffled, gens)
    assert isinstance(again, Certificate) and again.order == order


def test_missing_generator_image_is_an_error():
    u = make_units(2, 1, "D6")
    pres = parse_presentation("w, y | w^6, y^2")
    with pytest.raises(ValueError):
        certify_unit_group_presentation(u, pres, {"w": u.algebra.one()})


def test_certify_steps_on_the_cyclic_unit_group_of_f2c3():
    # U(F2C3) = C3, generated by the group element x
    u = make_units(2, 1, "C3")
    x = u.algebra.group_element("x")
    assert u.order == 3
    cert = certify_unit_group_presentation(u, parse_presentation("x | x^3"), {"x": x})
    assert isinstance(cert, Certificate) and cert.order == 3
    # a relator the image violates
    ref = certify_unit_group_presentation(u, parse_presentation("x | x^2"), {"x": x})
    assert isinstance(ref, Refutation) and ref.failed_step == 1
    assert ref.detail == "relator #1 does not evaluate to 1 on the generators"
    # relators hold but the image fails to generate
    ref = certify_unit_group_presentation(u, parse_presentation("x | x^3"),
                                          {"x": u.algebra.one()})
    assert isinstance(ref, Refutation) and ref.failed_step == 2
    assert ref.detail == "generators span 1 of 3 units"
    with pytest.raises(ValueError, match="generator x is not a unit"):
        certify_unit_group_presentation(u, parse_presentation("x | x"),
                                        {"x": u.algebra.from_key((0,) * 3)})


def _reference_coset_enumeration(pres, limit):
    """The row-major HLT kernel that coset_table replaced, with its final check.

    Returns (order, table, p): table[i][c] is coset i under column c.
    """
    ncols = 2 * len(pres.generator_names)

    # each relator written out letter by letter, a run g^e as |e| letters
    rel_cols = [tuple(2 * g - 2 if e > 0 else 2 * g - 1 for g, e in r for _ in range(abs(e)))
                for r in pres.relators]
    table = [[None] * ncols]
    p = [0]
    queue = []

    def rep(k):
        r = k
        while p[r] != r:
            r = p[r]
        while p[k] != r:
            p[k], k = r, p[k]
        return r

    def define(a, c):
        if len(table) >= limit:
            raise CosetLimitExceeded(
                f"coset cap {limit} exceeded; group is possibly infinite or the cap too low")
        b = len(table)
        table.append([None] * ncols)
        p.append(b)
        table[a][c] = b
        table[b][c ^ 1] = a

    def merge(a, b):
        a, b = rep(a), rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            p[b] = a
            queue.append(b)

    def coincidence(a, b):
        merge(a, b)
        while queue:
            g = queue.pop()
            row = table[g]
            for c in range(ncols):
                d = row[c]
                if d is None:
                    continue
                table[d][c ^ 1] = None
                mu, nu = rep(g), rep(d)
                if table[mu][c] is not None:
                    merge(nu, table[mu][c])
                elif table[nu][c ^ 1] is not None:
                    merge(mu, table[nu][c ^ 1])
                else:
                    table[mu][c] = nu
                    table[nu][c ^ 1] = mu

    def scan_and_fill(a, word):
        f, i = a, 0
        b, j = a, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f = table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][word[j] ^ 1] is not None:
                b = table[b][word[j] ^ 1]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return
            define(f, word[i])

    a = 0
    while a < len(table):
        if p[a] != a:
            a += 1
            continue
        for word in rel_cols:
            if not word:
                continue
            scan_and_fill(a, word)
            if p[a] != a:
                break
        if p[a] == a:
            for c in range(ncols):
                if table[a][c] is None:
                    define(a, c)
        a += 1

    live = [i for i in range(len(table)) if p[i] == i]
    for i in live:
        for c in range(ncols):
            d = table[i][c]
            if d is None or p[d] != d or table[d][c ^ 1] != i:
                raise RuntimeError("coset table inconsistent after enumeration")
    for i in live:
        for word in rel_cols:
            cur = i
            for c in word:
                cur = table[cur][c]
            if cur != i:
                raise RuntimeError("relator fails to close on the finished table")
    return len(live), table, p


# The query stream's four families, at sizes up to order about 3600.  The
# abelian sizes 30 and 60 are rich in coincidences, so dead cosets hand their
# cycle records to the survivors; the dicyclic x^2 = a^n is a two-run
# relator whose run a^-n the scan also walks backward, along column a.  The
# metacyclic group of order 21 records its a-cycles from a^-7, along the
# inverse column, and then jumps both ways along them.
FAMILY_TEXTS = (
    [f"a | a^{n}" for n in (4, 12, 40, 150, 500)]
    + [f"r, s | r^{n}, s^2, (s*r)^2" for n in (4, 10, 36, 120, 400)]
    + [f"a, x | a^{2 * n}, x^2 = a^{n}, x^-1*a*x = a^-1" for n in (3, 6, 20, 64, 101, 200)]
    + [f"a, b | a^{n}, b^{n + 4}, a*b = b*a" for n in (3, 6, 13, 25, 30, 60)]
    + ["a, b | a^-7, b^3, b^-1*a*b = a^2"])
MUTATION_LIMIT = 4000


def _same_outcome(pres, limit):
    """Both kernels agree on pres: the table, or the cap message, at limit."""
    try:
        order, table, p = _reference_coset_enumeration(pres, limit)
    except CosetLimitExceeded as exc:
        with pytest.raises(CosetLimitExceeded) as new:
            coset_table(pres, limit)
        assert str(new.value) == str(exc)
        return
    # coset_enumeration at the cap len(p), in its two steps
    columns, new_p = coset_table(pres, len(p))
    assert new_p == p
    assert columns == [list(col) for col in zip(*table)]
    # a higher cap leaves room in the table's chunks, trimmed on return
    assert coset_table(pres, limit) == (columns, p)
    assert len(check_coset_table(columns, new_p, relator_columns(pres))) == order
    if len(p) == 1:
        return  # no coset was defined, so no cap is too low
    with pytest.raises(CosetLimitExceeded) as old:
        _reference_coset_enumeration(pres, len(p) - 1)
    with pytest.raises(CosetLimitExceeded) as new:
        coset_enumeration(pres, len(p) - 1)
    assert str(new.value) == str(old.value)


def test_column_kernel_matches_the_row_kernel():
    for text in FAMILY_TEXTS + [D6_PRESENTATION_PRINTED, D6_PRESENTATION_CORRECTED]:
        _same_outcome(parse_presentation(text), DEFAULT_COSET_LIMIT)
    for src in PRESENTATION_SOURCES.values():
        _same_outcome(parse_presentation(src.text), DEFAULT_COSET_LIMIT)
    for _, key, _ in CERTIFIABLE:
        pres = parse_presentation(PRESENTATION_SOURCES[key].text)
        for i in range(len(pres.relators)):
            _same_outcome(drop_relator(pres, i), MUTATION_LIMIT)


def test_column_kernel_matches_the_row_kernel_at_the_largest_query_sizes():
    # the top of each family's size grid plus the stream's jitter of 2
    for text in ("a | a^1502",
                 "r, s | r^1002, s^2, (s*r)^2",
                 "a, x | a^1004, x^2 = a^502, x^-1*a*x = a^-1",
                 "a, b | a^92, b^96, a*b = b*a"):
        _same_outcome(parse_presentation(text), DEFAULT_COSET_LIMIT)


def _random_relator(rng, ngens):
    """A freely reduced word of one to four runs of up to 12 letters (one run
    on one generator); about one in three with three or more runs has first
    and last runs of one generator with opposite signs."""
    runs = []
    for _ in range(rng.randint(1, 4) if ngens > 1 else 1):
        g = rng.choice([h for h in range(1, ngens + 1) if not runs or h != runs[-1][0]])
        runs.append((g, rng.choice((-1, 1)) * rng.randint(1, 12)))
    if len(runs) > 2 and rng.random() < 1 / 3:
        g, e = runs[0]
        if runs[-2][0] != g:
            runs[-1] = (g, -rng.randint(1, 12) if e > 0 else rng.randint(1, 12))
    return tuple(runs)


def test_column_kernel_matches_the_row_kernel_on_random_presentations():
    # a^5*b*a^-3: both scans stop in a-runs, but j's column is a^-1, the
    # inverse of i's, so the gap spans runs and is filled letter by letter
    _same_outcome(parse_presentation("a, b | a^5*b*a^-3, b^4"), 300)
    _same_outcome(parse_presentation("a, b | a^5*b*a^-3, b^4, a^7"), 300)
    rng = random.Random(19)
    for _ in range(400):
        ngens = rng.randint(1, 3)
        relators = tuple(_random_relator(rng, ngens) for _ in range(rng.randint(1, 3)))
        _same_outcome(FpGroup(tuple("abc"[:ngens]), relators), 300)


def test_a_chain_past_the_cap_raises_before_it_is_built():
    # the gap of a^1000000000 is one chain, refused whole at the cap
    with pytest.raises(CosetLimitExceeded) as exc:
        coset_table(parse_presentation("a | a^1000000000"), 10)
    assert str(exc.value) == \
        "coset cap 10 exceeded; group is possibly infinite or the cap too low"
