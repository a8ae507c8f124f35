"""Finitely presented groups: words, a relator grammar, coset enumeration.

A word is a tuple of runs (g, e): generator g (1-based) to the power e != 0,
freely reduced, so two neighbouring runs never share a generator.  A power
of one run is one run, so a^n costs the same whatever n is, and a power of
a conjugate u c u^-1 is u c^n u^-1, so (x y x^-1)^n is three runs.  A
commutator is [a, b] = a^-1 b^-1 a b, nested left-normed, so
[a, b, c] = [[a, b], c]: the published presentations use this convention,
and the D6 commutator form in expected.py pins it.

Coset enumeration is the HLT strategy over the trivial subgroup (Holt, Eick
& O'Brien, Handbook of Computational Group Theory, 2005, ch. 5): scan and
fill every relator at every live coset, with coincidences processed through
a union-find table whose roots are found inline, with path compression.
The table is column-major, one list per generator and per inverse, so a
scan step is f = column[f].  The enumeration reads each relator as runs
(c, e), column c taken e times.  Each scan first walks the whole relator;
when every entry is defined that walk is the complete HLT scan, and only an
incomplete one goes on to the forward/backward scan and fill.  When both
scans stop inside one run c^e, the fill defines the whole gap as one chain
of new cosets and then deduces its last entry: each new coset has only its
c^-1 entry, and c != c^-1, so neither scan could move before that.  A gap
that spans runs is filled one letter at a time.  The columns and the cycle
records below grow in chunks, doubling up to the coset cap, with len(p) as
the coset count, and each column is trimmed to len(p) when the enumeration
ends.

A walk of a run c^e with e > 1 that comes back to its start has closed a
cycle of c, and the enumeration records it once, as a list per generator
with each coset's position on it.  A later walk of a run from a coset on a
recorded cycle jumps e places along it, forward for a generator and
backward for its inverse, and then to the root of the coset it lands on.
This is sound because the table after a coincidence is a quotient of the
table before it: a cycle x_0 -> x_1 -> ... closed then still maps each root
of x_k to the root of x_(k+1), and definitions and deductions only add
entries.  The root is found without path compression, so the union-find
array stays exactly as the letter-by-letter HLT leaves it.  When the length
of the cycle divides e, the whole-relator walk skips the run: whole turns
from a live coset land on it or on a dead coset whose root it is.

The finished table is checked twice, from the table alone.  First every
generator column must send each live coset to a live coset that the
inverse column sends back.  Then the column is injective on the finite set
of live cosets and maps it into itself, so it permutes it, and the inverse
column is the inverse permutation there: the same pass over the inverse
columns could not fail, so it is not made.  Second every relator, applied
to all live cosets one run c^e at a time along cycles rebuilt from the
table, must fix each of them.  The enumeration either returns |G| exactly
or raises CosetLimitExceeded, which callers must treat as "possibly
infinite or cap too low", never as an order.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import accumulate
from typing import TYPE_CHECKING, Mapping

from .fields import read_int

if TYPE_CHECKING:
    from .units import UnitGroup

Word = tuple[tuple[int, int], ...]

DEFAULT_COSET_LIMIT = 20000


class CosetLimitExceeded(RuntimeError):
    """Raised when enumeration would define more cosets than the cap allows."""


# ---------------------------------------------------------------------------
# word algebra

def invert_word(w: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(w))


def free_reduce(w: Word) -> Word:
    out: list[tuple[int, int]] = []
    for g, e in w:
        if out and out[-1][0] == g:
            e += out.pop()[1]
        if e:
            out.append((g, e))
    return tuple(out)


def commutator_word(u: Word, v: Word) -> Word:
    return free_reduce(invert_word(u) + invert_word(v) + u + v)


def power_word(w: Word, n: int) -> Word:
    """w^n freely reduced, as u c^n u^-1 from w = u c u^-1 with c cyclically
    reduced: a conjugate of one run stays three runs whatever n is, and only
    a core c of two or more runs is written out |n| times.
    """
    core = list(free_reduce(w))
    u: list[tuple[int, int]] = []
    while len(core) > 1 and core[0][0] == core[-1][0]:
        (g, e), (_, f) = core[0], core.pop()
        u.append((g, -f))
        if e + f:
            core[0] = (g, e + f)  # g^e ... g^f = g^-f (g^(e+f) ...) g^f
        else:
            del core[0]
    if n < 0:
        core, n = list(invert_word(core)), -n
    if len(core) == 1:
        (g, e), = core
        power = ((g, e * n),)
    else:
        power = tuple(core) * n
    return free_reduce(tuple(u) + power + invert_word(u))


# ---------------------------------------------------------------------------
# presentation grammar
#
#   presentation := names '|' relators
#   relators     := item (',' item)*
#   item         := expr ('=' expr)?          -- R = S becomes R S^-1
#   expr         := factor ('*' factor)*
#   factor       := atom ('^' signed-int)?
#   atom         := name | '(' expr ')' | '[' expr (',' expr)+ ']'
#
# A name is a letter or '_', then letters, digits or '_' (str.isalpha and
# str.isalnum, so not only ASCII); an integer is an optional '-' and ASCII
# digits 0-9, at most 4,300.  Brackets nest left-normed: [a,b,c] = [[a,b],c].

_TOKEN = re.compile(r"(-?[0-9]+)|(\w+)|(\S)")


def _is_name(text: str) -> bool:
    return (text[:1].isalpha() or text[:1] == "_") and all(
        c.isalnum() or c == "_" for c in text)


def parse_presentation(text: str) -> "FpGroup":
    if "|" not in text:
        raise ValueError("presentation must look like 'gens | relators'")
    gen_part, rel_part = text.split("|", 1)
    names = [n.strip() for n in gen_part.split(",")]
    for name in names:
        if not _is_name(name):
            raise ValueError(f"bad generator name {name!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"bad generator list {gen_part!r}")
    tokens = []
    for m in _TOKEN.finditer(rel_part):
        integer, word, char = m.groups()
        if integer:
            tokens.append(("int", read_int(integer, "exponent")))
        elif word and _is_name(word):
            tokens.append(("name", word))
        elif char and char in "^*,()[]=|":
            tokens.append((char, char))
        elif char == "-":
            raise ValueError(f"stray '-' at position {m.start()} in {rel_part!r}")
        else:
            raise ValueError(f"unexpected character {m[0][0]!r} at position "
                             f"{m.start()} in {rel_part!r}")
    tokens.append(("end", None))
    pos = 0

    def peek():
        return tokens[pos][0]

    def take(kind=None):
        nonlocal pos
        t = tokens[pos]
        if kind is not None and t[0] != kind:
            raise ValueError(f"expected {kind!r}, found {t[0]!r}")
        pos += 1
        return t

    def expr() -> Word:
        w = factor()
        while peek() in ("*", "name", "(", "["):
            if peek() == "*":
                take()
            w = free_reduce(w + factor())
        return w

    def factor() -> Word:
        w = atom()
        if peek() == "^":
            take()
            w = power_word(w, take("int")[1])
        return w

    def atom() -> Word:
        kind = peek()
        if kind == "name":
            name = take()[1]
            if name not in names:
                raise ValueError(f"unknown generator {name!r}")
            return ((names.index(name) + 1, 1),)
        if kind == "(":
            take()
            w = expr()
            take(")")
            return w
        if kind == "[":
            take()
            args = [expr()]
            while peek() == ",":
                take()
                args.append(expr())
            take("]")
            if len(args) < 2:
                raise ValueError("commutator needs at least two arguments")
            w = args[0]
            for v in args[1:]:
                w = commutator_word(w, v)
            return w
        raise ValueError(f"unexpected token {kind!r} in word")

    relators = []
    while True:
        w = expr()
        if peek() == "=":
            take()
            w = free_reduce(w + invert_word(expr()))
        if w:
            relators.append(w)
        if peek() != ",":
            break
        take()
    take("end")
    return FpGroup(tuple(names), tuple(relators))


class FpGroup(namedtuple("FpGroup", "generator_names relators")):
    """A finite presentation: generator names and freely reduced relators."""

    __slots__ = ()

    def __new__(cls, generator_names: tuple[str, ...], relators: tuple[Word, ...]):
        n = len(generator_names)
        for rel in relators:
            if not all(isinstance(run, tuple) and len(run) == 2 for run in rel):
                raise ValueError(f"relator {rel} is not a tuple of runs (generator, exponent)")
            if rel != free_reduce(rel):
                raise ValueError(f"relator {rel} is not freely reduced")
            if any(not 0 < g <= n for g, _ in rel):
                raise ValueError(f"relator {rel} uses an unknown generator index")
        return super().__new__(cls, generator_names, relators)


# ---------------------------------------------------------------------------
# Todd-Coxeter

def relator_columns(pres: FpGroup) -> list[tuple[tuple[int, int], ...]]:
    """Each relator as runs (c, e) of coset table columns: column c, e times.

    Generator g is column 2(g-1) and its inverse is column 2(g-1)+1, so
    column c ^ 1 is the inverse of column c.  A run g^e of the relator is the
    run (c, |e|), so a power a^n is the one run (0, n) however large n is.
    """
    return [tuple((2 * g - 2 if e > 0 else 2 * g - 1, abs(e)) for g, e in r)
            for r in pres.relators]


def coset_table(pres: FpGroup, limit: int = DEFAULT_COSET_LIMIT):
    """HLT enumeration over the trivial subgroup: (columns, union-find array).

    columns[c][i] is the coset that coset i goes to under column c, or None.
    The union-find array has p[i] <= i, and coset i is live iff p[i] == i.
    The table is not checked; coset_enumeration does that.
    """
    ngens = len(pres.generator_names)
    columns: list[list[int | None]] = [[None] for _ in range(2 * ngens)]
    # records[g] is (cycle_of, pos).  cycle_of[x] is a cycle of generator g
    # through coset x, closed when it was recorded, as a list with
    # columns[2g][cycle[k]] == cycle[k + 1] (mod its length), or None;
    # pos[x] is the position of x on it.  Cosets on a cycle may have died
    # since; each stands for its root.
    records = tuple(([None], [0]) for _ in range(ngens))
    numbered = tuple(enumerate(columns))
    # (column c, column c ^ 1) for every c; the lists grow in place, so
    # these references to them stay valid
    pairs = tuple((column, columns[c ^ 1]) for c, column in numbered)
    p = [0]
    queue: list[int] = []

    def define(a: int, c: int, k: int = 1):
        """Define k new cosets as a chain a -> b -> ... along column c: the last."""
        b = len(p)
        n = b + k
        size = len(columns[0])
        if n > size:
            # the lists double, capped at limit, so only n > size can pass it
            if n > limit:
                raise CosetLimitExceeded(
                    f"coset cap {limit} exceeded; group is possibly infinite or the cap too low")
            grow = min(max(n, 2 * size), limit) - size
            for column in columns:
                column += [None] * grow
            for cycle_of, pos in records:
                cycle_of += [None] * grow
                pos += [0] * grow
        p.extend(range(b, n))
        column, inverse = columns[c], columns[c ^ 1]
        for x in range(b, n):
            column[a] = x
            inverse[x] = a
            a = x
        return a

    # Roots are found inline, each by two loops: find the root, then point
    # every coset on the path at it.
    def merge(a: int, b: int):
        ra = a
        while p[ra] != ra:
            ra = p[ra]
        while p[a] != ra:
            p[a], a = ra, p[a]
        rb = b
        while p[rb] != rb:
            rb = p[rb]
        while p[b] != rb:
            p[b], b = rb, p[b]
        if ra != rb:
            if ra > rb:
                ra, rb = rb, ra
            p[rb] = ra
            queue.append(rb)
            # ra stands for rb from now on, so rb's cycles serve ra
            for cycle_of, pos in records:
                if cycle_of[ra] is None and cycle_of[rb] is not None:
                    cycle_of[ra] = cycle_of[rb]
                    pos[ra] = pos[rb]

    def coincidence(a: int, b: int):
        merge(a, b)
        while queue:
            g = queue.pop()
            for column, inverse in pairs:
                d = column[g]
                if d is None:
                    continue
                inverse[d] = None
                mu = g
                while p[mu] != mu:
                    mu = p[mu]
                k = g  # g is read again for the next column
                while p[k] != mu:
                    p[k], k = mu, p[k]
                nu = d
                while p[nu] != nu:
                    nu = p[nu]
                while p[d] != nu:
                    p[d], d = nu, p[d]
                if column[mu] is not None:
                    merge(nu, column[mu])
                elif inverse[nu] is not None:
                    merge(mu, inverse[nu])
                else:
                    column[mu] = nu
                    inverse[nu] = mu

    def walk(f: int, run, n: int):
        """Follow a column up to n times from live coset f: (coset, steps left).

        run is (column, cycle_of, pos, sign): sign is -1 for an inverse
        column, which steps backward along its generator's records.  The walk
        stops early only at an undefined entry.  A coset on a recorded cycle
        jumps along it, to the root of the coset it lands on, found without
        path compression so that the union-find array stays as HLT leaves
        it.  A walk that comes back to f first records the cycle it closed.
        """
        column, cycle_of, pos, sign = run
        cycle = cycle_of[f]
        if cycle is None:
            x = f
            for k in range(n, 0, -1):
                y = column[x]
                if y is None:
                    return x, k
                if y == f:
                    break
                x = y
            else:
                return x, 0
            cycle = [f]
            x = column[f]
            while x != f:
                cycle.append(x)
                x = column[x]
            if sign < 0:
                cycle.reverse()
            for k, x in enumerate(cycle):
                cycle_of[x] = cycle
                pos[x] = k
        x = cycle[(pos[f] + sign * n) % len(cycle)]
        while p[x] != x:
            x = p[x]
        return x, 0

    def scan_and_fill(a: int, forward, backward):
        """HLT scan and fill of one relator at a, a run at a time.

        For run r = c^e of the relator, over letters start to end - 1,
        forward[r] is (column c, end, run, c) and backward[r] is (column
        c ^ 1, start, inverse run), with runs as walk takes them.  The letter
        positions i and j, in runs ri and rj, move exactly as in a
        letter-by-letter scan.
        """
        f, i, ri = a, 0, 0
        b, j, rj = a, forward[-1][1] - 1, len(forward) - 1
        while True:
            while i <= j:
                column, end, run, _ = forward[ri]
                x = column[f]
                if x is None:
                    break
                if end - i == 1:
                    f = x
                    i = end
                    ri += 1
                    continue
                n = (end if end <= j else j + 1) - i
                f, left = walk(f, run, n)
                i += n - left
                if left:
                    break
                if i == end:
                    ri += 1
            while j >= i:
                column, start, run = backward[rj]
                x = column[b]
                if x is None:
                    break
                if j == start:
                    b = x
                    j -= 1
                    rj -= 1
                    continue
                n = j + 1 - (start if start >= i else i)
                b, left = walk(b, run, n)
                j -= n - left
                if left:
                    break
                if j < start:
                    rj -= 1
            if j < i:
                coincidence(f, b)
                return
            column, end, _, c = forward[ri]
            if ri == rj:
                # Inside one run c^e each new coset has only its c^-1 entry,
                # and c != c^-1, so neither scan moves until the gap is
                # filled: define it as one chain, then deduce the last entry.
                if j > i:
                    f = define(f, c, j - i)
                column[f] = b
                backward[ri][0][b] = f
                return
            # The new coset has no entry for the next letter, which is not
            # the inverse of this one in a freely reduced word, so the
            # forward scan takes this one step and stops.
            f = define(f, c)
            i += 1
            if i == end:
                ri += 1

    # The lists grow in place, so these references to them stay valid.
    def run_of(c: int):
        return (columns[c], *records[c >> 1], -1 if c & 1 else 1)

    relators = []
    for runs in relator_columns(pres):
        if runs:
            ends = list(accumulate(e for _, e in runs))
            # the whole-relator walk steps through a run c^1 and walks c^e
            steps = tuple((columns[c], None, None, e) if e == 1
                          else (columns[c], records[c >> 1][0], run_of(c), e)
                          for c, e in runs)
            forward = tuple((columns[c], end, run_of(c), c)
                            for (c, _), end in zip(runs, ends))
            backward = tuple((columns[c ^ 1], end - e, run_of(c ^ 1))
                             for (c, e), end in zip(runs, ends))
            relators.append((steps, forward, backward))
    a = 0
    while a < len(p):
        if p[a] != a:
            a += 1
            continue
        for steps, forward, backward in relators:
            # Whole-relator walk first.  When every entry is defined, this is
            # the complete HLT scan; otherwise scan and fill from a afresh,
            # which costs less than resuming mid-word.
            f = a
            for column, cycle_of, run, e in steps:
                if run is None:
                    f = column[f]
                    if f is None:
                        break
                    continue
                # Whole turns of a recorded cycle through live f land on f
                # or on a dead coset whose root is f.
                cycle = cycle_of[f]
                if cycle is not None and not e % len(cycle):
                    continue
                f, left = walk(f, run, e)
                if left:
                    f = None
                    break
            if f is None:
                scan_and_fill(a, forward, backward)
            elif f != a:
                coincidence(f, a)
            else:
                continue  # the walk came back to a and changed nothing
            if p[a] != a:
                break
        else:
            for c, column in numbered:
                if column[a] is None:
                    define(a, c)
        a += 1
    for column in columns:
        del column[len(p):]
    return columns, p


def check_coset_table(columns, p: list[int], relators) -> list[int]:
    """The live cosets of a finished table, once the table is shown closed.

    relators are runs as relator_columns gives them.  First, for every
    generator column and every live coset i, column[i] must be defined and
    live, and the inverse column must take it back to i.  Then the column is
    injective on the finite live set (i = inverse[column[i]]) and maps it
    into itself, so it permutes it, and the inverse column is its inverse
    there: the same test on the inverse columns could not fail, so it is not
    made.  Then each relator, applied to all live cosets at once one run c^e
    at a time, must fix every live coset.  A run with e > 1 maps each coset
    to its e-th image along the cycles of column c, which the first check
    makes well defined; the cycles are rebuilt here from the table, never
    taken from the enumeration.
    """
    live = [i for i in range(len(p)) if p[i] == i]
    for column, inverse in zip(columns[::2], columns[1::2]):
        for i in live:
            d = column[i]
            if d is None or p[d] != d or inverse[d] != i:
                raise RuntimeError("coset table inconsistent after enumeration")
    for runs in relators:
        images = live
        for c, e in runs:
            column = columns[c]
            if e > 1:
                column = _column_power(column, live, e)
            images = [column[i] for i in images]
        if images != live:
            raise RuntimeError("relator fails to close on the finished table")
    return live


def _column_power(column, live: list[int], e: int) -> list[int | None]:
    """column^e on the live cosets, from its cycles; column must permute them."""
    power: list[int | None] = [None] * len(column)
    for start in live:
        if power[start] is not None:
            continue
        cycle = [start]
        i = column[start]
        while i != start:
            cycle.append(i)
            i = column[i]
        k = e % len(cycle)
        for i, j in zip(cycle, cycle[k:] + cycle[:k]):
            power[i] = j
    return power


def coset_enumeration(pres: FpGroup, limit: int = DEFAULT_COSET_LIMIT) -> int:
    """Order of the presented group via HLT enumeration over the trivial subgroup."""
    columns, p = coset_table(pres, limit)
    return len(check_coset_table(columns, p, relator_columns(pres)))


# ---------------------------------------------------------------------------
# certificates

class Certificate(namedtuple("Certificate", "presentation order")):
    """A successful three-step check identifying U with the presented group."""

    __slots__ = ()


class Refutation(namedtuple("Refutation", "failed_step detail")):
    """A failed certification attempt, recording which step broke
    (failed_step 1 relators, 2 generation, 3 presented order)."""

    __slots__ = ()

    def summary(self) -> str:
        return f"refuted at step {self.failed_step}: {self.detail}"


def certify_unit_group_presentation(unit_group: UnitGroup,
                                    pres: FpGroup,
                                    gens: Mapping[str, object],
                                    limit: int = DEFAULT_COSET_LIMIT):
    """Von Dyck certificate that unit_group is presented by pres via gens.

    Step 1: every relator evaluates to 1 on the named unit generators, so the
    assignment extends to a homomorphism from the presented group.  Step 2:
    the generators generate all of U, so it is onto.  Step 3: the presented
    group's order equals |U|, so it is an isomorphism.
    """
    try:
        images = [gens[name] for name in pres.generator_names]
    except KeyError as e:
        raise ValueError(f"missing generator image for {e.args[0]!r}") from None
    inverses = []
    for name, g in zip(pres.generator_names, images):
        inv = g.try_inverse()
        if inv is None:
            raise ValueError(f"generator {name} is not a unit")
        inverses.append(inv)
    one = unit_group.algebra.one()
    for idx, rel in enumerate(pres.relators):
        value = one
        for g, e in rel:
            value = value * (images[g - 1] if e > 0 else inverses[g - 1]) ** abs(e)
        if value != one:
            return Refutation(1, f"relator #{idx + 1} does not evaluate to 1 on the generators")
    span = unit_group.closure(images)
    if span != unit_group.order:
        return Refutation(2, f"generators span {span} of {unit_group.order} units")
    try:
        order = coset_enumeration(pres, limit)
    except CosetLimitExceeded as e:
        return Refutation(3, str(e))
    if order != unit_group.order:
        return Refutation(3, f"presented group has order {order}, |U| = {unit_group.order}")
    return Certificate(pres, order)


def certify_from_source(unit_group: UnitGroup, source: str, gens: Mapping[str, object]):
    """Certify a presentation source string: a Certificate, or the
    Refutation that names the failed step."""
    return certify_unit_group_presentation(unit_group, parse_presentation(source), gens)
