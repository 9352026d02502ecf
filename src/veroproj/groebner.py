"""Binomial Buchberger engine over the presentation ring of a monomial set.

The toric ideal of a monomial projection lives in a polynomial ring S
with one variable w_i per member of the defining MonomialSet.  Because
the ideal is prime and generated by binomials, the whole Groebner
machinery stays inside multiset arithmetic: S-monomials are exponent
vectors of length mu, S-polynomials of binomials are binomials, and
reduction never produces a coefficient other than +-1.  This module
provides the binomial types, the term orders (including the (r,c)-Lex
order for one-dimensional weight patterns (0,1,k) and the composite
orders used to lift a basis through a variable split), Buchberger, which
reduces each lcm degree's S-pairs against one basis before inserting, the
quadratic basis an order induces read off the degree-2 fibers and decided
by one count of standard degree-3 multisets, and a deterministic search
for orders that make the reduced basis quadratic.  A candidate is scored
by that count alone, over the set bits of per-variable masks;
`toric_basis`, the one route to a reduced basis, builds the quadratic one
only for an order that passes.

Buchberger's reducer (`_Reducer`) files every lead, whatever its
degree, under its two least support variables, so a lookup probes only
the variable pairs of the monomial it reduces that hold a lead.  It
reduces each monomial once per basis, caching where it ends, decodes
only codes no input side gave, and decodes or keys each code once.  A
walk that returns to a monomial it passed raises.
New S-pairs come from the Gebauer-Moeller update: a new element's
partners are read off an index of leads by variable, and a pair whose
lcm a kept pair's lcm divides is dropped.  A kept pair whose trails
share a variable is skipped too, as its S-binomial is that variable
times a lower-degree element of the prime ideal (see `buchberger`, whose
`whole_ideal` flag turns this off for seeds that may generate a smaller
ideal).  The minimal leads form a Groebner basis, and each fiber of a
toric ideal has one standard monomial, which reducing a kept trail once
by them reaches.

Conventions: an S-monomial is a tuple of mu non-negative ints;
multiplication is componentwise addition, and divisibility is
componentwise <=.  Inside Buchberger it is also a code, sum(e_t << 9t):
each exponent has a 9-bit lane whose bit 8, its guard bit, no exponent
below CODE_DEGREE_BOUND reaches.  Multiplying is adding codes, and one
subtraction compares every lane at once (SWAR; Lamport, CACM 18(8),
1975): each lane of (m | guards) - L keeps its guard bit exactly where
m's exponent is at least L's, which tests divisibility and picks the
lanes of an lcm.  Every order here is a matrix order; it compiles to one
int weight per variable, and `key` is the weighted sum of the
exponents, so orders compare plain ints.
"""

from __future__ import annotations

import itertools
import logging
import math
import random
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import repeat
from operator import and_, mul, rshift
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DEFAULT_GUARD, GuardExceeded, SpecParseError
from .fibers import GeneratorTable, minimal_generator_table
from .groups import SurfaceCertificate, cyclic_group, invariants_of_degree, surface_certificate
from .monomials import MonomialSet, enumerate_degree

ORDER_KINDS = ("lex", "deglex", "degrevlex", "revlex")
logger = logging.getLogger("veroproj")

# Order weights pack the order's matrix rows in radix 2**KEY_RADIX_BITS.
# Every row takes values of absolute value at most the degree of the
# monomial, so keys compare exactly for degrees below KEY_DEGREE_BOUND.
KEY_RADIX_BITS = 32
KEY_DEGREE_BOUND = 1 << (KEY_RADIX_BITS - 1)
# Buchberger's codes give each exponent a 9-bit lane whose bit 8 is a guard bit,
# which no exponent reaches below degree 256.
CODE_DEGREE_BOUND = 1 << 8


# ---------------------------------------------------------------------------
# binomials


@dataclass(frozen=True)
class Binomial:
    """A difference of two S-monomials, stored as exponent vectors.

    `plus` and `minus` play symmetric roles until an order orients the
    binomial, as Buchberger's elements are, with `plus` the leading side.
    Nothing is checked on construction: `toric_generators` and
    `quadratic_basis` build them from two disjoint multisets of one
    fiber, and `buchberger` from the elements it checks.
    """

    plus: tuple[int, ...]
    minus: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.plus)

    def to_json_dict(self) -> dict:
        return {"plus": list(self.plus), "minus": list(self.minus), "lead": "plus"}


# ---------------------------------------------------------------------------
# term orders


@dataclass(frozen=True)
class TermOrder:
    """A monomial order on S given by a kind, a variable ranking and a lead.

    variable_rank[r] is the index of the variable of rank r, with rank 0
    the greatest.  `revlex` is accepted as an alias of the graded form:
    all comparisons made here are between monomials of equal degree
    (toric binomials are homogeneous), where the two agree, and the
    graded form is a genuine term order.

    `lead`, when given, is one non-negative packed column per variable
    of rows that come before the kind's rows: a lift compares merge
    images by its base order this way (see `lift_order`).  The rows are
    the degree row and/or a signed permutation matrix under the lead
    rows, so the matrix has full rank and every packed column is
    positive: each TermOrder is a term order by construction.
    """

    kind: str
    variable_rank: tuple[int, ...]
    origin: str | None = field(default=None, compare=False)
    lead: tuple[int, ...] = ()

    def __post_init__(self):
        kind = self.kind.lower()
        if kind not in ORDER_KINDS:
            raise ValueError(f"unknown order kind {self.kind!r}; expected one of {ORDER_KINDS}")
        object.__setattr__(self, "kind", kind)
        ranks = tuple(int(r) for r in self.variable_rank)
        if sorted(ranks) != list(range(len(ranks))):
            raise ValueError(f"variable_rank must be a permutation of 0..{len(ranks) - 1}")
        object.__setattr__(self, "variable_rank", ranks)
        lead = tuple(int(c) for c in self.lead)
        if lead and (len(lead) != len(ranks) or min(lead) < 0):
            raise ValueError(f"lead must be {len(ranks)} non-negative columns, got {lead}")
        object.__setattr__(self, "lead", lead)

    @property
    def mu(self) -> int:
        return len(self.variable_rank)

    def position_of(self, var: int) -> int:
        """Rank of a variable (0 = greatest)."""
        return self.variable_rank.index(var)

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """One packed column of the order matrix per variable.

        lex has the rank rows; deglex the degree row, then the rank
        rows; degrevlex / revlex the degree row, then the negated
        reversed rank rows (higher degree wins, ties broken by the
        smallest exponent on the least variable).  A lead column sits
        above all of these rows.
        """
        mu = self.mu
        degree_row = 1 << (KEY_RADIX_BITS * mu)
        weights = [0] * mu
        for r, var in enumerate(self.variable_rank):
            rank_row = 1 << (KEY_RADIX_BITS * (mu - 1 - r))
            if self.kind == "lex":
                weights[var] = rank_row
            elif self.kind == "deglex":
                weights[var] = degree_row + rank_row
            else:
                weights[var] = degree_row - (1 << (KEY_RADIX_BITS * r))
        for var, column in enumerate(self.lead):
            weights[var] += column << (KEY_RADIX_BITS * (mu + 1))
        return tuple(weights)

    def key(self, vec: Sequence[int]) -> int:
        """The weighted sum of a monomial's exponents: its packed order rows."""
        degree = sum(vec)
        if degree >= KEY_DEGREE_BOUND:
            raise ValueError(
                f"monomial of degree {degree} is at or past the order key's exact "
                f"degree bound {KEY_DEGREE_BOUND}"
            )
        return sum(map(mul, vec, self.weights))

    def spec_string(self) -> str:
        if self.origin is not None:
            return self.origin
        chain = " > ".join(f"w{i}" for i in self.variable_rank)
        return f"{self.kind} : {chain}"


# ---------------------------------------------------------------------------
# the (r,c)-Lex order for weight patterns (0,1,k)


def _rc_order(omega: MonomialSet, cert: SurfaceCertificate) -> TermOrder:
    """The (r,c)-Lex order an rc certificate puts on its group's B_1.

    With the certificate's coordinates (a, b, c) of the (0,1,k) pattern,
    each member satisfies b + k*c == r*d for one r with 0 <= r <= k;
    variables rank by the pair (r, c), the largest pair greatest, and
    compare by lex.
    """
    _, b, c = cert.roles
    k, t = cert.k, cert.t
    d = t * k * (k - 1)
    pairs = [((m[b] + k * m[c]) // d, m[c]) for m in omega]
    ranks = tuple(sorted(range(len(omega)), key=pairs.__getitem__, reverse=True))
    return TermOrder("lex", ranks, origin=f"rc({d},{k},{t})")


# ---------------------------------------------------------------------------
# generators


def toric_generators(
    omega: MonomialSet,
    k_max: int | None = None,
    guard: int = DEFAULT_GUARD,
) -> list[Binomial]:
    """Markov-style binomial generators of the toric ideal of omega.

    One binomial per excess fiber component, straight from the minimal
    generator table.  Without a certified completeness bound (2-normal
    or group-tagged omega, or an explicit k_max) the seed would be
    silently partial, so that case is an error instead.
    """
    table = minimal_generator_table(omega, k_max=k_max, guard=guard)
    return _binomials(table.representatives, len(omega))


def _binomials(pairs: dict, mu: int) -> list[Binomial]:
    """One binomial per (lhs, rhs) index multiset pair, the pairs listed by degree."""
    gens = []
    for degree in sorted(pairs):
        for lhs, rhs in pairs[degree]:
            # multisets of two components of one fiber: balanced, and disjoint
            # unless the table is wrong
            if not set(lhs).isdisjoint(rhs):
                raise AssertionError(
                    f"degree-{degree} fiber representatives {lhs} and {rhs} share a factor"
                )
            plus, minus = [0] * mu, [0] * mu
            for i in lhs:
                plus[i] += 1
            for i in rhs:
                minus[i] += 1
            gens.append(Binomial(tuple(plus), tuple(minus)))
    return gens


# ---------------------------------------------------------------------------
# Buchberger


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis of oriented binomials.

    Elements are stored with `plus` the leading side under `order`.
    Reduced means: no leading monomial divides any monomial of another
    element, and every element is gcd-free (automatic for prime toric
    ideals, checked anyway).
    """

    elements: tuple[Binomial, ...]
    order: TermOrder
    max_degree: int

    @property
    def is_quadratic(self) -> bool:
        return self.max_degree <= 2

    def to_json_dict(self) -> dict:
        return {
            "order": self.order.spec_string(),
            "max_degree": self.max_degree,
            "elements": [g.to_json_dict() for g in self.elements],
        }


class _Reducer:
    """Oriented binomials with one lead index for every lead degree.

    Keeps each element's lead code, its mask (the guard bits of its
    nonzero lanes) and its code step code(trail) - code(lead), which
    reducing a side by it adds to the side's code; `add` takes the two
    codes.  All lane arithmetic is sized to mu: `ones` has one bit at the
    bottom of every lane and `guard` bit 8 of every lane.  One index
    serves leads of every degree: a lead is filed under the guard bits of
    its two least support variables (i, j), a pure power w_i^e under
    (i, i), and `partners[i]` holds the guard bits of every j with a
    bucket (i, j), so `find` probes only buckets whose key divides the
    monomial and that are not empty.  `terminals` maps the code of each
    monomial reduced since the last `add` to the code of the monomial it
    reduces to.  `vectors` and `keys` memoize `vector` and `key_of` for
    good, a code naming one monomial; `encode` seeds the inputs' sides.
    """

    def __init__(self, order: TermOrder, elements: Iterable[tuple[int, int]] = ()):
        self.weights, self.mu = order.weights, order.mu
        self.ones = ((1 << 9 * order.mu) - 1) // 511
        self.guard = self.ones << 8
        self.codes: list[int] = []
        self.masks: list[int] = []
        self.steps: list[int] = []
        self.partners: dict[int, int] = {}
        self.index: dict[int, list[tuple[int, int]]] = {}  # keyed by the two guard bits, or one
        self.terminals: dict[int, int] = {}
        self.vectors: dict[int, tuple[int, ...]] = {}
        self.keys: dict[int, int] = {}
        self.lookups = self.hits = self.reductions = self.zeros = 0  # logged by buchberger
        for lead, trail in elements:
            self.add(lead, trail)

    def add(self, code: int, trail: int) -> None:
        mask = self.nonzero(code)
        i = mask & -mask
        j = (mask ^ i) & -(mask ^ i) or i
        self.partners[i] = self.partners.get(i, 0) | j
        self.index.setdefault(i | j, []).append((len(self.codes), code))
        self.codes.append(code)
        self.masks.append(mask)
        self.steps.append(trail - code)
        self.terminals.clear()

    def nonzero(self, code: int) -> int:
        """The guard bits of a code's nonzero lanes: adding 255 to a lane
        carries into its guard bit exactly when its exponent is >= 1."""
        return (code + self.guard - self.ones) & self.guard

    def find(self, code: int) -> int | None:
        """Index of an element whose lead divides the monomial `code`, or None.

        Probes the (i, i) and (i, j) buckets of the monomial's own support,
        i ascending and j ascending after each (i, i), and each bucket in
        insertion order, so reduction is deterministic.  A lead L divides m
        when every lane of (m | guard) - L keeps its guard bit.
        """
        guard, partners, index = self.guard, self.partners, self.index
        high = code | guard
        todo = self.nonzero(code)
        squares = (code + guard - 2 * self.ones) & guard  # adding 254 carries when e >= 2
        while todo:
            i = todo & -todo
            todo ^= i
            js = partners.get(i, 0) & (todo | (i & squares))
            while js:
                j = js & -js
                js ^= j
                for idx, lead in index[i | j]:
                    if (high - lead) & guard == guard:
                        return idx
        return None

    def lcm(self, a: int, b: int) -> int:
        """The lanewise max of two codes: a's lanes where a >= b, b's elsewhere."""
        keep = ((((a | self.guard) - b) & self.guard) >> 8) * 511
        return (a & keep) | (b & ~keep)

    def encode(self, vec: tuple[int, ...]) -> int:
        code = _code(vec)
        self.vectors[code] = vec
        return code

    def vector(self, code: int) -> tuple[int, ...]:
        if (vec := self.vectors.get(code)) is None:
            vec = self.vectors[code] = _decode(code, self.mu)
        return vec

    def key_of(self, code: int) -> int:
        """`TermOrder.key` summed over the code's nonzero lanes alone.  No KEY_DEGREE_BOUND
        check is needed: codes stay below degree 2**8, far under 2**31."""
        if (k := self.keys.get(code)) is None:
            k, weights, mask = 0, self.weights, self.nonzero(code)
            while mask:
                low = mask.bit_length() - 9  # the bottom bit of the top nonzero lane
                k += (code >> low & 511) * weights[low // 9]
                mask ^= 1 << low + 8
            self.keys[code] = k
        return k

    def reduce(self, code: int) -> int:
        """Code of the monomial `code` reduces to: add code steps while `find`
        has a divisor.  The walk is deterministic, so all of it is cached.
        A walk descends the order and never returns to a monomial; one that
        does (an element oriented against the order) raises.  The walk is
        checked for a return when its length reaches 16, 32, 64, ..., so a
        cycle is found within twice its tail plus its length, and a walk
        shorter than 16 steps pays one length test per step."""
        terminals, path = self.terminals, []
        self.lookups += 1
        if (terminal := terminals.get(code)) is not None:
            self.hits += 1
            return terminal
        lap = 16
        while True:
            path.append(code)
            if (hit := self.find(code)) is None:
                terminal = code
                break
            code += self.steps[hit]
            self.reductions += 1
            if (terminal := terminals.get(code)) is not None:
                break
            if len(path) == lap:
                if code in path:
                    raise AssertionError(
                        f"reduction walk returns to {self.vector(code)}: an element is not "
                        "oriented by the order"
                    )
                lap *= 2
        terminals.update(dict.fromkeys(path, terminal))
        return terminal

    def normal_form(self, u: int, v: int) -> tuple[int, int] | None:
        """Fully reduce the binomial of two codes; None when it reduces to zero.

        A side reaches its terminal whichever side moves first, so this
        is zero when the terminals agree and is their codes, lead first,
        if not."""
        u, v = self.reduce(u), self.reduce(v)
        if u == v:
            self.zeros += 1
            return None
        return (u, v) if self.key_of(u) > self.key_of(v) else (v, u)

    def s_pair(self, i: int, j: int) -> tuple[int, int]:
        """Codes of the S-binomial's sides: lcm(L_i, L_j) plus each code step."""
        lcm = self.lcm(self.codes[i], self.codes[j])
        return lcm + self.steps[i], lcm + self.steps[j]


def _check_code_degree(degree: int) -> None:
    if degree >= CODE_DEGREE_BOUND:
        raise ValueError(f"degree {degree} is at or past the code degree bound {CODE_DEGREE_BOUND}")


def _code(vec: Sequence[int]) -> int:
    """The code sum(e_t << 9t) of a monomial: one 9-bit lane per exponent,
    whose bit 8 no exponent below CODE_DEGREE_BOUND reaches.  Packed one
    exponent per byte, each nonzero byte t moves up t bits, to bit 9t."""
    _check_code_degree(sum(vec))
    packed, code = int.from_bytes(bytes(vec), "little"), 0
    while packed:
        byte = packed & 255 << ((packed & -packed).bit_length() - 1 & ~7)  # the lowest nonzero one
        code |= byte << (byte.bit_length() - 1 >> 3)
        packed ^= byte
    return code


def _decode(code: int, mu: int) -> tuple[int, ...]:
    """The exponent vector of a code."""
    return tuple(map(and_, map(rshift, repeat(code), range(0, 9 * mu, 9)), repeat(511)))


def buchberger(
    gens: Sequence[Binomial], order: TermOrder, *, whole_ideal: bool = True
) -> GroebnerBasis:
    """Reduced Groebner basis of the toric ideal that gens generate.

    gens must generate the whole toric ideal of their monomial set, as
    `toric_generators` output does.  The gcd strip and the single final
    reduction of each trail rely on that; on other inputs the result need
    not be a basis of the ideal gens generate, and the final gcd-free
    check raises where it sees so.  `whole_ideal=True` (the default)
    also lets the trail criterion below rely on it; pass False for a seed
    that may generate a smaller ideal, such as a table bounded by a user's
    k_max, to turn that criterion off.  The gcd strip stays either way.

    Normal selection strategy, one lcm degree D at a time, least first:
    D's pairs are reduced in formation order against the basis as it was
    when D began, so the reduction cache serves them all; each nonzero
    form is then reduced against the growing basis and inserted if still
    nonzero.  A pair that reduces to zero against part of the final basis
    has a standard representation by all of it.  An insert's pairs join
    their degree's queue, below D only on a partial seed, where a strip
    can lower a degree; there the result's ideal can depend on when each
    element is inserted.  A new element is
    paired only with the earlier leads it shares a variable with (coprime
    pairs reduce to zero), and the Gebauer-Moeller M and F criteria drop
    each of those pairs whose lcm a kept pair's lcm divides; the B
    criterion on pending pairs is not applied.  A kept pair whose trails
    (gcd-stripped non-lead sides) share a variable w_t is then skipped as
    well, unless whole_ideal is False: both sides of its S-binomial S, of
    lcm degree D, hold w_t, so S = w_t * S'.  The toric ideal I is prime
    and w_t is not in I, so S' lies in I, with degree D - 1.  Every input
    is in the basis before the first pair, so by induction on the lcm
    degree S' has a standard representation, and w_t times it is one for
    S with every term below the lcm, so the skipped pair also stays valid
    as the M/F witness it was made before the skip.  New basis elements
    are gcd-stripped before insertion; this is sound for prime toric
    ideals because the stripped binomial still lies in the ideal and
    generates the original one.  The minimal leads then form a Groebner
    basis, and a toric ideal has one standard monomial per fiber, so
    reducing each kept trail once by them gives the reduced basis.  Sides
    must stay below CODE_DEGREE_BOUND; counters are logged at debug level.
    The loops work on codes in locals, with the `_Reducer` lane arithmetic
    written out.
    """
    basis = _Reducer(order)
    codes, steps, masks, terminals = basis.codes, basis.steps, basis.masks, basis.terminals
    guard, low = basis.guard, basis.guard - basis.ones  # adding low carries when e >= 1
    queues: dict[int, list[tuple[int, int]]] = {}  # pending pairs (i, j), FIFO per lcm degree
    by_var: dict[int, list[int]] = {}  # elements whose lead has w_t, by t's guard bit
    trails: list[int] = []  # the guard bits of each element's trail support, 0 if not whole_ideal
    formed = coprime = by_m = by_f = by_trail = 0

    def insert(lead: int, trail: int) -> None:
        """Add a nonzero normal form, gcd-stripped, and form its pairs."""
        nonlocal formed, coprime, by_m, by_f, by_trail
        # strip the gcd lead + trail - lcm, the lanewise min; that keeps the orientation
        keep = ((((lead | guard) - trail) & guard) >> 8) * 511  # the lanes where lead >= trail
        common = (trail & keep) | (lead & ~keep)
        basis.add(lead - common, trail - common)
        new = len(codes) - 1
        tnew = (trail - common + low) & guard if whole_ideal else 0
        trails.append(tnew)
        Lnew, mask = codes[new], masks[new]  # mask: the guard bits of L_new's support
        dnew = Lnew % 511
        variables = []
        while mask:
            variables.append(mask & -mask)
            mask ^= variables[-1]
        candidates = set().union(*(by_var.get(t, ()) for t in variables))
        coprime += new - len(candidates)
        # q_i = lcm(L_i, L_new) - L_new is the code of L_i / gcd(L_i, L_new), the
        # lanes of L_i - L_new where L_i >= L_new; a code's degree is its value
        # mod 511 (512 = 1 mod 511), and deg q_i >= 1 as no earlier lead divides
        # the irreducible L_new.  Gebauer-Moeller, by ascending (deg q_i, i): drop
        # (i, new) when the lcm of a kept pair (j, new) divides its lcm, i.e.
        # q_j | q_i: M when strictly, F when equal; a witness is the degree of
        # q_j, so it is equal exactly when dq matches.  Only a linear q_j divides
        # a linear q_i, so those are settled by i at once; the rest are sorted.
        linear = 0  # the guard bits of the variables of kept degree-1 quotients
        quotients = []  # (deg q_i, i, q_i) for deg q_i >= 2
        for i in sorted(candidates):
            diff = (codes[i] | guard) - Lnew
            high = diff & guard  # the guard bits of the lanes where L_i >= L_new
            q = (diff & (high >> 8) * 511) - high
            if (dq := q % 511) > 1:
                quotients.append((dq, i, q))
            elif linear & q << 8:
                by_f += 1
            else:
                linear |= q << 8
                if trails[i] & tnew:
                    by_trail += 1
                else:
                    queues.setdefault(dnew + 1, []).append((i, new))
                    formed += 1
        kept: list[tuple[int, int]] = []  # kept quotients of degree >= 2, ascending
        for dq, i, q in sorted(quotients):
            if linear & (q + low):
                witness = 1
            elif kept:
                high = q | guard
                witness = next((dj for dj, qj in kept if (high - qj) & guard == guard), 0)
            else:
                witness = 0
            if witness == dq:
                by_f += 1
            elif witness:
                by_m += 1
            else:
                kept.append((dq, q))
                if trails[i] & tnew:  # a kept witness, but its S-binomial is w_t times a lower one
                    by_trail += 1
                else:
                    queues.setdefault(dnew + dq, []).append((i, new))
                    formed += 1
        for t in variables:
            by_var.setdefault(t, []).append(new)

    inputs = [(basis.encode(g.plus), basis.encode(g.minus)) for g in gens]
    for u, v in inputs:
        if (nf := basis.normal_form(u, v)) is not None:
            insert(*nf)
    cached = 0  # pairs whose two sides hit one cached terminal
    while queues:
        degree = min(queues)
        _check_code_degree(degree)
        forms = []  # the degree's nonzero normal forms against the frozen basis
        for i, j in queues.pop(degree):
            Li, Lj = codes[i], codes[j]
            keep = ((((Li | guard) - Lj) & guard) >> 8) * 511
            lcm = (Li & keep) | (Lj & ~keep)
            u, v = lcm + steps[i], lcm + steps[j]
            t = terminals.get(u)
            if t is not None and t == terminals.get(v):
                cached += 1
                continue
            if (nf := basis.normal_form(u, v)) is not None:
                forms.append(nf)
        for u, v in forms:  # against the growing basis, as one pair at a time would be
            if (nf := basis.normal_form(u, v)) is not None:
                insert(*nf)
    basis.lookups += 2 * cached
    basis.hits += 2 * cached
    basis.zeros += cached
    logger.debug(
        "buchberger: %d inputs, %d inserted, %d pairs formed, %d skipped as coprime, "
        "%d pruned by M, %d pruned by F, %d skipped as their trails share a variable, "
        "%d reduced to zero, %d of %d cache lookups hit, %d reduction steps",
        len(gens), len(codes), formed, coprime, by_m, by_f, by_trail,
        basis.zeros, basis.hits, basis.lookups, basis.reductions,
    )

    # the inserted elements by lead key, keeping the minimal leads
    minimal = _Reducer(order)
    for _, code, step in sorted(zip(map(basis.key_of, codes), codes, steps)):
        if minimal.find(code) is None:
            minimal.add(code, code + step)
    rows = []
    for code, step, mask in zip(minimal.codes, minimal.steps, minimal.masks):
        trail = minimal.reduce(code + step)
        L, T = basis.vector(code), basis.vector(trail)
        if mask & minimal.nonzero(trail):
            raise AssertionError(
                f"reduced element {L} - {T} is not gcd-free: the inputs do not generate "
                "the whole toric ideal of their monomial set"
            )
        if not basis.key_of(code) > basis.key_of(trail):
            raise AssertionError(f"reduced element {L} - {T} is not oriented by the order")
        rows.append((code % 511, L, T))
    rows.sort()
    elements = tuple(Binomial(L, T) for _, L, T in rows)
    gb = GroebnerBasis(elements, order, rows[-1][0] if rows else 0)

    for u, v in inputs:
        if minimal.normal_form(u, v) is not None:
            raise AssertionError("input generator does not reduce to zero against the basis")
    return gb


def verify_groebner(gb: GroebnerBasis, gens: Sequence[Binomial] | None = None) -> bool:
    """Full Buchberger-criterion check of a claimed basis.

    Every S-binomial of leads that share a variable must reduce to zero
    (coprime ones do, by Buchberger's first criterion), as must every
    supplied generator.  Tests and the `quartic-group-quadratic-gb`
    scenario's `verified` field rest on it.
    """
    basis = _Reducer(gb.order, ((_code(g.plus), _code(g.minus)) for g in gb.elements))
    for a, b in itertools.combinations(range(len(gb.elements)), 2):
        if not basis.masks[a] & basis.masks[b]:
            continue
        # each lead is below the bound, so the lcm's degree is below 511
        _check_code_degree(basis.lcm(basis.codes[a], basis.codes[b]) % 511)
        if basis.normal_form(*basis.s_pair(a, b)) is not None:
            return False
    return all(basis.normal_form(_code(g.plus), _code(g.minus)) is None for g in gens or ())


# ---------------------------------------------------------------------------
# quadratic bases read off the degree-2 and degree-3 fibers


def _standard_count(weights: tuple[int, ...], table: GeneratorTable) -> int:
    """The number of degree-3 multisets with no lead among their sub-pairs
    under the leads an order of these `weights` puts on the degree-2 fibers.

    Each fiber's least pair is picked by comparing weight sums, the first
    of equal sums kept as `min` keeps it (a term order has no ties); the
    others are leads, cleared from the `free` masks.  Only the set bits of
    each mask are walked.  Raises if the count falls below C3.
    """
    mu = len(weights)
    free = [(1 << mu) - 1] * mu  # free[i]: the j with (i, j) not a lead
    for fiber in table.quadrics:
        it = iter(fiber)
        a0, b0 = next(it)
        low = weights[a0] + weights[b0]
        for a, b in it:
            if (w := weights[a] + weights[b]) < low:
                a, b, a0, b0, low = a0, b0, a, b, w
            free[a] &= ~(1 << b)
            free[b] &= ~(1 << a)
    # (a, b, c) with a <= b <= c is standard when b is in free[a] and c in both
    standard = 0
    for a, fa in enumerate(free):
        bits = fa >> a
        while bits:
            bit = bits & -bits
            b = a + bit.bit_length() - 1
            standard += ((fa & free[b]) >> b).bit_count()
            bits ^= bit
    if standard < table.cubics:  # every component has a standard multiset
        raise AssertionError(f"{standard} standard multisets for {table.cubics} components")
    return standard


def quadratic_basis(order: TermOrder, table: GeneratorTable) -> GroebnerBasis | None:
    """The reduced basis of the ideal the degree-2 fibers generate, if quadratic.

    A toric ideal has one standard monomial per fiber, so the only
    candidate is G = { m - min(F) : F a degree-2 fiber, m in F, m !=
    min(F) }, gcd-free as multisets of one degree-2 fiber share no index.
    Leads that share a variable have a degree-3 lcm and coprime ones need
    no S-pair, so G is a Groebner basis exactly when every degree-3 fiber
    component (a class of that ideal) has one multiset with no lead among
    its three sub-pairs.  Each has at least one, its least multiset: a
    lead sub-pair (a, b) of (a, b, c) with trail (a', b') would make
    (a', b', c) smaller, in the same fiber and sharing c.  So G is a basis
    exactly when C3 = `table.cubics` multisets, one per component with
    singletons counted, are standard (Sturmfels, Groebner Bases and Convex
    Polytopes, ch. 4, counted instead of walked).  Returns G, built only
    for an order that passes, or None; raises ValueError for a table
    verified below degree 3, which has no C3.  G's elements come sorted
    as `buchberger` sorts them, by ascending lead: leads never repeat,
    and w_a w_b has the greater exponent vector exactly when (a, b) is
    the lesser index pair, so the (lead, trail) pairs sort descending.
    """
    if table.cubics is None:
        raise ValueError(
            f"quadratic_basis needs a table verified to degree 3, got {table.verified_up_to}"
        )
    if _standard_count(order.weights, table) != table.cubics:
        return None
    weights, pairs = order.weights, []
    for fiber in table.quadrics:
        least = min(fiber, key=lambda pair: weights[pair[0]] + weights[pair[1]])
        pairs += ((pair, least) for pair in fiber if pair != least)
    pairs.sort(reverse=True)
    elements = _binomials({2: pairs}, order.mu)
    return GroebnerBasis(tuple(elements), order, 2 if elements else 0)


def toric_basis(
    omega: MonomialSet, order: TermOrder, k_max: int | None = None, guard: int = DEFAULT_GUARD
) -> GroebnerBasis:
    """The reduced Groebner basis of the toric ideal of omega under order.

    Read off the fibers when the seed table of `toric_generators`
    certifies a quadratic ideal and `quadratic_basis` passes the order;
    else `buchberger` on the table's binomials, with `whole_ideal` unless
    a user's k_max bounds the table.  Logs the route at debug level.
    """
    table = minimal_generator_table(omega, k_max=k_max, guard=guard)
    if table.quadraticity() and (gb := quadratic_basis(order, table)) is not None:
        route = "fiber route"
    else:
        whole_ideal = table.bound != "user"  # a user's k_max may seed a smaller ideal
        gens = _binomials(table.representatives, len(omega))
        gb = buchberger(gens, order, whole_ideal=whole_ideal)
        route = f"buchberger, whole_ideal={whole_ideal}"
    logger.debug("toric_basis: %s, %d elements", route, len(gb.elements))
    return gb


# ---------------------------------------------------------------------------
# order search


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a quadratic-order search.

    status is "found" or "not-found-within"; `impossible` is set when
    the generator table already rules out any quadratic basis (a cubic
    or worse minimal generator), in which case no candidates are tried
    and the warning says so.  A plain not-found is never a negative
    certificate.
    """

    status: str
    order: TermOrder | None
    tried: int
    budget: int
    seed: int
    warning: str | None = None
    impossible: bool = False

    @property
    def found(self) -> bool:
        return self.status == "found"

    def to_json_dict(self) -> dict:
        """The outcome a survey row records as its `gq_search`."""
        order = self.order.spec_string() if self.order is not None else None
        return {"status": self.status, "order": order, "tried": self.tried,
                "budget": self.budget, "seed": self.seed}


def ambient_ranks(omega: MonomialSet, xorder: TermOrder) -> tuple[int, ...]:
    """Presentation variables ranked by their members, greatest first.

    The members of omega compare as monomials of the ambient x-ring
    under `xorder`; the variable of the greatest member gets rank 0.
    """
    return tuple(sorted(range(len(omega)), key=lambda i: xorder.key(omega[i]), reverse=True))


def _candidate_orders(omega: MonomialSet, seed: int) -> Iterator[TermOrder]:
    """Deterministic stream of distinct candidate term orders for the search.

    Stages: the (r,c)-Lex order first when the rc rule of
    `surface_certificate` holds for omega's group; then the canonical
    rankings under each kind; then rankings obtained by sorting the
    members under every variable permutation of the ambient x-ring
    (graded revlex and lex); then either all permutations (mu <= 8) or
    seeded random permutations, cycling through the kinds.  An order
    whose weights an earlier candidate already had is skipped, so
    revlex never repeats degrevlex on the same ranking.
    """
    mu = len(omega)

    def stages() -> Iterator[TermOrder]:
        cert = surface_certificate(omega.origin_group) if omega.origin_t == 1 else None
        if cert is not None and cert.rule == "rc-order-quadratic-gb":
            yield _rc_order(omega, cert)
        for kind in ("degrevlex", "revlex", "lex", "deglex"):
            yield TermOrder(kind, tuple(range(mu)))
        for xperm in itertools.permutations(range(omega.n + 1)):
            for xkind in ("degrevlex", "lex"):
                ranks = ambient_ranks(omega, TermOrder(xkind, xperm))
                for kind in ("revlex", "degrevlex", "lex"):
                    yield TermOrder(kind, ranks)
        kinds = ("degrevlex", "lex", "deglex", "revlex")
        if mu <= 8:
            for ranks in itertools.permutations(range(mu)):
                for kind in kinds:
                    yield TermOrder(kind, ranks)
        else:
            rng = random.Random(seed)
            while True:
                ranks = tuple(rng.sample(range(mu), mu))
                yield TermOrder(kinds[rng.randrange(len(kinds))], ranks)

    seen: set[tuple[int, ...]] = set()
    for order in stages():
        if order.weights not in seen:
            seen.add(order.weights)
            yield order


def search_quadratic_order(
    omega: MonomialSet,
    budget: int = 200,
    seed: int = 0,
    k_max: int | None = None,
    guard: int = DEFAULT_GUARD,
    table: GeneratorTable | None = None,
) -> SearchResult:
    """Look for a term order whose reduced Groebner basis is quadratic.

    Candidates come from `_candidate_orders` and are tried in that
    fixed sequence, so the first success is deterministic for a given
    seed.  Each one is decided as in `quadratic_basis`, by counting its
    standard degree-3 multisets against C3 on the fibers the generator
    table kept; only a table verified below degree 3 has them walked
    again.  When the generator table contains a minimal generator of
    degree 3 or more, no quadratic basis can exist (basis degrees
    dominate minimal generator degrees) and the search returns
    immediately with a warning instead of burning the budget.  A table
    verified only to degree 2 makes the search one for the ideal its
    degree-2 generators span.  One debug line logs C3, the candidates
    tried and each failed candidate's surplus of standard multisets.
    """
    if budget < 0:
        raise ValueError(f"the order-search budget must be non-negative, got {budget}")
    if table is None:
        table = minimal_generator_table(omega, k_max=k_max, guard=guard)
    answer = table.quadraticity()
    impossible, warning = answer.status == "no", None
    if impossible:
        warning = (
            "no quadratic Groebner basis exists: the ideal has a minimal "
            f"generator of degree {answer.witness_degree} (table {table.degrees})"
        )
    elif answer.status == "unknown-above":
        warning = (
            f"generator table only certified up to degree {answer.verified_up_to}; "
            "a found basis is quadratic for the ideal generated by that table"
        )
    if table.cubics is None:
        table = minimal_generator_table(omega, k_max=3, bound="user", guard=guard)
    result = _search(
        omega, 0 if impossible else budget, seed, table.cubics,
        lambda weights: _standard_count(weights, table),
    )
    return replace(result, budget=budget, warning=warning, impossible=impossible)


def _search(
    omega: MonomialSet, budget: int, seed: int, cubics: int, count: Callable[[tuple[int, ...]], int]
) -> SearchResult:
    """The search loop of `search_quadratic_order`: the first of `budget`
    candidates whose `count` of standard degree-3 multisets, given the
    order's weights, is C3 = `cubics`.  `count` need not walk omega's own
    table: any table whose fibers an index renaming carries onto omega's
    gives the same counts once the weights are renamed with it."""
    surplus: list[int] = []  # standard degree-3 multisets over C3, per failed candidate
    found = None
    for order in itertools.islice(_candidate_orders(omega, seed), budget):
        standard = count(order.weights)
        if standard == cubics:
            found = order
            break
        surplus.append(standard - cubics)
    status, tried = ("found", len(surplus) + 1) if found else ("not-found-within", len(surplus))
    logger.debug(
        "search_quadratic_order: C3 = %d, %s after %d candidates, surplus per failed candidate %s",
        cubics, status, tried, surplus,
    )
    return SearchResult(status, found, tried, budget, seed)


# ---------------------------------------------------------------------------
# lifting through a variable split


def lift_omega(
    omega: MonomialSet, sizes: Sequence[int], guard: int = DEFAULT_GUARD
) -> MonomialSet:
    """Preimage of omega under the merge map of a variable split.

    Variable i of the base ring becomes a block of sizes[i] variables;
    a split monomial belongs to the lift exactly when summing each
    block reproduces a member of omega.  Pure counting first: the lift
    of a member multiplies binomial(e_i + l_i - 1, l_i - 1) over its
    exponents, and the guard is checked before enumeration.
    """
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) != omega.n + 1:
        raise ValueError(f"need {omega.n + 1} block sizes, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise ValueError(f"block sizes must be positive, got {sizes}")
    total = 0
    for m in omega:
        count = 1
        for e, l in zip(m, sizes):
            count *= math.comb(e + l - 1, l - 1)
        total += count
    if total > guard:
        raise GuardExceeded("split-variable lift", total, guard)
    members: list[tuple[int, ...]] = []
    for m in omega:
        blocks = [enumerate_degree(l - 1, e) for e, l in zip(m, sizes)]
        for choice in itertools.product(*blocks):
            members.append(tuple(itertools.chain.from_iterable(choice)))
    return MonomialSet(members)


def _merge_image(member: Sequence[int], sizes: tuple[int, ...]) -> tuple[int, ...]:
    """Sum each block of a split monomial back into one base exponent."""
    out = []
    pos = 0
    for l in sizes:
        out.append(sum(member[pos : pos + l]))
        pos += l
    return tuple(out)


def lift_order(
    order: TermOrder, omega: MonomialSet, lifted: MonomialSet, sizes: Sequence[int]
) -> TermOrder:
    """Extend a term order on omega's ring to the ring of its lift.

    The comparison is staged exactly as the split construction wants
    it: monomials compare through their merge images under the base
    order first, and ties fall to graded revlex over the split
    variables, ranked by (rank of merge image, then lexicographically
    larger split exponent tuple first).  The first stage is the lead
    column: each split variable carries the base weight of its image.
    """
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) != omega.n + 1:
        raise ValueError(f"need {omega.n + 1} block sizes, got {len(sizes)}")
    image = tuple(omega.index_of(_merge_image(m, sizes)) for m in lifted)
    ranks = tuple(
        sorted(
            range(len(lifted)),
            key=lambda j: (order.position_of(image[j]), tuple(-e for e in tuple(lifted[j]))),
        )
    )
    return TermOrder(
        "degrevlex",
        ranks,
        lead=tuple(order.weights[i] for i in image),
        origin=f"lift({order.spec_string()}; sizes={','.join(str(s) for s in sizes)})",
    )


# ---------------------------------------------------------------------------
# order spec strings


def parse_order(text: str, omega: MonomialSet) -> TermOrder:
    """Parse an order spec string against a concrete monomial set.

    Grammar:  `rc(d,k,t)`  |  `lift(<base>; sizes=l0,l1,...)`  |
    `<kind> : w3 > w1 > ...`  |  bare `<kind>` (canonical ranking).
    rc and lift specs are checked against omega itself.  `rc(d,k,t)`
    ranks omega by the rc certificate of omega's own group, so it
    applies to any presentation whose weights the rc rule maps onto
    (0,1,k).
    """
    text = text.strip()
    if text.startswith("rc(") and text.endswith(")"):
        body = text[3:-1]
        parts = [p.strip() for p in body.split(",")]
        if len(parts) != 3:
            raise SpecParseError("order", text, body, "expected rc(d,k,t)")
        try:
            d, k, t = (int(p) for p in parts)
        except ValueError:
            raise SpecParseError("order", text, body, "rc parameters must be integers") from None
        if k < 2:
            raise SpecParseError("order", text, body, f"need k >= 2, got {k}")
        step = k * (k - 1)
        if d <= 0 or d % step != 0:
            reason = f"degree {d} is not a positive multiple of k(k-1) = {step}"
            raise SpecParseError("order", text, body, reason)
        if d != t * step:
            raise SpecParseError("order", text, body, f"t must be {d // step}")
        group = omega.origin_group
        if group is None:  # an untagged omega is read as the invariants of (0,1,k)
            group = cyclic_group(d, (0, 1, k))
        cert = surface_certificate(group)
        if (
            cert is None
            or (cert.rule, cert.k, cert.t) != ("rc-order-quadratic-gb", k, t)
            or invariants_of_degree(group, 1) != omega
        ):
            raise SpecParseError(
                "order", text, body, "rc order belongs to a different monomial set"
            )
        return _rc_order(omega, cert)
    if text.startswith("lift(") and text.endswith(")"):
        body = text[5:-1]
        if ";" not in body:
            raise SpecParseError("order", text, body, "expected lift(<base>; sizes=...)")
        base_text, sizes_part = body.rsplit(";", 1)
        sizes_part = sizes_part.strip()
        if not sizes_part.startswith("sizes="):
            raise SpecParseError("order", text, sizes_part, "expected sizes=l0,l1,...")
        try:
            sizes = tuple(int(s) for s in sizes_part[len("sizes=") :].split(","))
        except ValueError:
            raise SpecParseError("order", text, sizes_part, "sizes must be integers") from None
        if sum(sizes) != omega.n + 1:
            reason = f"sizes sum to {sum(sizes)}, but the monomials have {omega.n + 1} variables"
            raise SpecParseError("order", text, sizes_part, reason)
        merged = {_merge_image(m, sizes) for m in omega}
        base_omega = MonomialSet(sorted(merged, reverse=True))
        relift = lift_omega(base_omega, sizes)
        if [tuple(m) for m in relift] != [tuple(m) for m in omega]:
            raise SpecParseError(
                "order", text, sizes_part, "omega is not the full lift of its merge image"
            )
        base = parse_order(base_text.strip(), base_omega)
        return lift_order(base, base_omega, omega, sizes)
    if ":" in text:
        kind_part, chain = text.split(":", 1)
        kind = kind_part.strip().lower()
        if kind not in ORDER_KINDS:
            raise SpecParseError(
                "order", text, kind_part.strip(), f"kind must be one of {ORDER_KINDS}"
            )
        ranks = []
        for token in chain.split(">"):
            token = token.strip()
            if not token.startswith("w"):
                raise SpecParseError("order", text, token, "variables are written w<i>")
            try:
                ranks.append(int(token[1:]))
            except ValueError:
                raise SpecParseError("order", text, token, "bad variable index") from None
        if sorted(ranks) != list(range(len(omega))):
            raise SpecParseError(
                "order", text, chain.strip(), f"need each of w0..w{len(omega) - 1} exactly once"
            )
        return TermOrder(kind, tuple(ranks))
    kind = text.lower()
    if kind in ORDER_KINDS:
        return TermOrder(kind, tuple(range(len(omega))))
    raise SpecParseError("order", text, text, "unrecognized order spec")
