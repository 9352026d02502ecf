"""Brute-force fiber and binomial oracles shared by the test modules.

Every k-multiset of omega's indices is formed and multiplied out, and
components are grown by repeated scans, so nothing here shares code or
shortcuts with `veroproj.fibers`.  `make` builds a binomial the checked
way, from its two sides' products of omega members, which
`groebner.toric_generators` trusts the fiber table for.
`canonical_vectors` lists canonical cyclic weight vectors by walking
every vector of weights, and `invariants` filters every monomial of a
degree by the congruences, sharing nothing with `veroproj.groups`.
`standard_count` counts the degree-3 multisets an order leaves standard
by testing each one's sub-pairs, sharing nothing with `veroproj.groebner`.
`code` is Buchberger's lane code taken densely, one lane per variable.
`sequential_buchberger` is the textbook pair loop on exponent tuples:
one S-pair at a time, each nonzero normal form inserted before the next
pair is reduced, with no pair criterion and no cache.
"""

from __future__ import annotations

import heapq
import itertools
import math

from veroproj.groebner import Binomial, TermOrder
from veroproj.groups import DiagonalGroup
from veroproj.monomials import MonomialSet, enumerate_degree


def product(omega: MonomialSet, multiset: tuple[int, ...]) -> tuple[int, ...]:
    """The exponent vector of the product of the members a multiset names."""
    return tuple(sum(col) for col in zip(*(omega[i] for i in multiset)))


def brute_fibers(omega: MonomialSet, k: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Every k-multiset of indices, sorted, under its product."""
    out: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for combo in itertools.combinations_with_replacement(range(len(omega)), k):
        out.setdefault(product(omega, combo), []).append(combo)
    return out


def brute_components(elements: list[tuple[int, ...]]) -> list[list[tuple[int, ...]]]:
    """Components of the graph joining multisets that share an index,
    each sorted, ordered by their least element."""
    left = sorted(elements)
    comps = []
    while left:
        comp = [left.pop(0)]
        grown = True
        while grown:
            joined = [e for e in left if any(set(e) & set(c) for c in comp)]
            grown = bool(joined)
            comp.extend(joined)
            left = [e for e in left if e not in joined]
        comps.append(sorted(comp))
    return comps


def code(vec) -> int:
    """The lane code sum(e_t << 9t) of an exponent vector, over every lane."""
    return sum(e << 9 * t for t, e in enumerate(vec))


def vec_strip(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Remove the common monomial factor of a pair (sound for prime ideals)."""
    common = tuple(a if a <= b else b for a, b in zip(u, v))
    if any(common):
        u = tuple(a - c for a, c in zip(u, common))
        v = tuple(b - c for b, c in zip(v, common))
    return u, v


def is_gcd_reduced(binomial: Binomial) -> bool:
    """Whether the two sides of a binomial share no variable."""
    return all(a == 0 or b == 0 for a, b in zip(binomial.plus, binomial.minus))


def rho_image(omega: MonomialSet, vec) -> tuple[int, ...]:
    """Product of the omega members selected by an S-exponent vector."""
    total = [0] * (omega.n + 1)
    for e, member in zip(vec, omega):
        if e:
            for j, exp in enumerate(member):
                total[j] += e * exp
    return tuple(total)


def make(omega: MonomialSet, plus, minus) -> Binomial:
    """The binomial plus - minus, checked balanced (same product of omega
    members) and stripped of any common variable."""
    mu = len(omega)
    plus = tuple(int(e) for e in plus)
    minus = tuple(int(e) for e in minus)
    if len(plus) != mu or len(minus) != mu:
        raise ValueError(
            f"exponent vectors must have length {mu}, got {len(plus)} and {len(minus)}"
        )
    if any(e < 0 for e in plus) or any(e < 0 for e in minus):
        raise ValueError("exponent vectors must be non-negative")
    if rho_image(omega, plus) != rho_image(omega, minus):
        raise ValueError(
            f"unbalanced binomial: sides map to different monomials "
            f"({rho_image(omega, plus)} vs {rho_image(omega, minus)})"
        )
    plus, minus = vec_strip(plus, minus)
    if plus == minus:
        raise ValueError("degenerate binomial: the two sides are equal")
    return Binomial(plus, minus)


def from_indices(omega: MonomialSet, lhs, rhs) -> Binomial:
    """`make` from two index multisets (as used by the fiber tables)."""
    mu = len(omega)
    plus = [0] * mu
    minus = [0] * mu
    for i in lhs:
        plus[i] += 1
    for i in rhs:
        minus[i] += 1
    return make(omega, plus, minus)


def canonical_vectors(n: int, d: int) -> list[tuple[int, ...]]:
    """Canonical weight vectors of order d on n+1 variables, sorted: the
    least member of each orbit of range(d)^(n+1) under a constant shift
    mod d and sorting, kept when it is not constant and has gcd 1 with d."""
    out = set()
    for v in itertools.product(range(d), repeat=n + 1):
        least = min(tuple(sorted((w - c) % d for w in v)) for c in range(d))
        if any(least) and math.gcd(d, *least) == 1:
            out.add(least)
    return sorted(out)


def is_invariant(group: DiagonalGroup, m, scale: int = 1) -> bool:
    """Whether the weighted exponent sums of the monomial m vanish modulo
    scale * order for every factor; with scale 1, whether every factor
    fixes m."""
    return all(sum(w * a for w, a in zip(f.weights, m)) % (scale * f.order) == 0 for f in group.factors)


def invariants(group: DiagonalGroup, degree: int, cap=None, scale: int = 1) -> list[tuple[int, ...]]:
    """Every monomial of the degree, descending lex, that `is_invariant` at
    the scale accepts and whose exponents are at most cap, when given."""
    return [
        tuple(m)
        for m in enumerate_degree(group.n, degree)
        if is_invariant(group, m, scale) and (cap is None or max(m) <= cap)
    ]


def leads(order: TermOrder, quadrics) -> set[tuple[int, int]]:
    """Each pair of a degree-2 fiber other than the one of least key."""

    def key(pair):
        vec = [0] * order.mu
        for i in pair:
            vec[i] += 1
        return order.key(vec)

    out = set()
    for fiber in quadrics:
        keys = [key(pair) for pair in fiber]
        least = fiber[keys.index(min(keys))]  # the first of equal keys, as `min` keeps it
        out.update(pair for pair in fiber if pair != least)
    return out


def standard_count(order: TermOrder, quadrics) -> int:
    """The multisets a <= b <= c of variable indices with none of (a, b),
    (a, c), (b, c) a lead."""
    lead = leads(order, quadrics)
    return sum(
        not lead & {(a, b), (a, c), (b, c)}
        for a, b, c in itertools.combinations_with_replacement(range(order.mu), 3)
    )


def sequential_buchberger(gens, order: TermOrder) -> tuple[Binomial, ...]:
    """The reduced basis of the ideal gens generate, gcd-stripping as Buchberger does.

    Every pair of elements whose leads share a variable is reduced, by
    ascending lcm degree and in formation order within a degree, against
    the basis as it stands; a nonzero normal form is stripped of its gcd,
    oriented and inserted at once.  Leads are then minimized and each kept
    trail reduced by the minimal leads.  Elements sort by (degree, lead,
    trail), as `buchberger` sorts them.
    """
    key, basis, pairs, formed = order.key, [], [], itertools.count()

    def divides(a, b):
        return all(map(int.__le__, a, b))

    def reduce(m, elements):
        while step := next(((L, T) for L, T in elements if divides(L, m)), None):
            m = tuple(e - a + b for e, a, b in zip(m, *step))
        return m

    def insert(u, v):
        u, v = vec_strip(reduce(u, basis), reduce(v, basis))
        if u == v:
            return
        new = u if key(u) > key(v) else v
        basis.append((new, v if new is u else u))
        for i, (lead, _) in enumerate(basis[:-1]):
            if any(map(min, lead, new)):
                heapq.heappush(pairs, (sum(map(max, lead, new)), next(formed), i, len(basis) - 1))

    def side(lcm, lead, trail):
        return tuple(e - a + b for e, a, b in zip(lcm, lead, trail))

    for g in gens:
        insert(g.plus, g.minus)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        lcm = tuple(map(max, basis[i][0], basis[j][0]))
        insert(side(lcm, *basis[i]), side(lcm, *basis[j]))
    minimal = []
    for lead, trail in sorted(basis, key=lambda element: key(element[0])):
        if not any(divides(L, lead) for L, _ in minimal):
            minimal.append((lead, trail))
    rows = sorted((sum(L), L, reduce(T, minimal)) for L, T in minimal)
    return tuple(Binomial(L, T) for _, L, T in rows)
