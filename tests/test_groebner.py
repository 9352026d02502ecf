"""Tests for the binomial Buchberger engine and term orders."""

from __future__ import annotations

import copy
import functools
import hashlib
import itertools
import json
import logging
import random
import re
from operator import le, mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from veroproj.errors import GuardExceeded, SpecParseError
from veroproj.fibers import hilbert_values, minimal_generator_table
from veroproj.groebner import (
    CODE_DEGREE_BOUND,
    KEY_DEGREE_BOUND,
    Binomial,
    GroebnerBasis,
    TermOrder,
    ambient_ranks,
    buchberger,
    lift_omega,
    lift_order,
    parse_order,
    quadratic_basis,
    rc_term_order,
    search_quadratic_order,
    toric_basis,
    toric_generators,
    verify_groebner,
)
from veroproj import groebner
from veroproj.families import FamilySpec, koszul_label, parse_family
from veroproj.groebner import _candidate_orders, _code, _decode, _Reducer, _standard_count
from veroproj.groups import block_group, canonical_weight_vectors, cyclic_group, invariants_of_degree
from veroproj.monomials import MonomialSet

from oracles import (
    brute_components, brute_fibers, code, from_indices, is_gcd_reduced, leads, make, rho_image,
    sequential_buchberger, standard_count, vec_strip,
)

# Frozen (r, c) table for d = 6, k = 3, worked out by hand from the
# congruence b + 3c = 6r: row intervals are {0}, [0,2], [3,4], [6,6].
W6_ROWS = [
    ((0, 0), (6, 0, 0)),
    ((1, 0), (0, 6, 0)),
    ((1, 1), (2, 3, 1)),
    ((1, 2), (4, 0, 2)),
    ((2, 3), (0, 3, 3)),
    ((2, 4), (2, 0, 4)),
    ((3, 6), (0, 0, 6)),
]


def test_binomial_validation():
    omega = MonomialSet.full(2, 2)
    # members, descending lex: x0^2, x0x1, x0x2, x1^2, x1x2, x2^2
    b = make(omega, (1, 0, 0, 1, 0, 0), (0, 2, 0, 0, 0, 0))
    assert b.degree == 2 and is_gcd_reduced(b)

    # common factor w1 on both sides is stripped on construction
    c = make(omega, (1, 1, 0, 1, 0, 0), (0, 3, 0, 0, 0, 0))
    assert (c.plus, c.minus) == ((1, 0, 0, 1, 0, 0), (0, 2, 0, 0, 0, 0))

    with pytest.raises(ValueError):
        make(omega, (2, 0, 0, 0, 0, 0), (0, 0, 0, 2, 0, 0))  # x0^4 != x1^4
    with pytest.raises(ValueError):
        make(omega, (1, 1, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0))  # equal sides
    with pytest.raises(ValueError):
        make(omega, (1, 0, 0), (0, 1, 0))  # wrong length


def test_binomial_from_indices():
    omega = MonomialSet.full(2, 2)
    b = from_indices(omega, (0, 3), (1, 1))
    assert b.plus == (1, 0, 0, 1, 0, 0)
    assert b.minus == (0, 2, 0, 0, 0, 0)


def _reference_greater(kind: str, rank: tuple[int, ...], u, v) -> bool:
    """Independent comparator used as the oracle for TermOrder.key."""
    pu = [u[i] for i in rank]
    pv = [v[i] for i in rank]
    if kind in ("deglex", "degrevlex", "revlex"):
        if sum(u) != sum(v):
            return sum(u) > sum(v)
    if kind in ("lex", "deglex"):
        for a, b in zip(pu, pv):
            if a != b:
                return a > b
        return False
    # graded revlex: among equal degrees the last differing exponent
    # decides, and the smaller one wins
    for a, b in zip(reversed(pu), reversed(pv)):
        if a != b:
            return a < b
    return False


def test_term_order_keys_match_reference():
    rng = random.Random(2024)
    for kind in ("lex", "deglex", "degrevlex"):
        for _ in range(60):
            mu = rng.randrange(2, 7)
            rank = tuple(rng.sample(range(mu), mu))
            order = TermOrder(kind, rank)
            u = tuple(rng.randrange(0, 4) for _ in range(mu))
            v = tuple(rng.randrange(0, 4) for _ in range(mu))
            assert (order.key(u) > order.key(v)) == _reference_greater(kind, rank, u, v)


def test_degrevlex_textbook_comparisons():
    # three variables ranked x > y > z
    order = TermOrder("degrevlex", (0, 1, 2))
    y2, xz = (0, 2, 0), (1, 0, 1)
    assert order.key(y2) > order.key(xz)
    lex = TermOrder("lex", (0, 1, 2))
    assert lex.key(xz) > lex.key(y2)
    # revlex is the graded alias: same comparisons as degrevlex
    alias = TermOrder("revlex", (0, 1, 2))
    assert alias.key(y2) > alias.key(xz)


KINDS = ("lex", "deglex", "degrevlex", "revlex")


def _monomials(mu: int):
    """Small exponents make ties likely; exponents just below the share
    of the degree bound make rows nearly tie while later rows differ by
    almost the whole bound, which exposes any overlap of packed rows."""
    big = (KEY_DEGREE_BOUND - 1) // mu
    return st.tuples(*[st.one_of(st.integers(0, 3), st.integers(big - 3, big))] * mu)


def _image(omega: MonomialSet, lifted: MonomialSet, sizes) -> tuple[int, ...]:
    """Index in omega of each lifted member's merge image (its block sums)."""
    cuts = list(itertools.accumulate(sizes, initial=0))
    return tuple(
        omega.index_of([sum(m[a:b]) for a, b in zip(cuts, cuts[1:])]) for m in lifted
    )


def _order_greater(order, u, v, lifts=()) -> bool:
    """Tuple-based oracle for TermOrder keys, plain or lifted.

    `lifts` lists the (base order, merge image) pairs the order was
    lifted through, innermost first.  A lifted order compares merge
    images by its base order, then breaks a tie by graded revlex over
    its own ranking.
    """
    if lifts:
        *inner, (base, image) = lifts
        pu, pv = [0] * base.mu, [0] * base.mu
        for j, target in enumerate(image):
            pu[target] += u[j]
            pv[target] += v[j]
        if pu != pv:
            return _order_greater(base, pu, pv, inner)
        return _reference_greater("degrevlex", order.variable_rank, u, v)
    return _reference_greater(order.kind, order.variable_rank, u, v)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_term_order_key_agrees_with_reference(data):
    mu = data.draw(st.integers(1, 8))
    order = TermOrder(data.draw(st.sampled_from(KINDS)), tuple(data.draw(st.permutations(range(mu)))))
    u, v = data.draw(_monomials(mu)), data.draw(_monomials(mu))
    assert (order.key(u) > order.key(v)) == _order_greater(order, u, v)
    assert (order.key(u) == order.key(v)) == (u == v)


LIFT_BASES = (
    MonomialSet.full(2, 2),
    invariants_of_degree(cyclic_group(4, (0, 1, 3)), 1),
    rc_term_order(6, 3)[1],
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lifted_order_key_agrees_with_reference(data):
    omega = data.draw(st.sampled_from(LIFT_BASES))
    order = TermOrder(
        data.draw(st.sampled_from(KINDS)), tuple(data.draw(st.permutations(range(len(omega)))))
    )
    lifts = []
    for _ in range(data.draw(st.integers(1, 2))):  # a lift, or a lift of a lift
        sizes = tuple(data.draw(st.lists(st.integers(1, 2), min_size=omega.n + 1, max_size=omega.n + 1)))
        lifted = lift_omega(omega, sizes)
        lifts.append((order, _image(omega, lifted, sizes)))
        order = lift_order(order, omega, lifted, sizes)
        omega = lifted
    image = lifts[-1][1]
    u, v = data.draw(_monomials(len(omega))), data.draw(_monomials(len(omega)))
    # w shuffles u within each merge block, so it ties with u on the base
    w = list(u)
    for img in set(image):
        block = [j for j, target in enumerate(image) if target == img]
        for j, e in zip(block, data.draw(st.permutations([u[j] for j in block]))):
            w[j] = e
    for a, b in ((u, v), (u, tuple(w))):
        assert (order.key(a) > order.key(b)) == _order_greater(order, a, b, lifts)
        assert (order.key(a) == order.key(b)) == (a == b)


def test_key_raises_at_the_degree_bound():
    order, omega = rc_term_order(6, 3)
    lifted = lift_omega(omega, (1, 2, 2))
    lord = lift_order(order, omega, lifted, (1, 2, 2))
    lord_lifts = [(order, _image(omega, lifted, (1, 2, 2)))]
    top = KEY_DEGREE_BOUND - 1
    for o, lifts in ((TermOrder("lex", (2, 0, 1)), ()), (TermOrder("deglex", (1, 2, 0)), ()),
                     (TermOrder("degrevlex", (0, 2, 1)), ()), (order, ()), (lord, lord_lifts)):
        zero = [0] * o.mu
        u = tuple([top] + zero[1:])
        v = tuple(zero[:-1] + [top])
        w = tuple([top - 1] + zero[2:] + [1])
        for a, b in itertools.permutations((u, v, w), 2):
            assert (o.key(a) > o.key(b)) == _order_greater(o, a, b, lifts)
        with pytest.raises(ValueError, match="degree bound"):
            o.key(tuple([top + 1] + zero[1:]))
        with pytest.raises(ValueError, match="degree bound"):
            o.key(tuple([top] + zero[2:] + [1]))


def test_verify_groebner_accepts_lift_bases():
    order, omega = rc_term_order(6, 3)
    for sizes in [(1, 1, 2), (1, 2, 1)]:
        lifted = lift_omega(omega, sizes)
        lord = lift_order(order, omega, lifted, sizes)
        gens = toric_generators(invariants_of_degree(block_group(cyclic_group(6, (0, 1, 3)), sizes), 1))
        gb = buchberger(gens, lord)
        assert gb.max_degree == 2
        assert verify_groebner(gb, gens), sizes


def test_verify_groebner_rejects_a_basis_missing_a_grown_element():
    # pinched(2,4,2) is generated by its 33 quadrics, so dropping an element
    # above degree 2 leaves the same ideal without that element's lead, which
    # no other lead of the reduced basis divides: not a Groebner basis, and
    # only an S-pair of leads that share a variable can show it
    omega = parse_family("pinched(2,4,2)").build()
    gb = buchberger(toric_generators(omega), parse_order("lex", omega))
    assert verify_groebner(gb)
    grown = [g for g in gb.elements if g.degree > 2]
    assert len(grown) == 25
    for g in grown:
        rest = tuple(e for e in gb.elements if e != g)
        assert not verify_groebner(GroebnerBasis(rest, gb.order, gb.max_degree))


def test_orders_have_positive_weights():
    """Every order this package builds has one positive packed column per
    variable, so 1 is the smallest monomial: plain kinds, rc, lifts and a
    lift of a lift.  A lead column that is not one non-negative entry
    per variable is rejected."""
    rng = random.Random(5)
    orders = [TermOrder(kind, tuple(rng.sample(range(6), 6))) for kind in KINDS]
    rc, omega = rc_term_order(6, 3)
    orders.append(rc)
    for sizes in [(1, 2, 2), (2, 2, 1)]:
        lifted = lift_omega(omega, sizes)
        lord = lift_order(rc, omega, lifted, sizes)
        relifted = lift_omega(lifted, (2,) + (1,) * lifted.n)
        orders += [lord, lift_order(lord, lifted, relifted, (2,) + (1,) * lifted.n)]
    for order in orders:
        assert len(order.weights) == order.mu and min(order.weights) > 0, order.spec_string()
    with pytest.raises(ValueError, match="lead"):
        TermOrder("degrevlex", (0, 1), lead=(3, -1))
    with pytest.raises(ValueError, match="lead"):
        TermOrder("degrevlex", (0, 1), lead=(3,))


def test_term_order_spec_and_rank_validation():
    order = TermOrder("deglex", (1, 0, 2))
    assert order.spec_string() == "deglex : w1 > w0 > w2"
    assert order.position_of(1) == 0
    with pytest.raises(ValueError):
        TermOrder("alphabetical", (0, 1))
    with pytest.raises(ValueError):
        TermOrder("lex", (0, 0, 1))


def _rc_pairs(omega: MonomialSet, k: int) -> list[tuple[int, int]]:
    """The (r, c) pair of each member (a, b, c), with r = (b + k*c)/d exact."""
    pairs = []
    for a, b, c in omega:
        r, rest = divmod(b + k * c, omega.d)
        assert rest == 0 and 0 <= r <= k, (a, b, c)
        pairs.append((r, c))
    return pairs


def test_rc_order_frozen_table():
    order, omega = rc_term_order(6, 3)
    assert order.spec_string() == "rc(6,3,1)"
    assert len(omega) == 7
    pairs = _rc_pairs(omega, 3)
    assert {tuple(m): rc for m, rc in zip(omega, pairs)} == {m: rc for rc, m in W6_ROWS}
    # variables rank by (r, c), so rank 0 is the largest pair, i.e. the
    # pure power of the k-weighted variable
    assert [pairs[v] for v in order.variable_rank] == sorted(pairs, reverse=True)
    greatest = omega[order.variable_rank[0]]
    assert tuple(greatest) == (0, 0, 6)
    assert tuple(omega[order.variable_rank[-1]]) == (6, 0, 0)


def test_rc_order_sizes_and_errors():
    order, omega = rc_term_order(12, 3)
    assert len(omega) == 10  # 1 + 5 + 3 + 1
    # interval sizes: |I_r| = t(k-r)+1 for r >= 1
    for k, t in [(2, 3), (3, 2), (4, 1)]:
        d = t * k * (k - 1)
        order, omega = rc_term_order(d, k)
        assert order.spec_string() == f"rc({d},{k},{t})"
        pairs = _rc_pairs(omega, k)
        assert len(set(pairs)) == len(pairs)
        for r in range(1, k + 1):
            assert sum(1 for rr, _ in pairs if rr == r) == t * (k - r) + 1
        assert sum(1 for rr, _ in pairs if rr == 0) == 1
        assert [pairs[v] for v in order.variable_rank] == sorted(pairs, reverse=True)
    with pytest.raises(ValueError):
        rc_term_order(5, 2)
    with pytest.raises(ValueError):
        rc_term_order(6, 4)
    with pytest.raises(ValueError):
        rc_term_order(6, 1)


def test_toric_generators_examples():
    gens = toric_generators(MonomialSet.full(2, 2))
    assert len(gens) == 6 and all(g.degree == 2 for g in gens)

    b613 = invariants_of_degree(cyclic_group(6, (0, 1, 3)), 1)
    gens613 = toric_generators(b613)
    assert gens613 and all(g.degree == 2 for g in gens613)

    b512 = invariants_of_degree(cyclic_group(5, (0, 1, 2)), 1)
    gens512 = toric_generators(b512)
    assert sorted({g.degree for g in gens512}) == [2, 3]


def test_toric_generators_uncertified_seed():
    b512 = invariants_of_degree(cyclic_group(5, (0, 1, 2)), 1)
    untagged = MonomialSet(list(b512))  # drops the group tag
    with pytest.raises(ValueError, match="no completeness bound applies"):
        toric_generators(untagged)
    # an explicit user bound overrides
    gens = toric_generators(untagged, k_max=3)
    assert sorted({g.degree for g in gens}) == [2, 3]


# (family, k_max): the full and small `grow` benchmark families and the
# block groups of C(6;0,1,3) the `lift` benchmark splits through 1,1,2,
# 1,2,1 and 1,2,2
ORACLE_FAMILIES = [
    ("pinched(2,8,2)", None),
    ("pinched(3,5,2)", 3),
    ("pinched(2,4,2)", None),
    ("pinched(3,3,2)", 3),
    ("group(C(6;0,1,3,3))", None),
    ("group(C(6;0,1,1,3))", None),
    ("group(C(6;0,1,1,3,3))", None),
]


@pytest.mark.parametrize("family, k_max", ORACLE_FAMILIES)
def test_toric_generators_match_the_checked_oracle(family, k_max):
    # the table's pairs built straight into binomials, against the oracle
    # that checks balance and strips common factors
    omega = parse_family(family).build()
    table = minimal_generator_table(omega, k_max=k_max)
    want = [
        from_indices(omega, lhs, rhs)
        for degree in sorted(table.representatives)
        for lhs, rhs in table.representatives[degree]
    ]
    assert toric_generators(omega, k_max=k_max) == want
    assert all(map(is_gcd_reduced, want))


def test_toric_generators_raises_on_a_shared_index(monkeypatch):
    import veroproj.groebner

    omega = MonomialSet.full(2, 2)  # x0^2, x0x1, x0x2, x1^2, x1x2, x2^2
    table = minimal_generator_table(omega)
    # x0^2 * x1x2 = x0x1 * x0x2 is a sound pair; times x0^2 both sides hold w0
    faulty = copy.copy(table)
    faulty.representatives = {2: [((0, 4), (1, 2))], 3: [((0, 0, 4), (0, 1, 2))]}
    monkeypatch.setattr(veroproj.groebner, "minimal_generator_table", lambda *a, **k: faulty)
    with pytest.raises(AssertionError, match=r"\(0, 0, 4\) and \(0, 1, 2\) share a factor"):
        toric_generators(omega)


def test_buchberger_full_veronese_quadric():
    omega = MonomialSet.full(2, 2)
    gens = toric_generators(omega)
    gb = buchberger(gens, TermOrder("degrevlex", tuple(range(6))))
    assert gb.max_degree == 2
    assert len(gb.elements) == 6
    assert verify_groebner(gb, gens)
    # elements are oriented and reduced
    for g in gb.elements:
        assert gb.order.key(g.plus) > gb.order.key(g.minus)
        assert is_gcd_reduced(g)


def test_buchberger_rc_orders_small():
    for d, k in [(2, 2), (4, 2), (6, 3), (12, 3), (12, 4)]:
        order, omega = rc_term_order(d, k)
        gens = toric_generators(omega)
        gb = buchberger(gens, order)
        assert gb.max_degree <= 2, (d, k)
        assert verify_groebner(gb, gens)


def test_buchberger_quartic_group_recipe():
    """The handbuilt revlex order on the quartic group's invariants.

    Variables are the ten invariants sorted descending by graded revlex
    on the ambient ring with the variables ranked x1 > x3 > x0 > x2;
    monomials of the presentation ring compare by revlex with w0 the
    greatest.  The reduced basis comes out quadratic.
    """
    g = cyclic_group(4, (0, 1, 2, 3))
    b1 = invariants_of_degree(g, 1)
    members = [tuple(m) for m in b1]
    xperm = (1, 3, 0, 2)

    def xkey(m):
        p = tuple(m[i] for i in xperm)
        return tuple(-e for e in reversed(p))

    ranks = tuple(sorted(range(len(b1)), key=lambda i: xkey(members[i]), reverse=True))
    order = TermOrder("revlex", ranks)
    gens = toric_generators(b1)
    assert len(gens) == 12 and all(gg.degree == 2 for gg in gens)
    gb = buchberger(gens, order)
    assert gb.max_degree == 2
    assert verify_groebner(gb, gens)


def test_buchberger_deterministic():
    b512 = invariants_of_degree(cyclic_group(5, (0, 1, 2)), 1)
    gens = toric_generators(b512)
    order = TermOrder("degrevlex", tuple(range(len(b512))))
    first = buchberger(gens, order)
    second = buchberger(gens, order)
    assert [(g.plus, g.minus) for g in first.elements] == [
        (g.plus, g.minus) for g in second.elements
    ]


# SHA-256 of the sorted [plus, minus] pairs of grown bases (leads of degree
# 2 to 4), recorded before the reducer had one lead index for every degree,
# and of two quadratic lift bases: the invariants of the block group of
# C(6;0,1,3) split with sizes 1,1,2 and 1,2,1, under the lifted rc order,
# recorded before the reducer cached its normal forms
GROWN_BASES = [
    ("pinched(2,4,2)", "lex", None, 58, "9cf4b9ffc26e1bf290dbe9d719f8cff5b03c9bd1bbec917ed93ea9ac1b92836e"),
    ("pinched(3,3,2)", "degrevlex", 3, 64, "8f27db636616be8a2c3c410e17b6e4b15038932b8bd83c34adc7993fbe41594d"),
    ("group(C(6;0,1,3,3))", "lift(rc(6,3,1); sizes=1,1,2)", None, 174,
     "715fb89cd6dd6a14abb90c7132a3672bf8d1fcfde9273459946d9b1e826b1875"),
    ("group(C(6;0,1,1,3))", "lift(rc(6,3,1); sizes=1,2,1)", None, 102,
     "18130e615701ec083a1ae899995347898202a0d94148870606aac59cc4784ebb"),
]


@pytest.mark.parametrize("family, order_text, k_max, size, digest", GROWN_BASES)
def test_grown_bases_are_pinned(family, order_text, k_max, size, digest):
    omega = parse_family(family).build()
    gb = buchberger(toric_generators(omega, k_max=k_max), parse_order(order_text, omega))
    pairs = sorted([list(g.plus), list(g.minus)] for g in gb.elements)
    assert len(pairs) == size and gb.max_degree == (2 if order_text.startswith("lift(") else 4)
    assert hashlib.sha256(json.dumps(pairs).encode()).hexdigest() == digest


# Small inputs where a wrong pair criterion in Buchberger leaves a set that is
# not a Groebner basis: M taking a kept pair whose quotient does not divide
# as its witness (the first), F dropping every pair of an equal-lcm class
# (the second).  Random draws reach such inputs only now and then.
PAIR_CRITERIA_CASES = [
    ((5, (0, 1, 2)), "deglex", (2, 0, 3, 4, 1)),
    ((7, (0, 1, 4)), "lex", (1, 4, 0, 2, 5, 3)),
]


@pytest.mark.parametrize("group, kind, ranks", PAIR_CRITERIA_CASES)
def test_pair_criteria_keep_a_groebner_basis(group, kind, ranks):
    omega = invariants_of_degree(cyclic_group(*group), 1)
    gens = toric_generators(omega)
    assert verify_groebner(buchberger(gens, TermOrder(kind, ranks)), gens)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_trail_criterion_keeps_the_reduced_basis(data):
    """Skipping the S-pairs whose trails share a variable leaves the basis
    of a seed that generates the whole toric ideal as it is.

    The seeds are the certified tables of small cyclic surface and
    threefold groups and of the 2-normal families, under drawn orders;
    `whole_ideal=False` runs Buchberger without the criterion.
    """
    omega, order = _draw_omega_and_order(data)
    gens = toric_generators(omega)
    gb = buchberger(gens, order)
    assert gb.elements == buchberger(gens, order, whole_ideal=False).elements
    assert verify_groebner(gb, gens)


def _draw_omega_and_order(data) -> tuple[MonomialSet, TermOrder]:
    """A 2-normal family or the invariants of a small cyclic surface or
    threefold group, and an order on its ring."""
    shape = data.draw(st.sampled_from(("family", "surface", "threefold")))
    if shape == "family":
        omega = parse_family(data.draw(st.sampled_from(TWO_NORMAL_FAMILIES))).build()
    else:
        free = 1 if shape == "surface" else 2  # the weights between the first and the last
        d = data.draw(st.integers(2, 9 if free == 1 else 5))
        middle = data.draw(st.lists(st.integers(0, d - 1), min_size=free, max_size=free))
        weights = (0, *middle, data.draw(st.integers(1, d - 1)))
        omega = invariants_of_degree(cyclic_group(d, weights), 1)
    mu = len(omega)
    return omega, TermOrder(data.draw(st.sampled_from(KINDS)), tuple(data.draw(st.permutations(range(mu)))))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_degree_batches_keep_the_sequential_basis(data):
    """Reducing a degree's S-pairs against the basis the degree began with,
    and inserting their forms after, gives the elements of the loop that
    inserts each nonzero form before it reduces the next pair.

    The seeds are whole tables, and tables a user's k_max of 2 bounds, run
    with `whole_ideal=False` as `toric_basis` runs them.
    """
    omega, order = _draw_omega_and_order(data)
    k_max = data.draw(st.sampled_from((None, 2)))
    gens = toric_generators(omega, k_max=k_max)
    gb = buchberger(gens, order, whole_ideal=k_max is None)
    assert verify_groebner(gb, gens)
    assert gb.elements == sequential_buchberger(gens, order)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_degree_batches_give_a_basis_on_partial_seeds(data):
    """Binomials between two multisets of a few degree-3 or degree-4 fibers
    seed a smaller ideal, and their S-pairs often reduce to binomials with
    a common factor, whose strip forms pairs below the degree being
    processed.  The result is a Groebner basis that the seed reduces to
    zero against, of gcd-free binomials of the toric ideal, or the final
    check raises on an element that is not gcd-free.  Which ideal it
    generates can depend on when each element is inserted, so it is not
    compared with the sequential loop here.
    """
    omega, order = _draw_omega_and_order(data)
    fibers = [f for _, f in sorted(brute_fibers(omega, data.draw(st.sampled_from((3, 4)))).items()) if len(f) > 1]
    assume(fibers)
    gens = [
        from_indices(omega, *data.draw(st.lists(st.sampled_from(fiber), min_size=2, max_size=2, unique=True)))
        for fiber in data.draw(st.lists(st.sampled_from(fibers), min_size=1, max_size=5))
    ]
    try:
        gb = buchberger(gens, order, whole_ideal=False)
    except AssertionError as err:
        assert "is not gcd-free" in str(err)
        return
    assert verify_groebner(gb, gens)
    for g in gb.elements:
        assert is_gcd_reduced(g) and rho_image(omega, g.plus) == rho_image(omega, g.minus)


def test_code_degree_bound_is_checked_before_coding():
    # over {x^2, xy, y^2}: w0^128 w2^128 and w1^256 are both x^256 y^256;
    # the exponent 256 of w1^256 would reach its lane's guard bit
    omega = MonomialSet([(2, 0), (1, 1), (0, 2)])
    order = TermOrder("degrevlex", (0, 1, 2))
    big = make(omega, (128, 0, 128), (0, 256, 0))
    below = make(omega, (127, 0, 127), (0, 254, 0))
    assert big.degree == CODE_DEGREE_BOUND
    with pytest.raises(ValueError, match="code degree bound 256"):
        buchberger([big], order)
    gb = buchberger([below], order)
    assert gb.elements == (Binomial((0, 254, 0), (127, 0, 127)),)
    with pytest.raises(ValueError, match="code degree bound 256"):
        verify_groebner(gb, [big])


def _reference_find(leads, vec):
    """The lookup on exponent tuples: the buckets (i, i), then (i, j) for j > i,
    of vec's support, i ascending, and each bucket's leads in insertion order."""

    def bucket(lead):  # the two least support variables, (i, i) for a pure power
        support = [t for t, e in enumerate(lead) if e]
        return support[0], support[min(1, len(support) - 1)]

    support = [t for t, e in enumerate(vec) if e]
    for a, i in enumerate(support):
        for j in support[a if vec[i] >= 2 else a + 1 :]:
            for idx, lead in enumerate(leads):
                if bucket(lead) == (i, j) and all(map(le, lead, vec)):
                    return idx
    return None


def _below_code_bound(vec):
    """Zero each exponent that would take the degree to 256 or past it."""
    out = []
    for e in vec:
        out.append(e if sum(out) + e < CODE_DEGREE_BOUND else 0)
    return tuple(out)


def _lane_divides(reducer, a, b):
    """The divisibility test `find` and `buchberger` write out: each lane of
    (b | guard) - a keeps its guard bit exactly when b's exponent is at least a's."""
    return ((b | reducer.guard) - a) & reducer.guard == reducer.guard


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lane_arithmetic_agrees_with_tuples(data):
    """`find`, `lcm`, the gcd and the quotient test on codes against exponent tuples.

    Adjacent lanes hold 0, 1, 254 or 255, where a missing guard bit, a
    lane off by one or an lcm mask off by a bit would show.
    """
    mu = data.draw(st.integers(1, 5))
    lane = st.sampled_from([0, 1, 254, 255]) | st.integers(0, 3)
    vectors = st.lists(lane, min_size=mu, max_size=mu).map(_below_code_bound)
    leads = data.draw(st.lists(vectors.filter(lambda v: sum(v) >= 2), min_size=1, max_size=6))
    monomials = leads + data.draw(st.lists(vectors, min_size=1, max_size=6))
    reducer = _Reducer(TermOrder("lex", tuple(range(mu))), ((_code(L), 0) for L in leads))
    for m in monomials:
        assert _decode(_code(m), mu) == m
        assert reducer.find(_code(m)) == _reference_find(leads, m)
    for b in monomials:
        quotients = []
        for a in monomials:
            assert _lane_divides(reducer, _code(a), _code(b)) == all(map(le, a, b))
            lcm = reducer.lcm(_code(a), _code(b))
            assert _decode(lcm, mu) == tuple(map(max, a, b))
            # a + b - lcm(a, b) is the gcd, as buchberger strips it
            assert _decode(_code(a) + _code(b) - lcm, mu) == tuple(map(min, a, b))
            q = lcm - _code(b)  # lcm(a, b) / b, as buchberger forms the quotients
            assert _decode(q, mu) == tuple(max(x - y, 0) for x, y in zip(a, b))
            assert q % 511 == sum(_decode(q, mu))
            quotients.append(q)
        for qi, qj in itertools.product(quotients, repeat=2):
            assert _lane_divides(reducer, qj, qi) == all(map(le, _decode(qj, mu), _decode(qi, mu)))


@functools.cache
def _lane_orders():
    """lex and degrevlex on a drawn mu, and the lift of rc(6,3,1) through sizes 1,2,2."""
    rc, omega = rc_term_order(6, 3)
    lifted = lift_omega(omega, (1, 2, 2))
    lift = lift_order(rc, omega, lifted, (1, 2, 2))
    plain = st.tuples(st.sampled_from(["lex", "degrevlex"]), st.integers(1, 64).flatmap(
        lambda mu: st.permutations(range(mu))))
    return st.just(lift) | plain.map(lambda kind_rank: TermOrder(*kind_rank))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sparse_lane_helpers_agree_with_dense_references(data):
    """`_code` and `_Reducer.key_of`, which visit only nonzero lanes, against
    the dense code sum(e << 9t) and `TermOrder.key`.

    The monomials are sparse, with exponents 1, 2, 254 or 255, the last lane
    set when drawn so, and their degree filled up to CODE_DEGREE_BOUND - 1
    when drawn so; one more unit on any lane must make `_code` raise.
    """
    order = data.draw(_lane_orders())
    mu = order.mu
    reducer = _Reducer(order)
    lane = st.integers(0, mu - 1)
    exponent = st.sampled_from([1, 2, 254, 255]) | st.integers(1, 255)
    for _ in range(4):
        vec = [0] * mu
        for t, e in data.draw(st.lists(st.tuples(lane | st.just(mu - 1), exponent), max_size=6)):
            vec[t] = e
        vec = list(_below_code_bound(vec))
        if data.draw(st.booleans()):  # fill up to degree CODE_DEGREE_BOUND - 1
            t = data.draw(lane | st.just(mu - 1))
            vec[t] += CODE_DEGREE_BOUND - 1 - sum(vec)
        vec = tuple(vec)
        assert _code(vec) == code(vec)
        assert reducer.key_of(_code(vec)) == order.key(vec)
        assert reducer.key_of(code(vec)) == order.key(vec)  # again, from the memo
        if sum(vec) == CODE_DEGREE_BOUND - 1:
            over = list(vec)
            over[data.draw(lane)] += 1
            with pytest.raises(ValueError, match="code degree bound"):
                _code(over)


# Reducers whose elements walk in a circle, as (lead, trail) exponent pairs,
# and a monomial whose walk enters it: w0^8 takes a tail of seven steps into
# the 2-cycle w1^2 w2^6 <-> w2^8, w0^2 goes round a 3-cycle from the start,
# and a quadric of full(2,2) with its reverse swaps two sides for ever
CYCLES = [
    ([((2, 0, 0), (0, 2, 0)), ((0, 2, 0), (0, 0, 2)), ((0, 0, 2), (0, 2, 0))], (8, 0, 0)),
    ([((2, 0, 0), (0, 2, 0)), ((0, 2, 0), (0, 0, 2)), ((0, 0, 2), (2, 0, 0))], (2, 0, 0)),
    ([((1, 0, 0, 1, 0, 0), (0, 2, 0, 0, 0, 0)), ((0, 2, 0, 0, 0, 0), (1, 0, 0, 1, 0, 0))], (1, 0, 0, 1, 0, 1)),
]


@pytest.mark.parametrize("elements, start", CYCLES)
def test_reducer_raises_when_a_walk_returns_to_a_monomial(elements, start):
    """An element oriented against the order makes a walk circle; `reduce`
    raises within a second instead of growing its path without end."""
    import signal

    def stop(*_):
        raise TimeoutError("reduce still walking after a second")

    reducer = _Reducer(TermOrder("degrevlex", tuple(range(len(start)))))
    for lead, trail in elements:
        reducer.add(_code(lead), _code(trail))
    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(AssertionError, match=r"reduction walk returns to \(.*\): an element is not oriented"):
            reducer.reduce(_code(start))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_lane_arithmetic_at_the_code_degree_bound():
    # w0^255 fills its lane up to the guard bit; w0^254 w1 differs from it by one
    reducer = _Reducer(TermOrder("lex", (0, 1)), [(_code((255, 0)), _code((0, 255)))])
    assert reducer.find(_code((255, 0))) == 0
    assert reducer.find(_code((254, 1))) is None
    assert _decode(reducer.lcm(_code((255, 0)), _code((254, 1))), 2) == (255, 1)


def test_buchberger_logs_its_counters(caplog):
    omega = parse_family("pinched(2,4,2)").build()
    gens = toric_generators(omega)
    with caplog.at_level(logging.DEBUG, logger="veroproj"):
        gb = buchberger(gens, parse_order("lex", omega))
    [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("buchberger:")]
    counts = map(int, re.findall(r"\d+", line))
    inputs, inserted, formed, coprime, by_m, by_f, by_trail, zero, hits, lookups, steps = counts
    assert inputs == len(gens) and inserted >= len(gb.elements) > 0
    # each pair of inserted elements is formed or pruned, each counted where it happens
    assert formed + coprime + by_m + by_f + by_trail == inserted * (inserted - 1) // 2
    assert zero + inserted == formed + inputs and zero < formed
    assert by_m > 0 and by_f > 0  # the Gebauer-Moeller criteria both prune here
    assert 0 < hits < lookups and steps > 0


# Every number of buchberger's debug line: inputs, inserted, pairs formed,
# skipped as coprime, pruned by M, pruned by F, skipped as their trails share
# a variable, reduced to zero, cache hits, lookups and reduction steps.  Each
# degree's pairs are taken in formation order and reduced against the basis
# as it stood when the degree began; their nonzero forms are inserted after
# the whole degree, so the cache holds for the degree.  The small
# `lift` and `grow` benchmark inputs; C(8;0,2,6), where an S-pair's two sides
# both had cached terminals and the terminals differed until the trail
# criterion skipped that pair; four degree-4 binomials of C(6;0,0,3) as
# index multisets, whose S-pairs reduce to binomials with a common factor of
# degree 2, so stripping it forms pairs below the degree being processed,
# which the next batch takes; and C(4;0,0,2,2), which has a pair with two
# cached and different terminals under the trail criterion.  The C(6;0,0,3)
# binomials are a partial seed, so they run with whole_ideal=False and skip
# no pair.
PINNED_TRACES = [
    ("group(C(6;0,1,3,3))", "lift(rc(6,3,1); sizes=1,1,2)", None,
     (174, 174, 992, 12539, 0, 536, 984, 992, 1105, 2332, 1419)),
    ("group(C(6;0,1,1,3))", "lift(rc(6,3,1); sizes=1,2,1)", None,
     (102, 102, 445, 4099, 0, 200, 407, 445, 507, 1094, 551)),
    ("pinched(2,4,2)", "lex", None, (33, 58, 151, 1085, 88, 115, 214, 126, 94, 450, 305)),
    ("pinched(3,3,2)", "degrevlex", 3, (56, 64, 214, 1503, 11, 92, 196, 206, 164, 580, 358)),
    ("group(C(8;0,2,6))", "deglex : w12 > w0 > w4 > w10 > w1 > w5 > w7 > w3 > w9 > w11 > w8 > w2 > w6",
     None, (50, 56, 145, 1104, 6, 89, 196, 139, 160, 434, 268)),
    ("group(C(6;0,0,3))",
     "deglex : w4 > w0 > w15 > w2 > w3 > w9 > w10 > w7 > w8 > w13 > w14 > w11 > w1 > w6 > w12 > w5",
     [((8, 8, 8, 14), (3, 7, 15, 15)), ((1, 7, 9, 11), (2, 4, 6, 15)),
      ((6, 6, 9, 9), (0, 12, 12, 12)), ((1, 1, 3, 15), (0, 5, 5, 8))],
     (4, 15, 43, 35, 26, 1, 0, 32, 29, 116, 39)),
    ("group(C(4;0,0,2,2))",
     "deglex : w2 > w4 > w12 > w1 > w6 > w0 > w17 > w16 > w10 > w3 > w15 > w18 > w5 > w14 > w11 > w9 > w8 > w7 > w13",
     None, (105, 161, 965, 10038, 324, 750, 803, 909, 1085, 2570, 1853)),
]


@pytest.mark.parametrize("family, order_text, gens, counts", PINNED_TRACES)
def test_buchberger_trace_is_pinned(caplog, family, order_text, gens, counts):
    omega = parse_family(family).build()
    whole_ideal = not isinstance(gens, list)  # index multisets are a partial seed
    if isinstance(gens, list):
        gens = [from_indices(omega, lhs, rhs) for lhs, rhs in gens]
    else:  # a k_max for the table's generators
        gens = toric_generators(omega, k_max=gens)
    with caplog.at_level(logging.DEBUG, logger="veroproj"):
        buchberger(gens, parse_order(order_text, omega), whole_ideal=whole_ideal)
    [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("buchberger:")]
    assert tuple(map(int, re.findall(r"\d+", line))) == counts


# Buchberger inputs, the most `_decode` calls each may take, and the digest of
# the basis.  When every nonzero normal form and final element was decoded,
# they took 696, 232 and 60.  The lift's inputs are its reduced basis, so it
# needs none.  The four binomials of C(6;0,0,3) strip gcds on the way, and a
# stripped side must not take the vector of the side it was stripped from.
DECODE_CASES = [
    (*GROWN_BASES[2][:3], 0, GROWN_BASES[2][4]),
    (*GROWN_BASES[0][:3], 231, GROWN_BASES[0][4]),
    (*PINNED_TRACES[5][:3], 59, "f0c8d563d43b9d351f7162ead247c5ce389810c84a545cdead40ccde886dd35f"),
]


@pytest.mark.parametrize(
    "family, order_text, gens, most, digest", DECODE_CASES, ids=["lift", "grow", "strip"]
)
def test_buchberger_decodes_only_what_no_input_gave(monkeypatch, family, order_text, gens, most, digest):
    omega = parse_family(family).build()
    whole_ideal = not isinstance(gens, list)
    if isinstance(gens, list):  # pairs of index multisets of a partial seed, as in PINNED_TRACES
        gens = [from_indices(omega, lhs, rhs) for lhs, rhs in gens]
    else:
        gens = toric_generators(omega, k_max=gens)
    decoded, decode = [], groebner._decode
    monkeypatch.setattr(groebner, "_decode", lambda code, mu: decoded.append(code) or decode(code, mu))
    gb = buchberger(gens, parse_order(order_text, omega), whole_ideal=whole_ideal)
    # no input side is decoded, and no code twice
    sides = {_code(vec) for g in gens for vec in (g.plus, g.minus)}
    assert sides.isdisjoint(decoded) and len(set(decoded)) == len(decoded) <= most
    pairs = sorted([list(g.plus), list(g.minus)] for g in gb.elements)
    assert hashlib.sha256(json.dumps(pairs).encode()).hexdigest() == digest


def test_buchberger_names_its_precondition_on_a_partial_generating_set():
    # four cubics of the toric ideal of C(6;0,0,2) that do not generate it
    omega = invariants_of_degree(cyclic_group(6, (0, 0, 2)), 1)
    pairs = [
        ((2, 2, 10), (0, 6, 9)),
        ((0, 5, 10), (2, 4, 7)),
        ((0, 0, 9), (2, 2, 2)),
        ((6, 9, 11), (8, 8, 10)),
    ]
    gens = [from_indices(omega, lhs, rhs) for lhs, rhs in pairs]
    order = parse_order("deglex : w11 > w10 > w4 > w6 > w8 > w1 > w7 > w0 > w2 > w9 > w5 > w3", omega)
    with pytest.raises(AssertionError, match="not gcd-free: the inputs do not generate the whole toric ideal"):
        buchberger(gens, order)


def test_groebner_degree_dominates_generator_degrees():
    # basis degrees can never undercut the minimal generator degrees
    rng = random.Random(77)
    b512 = invariants_of_degree(cyclic_group(5, (0, 1, 2)), 1)
    table = minimal_generator_table(b512)
    want = max(table.degrees)
    gens = toric_generators(b512)
    mu = len(b512)
    for kind in ("degrevlex", "lex"):
        ranks = tuple(rng.sample(range(mu), mu))
        gb = buchberger(gens, TermOrder(kind, ranks))
        assert gb.max_degree >= want


def test_search_finds_rc_order_first():
    b613 = invariants_of_degree(cyclic_group(6, (0, 1, 3)), 1)
    res = search_quadratic_order(b613, budget=40, seed=0)
    assert res.found and res.tried == 1
    assert res.order.spec_string() == "rc(6,3,1)"
    gb = quadratic_basis(res.order, minimal_generator_table(b613, k_max=3, bound="user"))
    assert gb.max_degree == 2
    assert gb.elements == buchberger(toric_generators(b613), res.order).elements
    assert verify_groebner(gb, toric_generators(b613))


def test_search_quartic_group_within_heuristics():
    bq = invariants_of_degree(cyclic_group(4, (0, 1, 2, 3)), 1)
    res = search_quadratic_order(bq, budget=400, seed=0)
    assert res.found
    assert res.tried <= 60  # found among the sorted-member heuristics
    gb = quadratic_basis(res.order, minimal_generator_table(bq, k_max=3, bound="user"))
    assert gb.is_quadratic
    assert gb.elements == buchberger(toric_generators(bq), res.order).elements
    assert verify_groebner(gb)


def test_search_logs_its_count(caplog):
    bq = invariants_of_degree(cyclic_group(4, (0, 1, 2, 3)), 1)
    with caplog.at_level(logging.DEBUG, logger="veroproj"):
        hit = search_quadratic_order(bq, budget=400, seed=0)
        miss = search_quadratic_order(bq, budget=5, seed=0)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("search_quadratic_order:")]
    assert len(lines) == 2
    cubics = minimal_generator_table(bq, k_max=3, bound="user").cubics
    pattern = (
        r"search_quadratic_order: C3 = (\d+), (\S+) after (\d+) candidates, "
        r"surplus per failed candidate \[(.*)\]"
    )
    for line, res in zip(lines, (hit, miss)):
        c3, status, tried, listed = re.fullmatch(pattern, line).groups()
        surplus = [int(x) for x in listed.split(", ") if x]
        assert (int(c3), status, int(tried)) == (cubics, res.status, res.tried)
        # a failed candidate has more standard multisets than components
        assert len(surplus) == res.tried - res.found and min(surplus) > 0
    assert hit.found and hit.tried > 1 and miss.tried == 5 and not miss.found


def test_ambient_ranks():
    omega = MonomialSet.full(1, 3)  # members descending: 30, 21, 12, 03
    assert ambient_ranks(omega, TermOrder("degrevlex", (0, 1))) == (0, 1, 2, 3)
    assert ambient_ranks(omega, TermOrder("degrevlex", (1, 0))) == (3, 2, 1, 0)


def test_candidate_orders_are_distinct():
    # mu = 7 reaches the all-permutations stage, mu = 10 the random one
    for d, weights in ((8, (0, 1, 6)), (14, (0, 2, 11))):
        b1 = invariants_of_degree(cyclic_group(d, weights), 1)
        seen = [o.weights for o in itertools.islice(_candidate_orders(b1, seed=0), 300)]
        assert len(set(seen)) == len(seen) == 300
    # revlex repeats degrevlex on the canonical ranking, so the lex order
    # that succeeds is now the second candidate, not the third
    b1 = invariants_of_degree(cyclic_group(8, (0, 1, 6)), 1)
    res = search_quadratic_order(b1, budget=10, seed=0)
    assert res.found and res.tried == 2
    assert res.order.spec_string() == "lex : w0 > w1 > w2 > w3 > w4 > w5 > w6"


def test_search_reports_impossible_tables():
    b512 = invariants_of_degree(cyclic_group(5, (0, 1, 2)), 1)
    res = search_quadratic_order(b512, budget=40, seed=3)
    assert not res.found
    assert res.status == "not-found-within"
    assert res.impossible
    assert res.tried == 0
    assert "degree 3" in res.warning


def test_search_deterministic_for_fixed_seed():
    bq = invariants_of_degree(cyclic_group(4, (0, 1, 2, 3)), 1)
    a = search_quadratic_order(bq, budget=100, seed=9)
    b = search_quadratic_order(bq, budget=100, seed=9)
    assert a.found == b.found and a.tried == b.tried
    assert a.order.spec_string() == b.order.spec_string()


def test_search_full_veronese_small():
    for n, d in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]:
        res = search_quadratic_order(MonomialSet.full(n, d), budget=60, seed=0)
        assert res.found, (n, d)


# 2-normal families, whose tables certify the ideal up to degree 3
TWO_NORMAL_FAMILIES = ("full(1,4)", "full(2,2)", "full(2,3)", "pinched(2,4,2)", "pinched(3,2,2)")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_quadratic_basis_agrees_with_buchberger(data):
    """The fiber criterion against Buchberger on the table's generators.

    A non-quadratic group is read through a table verified to degree 2
    only, so both sides work on the ideal its degree-2 generators span.
    """
    if data.draw(st.booleans()):
        omega = parse_family(data.draw(st.sampled_from(TWO_NORMAL_FAMILIES))).build()
    else:
        d = data.draw(st.integers(2, 9))
        weights = (0, data.draw(st.integers(0, d - 1)), data.draw(st.integers(1, d - 1)))
        omega = invariants_of_degree(cyclic_group(d, weights), 1)
    quadratic = bool(minimal_generator_table(omega).quadraticity())
    k_max = None if quadratic and data.draw(st.booleans()) else 2
    gens = toric_generators(omega, k_max=k_max)
    mu = len(omega)
    order = TermOrder(data.draw(st.sampled_from(KINDS)), tuple(data.draw(st.permutations(range(mu)))))
    gb = buchberger(gens, order, whole_ideal=quadratic)
    found = quadratic_basis(order, minimal_generator_table(omega, k_max=3, bound="user"))
    assert (found is not None) == (gb.max_degree <= 2)
    if found is not None:
        assert found.elements == gb.elements and found.max_degree == gb.max_degree


def _reference_quadratic_basis(omega, quadrics, components, order):
    """The per-component criterion: the basis of the lead -> trail map an
    order puts on the degree-2 fibers, its elements sorted as `buchberger`
    sorts them, when every degree-3 fiber component with more than one
    multiset has exactly one multiset with no lead sub-pair, else None."""
    weights = order.weights
    leads = {}
    for fiber in quadrics:
        least = min(fiber, key=lambda pair: weights[pair[0]] + weights[pair[1]])
        leads.update((pair, least) for pair in fiber if pair != least)
    for comp in components:
        standard = sum(not leads.keys() & {(a, b), (a, c), (b, c)} for a, b, c in comp)
        if len(comp) > 1 and standard != 1:
            return None
    elements = sorted(
        (from_indices(omega, lead, trail) for lead, trail in leads.items()),
        key=lambda g: (g.degree, g.plus, g.minus),
    )
    return GroebnerBasis(tuple(elements), order, 2 if elements else 0)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_standard_count_agrees_with_per_component_reference(data):
    """The count of standard degree-3 multisets against the per-component
    criterion, on drawn orders and on a short search.

    Omegas are drawn as in `test_quadratic_basis_agrees_with_buchberger`;
    the fibers come from the default table or, as for a table verified
    only to degree 2, from their own walk, and the search runs on a table
    verified to degree 2 when the ideal has cubic generators.
    """
    if data.draw(st.booleans()):
        omega = parse_family(data.draw(st.sampled_from(TWO_NORMAL_FAMILIES))).build()
    else:
        d = data.draw(st.integers(2, 9))
        weights = (0, data.draw(st.integers(0, d - 1)), data.draw(st.integers(1, d - 1)))
        omega = invariants_of_degree(cyclic_group(d, weights), 1)
    table = minimal_generator_table(omega)
    fibers = table if data.draw(st.booleans()) else minimal_generator_table(omega, k_max=3, bound="user")
    quadrics = [e for e in brute_fibers(omega, 2).values() if len(e) > 1]
    components = [c for e in brute_fibers(omega, 3).values() for c in brute_components(e)]
    assert fibers.cubics == len(components)

    mu = len(omega)
    for _ in range(4):
        ranks = tuple(data.draw(st.permutations(range(mu))))
        order = TermOrder(data.draw(st.sampled_from(KINDS)), ranks)
        assert quadratic_basis(order, fibers) == _reference_quadratic_basis(omega, quadrics, components, order)

    k_max = None if table.quadraticity() else 2
    res = search_quadratic_order(omega, budget=8, seed=data.draw(st.integers(0, 3)), k_max=k_max)
    tried = 0
    for order in itertools.islice(_candidate_orders(omega, res.seed), 8):
        tried += 1
        if _reference_quadratic_basis(omega, quadrics, components, order) is not None:
            assert res.found and res.order == order and res.tried == tried
            break
    else:
        assert not res.found and res.tried == tried


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_standard_count_against_brute_force(data):
    """`_standard_count` against a count of the multisets a <= b <= c with no
    lead sub-pair, under drawn orders, lead columns included.

    Omegas are drawn as in `test_quadratic_basis_agrees_with_buchberger`.
    """
    if data.draw(st.booleans()):
        omega = parse_family(data.draw(st.sampled_from(TWO_NORMAL_FAMILIES))).build()
    else:
        d = data.draw(st.integers(2, 9))
        weights = (0, data.draw(st.integers(0, d - 1)), data.draw(st.integers(1, d - 1)))
        omega = invariants_of_degree(cyclic_group(d, weights), 1)
    table = minimal_generator_table(omega, k_max=3, bound="user")
    mu = len(omega)
    lead = data.draw(st.just(()) | st.lists(st.integers(0, 3), min_size=mu, max_size=mu).map(tuple))
    order = TermOrder(data.draw(st.sampled_from(KINDS)), tuple(data.draw(st.permutations(range(mu)))), lead=lead)
    assert _standard_count(order, table) == standard_count(order, table.quadrics)


def test_standard_count_with_square_leads():
    # x0^2 * x1^2 = (x0 x1)^2 in full(2,2): the fiber {(0, 3), (1, 1)} has a
    # square, which some orders make the lead and others the trail; the
    # multisets with a repeated index, (1, 1, c) among them, count either way
    omega = MonomialSet.full(2, 2)
    table = minimal_generator_table(omega, k_max=3, bound="user")
    assert [(0, 3), (1, 1)] in table.quadrics
    squares = set()
    for ranks in itertools.islice(itertools.permutations(range(len(omega))), 0, 720, 5):
        for kind in KINDS:
            order = TermOrder(kind, ranks)
            assert _standard_count(order, table) == standard_count(order, table.quadrics)
            squares.add(any(a == b for a, b in leads(order, table.quadrics)))
    assert squares == {True, False}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_buchberger_bases_against_brute_force(data):
    """Buchberger's basis of the whole ideal against independent routes.

    Omegas are drawn as in `test_quadratic_basis_agrees_with_buchberger`,
    with tables certified to degree 3, so the generators span the ideal.
    """
    if data.draw(st.booleans()):
        omega = parse_family(data.draw(st.sampled_from(TWO_NORMAL_FAMILIES))).build()
    else:
        d = data.draw(st.integers(2, 9))
        weights = (0, data.draw(st.integers(0, d - 1)), data.draw(st.integers(1, d - 1)))
        omega = invariants_of_degree(cyclic_group(d, weights), 1)
    table = minimal_generator_table(omega)
    gens = toric_generators(omega)
    mu = len(omega)
    order = TermOrder(data.draw(st.sampled_from(KINDS)), tuple(data.draw(st.permutations(range(mu)))))
    gb = buchberger(gens, order)
    assert verify_groebner(gb, gens)
    assert gb.max_degree >= max(table.degrees, default=0)
    # the reduced basis is unique; a cubic of the ideal put first often
    # leaves a lead that is not minimal
    cubics = [
        (p, q)
        for fiber in brute_fibers(omega, 3).values()
        for p, q in itertools.combinations(fiber, 2)
        if not set(p) & set(q)
    ]
    if cubics:
        p, q = data.draw(st.sampled_from(cubics))
        assert buchberger([from_indices(omega, p, q), *gens], order).elements == gb.elements

    def divides(u, v):
        return all(a <= b for a, b in zip(u, v))

    # reduced: each lead divides no monomial of the basis but itself
    sides = [g.plus for g in gb.elements] + [g.minus for g in gb.elements]
    for g in gb.elements:
        assert sum(divides(g.plus, m) for m in sides) == 1

    # the lead index answers exactly as a scan over every lead does
    leads = [g.plus for g in gb.elements]
    reducer = _Reducer(order, ((_code(g.plus), _code(g.minus)) for g in gb.elements))

    def standard(vec):
        hit = reducer.find(_code(vec))
        assert (hit is not None) == any(divides(lead, vec) for lead in leads)
        assert hit is None or divides(leads[hit], vec)
        return hit is None

    def monomial(multiset):
        vec = [0] * mu
        for i in multiset:
            vec[i] += 1
        return tuple(vec)

    # one standard monomial per fiber: counts match the Hilbert values
    counts = [
        sum(standard(monomial(c)) for c in itertools.combinations_with_replacement(range(mu), k))
        for k in range(4)
    ]
    assert counts == hilbert_values(omega, 3)
    extra = st.lists(st.integers(0, mu - 1), min_size=4, max_size=8)
    for multiset in data.draw(st.lists(extra, max_size=20)):
        standard(monomial(multiset))


def _apply(vec, element):
    """One reduction step on exponent tuples: vec * trail / lead."""
    lead, trail = element
    return tuple(a + t - l for a, t, l in zip(vec, trail, lead))


def _reference_reduce(reducer, elements, vec):
    """Reduce one monomial step by step, with nothing cached; `elements`
    holds the reducer's (lead, trail) pairs as exponent tuples."""
    while (hit := reducer.find(_code(vec))) is not None:
        vec = _apply(vec, elements[hit])
    return vec


def _reference_normal_form(reducer, elements, u, v):
    """The uncached alternating normal form: one step at a time, on the
    greater side while it reduces, else on the lesser."""
    while u != v:
        if sum(map(mul, u, reducer.weights)) < sum(map(mul, v, reducer.weights)):  # dense keys
            u, v = v, u
        if (hit := reducer.find(_code(u))) is not None:
            u = _apply(u, elements[hit])
        elif (hit := reducer.find(_code(v))) is not None:
            v = _apply(v, elements[hit])
        else:
            return u, v
    return None


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cached_reducer_agrees_with_uncached_reference(data):
    """The cached reducer against the uncached alternating normal form.

    Adds interleave with normal forms of inputs and of S-pairs, taken in
    a drawn order, and with reductions of drawn monomials, each asked
    twice so the second answer comes from the cache.  Every answer after
    every add must match the reference, and S-pair codes the dense sides.
    """
    if data.draw(st.booleans()):
        omega = parse_family(data.draw(st.sampled_from(TWO_NORMAL_FAMILIES))).build()
    else:
        d = data.draw(st.integers(2, 9))
        weights = (0, data.draw(st.integers(0, d - 1)), data.draw(st.integers(1, d - 1)))
        omega = invariants_of_degree(cyclic_group(d, weights), 1)
    mu = len(omega)
    order = TermOrder(data.draw(st.sampled_from(KINDS)), tuple(data.draw(st.permutations(range(mu)))))
    reducer = _Reducer(order)
    elements = []  # the reducer's (lead, trail) pairs, as exponent tuples
    todo = [(g.plus, g.minus) for g in toric_generators(omega)]
    monomials = st.lists(st.lists(st.integers(0, mu - 1), min_size=2, max_size=6), max_size=3)

    def side(i, j):  # lcm(L_i, L_j) * trail_i / lead_i, dense
        (lead_i, trail_i), (lead_j, _) = elements[i], elements[j]
        return tuple(max(a, b) + t - a for a, b, t in zip(lead_i, lead_j, trail_i))

    while todo and len(elements) < 12:
        u, v = todo.pop(data.draw(st.integers(0, len(todo) - 1)))
        nf = reducer.normal_form(_code(u), _code(v))
        ref = _reference_normal_form(reducer, elements, u, v)
        assert nf == (None if ref is None else (_code(ref[0]), _code(ref[1])))
        for multiset in data.draw(monomials):
            vec = tuple(multiset.count(i) for i in range(mu))
            for _ in range(2):
                assert reducer.reduce(_code(vec)) == _code(_reference_reduce(reducer, elements, vec))
        if nf is not None:
            elements.append(vec_strip(*ref))
            reducer.add(*map(_code, elements[-1]))
            new = len(elements) - 1
            for i in range(new):
                u, v = side(i, new), side(new, i)
                assert reducer.s_pair(i, new) == (_code(u), _code(v))
                todo.append((u, v))


def test_quadratic_basis_on_a_degree_two_table_of_a_cubic_ideal():
    # C(7;0,1,3) has a cubic minimal generator, so some degree-3 fiber has
    # two components: a whole-fiber count would reject every order, while
    # the ideal its quadrics span has quadratic bases under some of them
    b713 = invariants_of_degree(cyclic_group(7, (0, 1, 3)), 1)
    table = minimal_generator_table(b713, k_max=3, bound="user")
    gens = toric_generators(b713, k_max=2)
    verdicts = set()
    for ranks in itertools.islice(itertools.permutations(range(len(b713))), 0, 720, 7):
        for kind in ("lex", "degrevlex"):
            order = TermOrder(kind, ranks)
            gb = buchberger(gens, order, whole_ideal=False)
            found = quadratic_basis(order, table)
            assert (found is not None) == (gb.max_degree <= 2), order
            if found is not None:
                assert found.elements == gb.elements
            verdicts.add(found is not None)
    assert verdicts == {True, False}


def test_quadratic_basis_needs_a_table_verified_to_degree_three():
    omega = MonomialSet.full(2, 2)
    table = minimal_generator_table(omega, k_max=2)
    assert table.cubics is None
    with pytest.raises(ValueError, match="verified to degree 3, got 2"):
        quadratic_basis(TermOrder("lex", tuple(range(len(omega)))), table)


def test_fiber_route_decodes_the_quadrics_once(monkeypatch):
    """`toric_basis` reads the basis off its one table: the split degree-2
    classes are decoded once, and no lex-least multiset is searched for."""
    import veroproj.fibers
    import veroproj.groebner

    order, omega = rc_term_order(6, 3)
    want = buchberger(toric_generators(omega), order).elements
    decoded, searched = [], []
    decode = veroproj.fibers.GeneratorTable.quadrics.func
    quadrics = functools.cached_property(lambda table: decoded.append(table) or decode(table))
    quadrics.__set_name__(veroproj.fibers.GeneratorTable, "quadrics")
    monkeypatch.setattr(veroproj.fibers.GeneratorTable, "quadrics", quadrics)
    least = veroproj.fibers._least_multiset
    monkeypatch.setattr(veroproj.fibers, "_least_multiset", lambda *args: searched.append(args) or least(*args))

    def forbidden(*args, **kwargs):
        raise AssertionError("toric_basis ran buchberger on a quadratic order")

    monkeypatch.setattr(veroproj.groebner, "buchberger", forbidden)
    assert toric_basis(omega, order).elements == want
    assert len(decoded) == 1 and searched == []


def test_search_reads_fibers_once_and_never_runs_buchberger(monkeypatch):
    import veroproj.fibers
    import veroproj.groebner

    walks = []

    def counting(name):
        walk = getattr(veroproj.fibers, name)

        def counted(omega, k_max, *args):
            walks.append((name, k_max) + args)
            return walk(omega, k_max, *args)

        monkeypatch.setattr(veroproj.fibers, name, counted)

    def forbidden(*args, **kwargs):
        raise AssertionError("the search ran buchberger")

    counting("_walk")  # distinct products, which no table reads
    counting("_class_walk")  # the classes of every degree
    monkeypatch.setattr(veroproj.groebner, "buchberger", forbidden)
    table = [("_class_walk", 3)]  # one table's walks
    bq = invariants_of_degree(cyclic_group(4, (0, 1, 2, 3)), 1)
    res = search_quadratic_order(bq, budget=400, seed=0)
    assert res.found and res.tried > 1
    assert walks == table
    miss = search_quadratic_order(bq, budget=5, seed=0)
    assert miss.tried == 5 and not miss.found
    assert walks == table * 2
    # a table with a cubic generator settles the search after its one walk
    assert search_quadratic_order(invariants_of_degree(cyclic_group(7, (0, 1, 3)), 1)).impossible
    assert walks == table * 3
    # a table verified only to degree 2 walks up to degree 3 once more
    search_quadratic_order(bq, budget=5, seed=0, k_max=2)
    assert walks == table * 3 + [("_class_walk", 2)] + table
    # the generators' representatives come from one class walk as well
    assert len(toric_generators(bq)) == 12
    assert walks == table * 3 + [("_class_walk", 2)] + table * 2


def test_lift_omega_examples():
    m12 = MonomialSet.full(1, 2)
    assert [tuple(m) for m in lift_omega(m12, (2, 1))] == [
        tuple(m) for m in MonomialSet.full(2, 2)
    ]

    g = cyclic_group(4, (0, 1, 3))
    b1 = invariants_of_degree(g, 1)
    lifted = lift_omega(b1, (1, 2, 1))
    oracle = invariants_of_degree(block_group(g, (1, 2, 1)), 1)
    assert [tuple(m) for m in lifted] == [tuple(m) for m in oracle]

    same = lift_omega(b1, (1, 1, 1))
    assert [tuple(m) for m in same] == [tuple(m) for m in b1]


def test_lift_omega_guard_and_errors():
    b1 = invariants_of_degree(cyclic_group(4, (0, 1, 3)), 1)
    with pytest.raises(GuardExceeded):
        lift_omega(b1, (3, 3, 3), guard=10)
    with pytest.raises(ValueError):
        lift_omega(b1, (1, 2))
    with pytest.raises(ValueError):
        lift_omega(b1, (1, 0, 1))


def test_lift_order_preserves_quadratic_basis():
    order, omega = rc_term_order(6, 3)
    for sizes in [(1, 1, 2), (2, 1, 1)]:
        lifted = lift_omega(omega, sizes)
        lord = lift_order(order, omega, lifted, sizes)
        oracle = invariants_of_degree(
            block_group(cyclic_group(6, (0, 1, 3)), sizes), 1
        )
        assert [tuple(m) for m in lifted] == [tuple(m) for m in oracle]
        gens = toric_generators(oracle)
        gb = buchberger(gens, lord)
        assert gb.max_degree == 2, sizes


def test_lift_order_trivial_sizes_matches_base():
    order, omega = rc_term_order(6, 3)
    lifted = lift_omega(omega, (1, 1, 1))
    lord = lift_order(order, omega, lifted, (1, 1, 1))
    rng = random.Random(21)
    mu = len(omega)
    for _ in range(80):
        u = tuple(rng.randrange(0, 3) for _ in range(mu))
        v = tuple(rng.randrange(0, 3) for _ in range(mu))
        assert (lord.key(u) > lord.key(v)) == (order.key(u) > order.key(v))


def test_lift_order_tiebreak_prefers_first_split_exponent():
    # split the middle variable of (4;0,1,3) in two: members with equal
    # merge image are ranked by the larger first-split exponent
    g = cyclic_group(4, (0, 1, 3))
    b1 = invariants_of_degree(g, 1)
    order = TermOrder("degrevlex", tuple(range(len(b1))))
    lifted = lift_omega(b1, (1, 2, 1))
    lord = lift_order(order, b1, lifted, (1, 2, 1))
    members = [tuple(m) for m in lifted]
    by_image: dict[int, list[int]] = {}
    for j, img in enumerate(_image(b1, lifted, (1, 2, 1))):
        by_image.setdefault(img, []).append(j)
    for img, group_vars in by_image.items():
        ranked = sorted(group_vars, key=lord.position_of)
        for a, b in zip(ranked, ranked[1:]):
            assert members[a] > members[b]


def test_parse_order_round_trips():
    omega = MonomialSet.full(2, 2)
    order = parse_order("degrevlex : w3 > w0 > w1 > w2 > w5 > w4", omega)
    assert order.kind == "degrevlex"
    assert order.variable_rank == (3, 0, 1, 2, 5, 4)
    again = parse_order(order.spec_string(), omega)
    assert again.variable_rank == order.variable_rank

    bare = parse_order("lex", omega)
    assert bare.variable_rank == tuple(range(6))

    rc, rc_omega = rc_term_order(6, 3)
    parsed = parse_order("rc(6,3,1)", rc_omega)
    assert parsed.variable_rank == rc.variable_rank
    # an untagged set is read as the invariants of (0,1,k)
    untagged = parse_order("rc(6,3,1)", MonomialSet(list(rc_omega)))
    assert untagged.variable_rank == rc.variable_rank

    lifted = lift_omega(rc_omega, (1, 1, 2))
    lord = lift_order(rc, rc_omega, lifted, (1, 1, 2))
    reparsed = parse_order(lord.spec_string(), lifted)
    rng = random.Random(3)
    for _ in range(40):
        u = tuple(rng.randrange(0, 3) for _ in range(len(lifted)))
        v = tuple(rng.randrange(0, 3) for _ in range(len(lifted)))
        assert (reparsed.key(u) > reparsed.key(v)) == (lord.key(u) > lord.key(v))


def test_parse_order_errors():
    omega = MonomialSet.full(2, 2)
    with pytest.raises(SpecParseError):
        parse_order("alphabetical : w0 > w1 > w2 > w3 > w4 > w5", omega)
    with pytest.raises(ValueError):
        parse_order("lex : w0 > w1", omega)
    with pytest.raises(SpecParseError):
        parse_order("rc(6,3,2)", omega)
    with pytest.raises(SpecParseError):
        parse_order("rc(6,4,1)", omega)  # k(k-1) does not divide d
    with pytest.raises(SpecParseError):
        parse_order("rc(6,1,1)", omega)
    with pytest.raises(SpecParseError):
        parse_order("rc(6,3,1)", omega)  # wrong monomial set
    with pytest.raises(SpecParseError):
        parse_order("lift(lex; sizes=2,2)", omega)  # block count does not fit 3 variables
    for sizes, total in (("1,1", 2), ("1,1,1,1", 4)):  # checked before the blocks are merged
        with pytest.raises(SpecParseError, match=f"sizes sum to {total}, but the monomials have 3"):
            parse_order(f"lift(lex; sizes={sizes})", omega)
    with pytest.raises(SpecParseError):
        parse_order("nonsense", omega)


def test_toric_basis_logs_its_route(caplog):
    """Each route gives Buchberger's basis on the table's generators, and
    one debug line names it with the element count."""
    cases = [
        ("full(2,3)", "degrevlex", None, "fiber route"),
        ("group(C(4;0,1,2,3))", "degrevlex", None, "buchberger, whole_ideal=True"),
        ("group(C(5;0,1,2,3))", "lex", 2, "buchberger, whole_ideal=False"),
        # a cubic ideal whose quadrics alone have a quadratic basis under lex
        ("group(C(7;0,1,3))", "lex", 3, "buchberger, whole_ideal=False"),
    ]
    for family, order_text, k_max, route in cases:
        omega = parse_family(family).build()
        order = parse_order(order_text, omega)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="veroproj"):
            gb = toric_basis(omega, order, k_max=k_max)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("toric_basis:")]
        assert lines == [f"toric_basis: {route}, {len(gb.elements)} elements"]
        want = buchberger(toric_generators(omega, k_max=k_max), order, whole_ideal=k_max is None)
        assert gb == want


def test_rc_label_search_and_parse_agree():
    """One certificate behind the label, the first search candidate and rc(...).

    For every canonical surface group up to order 30, the label cites the
    rc rule exactly when the search starts with an rc order, and that
    order's spec string parses back against the group's B_1 to the same
    ranking, whichever coordinates of the group carry the (0,1,k) roles.
    """
    rc_groups = []
    for d in range(2, 31):
        for weights in canonical_weight_vectors(2, d):
            group = cyclic_group(d, weights)
            b1 = invariants_of_degree(group, 1)
            first = next(_candidate_orders(b1, seed=0))
            is_rc = first.spec_string().startswith("rc(")
            label = koszul_label(FamilySpec("group", group=group))
            assert (label.citation == "rc-order-quadratic-gb") == is_rc, group
            if is_rc:
                parsed = parse_order(first.spec_string(), b1)
                assert parsed.variable_rank == first.variable_rank, group
                rc_groups.append(group.spec_string())
    assert len(rc_groups) == 67
    assert "C(2;0,0,1)" in rc_groups and "C(8;0,2,5)" in rc_groups
