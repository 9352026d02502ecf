"""Tests for fibers, generator tables, Hilbert values, and h-polynomials."""

import logging
import math
import random
import re
from itertools import chain, combinations, combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from veroproj import fibers
from veroproj import groups as groups_module
from veroproj.errors import GuardExceeded
from veroproj.families import parse_family
from veroproj.fibers import (
    h_polynomial,
    hilbert_values,
    is_2_normal,
    is_product_of_two,
    minimal_generator_table,
)
from veroproj.groups import (
    canonical_weight_vectors,
    cyclic_group,
    h_vector_group,
    invariants_of_degree,
    parse_group,
)
from veroproj.monomials import MonomialSet, enumerate_degree, enumerate_support_bounded

from oracles import brute_components, brute_fibers, product


def escalating_family(d: int) -> MonomialSet:
    # pure powers, the near-power x0^{d-1}x1, and the ladder
    # x0^k x1^{d-2k} x2^k; its toric ideal needs a generator of degree d
    members = [(d, 0, 0), (0, d, 0), (0, 0, d), (d - 1, 1, 0)]
    members.extend((k, d - 2 * k, k) for k in range(1, d // 2 + 1))
    return MonomialSet(members)


def _in_different_components(omega: MonomialSet, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Whether two multisets lie in one fiber but in different components of its graph."""
    fiber = brute_fibers(omega, len(a))[product(omega, a)]
    return b in fiber and not any(a in comp and b in comp for comp in brute_components(fiber))


# in the fiber of x^4 y z^4 the multisets of the pair (p, j) = (x^2y * x^2z, z^3)
# join the classes of x^2y (xz^2)^2 and (x^2z)^2 yz^2, which arrive first
OVERLAP_OMEGA = MonomialSet(
    [(2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 0, 2), (0, 3, 0), (0, 1, 2), (0, 0, 3)]
)


def _brute_table(omega: MonomialSet, k_max: int) -> tuple[dict, dict]:
    """Generator counts and representatives from the brute-force components:
    in descending product order, each component's least multiset paired
    with the fiber's least one."""
    degrees, reps = {}, {}
    for k in range(2, k_max + 1):
        fibs = brute_fibers(omega, k)
        for target in sorted(fibs, reverse=True):
            comps = brute_components(fibs[target])
            if len(comps) > 1:
                degrees[k] = degrees.get(k, 0) + len(comps) - 1
                reps.setdefault(k, []).extend((c[0], comps[0][0]) for c in comps[1:])
    return degrees, reps


def _check_walk_levels(omega: MonomialSet, k_max: int) -> None:
    # each distinct level maps every product to the least last index of its multisets
    radix = fibers._radix(omega, k_max)
    for k, level in enumerate(fibers._walk(omega, k_max), start=1):
        assert level == {
            fibers._pack(t, radix): min(e[-1] for e in elements)
            for t, elements in brute_fibers(omega, k).items()
        }


def _check_class_levels(omega: MonomialSet, k_max: int) -> None:
    # each class level maps every product to the union of its components' indices
    # (a last degree 3, walked from standard multisets, keeps no union masks: only its
    # products are compared), and its split dict holds exactly the fibers of several
    # components, with their masks
    radix = fibers._radix(omega, k_max)
    for k, (masks, _, split) in enumerate(fibers._class_walk(omega, k_max), start=2):
        comps = {
            fibers._pack(t, radix): [sum(1 << i for i in set(chain(*c))) for c in brute_components(e)]
            for t, e in brute_fibers(omega, k).items()
        }
        if k == k_max == 3:
            assert set(masks) == set(comps)
        else:
            assert masks == {q: sum(cs) for q, cs in comps.items()}
        assert set(split) == {q for q, cs in comps.items() if len(cs) > 1}
        for q, classes in split.items():
            assert sorted(classes) == sorted(comps[q])


def test_walk_levels_map_products_to_least_last_index():
    _check_walk_levels(escalating_family(4), 3)


def test_class_levels_match_brute_components():
    # OVERLAP_OMEGA merges classes at degree 3; escalating_family(4) splits at degrees 2 and 4
    _check_class_levels(OVERLAP_OMEGA, 4)
    _check_class_levels(escalating_family(4), 4)


def test_guard_trips_with_exact_count():
    omega = MonomialSet.full(2, 3)  # degrees 2 to 4 hold at most 715 multisets
    with pytest.raises(GuardExceeded, match="degree-5 fibers") as exc:
        minimal_generator_table(omega, k_max=5, guard=1000)
    assert exc.value.count == math.comb(len(omega) + 4, 5)


def test_escalating_generator_tables():
    expected = {
        4: {2: 2, 4: 1},
        5: {2: 1, 3: 2, 5: 1},
        6: {2: 4, 6: 1},
    }
    for d, table in expected.items():
        got = minimal_generator_table(escalating_family(d), k_max=d + 1)
        assert got.degrees == table, f"d={d}: {got.degrees} != {table}"
        assert got.bound == "user"
        q = got.quadraticity()
        assert q.status == "no" and q.witness_degree == min(k for k in table if k > 2)
    # each generator joins two factorizations that no chain of trivial
    # moves connects: the degree-2 and degree-4 fibers are disconnected
    omega = escalating_family(4)
    reps = minimal_generator_table(omega, k_max=4).representatives
    assert {k: len(pairs) for k, pairs in reps.items()} == {2: 2, 4: 1}
    for pairs in reps.values():
        for lhs, rhs in pairs:
            assert _in_different_components(omega, lhs, rhs)


def test_generator_count_degree2_oracle():
    # degree-2 count must equal (pairs) - (distinct pair products)
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(1, 3)
        d = rng.randint(2, 4)
        pool = enumerate_degree(n, d)
        omega = MonomialSet(rng.sample(pool, rng.randint(2, min(9, len(pool)))))
        mu = len(omega)
        products = {
            tuple(a + b for a, b in zip(omega[i], omega[j]))
            for i in range(mu)
            for j in range(i, mu)
        }
        expected2 = math.comb(mu + 1, 2) - len(products)
        table = minimal_generator_table(omega, k_max=2)
        assert table.degrees.get(2, 0) == expected2


def test_complement_quartic_table():
    omega = MonomialSet.full(2, 4).remove((2, 2, 0))
    table = minimal_generator_table(omega, k_max=3)
    assert table.degrees == {2: 60, 3: 3}


def test_representatives():
    omega = escalating_family(4)
    table = minimal_generator_table(omega, k_max=4)
    assert set(table.representatives) == {2, 4}
    for k, pairs in table.representatives.items():
        assert len(pairs) == table.degrees[k]
        for lhs, rhs in pairs:
            assert product(omega, lhs) == product(omega, rhs)
            assert len(lhs) == len(rhs) == k
    js = table.to_json_dict()
    assert js["degrees"] == {"2": 2, "4": 1}
    assert js["bound"] == "user"


def test_bound_resolution():
    omega = MonomialSet.full(2, 2)
    t = minimal_generator_table(omega)  # full Veronese is 2-normal
    assert t.bound == "two-normal" and t.verified_up_to == 3
    g = parse_group("C(4;0,1,2,3)")
    b1 = invariants_of_degree(g, 1)
    t2 = minimal_generator_table(b1)
    assert t2.bound == "group" and t2.verified_up_to == 3
    bad = escalating_family(4)
    with pytest.raises(ValueError, match="no completeness bound"):
        minimal_generator_table(bad)
    with pytest.raises(ValueError, match="not 2-normal"):
        minimal_generator_table(bad, bound="two-normal")
    with pytest.raises(ValueError, match="no origin group"):
        minimal_generator_table(bad, bound="group")
    with pytest.raises(ValueError, match="explicit k_max"):
        minimal_generator_table(bad, bound="user")


def test_implied_two_normal_bound_checks_once(monkeypatch):
    calls = []

    def counting(omega, guard):
        calls.append(omega)
        return is_2_normal(omega, guard)

    monkeypatch.setattr(fibers, "is_2_normal", counting)
    table = minimal_generator_table(MonomialSet.full(2, 2))
    assert table.bound == "two-normal" and len(calls) == 1
    with pytest.raises(ValueError, match="no completeness bound"):
        minimal_generator_table(escalating_family(4))
    assert len(calls) == 2


def test_hilbert_values_against_bruteforce():
    rng = random.Random(23)
    for _ in range(8):
        n = rng.randint(1, 3)
        d = rng.randint(1, 4)
        pool = enumerate_degree(n, d)
        omega = MonomialSet(rng.sample(pool, rng.randint(1, min(6, len(pool)))))
        values = hilbert_values(omega, 3)
        assert values[0] == 1 and values[1] == len(omega)
        for k in (2, 3):
            brute = {
                tuple(sum(col) for col in zip(*combo))
                for combo in combinations_with_replacement(list(omega), k)
            }
            assert values[k] == len(brute)


def test_is_2_normal():
    ok, witness = is_2_normal(MonomialSet.full(2, 3))
    assert ok and witness is None
    omega = MonomialSet(enumerate_support_bounded(3, 5, 2))
    ok, witness = is_2_normal(omega)
    assert not ok
    # oracle: recompute the missing set from scratch
    products = {
        tuple(a + b for a, b in zip(u, v))
        for u in omega
        for v in omega
    }
    missing = [tuple(m) for m in enumerate_degree(3, 10) if tuple(m) not in products]
    assert tuple(witness) == min(missing) == (1, 1, 1, 7)
    # the classical illustration is a witness too, just not the least one
    assert (2, 2, 2, 4) in set(missing)
    assert not is_product_of_two(omega, (2, 2, 2, 4))
    assert is_product_of_two(omega, (10, 0, 0, 0))


def test_complement_of_single_monomial_2_normality():
    # dropping one non-pure-power keeps 2-normality except for the
    # near-powers x_i^{d-1}x_j: their shadow x_i^{2d-1}x_j factors only
    # through the removed monomial
    for n, d in [(2, 4), (2, 5), (3, 3)]:
        full = MonomialSet.full(n, d)
        for m in full:
            if len(m.support()) < 2:
                continue
            omega = full.remove(m)
            ok, witness = is_2_normal(omega)
            near_power = max(m) == d - 1 and len(m.support()) == 2
            assert ok == (not near_power), (n, d, tuple(m))
            if near_power:
                i = max(range(n + 1), key=lambda p: m[p])
                shadow = tuple(e + (d if p == i else 0) for p, e in enumerate(m))
                assert not is_product_of_two(omega, shadow)
                assert hilbert_values(omega, 2)[2] < math.comb(n + 2 * d, n)
            else:
                assert witness is None
                values = hilbert_values(omega, 3)
                for k in (2, 3):
                    assert values[k] == math.comb(n + k * d, n)


def test_first_disconnected_fiber():
    omega = escalating_family(4)
    members = [fibers._pack(m, fibers._radix(omega, 4)) for m in omega]
    splits = [split for _, _, split in fibers._class_walk(omega, 4)]
    assert [len(split) > 0 for split in splits] == [True, False, True]
    # the degree-4 generator shows up as a disconnected degree-4 fiber
    for k, split in ((2, splits[0]), (4, splits[2])):
        for q, classes in split.items():
            assert not any(a & b for a, b in combinations(classes, 2))
            least = [fibers._least_multiset(members, c, q, k) for c in classes]
            for a, b in zip(least, least[1:]):
                assert _in_different_components(omega, a, b)


def test_components_keep_the_multisets_of_a_merged_component():
    # a degree-3 fiber of the full quadratic Veronese of the plane has a
    # multiset that joins two components its predecessors left apart
    _check_class_levels(MonomialSet.full(2, 2), 3)


def test_least_multiset_against_bruteforce():
    # the lex-least multiset of a product on the masked indices, none below lo
    omega = escalating_family(5)
    mu = len(omega)
    radix = fibers._radix(omega, 3)
    members = [fibers._pack(m, radix) for m in omega]
    for mask in (2**mu - 1, 0b110101, 0b011010):
        for lo in range(mu + 1):
            for k in (1, 2, 3):
                for target, elements in brute_fibers(omega, k).items():
                    allowed = [e for e in elements if e[0] >= lo and all(mask >> i & 1 for i in e)]
                    got = fibers._least_multiset(members, mask, fibers._pack(target, radix), k, lo)
                    assert got == min(allowed, default=None)


def test_representatives_against_brute_components():
    cases = ((MonomialSet.full(2, 2), 3), (escalating_family(5), 5), (OVERLAP_OMEGA, 3))
    for omega, k_max in cases:
        degrees, reps = _brute_table(omega, k_max)
        table = minimal_generator_table(omega, k_max=k_max)
        assert (table.degrees, table.representatives) == (degrees, reps)


def test_h_polynomial_group_route():
    g = parse_group("C(4;0,1,2,3)")
    b1 = invariants_of_degree(g, 1)
    hp = h_polynomial(b1)
    assert hp == (1, 6, 9, 0)
    # the series route and the direct invariant count agree
    assert hp == h_vector_group(g).h


def test_h_polynomial_veronese():
    omega = MonomialSet.full(2, 2)
    # second Veronese of the plane has h-vector (1, 3, 0)
    assert h_polynomial(omega) == (1, 3, 0)


def test_h_polynomial_errors():
    omega = MonomialSet.full(2, 2).remove((2, 0, 0))
    with pytest.raises(ValueError, match="pure powers"):
        h_polynomial(omega)
    g = parse_group("C(4;0,1,2,3)")
    b1 = invariants_of_degree(g, 1)
    with pytest.raises(ValueError, match="insufficient"):
        h_polynomial(b1, k_max=3)


@st.composite
def _small_omegas(draw) -> MonomialSet:
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 4))
    pool = enumerate_degree(n, d)
    size = draw(st.integers(1, min(12, len(pool))))
    return MonomialSet(draw(st.permutations(pool))[:size])


@settings(max_examples=60, deadline=None)
@given(_small_omegas(), st.integers(1, 4))
def test_walker_agrees_with_bruteforce(omega, k_max):
    brute = {k: brute_fibers(omega, k) for k in range(1, k_max + 1)}
    _check_walk_levels(omega, k_max)
    _check_class_levels(omega, k_max)

    degrees, reps = _brute_table(omega, k_max)
    table = minimal_generator_table(omega, k_max=k_max)
    assert (table.degrees, table.representatives) == (degrees, reps)
    if k_max >= 2:
        # descending product order, each fiber's pairs ascending
        quadrics = [brute[2][t] for t in sorted(brute[2], reverse=True) if len(brute[2][t]) > 1]
        assert table.quadrics == quadrics
    if k_max >= 3:
        cubics = [c for e in brute[3].values() for c in brute_components(e)]  # singletons too
        assert table.cubics == len(cubics)
    else:
        assert table.cubics is None

    assert hilbert_values(omega, k_max) == [1] + [len(brute[k]) for k in range(1, k_max + 1)]

    products = set(brute_fibers(omega, 2))
    missing = [tuple(m) for m in enumerate_degree(omega.n, 2 * omega.d) if tuple(m) not in products]
    ok, witness = is_2_normal(omega)
    assert ok == (not missing)
    assert witness == (min(missing) if missing else None)


def _degree_three_level(omega: MonomialSet, k_max: int) -> tuple[set, dict]:
    # the degree-3 products as exponent vectors, and each split fiber's classes as a set
    radix = fibers._radix(omega, k_max)

    def unpack(q: int) -> tuple[int, ...]:
        return tuple(q // radix**e % radix for e in range(omega.n, -1, -1))

    products, _, split = list(fibers._class_walk(omega, k_max))[1]
    return {unpack(q) for q in products}, {unpack(q): set(cs) for q, cs in split.items()}


@settings(max_examples=100, deadline=None)
@given(_small_omegas())
@example(parse_family("pinched(3,3,2)").build())  # closures that take more than one round
def test_standard_route_agrees_with_the_pair_walk(omega):
    # a walk that stops at degree 3 takes it from standard multisets; one walked
    # to degree 4 visits every (p, j) pair there
    assert _degree_three_level(omega, 3) == _degree_three_level(omega, 4)


def test_quadrics_are_decoded_once_and_only_when_read():
    omega = escalating_family(4)
    table = minimal_generator_table(omega, k_max=3)
    assert "quadrics" not in vars(table) and "representatives" not in vars(table)
    quadrics = table.quadrics
    # x^4 z^4 = x^4 * z^4 = (x^2 z^2)^2 and x^2 y^4 z^2 = x^2 z^2 * y^4 = (x y^2 z)^2
    assert quadrics == [[(0, 5), (2, 2)], [(2, 4), (3, 3)]]
    assert vars(table)["quadrics"] is quadrics is table.quadrics
    # the degree-2 representatives pair the same decoded pairs
    assert table.representatives == {2: [(b, a) for a, b in quadrics]}
    assert table.quadrics is quadrics


def test_class_walk_joins_every_class_a_pair_overlaps():
    # a merge into the first overlapping class alone would leave two classes of one component
    degrees, _ = _brute_table(OVERLAP_OMEGA, 3)
    assert degrees == {2: 5, 3: 4}
    assert minimal_generator_table(OVERLAP_OMEGA, k_max=3).degrees == degrees


def test_class_walk_is_checked_by_the_degree_two_identity(monkeypatch):
    omega = MonomialSet.full(2, 2)
    walk = fibers._class_walk

    def drops_a_pair(omega, k_max):
        for k, (masks, pairs, split) in enumerate(walk(omega, k_max), start=2):
            if k == 2:
                # forget the one multiset of some unsplit degree-2 fiber
                masks = dict(masks)
                del masks[next(q for q in masks if q not in split)]
                pairs -= 1
            yield masks, pairs, split

    monkeypatch.setattr(fibers, "_class_walk", drops_a_pair)
    with pytest.raises(RuntimeError, match="class walk check failed"):
        minimal_generator_table(omega, k_max=3)


def test_group_surfaces_meet_the_lattice_polygon_identity():
    # H(3) = 3 H(2) - 3 H(1) + 1 for every group-tagged surface, by the independent
    # distinct-product walk, and each table's own degree-3 products agree with it
    groups = [cyclic_group(d, w) for d in range(2, 13) for w in canonical_weight_vectors(2, d)]
    groups += [parse_group("C(4;0,1,3)+C(2;0,1,1)"), parse_group("C(2;0,1,1)+C(4;0,2,3)")]
    for group in groups:
        omega = invariants_of_degree(group, 1)
        h = hilbert_values(omega, 3)
        assert h[3] == 3 * h[2] - 3 * h[1] + 1, group.spec_string()
        table = minimal_generator_table(omega)
        assert table.cubics - table.degrees.get(3, 0) == h[3]


def test_class_walk_is_checked_by_the_surface_hilbert_identity(monkeypatch):
    omega = invariants_of_degree(parse_group("C(7;0,1,3)"), 1)
    walk = fibers._class_walk

    def drops_a_product(omega, k_max):
        for k, (products, walked, split) in enumerate(walk(omega, k_max), start=2):
            if k == 3:
                # forget one connected degree-3 fiber
                products = dict(products)
                del products[next(q for q in products if q not in split)]
            yield products, walked, split

    monkeypatch.setattr(fibers, "_class_walk", drops_a_product)
    for k_max in (None, 4):  # the standard route of the group bound, and the pair walk
        with pytest.raises(RuntimeError, match=r"H\(3\) = 36, not 3 H\(2\) - 3 H\(1\) \+ 1"):
            minimal_generator_table(omega, k_max=k_max)


def test_one_factor_surfaces_meet_the_volume_identity():
    # H(2) - 2 H(1) + 1 = g d, g = gcd(d, w1 - w0, w2 - w0), by the independent
    # distinct-product walk; each table runs the same check and must pass it
    groups = [cyclic_group(d, w) for d in range(1, 13) for w in canonical_weight_vectors(2, d)]
    groups += [parse_group("C(6;0,2,4)"), parse_group("C(3;0,0,0)")]  # g = 2 and g = d
    for group in groups:
        d, (w0, w1, w2) = group.order, group.factors[0].weights
        omega = invariants_of_degree(group, 1)
        h = hilbert_values(omega, 2)
        assert h[2] - 2 * h[1] + 1 == math.gcd(d, w1 - w0, w2 - w0) * d, group.spec_string()
        minimal_generator_table(omega, k_max=2, bound="group")
    # a table that stops at degree 1 has no H(2) to check
    assert minimal_generator_table(omega, k_max=1).degrees == {}


def test_surface_tables_are_checked_by_the_volume_identity(monkeypatch):
    walk = groups_module._invariant_monomials

    def drops_its_last_progression(group, degree, cap=None, scale=1, out=None):
        members: list[tuple[int, ...]] = []
        walk(group, degree, cap, scale, members)
        prefix = members[-1][:-2]
        while members[-1][:-2] == prefix:
            members.pop()
        out.extend(members)
        return len(members)

    monkeypatch.setattr(groups_module, "_invariant_monomials", drops_its_last_progression)
    for spec, message in (("C(7;0,1,3)", "= 2, not g d = 7"), ("C(6;0,2,4)", "= 7, not g d = 12")):
        omega = invariants_of_degree(parse_group(spec), 1)
        for k_max in (2, 3):  # the check runs first, with or without the H(3) one
            with pytest.raises(RuntimeError, match=r"H\(2\) - 2 H\(1\) \+ 1 " + message):
                minimal_generator_table(omega, k_max=k_max, bound="group")


def _first_full_level(omega: MonomialSet, k_max: int) -> int | None:
    return next((k for k in range(1, k_max + 1)
                 if len(brute_fibers(omega, k)) == math.comb(omega.n + k * omega.d, omega.n)), None)


def test_hilbert_values_past_the_first_full_level_against_bruteforce():
    # first full at level 1, at level 2 (a pinched set, two-normal complements), and never
    # (a group's invariants, and complements of a near-power, one monomial short at level 1)
    full = MonomialSet.full(2, 4)
    cases = [(MonomialSet.full(2, 3), 1), (parse_family("pinched(2,4,2)").build(), 2)]
    cases += [(full.remove(m), None if max(m) == 3 else 2) for m in full if len(m.support()) >= 2]
    cases += [(invariants_of_degree(parse_group("C(7;0,1,3)"), 1), None)]
    for omega, first in cases:
        assert _first_full_level(omega, 4) == first
        assert hilbert_values(omega, 4) == [1] + [len(brute_fibers(omega, k)) for k in range(1, 5)]


def test_hilbert_values_stop_walking_at_the_first_full_level(monkeypatch):
    walk = fibers._walk
    drawn = []

    def counting(omega, k_max):
        for level in walk(omega, k_max):
            drawn[-1] += 1
            yield level

    monkeypatch.setattr(fibers, "_walk", counting)
    cases = (
        (MonomialSet.full(2, 3), 6, 1),
        (parse_family("pinched(2,8,2)").build(), 4, 2),
        (invariants_of_degree(parse_group("C(7;0,1,3)"), 1), 3, 3),
    )
    for omega, k_max, levels in cases:
        drawn.append(0)
        hilbert_values(omega, k_max)
        assert drawn[-1] == levels
    # the guard covers the walked levels only: level 1 of full(2, 3) is full, so the
    # 100 products level 2 would extend are never formed
    assert hilbert_values(MonomialSet.full(2, 3), 6, guard=10) == [math.comb(2 + 3 * k, 2) for k in range(7)]


def test_k_max_below_one_is_rejected():
    omega = MonomialSet.full(2, 2)
    for k_max in (0, -3):
        with pytest.raises(ValueError, match="need k_max >= 1"):
            minimal_generator_table(omega, k_max=k_max)
    table = minimal_generator_table(omega, k_max=1)
    assert (table.degrees, table.representatives, table.quadrics, table.cubics) == ({}, {}, [], None)


def test_table_logs_its_counts(caplog):
    omega = escalating_family(5)  # generators in degrees 2, 3 and 5
    with caplog.at_level(logging.DEBUG, logger="veroproj"):
        table = minimal_generator_table(omega, k_max=5)
    assert table.degrees == {2: 1, 3: 2, 5: 1}
    lines = [r.getMessage() for r in caplog.records]
    lines = [line for line in lines if line.startswith("minimal_generator_table:")]
    assert len(lines) == 1
    per_degree = re.findall(
        r"degree (\d+): (\d+) products, (\d+) \(p, j\) pairs, (\d+) fibers .*?, (\d+) generators",
        lines[0],
    )
    assert [int(k) for k, *_ in per_degree] == list(range(2, table.verified_up_to + 1))
    assert {int(k): int(g) for k, *_, g in per_degree if int(g)} == table.degrees
    for k, products, walked, split, generators in per_degree:
        assert int(products) == len(brute_fibers(omega, int(k)))
        assert int(split) <= int(generators) < int(walked)


def test_degree_three_tables_log_their_standard_walk(caplog):
    cases = [
        (escalating_family(5), (
            48,  # products: H(3), as hilbert_values counts them
            50,  # standard multisets: C3 = 48 + 2, one per component and no more
            2,  # repeated products: each split fiber is reached once per component
            2,  # split fibers: the two degree-3 fibers of two components
            2,  # generators: the family's two cubics, as test_escalating_generator_tables has
        )),
        (invariants_of_degree(parse_group("C(7;0,1,3)"), 1), (
            37,  # products: 3 H(2) - 3 H(1) + 1 = 3 * 18 - 3 * 6 + 1, a lattice polygon's H(3)
            38,  # standard multisets: C3 = 37 + 1, one per component and no more
            1,  # repeated products: the split fiber, reached once per component
            1,  # split fibers: one degree-3 fiber of two components
            1,  # generators: the one cubic this group's ideal needs
        )),
    ]
    for omega, pinned in cases:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="veroproj"):
            table = minimal_generator_table(omega, k_max=3)
        line = next(r.getMessage() for r in caplog.records if r.getMessage().startswith("minimal_"))
        got = re.search(
            r"degree 3: (\d+) products, (\d+) standard multisets, (\d+) repeated products, "
            r"(\d+) fibers of several components, (\d+) generators$", line)
        assert tuple(map(int, got.groups())) == pinned
        assert hilbert_values(omega, 3)[3] == pinned[0] and table.cubics == pinned[1]


def test_walker_checks_its_guard_before_allocating(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the walk started past its guard")

    monkeypatch.setattr(fibers, "_pack", forbidden)
    omega = MonomialSet.full(2, 3)  # mu = 10
    with pytest.raises(GuardExceeded) as exc:
        minimal_generator_table(omega, k_max=4, guard=700)
    assert exc.value.count == math.comb(13, 4)
    # degree 2 (55 multisets) fits, degree 3 (220) does not: nothing is walked
    with pytest.raises(GuardExceeded, match="degree-3 fibers") as exc:
        minimal_generator_table(omega, k_max=3, guard=100)
    assert exc.value.count == 220
    with pytest.raises(GuardExceeded, match="Hilbert value at degree 1") as exc:
        hilbert_values(omega, 3, guard=9)
    assert exc.value.count == 10
    with pytest.raises(GuardExceeded, match="2-normality") as exc:
        is_2_normal(omega, guard=27)
    assert exc.value.count == math.comb(8, 2)
    # the 231 degree-20 monomials fit, the 2211 multisets of 66 members do not
    with pytest.raises(GuardExceeded, match="degree-2 fibers over 66 members") as exc:
        is_2_normal(MonomialSet.full(2, 10), guard=231)
    assert exc.value.count == 2211
