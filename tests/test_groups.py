"""Tests for diagonal group presentations, invariants, and surface criteria."""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from veroproj.groups import (
    CyclicFactor,
    DiagonalGroup,
    HVector,
    block_group,
    canonical_weight_vectors,
    canonicalize_weights,
    count_invariants,
    cyclic_group,
    h_vector_group,
    invariants_of_degree,
    parse_group,
    surface_certificate,
    surface_quadraticity,
    triple_projections,
)
from veroproj.groups import _gcd_product, _invariant_monomials, _normal_form, _shift, _unit_orbit
from veroproj.errors import GuardExceeded, SpecParseError
from veroproj.fibers import minimal_generator_table
from veroproj.monomials import enumerate_degree

from oracles import canonical_vectors, invariants, is_invariant

# invariant monomials of the order-4 cyclic action with weights (0,1,2,3),
# in degrees 4 and 8, from the worked example these tests freeze
B1_0123 = {
    (4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4),
    (2, 1, 0, 1), (1, 2, 1, 0), (0, 1, 2, 1), (1, 0, 1, 2),
    (2, 0, 2, 0), (0, 2, 0, 2),
}
B2_0123 = {
    (8, 0, 0, 0), (0, 8, 0, 0), (1, 6, 1, 0), (2, 4, 2, 0), (3, 2, 3, 0),
    (4, 0, 4, 0), (2, 5, 0, 1), (3, 3, 1, 1), (4, 1, 2, 1), (4, 2, 0, 2),
    (5, 0, 1, 2), (0, 0, 8, 0), (0, 1, 6, 1), (0, 2, 4, 2), (1, 0, 5, 2),
    (0, 3, 2, 3), (1, 1, 3, 3), (0, 4, 0, 4), (1, 2, 1, 4), (2, 0, 2, 4),
    (2, 1, 0, 5), (0, 0, 0, 8),
}


def test_parse_and_format():
    g = parse_group("C(4; 0,1,2,3)")
    assert g.spec_string() == "C(4;0,1,2,3)"
    assert g.order == 4 and g.n == 3
    two = parse_group("C(2;0,1,1) + C(4;0,2,3)")
    assert two.spec_string() == "C(2;0,1,1)+C(4;0,2,3)"
    assert two.order == 8
    with pytest.raises(SpecParseError):
        parse_group("D(4;0,1)")
    with pytest.raises(SpecParseError):
        parse_group("C(4: 0,1)")
    with pytest.raises(SpecParseError):
        parse_group("C(4; 0,x)")
    with pytest.raises(SpecParseError):
        parse_group("C(zero; 0,1)")


def test_weights_reduced_and_presented_order_kept():
    f = CyclicFactor(4, (5, -1, 2, 3))
    assert f.weights == (1, 3, 2, 3)
    # a factor acting with a smaller order than presented keeps its order
    g = parse_group("C(6;8,2,2)")
    assert g.factors[0].weights == (2, 2, 2) and g.order == 6
    chain = DiagonalGroup([CyclicFactor(3, (0, 1, 2)), CyclicFactor(2, (0, 1, 1))])
    assert chain.order == 6


def test_invariants_quartic_group_verbatim():
    g = parse_group("C(4;0,1,2,3)")
    b1 = invariants_of_degree(g, 1)
    assert {tuple(m) for m in b1} == B1_0123
    assert b1.origin_group == g and b1.origin_t == 1
    b2 = invariants_of_degree(g, 2)
    assert {tuple(m) for m in b2} == B2_0123
    assert len(b2) == 22
    # the scaled slice sits inside the plain invariants of that degree
    assert all(is_invariant(g, m) for m in b2)
    assert (4, 4, 0, 0) not in {tuple(m) for m in b2}
    assert is_invariant(g, (4, 4, 0, 0))


def test_invariants_match_bruteforce():
    rng = random.Random(99)
    for _ in range(12):
        nv = rng.randint(1, 4)
        nfac = rng.randint(1, 2)
        factors = [
            CyclicFactor(rng.randint(1, 6), tuple(rng.randint(0, 9) for _ in range(nv)))
            for _ in range(nfac)
        ]
        g = DiagonalGroup(factors)
        t = rng.randint(1, 2)
        if g.order ** t > 40:
            continue
        degree = t * g.order
        brute = {
            tuple(m)
            for m in enumerate_degree(nv - 1, degree)
            if all(
                sum(w * e for w, e in zip(f.weights, m)) % (t * f.order) == 0
                for f in g.factors
            )
        }
        assert {tuple(m) for m in invariants_of_degree(g, t)} == brute
        # capped count uses the plain congruence, so filter by is_invariant
        cap = rng.randint(1, degree)
        capped = sum(
            1
            for m in enumerate_degree(nv - 1, degree)
            if is_invariant(g, m) and all(e <= cap for e in m)
        )
        assert count_invariants(g, degree, cap=cap) == capped


# factor orders drawn so that two factors often share a divisor
FACTOR_ORDERS = (1, 2, 3, 4, 6, 8, 9, 12)


@st.composite
def walk_cases(draw):
    """Factors (order, weights), a degree, a cap or None, and a scale."""
    nv = draw(st.integers(1, 4))
    weights = st.lists(st.integers(0, 12), min_size=nv, max_size=nv).map(tuple)
    factors = draw(st.lists(st.tuples(st.sampled_from(FACTOR_ORDERS), weights), min_size=1, max_size=3))
    degree = draw(st.integers(0, 14 if nv < 4 else 10))
    return factors, degree, draw(st.none() | st.integers(0, degree + 1)), draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(walk_cases())
@example(([(4, (0, 1, 2)), (6, (1, 3, 0))], 12, None, 1))  # factor classes mod 4 and 6 that clash
@example(([(2, (0, 1, 1, 0)), (4, (1, 0, 3, 2))], 8, 3, 1))  # a cap below the degree
# the last walked exponent steps by a period E > 1: E = 2 for C(4;0,1,2,0) and C(4;1,2,0), and for
# C(4;3,0,1)+C(2;1,1,0), whose factors alone have period 1, E = 2 (4 at scale 2) from the CRT merge
@example(([(4, (0, 1, 2, 0))], 8, 3, 1))
@example(([(4, (0, 1, 2, 0))], 8, None, 2))
@example(([(4, (1, 2, 0))], 12, 7, 1))
@example(([(4, (1, 2, 0))], 8, None, 2))
@example(([(4, (3, 0, 1)), (2, (1, 1, 0))], 12, 7, 1))
@example(([(4, (3, 0, 1)), (2, (1, 1, 0))], 16, None, 2))
def test_invariant_walk_agrees_with_filtered_enumeration(case):
    """The flat walk against every monomial of the degree filtered by the
    congruences: the same members in the same order, and the same count,
    over groups of one to three factors whose orders share divisors, with
    caps and scales."""
    factors, degree, cap, scale = case
    group = DiagonalGroup([CyclicFactor(order, w) for order, w in factors])
    want = invariants(group, degree, cap, scale)
    walked: list[tuple[int, ...]] = []
    assert _invariant_monomials(group, degree, cap, scale, out=walked) == len(want)
    assert walked == want
    assert count_invariants(group, degree, cap=cap) == len(invariants(group, degree, cap))
    if cap is None and scale * group.order == degree and want:
        assert [tuple(m) for m in invariants_of_degree(group, scale)] == want


def test_products_of_invariants_stay_invariant():
    g = parse_group("C(4;0,1,2,3)")
    b1 = invariants_of_degree(g, 1)
    for a, b in itertools.combinations_with_replacement(b1, 2):
        assert is_invariant(g, tuple(x + y for x, y in zip(a, b)))


def test_pure_powers_always_invariant():
    g = parse_group("C(5;0,2,3)+C(2;1,1,0)")
    b1 = invariants_of_degree(g, 1)
    d = g.order
    for i in range(3):
        pure = [0, 0, 0]
        pure[i] = d
        assert tuple(pure) in {tuple(m) for m in b1}


def test_surface_normal_form():
    assert _normal_form(cyclic_group(4, (1, 2, 0))) == (0, 1, 3)
    assert _normal_form(cyclic_group(6, (2, 2, 2))) == (0, 0, 0)
    assert _normal_form(cyclic_group(6, (1, 3, 2, 4))) == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        surface_quadraticity(parse_group("C(4;0,1,2,3)"))
    # a canonical surface vector is its own normal form
    for d in range(1, 41):
        for v in canonical_weight_vectors(2, d):
            assert _normal_form(cyclic_group(d, v)) == v


@pytest.mark.parametrize("n, d_max", [(2, 14), (3, 8), (4, 6)])
def test_canonical_weight_vectors_against_orbit_minima(n, d_max):
    for d in range(1, d_max + 1):
        assert canonical_weight_vectors(n, d) == canonical_vectors(n, d), (n, d)


@st.composite
def unit_multiples(draw):
    """A canonical weight vector w of order d <= 16 on 3 or 4 variables, and a unit u mod d."""
    n = draw(st.sampled_from((2, 3)))
    d = draw(st.integers(2, 16))
    w = draw(st.sampled_from(canonical_weight_vectors(n, d)))
    return d, w, draw(st.sampled_from([u for u in range(1, d) if math.gcd(u, d) == 1]))


@settings(max_examples=60, deadline=None)
@given(unit_multiples())
@example((7, (0, 1, 2, 3), 2))  # C(7;0,2,4,6) is C(7;0,1,3,5) sorted after a shift by 6
def test_unit_multiples_have_renamed_invariants_and_equal_tables(case):
    """u * w generates the group w does; its canonical form only shifts
    and sorts, so the invariants agree up to the sort's renaming, and so
    do the group-bound tables."""
    d, w, u = case
    uw = tuple(u * x % d for x in w)
    canon = tuple(canonicalize_weights(d, uw)["canonical"]["weights"])
    assert canon in _unit_orbit(d, w) <= set(canonical_weight_vectors(len(w) - 1, d))
    shifted = next(s for c in uw if sorted(s := _shift(d, uw, c)) == list(canon))
    perm = sorted(range(len(w)), key=lambda i: shifted[i])  # canon[j] == shifted[perm[j]]
    b1 = invariants_of_degree(cyclic_group(d, w), 1)
    b1_canon = invariants_of_degree(cyclic_group(d, canon), 1)
    assert {tuple(m[i] for i in perm) for m in b1} == set(b1_canon)
    table = minimal_generator_table(b1, bound="group")
    canon_table = minimal_generator_table(b1_canon, bound="group")
    assert (table.degrees, table.cubics) == (canon_table.degrees, canon_table.cubics)


def test_unit_orbits_partition_the_canonical_vectors():
    for n, d in ((2, 12), (3, 10), (4, 7)):
        vectors = canonical_weight_vectors(n, d)
        orbits = {frozenset(_unit_orbit(d, w)) for w in vectors}
        assert sorted(w for orbit in orbits for w in orbit) == vectors
        assert all(w in _unit_orbit(d, v) for orbit in orbits for v in orbit for w in orbit)


def test_gcd_product_worked_examples():
    # (d; 0,1,3): a1'=1, d'=6, lam=3, product 1*3*2=6 -> quadratic
    assert _gcd_product(6, 1, 3) == 6
    # (d; 0,1,2): product 1 -> not quadratic
    assert _gcd_product(5, 1, 2) == 1
    # (d; 0,2,3): gcd(2,6)=2 already certifies; lam lands at d'=3
    assert _gcd_product(6, 2, 3) == 6
    with pytest.raises(ValueError):
        _gcd_product(6, 0, 3)


def test_gcd_product_against_bruteforce():
    rng = random.Random(5)
    for _ in range(200):
        d = rng.randint(2, 30)
        a1 = rng.randint(1, d - 1)
        a2 = rng.randint(a1, d - 1)
        g1 = math.gcd(a1, d)
        a1p, dp = a1 // g1, d // g1
        # lam is the unique solution in (0, d'] of lam * a1' == a2 (mod d')
        [lam] = [x for x in range(1, dp + 1) if (x * a1p - a2) % dp == 0]
        product = g1 * math.gcd(lam, dp) * math.gcd(lam - g1, dp)
        assert _gcd_product(d, a1, a2) == product, (d, a1, a2)


def test_surface_quadraticity_degenerate_cases():
    for weights, d, detail in [
        ((0, 0, 0), 1, "normal form (0, 0, 0), gcd product None"),
        ((2, 2, 2), 6, "normal form (0, 0, 0), gcd product None"),
        ((0, 0, 2), 5, "normal form (0, 0, 2), gcd product 5"),
    ]:
        verdict = surface_quadraticity(cyclic_group(d, weights))
        assert verdict.quadratic and verdict.route == "gcd-criterion", weights
        assert verdict.detail == detail, weights


def test_surface_quadraticity_examples():
    assert surface_quadraticity(cyclic_group(6, (0, 1, 3))).quadratic
    assert not surface_quadraticity(cyclic_group(5, (0, 1, 2))).quadratic
    assert surface_quadraticity(cyclic_group(6, (0, 2, 3))).quadratic


def test_surface_certificate_cases():
    power = surface_certificate(cyclic_group(8, (0, 2, 6)))
    assert power.rule == "veronese-power-gb"
    assert power.detail == "gcd(d,a1,a2)=2 reduces to order 4"

    assert surface_certificate(cyclic_group(4, (0, 1, 3))).rule == "even-reflection-gb"
    assert surface_certificate(cyclic_group(5, (0, 1, 2))) is None
    assert surface_certificate(cyclic_group(5, (0, 0, 0))) is None
    assert surface_certificate(parse_group("C(2;0,1,1)+C(4;0,2,3)")) is None

    # rc roles name the coordinates carrying (a, b, c) of (0,1,k): 5*(0,2,5)
    # is (0,2,1) mod 8, and a shift by the first weight comes first
    for weights, d, k, t, roles in [
        ((0, 1, 3), 6, 3, 1, (0, 1, 2)),
        ((1, 2, 4), 6, 3, 1, (0, 1, 2)),
        ((0, 2, 5), 8, 2, 4, (0, 2, 1)),
        ((0, 0, 1), 2, 2, 1, (0, 2, 1)),
    ]:
        cert = surface_certificate(cyclic_group(d, weights))
        assert cert.rule == "rc-order-quadratic-gb", weights
        assert (cert.k, cert.t, cert.roles) == (k, t, roles), weights


def test_surface_koszul_routes():
    cyc = surface_quadraticity(cyclic_group(5, (0, 1, 2)))
    assert not cyc.quadratic and cyc.route == "gcd-criterion"
    non = surface_quadraticity(parse_group("C(2;0,1,1)+C(4;0,2,3)"))
    assert non.quadratic and non.route == "noncyclic-invariant"
    # abstractly cyclic two-factor presentation falls back to support-2
    sneaky = surface_quadraticity(parse_group("C(1;0,0,0)+C(5;0,1,2)"))
    assert sneaky.route == "support-2"
    assert not sneaky.quadratic


def test_surface_koszul_agrees_with_support2():
    rng = random.Random(42)
    for _ in range(60):
        d = rng.randint(2, 12)
        a = rng.randint(0, d - 1)
        b = rng.randint(0, d - 1)
        g = cyclic_group(d, (0, a, b))
        verdict = surface_quadraticity(g)
        b1 = invariants_of_degree(g, 1)
        expected = any(len(m.support()) == 2 for m in b1)
        assert verdict.quadratic == expected


def test_h_vector_quartic_group():
    g = parse_group("C(4;0,1,2,3)")
    hv = h_vector_group(g)
    # oracle: count invariant monomials of degree 4i with every exponent < 4
    brute = tuple(
        sum(
            1
            for m in enumerate_degree(3, 4 * i)
            if is_invariant(g, m) and all(e < 4 for e in m)
        )
        for i in range(4)
    )
    assert hv.h == brute == (1, 6, 9, 0)
    assert hv.regularity == 3


def test_count_invariants_checks_its_guard_before_walking(monkeypatch):
    import veroproj.groups

    def forbidden(*args, **kwargs):
        raise AssertionError("the walk started past its guard")

    g = parse_group("C(4;0,1,2,3)")
    monkeypatch.setattr(veroproj.groups, "_invariant_monomials", forbidden)
    with pytest.raises(GuardExceeded) as exc:
        count_invariants(g, 8, guard=164)
    assert exc.value.count == math.comb(11, 3)
    monkeypatch.undo()
    # the h-vector counts its slices through the same guard: slice 1 trips it
    with pytest.raises(GuardExceeded) as exc:
        h_vector_group(g, guard=34)
    assert exc.value.count == math.comb(7, 3)
    brute = sum(1 for m in enumerate_degree(3, 8) if is_invariant(g, m))
    assert count_invariants(g, 8, guard=165) == brute
    assert h_vector_group(g, guard=math.comb(15, 3)).h == (1, 6, 9, 0)


def test_h_vector_invariants():
    rng = random.Random(11)
    for _ in range(25):
        d = rng.randint(2, 9)
        n = rng.randint(2, 3)
        g = cyclic_group(d, tuple(rng.randint(0, d - 1) for _ in range(n + 1)))
        hv = h_vector_group(g)
        b1 = invariants_of_degree(g, 1)
        assert hv.h[0] == 1
        assert hv.h[1] == len(b1) - (n + 1)
        full_support = sum(1 for m in b1 if len(m.support()) == n + 1)
        assert hv.h[n] == full_support
        if n == 2:
            assert hv.h[2] <= hv.h[1]
        assert 1 <= hv.regularity <= n + 1


def test_h_vector_of_a_trivial_group():
    # every exponent must stay below d = 1: only the empty monomial counts
    for spec in ("C(1;0,0)", "C(1;0,0,0)", "C(1;0,0,0,0)"):
        g = parse_group(spec)
        assert h_vector_group(g) == HVector((1,) + (0,) * g.n, 1)


def test_triple_projections():
    g = parse_group("C(4;0,1,2,3)")
    trips = triple_projections(g)
    assert len(trips) == 4
    assert trips[0][0] == (0, 1, 2)
    assert trips[0][1].spec_string() == "C(4;0,1,2)"
    assert trips[-1][0] == (1, 2, 3)
    with pytest.raises(ValueError):
        triple_projections(cyclic_group(4, (0, 1, 2)))


def test_block_group():
    g = parse_group("C(6;0,1,3)")
    b = block_group(g, (2, 1, 2))
    assert b.spec_string() == "C(6;0,0,1,3,3)"
    assert b.order == 6
    with pytest.raises(ValueError):
        block_group(g, (2, 1))
    with pytest.raises(ValueError):
        block_group(g, (2, 0, 1))
