"""Round trips through the text forms: monomial-set files and spec strings."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from veroproj.families import FamilySpec, parse_family
from veroproj.groebner import TermOrder, lift_omega, lift_order, parse_order, rc_term_order
from veroproj.groups import CyclicFactor, DiagonalGroup, parse_group
from veroproj.monomials import MonomialSet, enumerate_degree, format_omega, read_omega

KINDS = ("lex", "deglex", "degrevlex", "revlex")


@st.composite
def _omegas(draw, n_max: int = 3, d_max: int = 5) -> MonomialSet:
    n = draw(st.integers(0, n_max))
    d = draw(st.integers(1, d_max))
    pool = enumerate_degree(n, d)
    size = draw(st.integers(1, len(pool)))
    return MonomialSet(draw(st.permutations(pool))[:size])


@st.composite
def _groups(draw) -> DiagonalGroup:
    nv = draw(st.integers(1, 4))
    weights = st.lists(st.integers(-30, 30), min_size=nv, max_size=nv)
    factors = [
        CyclicFactor(draw(st.integers(1, 12)), tuple(draw(weights)))
        for _ in range(draw(st.integers(1, 2)))
    ]
    return DiagonalGroup(factors)


@settings(max_examples=60, deadline=None)
@given(_omegas(), st.none() | st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=40))
def test_omega_file_round_trip(tmp_path_factory, omega, comment):
    path = tmp_path_factory.mktemp("omega") / "omega.txt"
    path.write_text(format_omega(omega, comment=comment))
    back = read_omega(path)
    assert back == omega
    assert [tuple(m) for m in back] == [tuple(m) for m in omega]


@settings(max_examples=100, deadline=None)
@given(_groups())
def test_group_spec_round_trip(group):
    spec = group.spec_string()
    back = parse_group(spec)
    assert back == group
    assert back.spec_string() == spec


@st.composite
def _family_specs(draw) -> FamilySpec:
    kind = draw(st.sampled_from(
        ("pinched", "support", "complement", "ci", "koszul1", "koszul2", "group", "explicit")
    ))
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 9))
    if kind == "pinched":
        return FamilySpec(kind, n=n, d=d, s=draw(st.integers(1, n + 1)))
    if kind == "support":
        extras = tuple(map(tuple, draw(st.lists(st.sampled_from(enumerate_degree(n, d)), max_size=3, unique=True))))
        return FamilySpec(kind, n=n, d=d, s=draw(st.integers(1, n + 1)), extras=extras)
    if kind == "complement":
        return FamilySpec(kind, n=n, d=d, removed=tuple(draw(st.sampled_from(enumerate_degree(n, d)))))
    if kind == "ci":
        return FamilySpec(kind, n=n, d=d, lam=draw(st.integers(0, d)))
    if kind in ("koszul1", "koszul2"):
        return FamilySpec(kind, n=n, lam=draw(st.integers(1, 5)))
    if kind == "group":
        return FamilySpec(kind, group=draw(_groups()), t=draw(st.integers(1, 4)))
    path = draw(st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=20))
    return FamilySpec(kind, path=path)


@settings(max_examples=100, deadline=None)
@given(_family_specs())
def test_family_spec_round_trip(spec):
    text = spec.spec_string()
    back = parse_family(text)
    assert back == spec
    assert back.spec_string() == text


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_order_spec_round_trip(data):
    omega = data.draw(_omegas(n_max=2, d_max=3))
    ranks = tuple(data.draw(st.permutations(range(len(omega)))))
    order = TermOrder(data.draw(st.sampled_from(KINDS)), ranks)
    for _ in range(data.draw(st.integers(0, 2))):  # a lift, or a lift of a lift
        nv = omega.n + 1
        sizes = tuple(data.draw(st.lists(st.integers(1, 2), min_size=nv, max_size=nv)))
        lifted = lift_omega(omega, sizes)
        order = lift_order(order, omega, lifted, sizes)
        omega = lifted
    back = parse_order(order.spec_string(), omega)
    assert back == order and back.weights == order.weights
    assert back.spec_string() == order.spec_string()


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3))
def test_rc_order_spec_round_trip(k, t):
    order, omega = rc_term_order(t * k * (k - 1), k)
    back = parse_order(order.spec_string(), omega)
    assert back == order and back.spec_string() == order.spec_string()
