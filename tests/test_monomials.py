"""Tests for monomial enumeration, set canonicalization, and file I/O."""

import math
import random

import pytest

from veroproj.monomials import (
    Monomial,
    MonomialSet,
    enumerate_degree,
    enumerate_support_bounded,
    format_omega,
    read_omega,
)


def test_monomial_basics():
    m = Monomial((2, 0, 3))
    assert m.degree == 5
    assert m.nvars == 3
    assert m.support() == (0, 2)
    assert str(m) == "x0^2*x2^3"
    assert str(Monomial((0, 0))) == "1"


def test_monomial_arithmetic():
    with pytest.raises(ValueError):
        Monomial((1, -1))


def test_enumerate_degree_count_and_order():
    for n, d in [(1, 3), (2, 4), (3, 2), (4, 1)]:
        mons = enumerate_degree(n, d)
        assert len(mons) == math.comb(n + d, n)
        assert mons == sorted(mons, reverse=True)
        assert mons[0] == Monomial([d] + [0] * n)
        assert mons[-1] == Monomial([0] * n + [d])
        assert all(m.degree == d for m in mons)


def test_enumerate_support_bounded_counts():
    assert len(enumerate_support_bounded(3, 5, 2)) == 28
    assert len(enumerate_support_bounded(2, 3, 2)) == 9
    # bound past n+1 gives everything
    assert enumerate_support_bounded(2, 4, 5) == enumerate_degree(2, 4)


def test_enumerate_support_bounded_is_a_filter():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(1, 4)
        d = rng.randint(1, 6)
        s = rng.randint(1, n + 1)
        direct = [m for m in enumerate_degree(n, d) if len(m.support()) <= s]
        assert enumerate_support_bounded(n, d, s) == direct


def test_set_canonical_order_and_index():
    members = [(0, 4, 0), (4, 0, 0), (2, 1, 1)]
    s = MonomialSet(members)
    assert [tuple(m) for m in s] == [(4, 0, 0), (2, 1, 1), (0, 4, 0)]
    for i, m in enumerate(s):
        assert s.index_of(m) == i
        assert s[i] == m
    assert (2, 1, 1) in s
    assert (1, 1, 2) not in s
    with pytest.raises(KeyError):
        s.index_of((1, 1, 2))


def test_set_validation():
    with pytest.raises(ValueError):
        MonomialSet([])
    with pytest.raises(ValueError):
        MonomialSet([(1, 0), (1, 0)])
    with pytest.raises(ValueError):
        MonomialSet([(1, 0), (2, 0)])  # mixed degrees
    with pytest.raises(ValueError):
        MonomialSet([(1, 0), (0, 1, 0)])  # mixed arity
    with pytest.raises(ValueError):
        MonomialSet([(0, 0)])  # degree zero


def test_set_helpers():
    full = MonomialSet.full(2, 3)
    assert len(full) == math.comb(2 + 3, 2)
    assert full.has_pure_powers()
    smaller = full.remove((1, 1, 1))
    assert len(smaller) == len(full) - 1
    assert (1, 1, 1) not in smaller
    with pytest.raises(ValueError):
        full.remove((3, 1, 0))
    no_powers = full.remove((3, 0, 0))
    assert not no_powers.has_pure_powers()
    # a tagged copy shares the checked members and leaves the original untagged
    tagged = full.tagged("G", 1)
    assert tagged == full and tagged.index_of((1, 1, 1)) == full.index_of((1, 1, 1))
    assert (tagged.origin_group, tagged.origin_t, full.origin_group) == ("G", 1, None)


def test_set_from_descending_members():
    # the constructor the invariant walk uses: the same set as the checked
    # one, and a list that is not strictly descending raises
    members = [tuple(m) for m in enumerate_degree(2, 3) if m != (1, 1, 1)]
    built = MonomialSet.from_descending(members, 3)
    checked = MonomialSet(members)
    assert built == checked and (built.n, built.d) == (checked.n, checked.d) == (2, 3)
    assert all(built.index_of(m) == i for i, m in enumerate(members))
    assert [m.degree for m in built] == [3] * len(members) and built.origin_group is None
    for bad in (members[::-1], members[:3] + members[2:], members[:2] + members[3:4] + members[2:3]):
        with pytest.raises(ValueError, match="strictly descending"):
            MonomialSet.from_descending(bad, 3)
    with pytest.raises(ValueError, match="empty"):
        MonomialSet.from_descending([], 3)


def test_file_roundtrip(tmp_path):
    omega = MonomialSet.full(2, 3).remove((1, 1, 1))
    path = tmp_path / "omega.txt"
    path.write_text(format_omega(omega, comment="projection without the center point"))
    back = read_omega(path)
    assert back == omega
    text = path.read_text()
    assert text.startswith("# projection")
    assert "2 3" in text.splitlines()[1]


def test_file_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 3\n1 1 1\n1 2 1\n")
    with pytest.raises(ValueError, match="bad.txt:3"):
        read_omega(p)  # degree 4 row under a degree-3 header
    p.write_text("2 3\n1 1\n")
    with pytest.raises(ValueError, match="expected 3 exponents"):
        read_omega(p)
    p.write_text("# only comments\n")
    with pytest.raises(ValueError, match="no header"):
        read_omega(p)
    p.write_text("2 3\nx y z\n")
    with pytest.raises(ValueError, match="non-integer"):
        read_omega(p)


def test_file_roundtrip_random_subsets(tmp_path):
    rng = random.Random(20260817)
    for trial in range(8):
        n = rng.randint(1, 3)
        d = rng.randint(1, 5)
        pool = enumerate_degree(n, d)
        size = rng.randint(1, len(pool))
        omega = MonomialSet(rng.sample(pool, size))
        path = tmp_path / f"o{trial}.txt"
        path.write_text(format_omega(omega))
        assert read_omega(path) == omega
