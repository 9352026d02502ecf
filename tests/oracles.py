"""Brute-force fiber oracles shared by the test modules.

Every k-multiset of omega's indices is formed and multiplied out, and
components are grown by repeated scans, so nothing here shares code or
shortcuts with `veroproj.fibers`.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from veroproj.monomials import MonomialSet


def product(omega: MonomialSet, multiset: tuple[int, ...]) -> tuple[int, ...]:
    """The exponent vector of the product of the members a multiset names."""
    return tuple(sum(col) for col in zip(*(omega[i] for i in multiset)))


def brute_fibers(omega: MonomialSet, k: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Every k-multiset of indices, sorted, under its product."""
    out: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for combo in combinations_with_replacement(range(len(omega)), k):
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
