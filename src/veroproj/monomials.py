"""Monomials of fixed degree and the sets that parameterize projections.

A monomial in K[x_0, ..., x_n] is stored as its exponent vector, a
tuple of n+1 nonnegative integers.  A MonomialSet is a finite list of
distinct monomials of one common degree d >= 1 in one common number of
variables; it fixes the canonical ordering (descending lexicographic,
x_0 greatest) and the resulting index bijection that every other module
relies on when it talks about "the i-th parameterizing monomial".

The plain-text file format is one monomial per line, n+1 exponents
separated by spaces, preceded by a single header line "n d".  Anything
after a '#' is a comment.
"""

from __future__ import annotations

import copy
from typing import Iterable, Iterator, Sequence


class Monomial(tuple):
    """Exponent vector of a monomial, with its degree cached."""

    def __new__(cls, exponents: Iterable[int]) -> "Monomial":
        m = super().__new__(cls, map(int, exponents))
        if len(m) == 0:
            raise ValueError("a monomial needs at least one variable")
        if min(m) < 0:
            raise ValueError(f"negative exponent in {tuple(m)}")
        m._degree = sum(m)
        return m

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def nvars(self) -> int:
        return len(self)

    def support(self) -> tuple[int, ...]:
        """Indices of the variables that appear with positive exponent."""
        return tuple(i for i, e in enumerate(self) if e > 0)

    def __str__(self) -> str:
        parts = []
        for i, e in enumerate(self):
            if e == 1:
                parts.append(f"x{i}")
            elif e > 1:
                parts.append(f"x{i}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"Monomial({tuple(self)})"


def enumerate_degree(n: int, d: int) -> list[Monomial]:
    """All monomials of degree d in n+1 variables, descending lex.

    Parameters
    ----------
    n : projective dimension, so monomials live in n+1 variables
    d : total degree, d >= 0

    The list has math.comb(n+d, n) entries and is produced directly in
    the canonical order (largest x_0 exponent first).
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if d < 0:
        raise ValueError(f"need d >= 0, got {d}")
    out: list[Monomial] = []
    head = [0] * (n + 1)

    def rec(pos: int, rem: int) -> None:
        if pos == n:
            head[pos] = rem
            out.append(Monomial(head))
            return
        for e in range(rem, -1, -1):
            head[pos] = e
            rec(pos + 1, rem - e)

    rec(0, d)
    return out


def enumerate_support_bounded(n: int, d: int, s: int) -> list[Monomial]:
    """All degree-d monomials in n+1 variables with at most s of them present.

    Enumerates the support subsets of size 1..min(s, n+1) and, for each,
    the compositions of d into that many positive parts, so nothing is
    generated twice.  Returned in descending lex order.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if s < 1:
        raise ValueError(f"need support bound >= 1, got {s}")
    from itertools import combinations

    out: list[Monomial] = []
    for size in range(1, min(s, n + 1) + 1):
        if size > d:
            break  # cannot write d as that many positive parts
        for supp in combinations(range(n + 1), size):
            for comp in _positive_compositions(d, size):
                exps = [0] * (n + 1)
                for idx, e in zip(supp, comp):
                    exps[idx] = e
                out.append(Monomial(exps))
    out.sort(reverse=True)
    return out


def _positive_compositions(d: int, parts: int) -> Iterator[tuple[int, ...]]:
    # compositions of d into exactly `parts` positive integers
    if parts == 1:
        yield (d,)
        return
    for first in range(1, d - parts + 2):
        for rest in _positive_compositions(d - first, parts - 1):
            yield (first,) + rest


class MonomialSet:
    """Distinct monomials of a single degree, in canonical order.

    The canonical order is descending lexicographic with x_0 the
    greatest variable; `index_of` and integer indexing realize the
    bijection between members and 0..len-1 that downstream modules use
    to name their ring variables.

    A set produced by a group-invariant enumeration remembers the group
    (`origin_group`, `origin_t`) so that completeness bounds can be
    chosen automatically later; plain constructions leave both None.
    """

    __slots__ = ("_members", "_n", "_d", "_index", "origin_group", "origin_t")

    def __init__(self, members: Iterable[Sequence[int]]):
        items = [Monomial(m) for m in members]
        if not items:
            raise ValueError("empty monomial set")
        mons = sorted(set(items), reverse=True)
        if len(mons) != len(items):
            seen: set[Monomial] = set()
            dup = next(m for m in items if m in seen or seen.add(m))
            raise ValueError(f"duplicate monomial in input: {tuple(dup)}")
        n = len(mons[0]) - 1
        d = mons[0]._degree
        for m in mons:
            if len(m) != n + 1:
                raise ValueError(
                    f"mixed variable counts: {len(m)} vs {n + 1} in {tuple(m)}"
                )
            if m._degree != d:
                raise ValueError(
                    f"mixed degrees: {tuple(m)} has degree {m._degree}, expected {d}"
                )
        if d < 1:
            raise ValueError("degree must be at least 1")
        self._members: tuple[Monomial, ...] = tuple(mons)
        self._n = n
        self._d = d
        self._index = {m: i for i, m in enumerate(self._members)}
        self.origin_group = None
        self.origin_t = None

    @classmethod
    def from_descending(cls, members: Sequence[tuple[int, ...]], degree: int) -> "MonomialSet":
        """A set straight from members already in canonical form, as the
        invariant walk yields them: tuples of non-negative ints of one
        length, each of the given degree >= 1, in descending lex order.
        Only the order is checked, in one pass: it must be strictly
        descending, which also makes the members distinct."""
        new, items = tuple.__new__, []
        for m in members:
            mono = new(Monomial, m)
            mono._degree = degree
            items.append(mono)
        if not items:
            raise ValueError("empty monomial set")
        if not all(map(tuple.__gt__, items, items[1:])):
            raise ValueError("members are not in strictly descending lex order")
        out = cls.__new__(cls)
        out._members = tuple(items)
        out._n = len(items[0]) - 1
        out._d = degree
        out._index = dict(zip(out._members, range(len(items))))
        out.origin_group = None
        out.origin_t = None
        return out

    @classmethod
    def full(cls, n: int, d: int) -> "MonomialSet":
        """Every monomial of degree d, i.e. the unprojected Veronese."""
        return cls(enumerate_degree(n, d))

    @property
    def n(self) -> int:
        return self._n

    @property
    def d(self) -> int:
        return self._d

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self._members)

    def __getitem__(self, i: int) -> Monomial:
        return self._members[i]

    def __contains__(self, m: object) -> bool:
        try:
            return Monomial(m) in self._index  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False

    def index_of(self, m: Sequence[int]) -> int:
        mm = Monomial(m)
        try:
            return self._index[mm]
        except KeyError:
            raise KeyError(f"{tuple(mm)} is not a member of this set") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialSet):
            return NotImplemented
        return self._members == other._members

    def __hash__(self) -> int:
        return hash(self._members)

    def __repr__(self) -> str:
        return f"MonomialSet(n={self._n}, d={self._d}, size={len(self)})"

    def remove(self, *monomials: Sequence[int]) -> "MonomialSet":
        """New set without the given members; absent monomials are an error."""
        gone = set()
        for m in monomials:
            mm = Monomial(m)
            if mm not in self._index:
                raise ValueError(f"{tuple(mm)} is not in the set, cannot remove it")
            gone.add(mm)
        return MonomialSet(m for m in self._members if m not in gone)

    def has_pure_powers(self) -> bool:
        """Whether every x_i^d is a member."""
        for i in range(self._n + 1):
            pure = [0] * (self._n + 1)
            pure[i] = self._d
            if Monomial(pure) not in self._index:
                return False
        return True

    def tagged(self, group, t: int) -> "MonomialSet":
        """Copy of self carrying the group that produced it.  It shares the
        checked members and index, which no method changes."""
        out = copy.copy(self)
        out.origin_group = group
        out.origin_t = t
        return out


def read_omega(path) -> MonomialSet:
    """Parse a monomial-set file.

    First non-comment line is "n d"; every following line holds n+1
    space-separated exponents.  Errors cite the 1-based line number, and a
    file that cannot be read raises ValueError naming its path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"{path}: cannot read: {exc.strerror or exc}") from None
    header: tuple[int, int] | None = None
    members: list[Monomial] = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        fields = text.split()
        try:
            values = [int(f) for f in fields]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer field in {text!r}") from None
        if header is None:
            if len(values) != 2:
                raise ValueError(
                    f"{path}:{lineno}: header must be 'n d', got {len(values)} fields"
                )
            header = (values[0], values[1])
            if header[0] < 0 or header[1] < 1:
                raise ValueError(f"{path}:{lineno}: need n >= 0 and d >= 1, got {text!r}")
            continue
        n, d = header
        if len(values) != n + 1:
            raise ValueError(
                f"{path}:{lineno}: expected {n + 1} exponents, got {len(values)}"
            )
        m = Monomial(values)
        if m.degree != d:
            raise ValueError(
                f"{path}:{lineno}: degree {m.degree} does not match header degree {d}"
            )
        members.append(m)
    if header is None:
        raise ValueError(f"{path}: no header line found")
    if not members:
        raise ValueError(f"{path}: no monomials after the header")
    try:
        return MonomialSet(members)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def format_omega(omega: MonomialSet, comment: str | None = None) -> str:
    """A monomial set as the text `read_omega` parses, in canonical order:
    "# " comment lines, then "n d", then one member per line."""
    lines = [f"# {line}" for line in (comment or "").splitlines()]
    lines.append(f"{omega.n} {omega.d}")
    lines.extend(" ".join(map(str, m)) for m in omega)
    return "\n".join(lines) + "\n"
