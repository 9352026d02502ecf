"""Fibers of the parameterizing monomial map and minimal generator counts.

Fix a MonomialSet omega with members m_0 > ... > m_(mu-1).  The toric
ideal of the projection it parameterizes lives in K[w_0..w_(mu-1)] and
is spanned, degree by degree, by differences of monomials w^u - w^v
with the same image.  The degree-k slice is controlled by the fibers:
for a target monomial of degree k*d, the fiber is the set of k-element
index multisets whose member product is the target.

Joining two multisets whenever they share an index gives the fiber
graph.  A fiber with c connected components contributes exactly c - 1
minimal generators in degree k: differences inside a component lie in
the degree-(k-1) slice times the irrelevant ideal, while differences
across components are independent modulo it (a graded Nakayama
argument).  In degree 2 two distinct multisets can never share an
index, so every fiber is an independent set and the count is just
(fiber size - 1), summed.

The class walk (`_class_walk`) counts the components of every table from
index masks, with no multiset formed; a table that stops at degree 3 walks
only the standard multisets there.  The table keeps the masks of each
split fiber's classes and decodes them only when read: a degree-2 class
is one multiset, so the degree-2 fibers the order search pairs come
straight off its masks, and `representatives` searches the classes of
higher degrees for their lex-least multisets.  Hilbert values and
2-normality walk distinct products only (`_walk`).
"""

from __future__ import annotations

import functools
import logging
import math
import operator
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .errors import DEFAULT_GUARD, GuardExceeded
from .monomials import Monomial, MonomialSet, enumerate_degree

logger = logging.getLogger("veroproj")


def _multiset_count(mu: int, k: int) -> int:
    return math.comb(mu + k - 1, k)


def _radix(omega: MonomialSet, k: int) -> int:
    """The radix that packs every product of up to k members into one int."""
    return k * omega.d + 1


def _pack(m: Sequence[int], radix: int) -> int:
    """An exponent vector as one int, first exponent most significant.

    With every exponent below the radix, int order is lex order, and the
    pack of a product is the sum of the packs.
    """
    v = 0
    for e in m:
        v = v * radix + e
    return v


def _walk(omega: MonomialSet, k_max: int) -> Iterator[dict]:
    """Omega's distinct products degree by degree.

    Yields, for k = 1..k_max, a dict from each degree-k product (packed in
    `_radix(omega, k_max)`) to the least last index among its k-multisets.
    Extending each product by every index >= that one still reaches every
    product one degree up: a multiset minus its last index j is a multiset
    of a product whose least last index is at most j.  Each level is built
    only when asked for, so a caller checks its guard first.
    """
    radix = _radix(omega, k_max)
    members = [_pack(m, radix) for m in omega]
    mu = len(members)
    level = {p: i for i, p in enumerate(members)}
    yield level
    for _ in range(2, k_max + 1):
        nxt: dict = {}
        for p, last in level.items():
            for j in range(last, mu):
                q = p + members[j]
                if nxt.get(q, mu) > j:
                    nxt[q] = j
        level = nxt
        yield level


def _class_walk(omega: MonomialSet, k_max: int) -> Iterator[tuple[dict, int | tuple, dict]]:
    """Fiber components degree by degree, from index masks alone.

    Yields, for k = 2..k_max, a dict keyed by the degree-k products
    (packed in `_radix(omega, k_max)`), what the degree walked, and the
    dict from each product whose fiber has several components to their
    masks.  A product maps to the mask of its multisets' indices, save at
    a last degree 3, where it maps to one multiset's.  (README, *Fiber
    walk*, has the proofs.)  Degree 2 walks the pairs (i, j), i <= j, j
    ascending; `free` marks each product's first, its least under lex with
    w_(mu-1) > ... > w_0.  A last degree 3 walks the standard multisets of
    that order and closes those of each product reached more than once
    under j -> mask(q - m_j) until one meets them all.  It counts both.  Past degree 3 each degree
    walks the pairs (p, j), j from the least last index of p's multisets,
    whose multisets share j and use the indices mask(p) | 1 << j, and
    joins their masks by overlap.  It counts the pairs; `split` skips
    listed splits that merged back.
    """
    if k_max < 2:
        return
    radix = _radix(omega, k_max)
    members = [_pack(m, radix) for m in omega]
    mu = len(members)
    masks: dict = {}  # product -> its one class mask, or a list of its classes
    free = [0] * mu  # free[i]: the j >= i with (i, j) the least pair of its product
    for j, mj in enumerate(members):
        bj = 1 << j
        for i in range(j + 1):
            q, g = members[i] + mj, 1 << i | bj
            c = masks.get(q)
            if c is None:
                masks[q] = g
                free[i] |= bj
            elif c.__class__ is int:
                masks[q] = [c, g]
            else:
                c.append(g)
    split = {q: c for q, c in masks.items() if c.__class__ is list}
    masks.update((q, sum(c)) for q, c in split.items())
    yield masks, mu * (mu + 1) // 2, split
    if k_max == 3:
        first: dict = {}  # product -> its first standard multiset, as a mask
        repeated: dict = {}  # product -> each of its standard multisets, if several
        for a, bs in enumerate(free):
            while bs:
                bb = bs & -bs
                bs ^= bb
                b = bb.bit_length() - 1
                pab, gab = members[a] + members[b], 1 << a | bb
                cs = free[a] & free[b]
                while cs:
                    bc = cs & -cs
                    cs ^= bc
                    q = pab + members[bc.bit_length() - 1]
                    if q in first:
                        repeated.setdefault(q, [first[q]]).append(gab | bc)
                    else:
                        first[q] = gab | bc
        split = {}
        for q, starts in repeated.items():
            comps: list = []
            for g in starts:
                if any(g & c for c in comps):  # components use disjoint indices
                    continue
                comp = todo = g
                while todo and not all(s & comp for s in starts):  # met all: one component
                    bit = todo & -todo
                    reach = masks[q - members[bit.bit_length() - 1]]
                    todo = (todo ^ bit) | (reach & ~comp)
                    comp |= reach
                comps.append(comp)
            if len(comps) > 1:
                split[q] = comps
        standard = len(first) + sum(map(len, repeated.values())) - len(repeated)
        yield first, (standard, len(repeated)), split
    if k_max <= 3:
        return
    # by_start[j]: (product, mask) of each product whose least pair is (i, j), i ascending
    by_start = [[(mi + mj, masks[mi + mj]) for i, mi in enumerate(members[: j + 1]) if free[i] >> j & 1]
                for j, mj in enumerate(members)]
    for k in range(3, k_max + 1):
        classes: dict = {}  # product -> its one class mask, or a list of disjoint ones
        firsts: list = [[] for _ in range(mu)]  # products by the index j that reached them first
        splits: list = []  # products as their fibers split; some may merge back
        active: list = []
        pairs = 0
        for j, mj in enumerate(members):
            # with j ascending, the first j to reach q is q's least last index
            active += by_start[j]
            pairs += len(active)
            bj = 1 << j
            new = firsts[j]
            for p, pmask in active:
                q = p + mj
                g = pmask | bj
                c = classes.get(q)
                if c is None:
                    classes[q] = g
                    new.append(q)
                elif c.__class__ is int:
                    if c & g:
                        classes[q] = c | g
                    else:
                        classes[q] = [c, g]
                        splits.append(q)
                else:
                    keep = []
                    for other in c:
                        if other & g:
                            g |= other
                        else:
                            keep.append(other)
                    if keep:
                        keep.append(g)
                        classes[q] = keep
                    else:
                        classes[q] = g
        split = {q: classes[q] for q in splits if classes[q].__class__ is not int}
        for q, c in split.items():
            classes[q] = functools.reduce(operator.or_, c)
        yield classes, pairs, split
        if k < k_max:
            by_start = [[(q, classes[q]) for q in qs] for qs in firsts]


def _least_multiset(
    members: list[int], mask: int, q: int, k: int, lo: int = 0
) -> tuple[int, ...] | None:
    """The lex-least k-multiset of the indices in `mask`, none below `lo`,
    whose packed members sum to q, or None.

    A component's multisets are all its fiber's multisets on its indices,
    so on a class mask this is the component's least multiset.  Packed
    members descend with their index: one above q is skipped, and once k
    copies of one fall short of q no later one can reach it.
    """
    if k == 0:
        return () if q == 0 else None
    for index in range(lo, len(members)):
        m = members[index]
        if not mask >> index & 1 or m > q:
            continue
        if k * m < q:
            break
        tail = _least_multiset(members, mask, q - m, k - 1, index)
        if tail is not None:
            return (index, *tail)
    return None


def _check_fiber_guard(mu: int, k_min: int, k_max: int, guard: int) -> None:
    # the levels below k_min hold no more multisets than level k_min
    for k in range(k_min, k_max + 1):
        total = _multiset_count(mu, k)
        if total > guard:
            raise GuardExceeded(f"degree-{k} fibers over {mu} members", total, guard)


def hilbert_values(
    omega: MonomialSet, k_max: int, guard: int = DEFAULT_GUARD
) -> list[int]:
    """Hilbert function values for degrees 0..k_max: distinct member products,
    walked up to the first full level k >= 1, H(k) = C(n + kd, n) (README, *Fiber walk*)."""
    if k_max < 0:
        raise ValueError(f"need k_max >= 0, got {k_max}")
    values = [1]
    walk = _walk(omega, k_max)
    for k in range(1, k_max + 1):
        work = values[-1] * len(omega)
        if work > guard:
            raise GuardExceeded(f"Hilbert value at degree {k}", work, guard)
        values.append(len(next(walk)))
        if values[-1] == math.comb(omega.n + k * omega.d, omega.n):
            values += (math.comb(omega.n + j * omega.d, omega.n) for j in range(k + 1, k_max + 1))
            break
    return values


def is_product_of_two(omega: MonomialSet, target: Sequence[int]) -> bool:
    """Whether the degree-2d target factors as a product of two members."""
    t = Monomial(target)
    if t.degree != 2 * omega.d or t.nvars != omega.n + 1:
        raise ValueError(
            f"target {tuple(t)} is not a degree-{2 * omega.d} monomial in "
            f"{omega.n + 1} variables"
        )
    # a member that does not divide the target leaves a negative exponent, which no member has
    return any(tuple(a - b for a, b in zip(t, m)) in omega for m in omega)


def is_2_normal(
    omega: MonomialSet, guard: int = DEFAULT_GUARD
) -> tuple[bool, Monomial | None]:
    """Whether every degree-2d monomial is a product of two members.

    Returns (True, None) or (False, witness) with the lex-least
    unreachable monomial as witness.  Raises GuardExceeded before the
    walk when the degree-2d monomials or the degree-2 multisets it
    walks number more than `guard`.
    """
    n, d = omega.n, omega.d
    total = math.comb(n + 2 * d, n)
    if total > guard:
        raise GuardExceeded("2-normality check", total, guard)
    _check_fiber_guard(len(omega), 2, 2, guard)
    *_, products = _walk(omega, 2)
    if len(products) == total:
        return True, None
    radix = _radix(omega, 2)
    return False, min(m for m in enumerate_degree(n, 2 * d) if _pack(m, radix) not in products)


@dataclass(frozen=True)
class QuadraticityAnswer:
    """Tri-state answer: "yes", "no" (with witness degree), "unknown-above"."""

    status: str
    witness_degree: int | None
    verified_up_to: int

    def __bool__(self) -> bool:
        return self.status == "yes"


@dataclass
class GeneratorTable:
    """Minimal generator counts of the toric ideal, by degree.

    degrees holds only the nonzero counts.  bound records what certifies
    completeness up to verified_up_to: "two-normal" and "group" both cap
    the generation degree at 3, "user" means the caller chose the cap.
    `cubics` is C3, the number of degree-3 fiber components, singletons
    included (`quadratic_basis` says why), or None below degree 3.
    `split` keeps, per degree, the class masks of each fiber of several
    components, off which `quadrics` and `representatives` are decoded
    when read.
    """

    degrees: dict[int, int]
    verified_up_to: int
    bound: str
    cubics: int | None
    split: dict[int, dict[int, list[int]]] = field(compare=False, repr=False)
    omega: MonomialSet = field(compare=False, repr=False)

    @functools.cached_property
    def quadrics(self) -> list[list[tuple[int, int]]]:
        """The degree-2 fibers of more than one multiset, by descending
        product, each as the (lowest, highest index) pairs of its classes,
        ascending (they arrive lowest index descending)."""
        return [[((c & -c).bit_length() - 1, c.bit_length() - 1) for c in reversed(classes)]
                for _, classes in sorted(self.split.get(2, {}).items(), reverse=True)]

    @functools.cached_property
    def representatives(self) -> dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
        """One (lhs, rhs) multiset pair per minimal generator, by degree:
        each component's lex-least multiset of a split fiber paired with
        the fiber's, fibers by descending product."""
        reps = {}
        for k, split in self.split.items():
            if k == 2:
                least = self.quadrics
            else:
                radix = _radix(self.omega, self.verified_up_to)
                members = [_pack(m, radix) for m in self.omega]
                least = [sorted(_least_multiset(members, c, q, k) for c in cs)
                         for q, cs in sorted(split.items(), reverse=True)]
            reps[k] = [(e, fiber[0]) for fiber in least for e in fiber[1:]]
        return reps

    def quadraticity(self) -> QuadraticityAnswer:
        beyond = sorted(k for k, c in self.degrees.items() if k > 2 and c > 0)
        if beyond:
            return QuadraticityAnswer("no", beyond[0], self.verified_up_to)
        certified = self.bound in ("two-normal", "group") and self.verified_up_to >= 3
        if certified:
            return QuadraticityAnswer("yes", None, self.verified_up_to)
        return QuadraticityAnswer("unknown-above", None, self.verified_up_to)

    def to_json_dict(self) -> dict:
        return {
            "degrees": {str(k): v for k, v in sorted(self.degrees.items())},
            "verified_up_to": self.verified_up_to,
            "bound": self.bound,
        }


def minimal_generator_table(
    omega: MonomialSet,
    k_max: int | None = None,
    bound: str | None = None,
    guard: int = DEFAULT_GUARD,
) -> GeneratorTable:
    """Count minimal generators of the toric ideal degree by degree.

    Bound resolution: an explicit `bound` is honored ("two-normal" is
    re-checked, "group" requires omega to come from an invariant
    enumeration, "user" requires k_max).  With no bound given, an
    explicit k_max means "user"; otherwise a group-tagged omega gets the
    group bound, a 2-normal omega the two-normal bound (both cap the
    generation degree at 3), and anything else is an error because no
    finite k_max would be certified.

    Every degree comes from the class walk.  A degree-2 class is one
    multiset, so its degree-2 products and generators must add up to the
    C(mu+1, 2) multisets; a group-tagged surface's H(3) must be 3 H(2) -
    3 H(1) + 1.  The table keeps each degree's split fibers, off which it
    decodes its representatives and degree-2 quadrics when read.  Each
    call logs its counts per degree to the "veroproj" logger at debug level.
    """
    if k_max is not None and k_max < 1:
        raise ValueError(f"need k_max >= 1, got {k_max}")
    implied = bound is None
    if bound is None:
        if k_max is not None:
            bound = "user"
        elif omega.origin_group is not None:
            bound = "group"
        else:
            bound = "two-normal"
    if bound == "two-normal":
        normal, witness = is_2_normal(omega, guard)
        if not normal and implied:
            raise ValueError(
                "no completeness bound applies: omega is not 2-normal and not "
                "group-tagged; pass k_max for an explicit user bound"
            )
        if not normal:
            raise ValueError(
                f"two-normal bound requested but omega is not 2-normal; "
                f"witness {tuple(witness)}"  # type: ignore[arg-type]
            )
        k_max = 3 if k_max is None else k_max
    elif bound == "group":
        if omega.origin_group is None:
            raise ValueError("group bound requested but omega has no origin group")
        k_max = 3 if k_max is None else k_max
    elif bound == "user":
        if k_max is None:
            raise ValueError("user bound requires an explicit k_max")
    else:
        raise ValueError(f"unknown bound {bound!r}")

    mu = len(omega)
    _check_fiber_guard(mu, 2, k_max, guard)
    splits: dict[int, dict[int, list[int]]] = {}
    # per degree: k, products, what the walk counted, fibers split, generators
    counts: list[tuple[int, int, object, int, int]] = []
    for k, (products, walked, split) in enumerate(_class_walk(omega, k_max), start=2):
        count = sum(len(classes) - 1 for classes in split.values())
        counts.append((k, len(products), walked, len(split), count))
        if split:
            splits[k] = split
        if k == 2 and len(products) + count != _multiset_count(mu, 2):
            raise RuntimeError(
                f"class walk check failed: {len(products)} degree-2 products and "
                f"{count} generators, but {_multiset_count(mu, 2)} multisets"
            )
    if omega.n == 2 and omega.origin_t == 1 and k_max >= 2:
        # H is a lattice polygon's, second difference g d for one factor (README, *Fiber walk*);
        # tables of several factors or of n >= 3 get no check
        h2, (w0, w1, w2) = counts[0][1], omega.origin_group.factors[0].weights
        area = math.gcd(omega.d, w1 - w0, w2 - w0) * omega.d
        if len(omega.origin_group.factors) == 1 and h2 - 2 * mu + 1 != area:
            raise RuntimeError(f"class walk check failed: H(2) - 2 H(1) + 1 = {h2 - 2 * mu + 1}, not g d = {area}")
        if k_max >= 3 and counts[1][1] != 3 * h2 - 3 * mu + 1:
            raise RuntimeError(f"class walk check failed: H(3) = {counts[1][1]}, not 3 H(2) - 3 H(1) + 1")
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "minimal_generator_table: %d members; %s",
            mu,
            "; ".join(
                f"degree {k}: {products} products, "
                + (f"{walked} (p, j) pairs, " if walked.__class__ is int else
                   "%d standard multisets, %d repeated products, " % walked)
                + f"{split} fibers of several components, {count} generators"
                for k, products, walked, split, count in counts
            ),
        )
    degrees = {k: count for k, *_, count in counts if count}
    # C3: each degree-3 fiber has one component more than it adds generators
    cubics = next((products + count for k, products, *_, count in counts if k == 3), None)
    return GeneratorTable(degrees, k_max, bound, cubics, splits, omega)


def h_polynomial(
    omega: MonomialSet, k_max: int | None = None, guard: int = DEFAULT_GUARD
) -> tuple[int, ...]:
    """Numerator coefficients of the Hilbert series over (1-z)^(n+1).

    Computes c_j = sum_i (-1)^i C(n+1, i) HF(j-i) for j = 0..k_max
    (default n+3) and demands that the last three vanish, the signal
    that enough values were used; increase k_max otherwise.  Requires
    all pure powers x_i^d in omega so that the algebra has the full
    Krull dimension n+1 matching the denominator.
    """
    n = omega.n
    if not omega.has_pure_powers():
        raise ValueError(
            "h-polynomial needs all pure powers x_i^d in omega; at least one is missing"
        )
    if k_max is None:
        k_max = n + 3
    if k_max < 3:
        raise ValueError(f"need k_max >= 3 to observe stabilization, got {k_max}")
    hf = hilbert_values(omega, k_max, guard)
    coeffs = []
    for j in range(k_max + 1):
        c = 0
        for i in range(0, min(j, n + 1) + 1):
            c += (-1) ** i * math.comb(n + 1, i) * hf[j - i]
        coeffs.append(c)
    if any(coeffs[j] != 0 for j in range(k_max - 2, k_max + 1)):
        raise ValueError(
            f"k_max={k_max} insufficient: trailing coefficients "
            f"{coeffs[k_max - 2:]} have not stabilized to zero"
        )
    last = max(j for j, c in enumerate(coeffs) if c != 0)
    length = max(n + 1, last + 1)
    return tuple(coeffs[:length])
