"""Combinatorics of monomial ideals: primes, multiplicities, K-polynomials.

Monomials are the packed integers of a ring from the rings module.
Every routine here is exact.  Primes and multiplicities read the
irredundant irreducible decomposition, built one generator at a time
and grouped by support once per ideal: the supports are exactly the
associated primes, and the length at a minimal prime counts the
standard monomials of the components supported on it.  K-polynomials
come from the colon exact sequence, memoized on the generator set.
The zero ideal is its own single component, with the prime on no
variables, multiplicity 1 and degree 1; the unit ideal has no primes
and degree 0, and decomposes as itself.
"""

from __future__ import annotations

from math import prod

from .rings import Poly, Ring, lex_ring


def _minimalize(ring: Ring, monomials) -> tuple[int, ...]:
    divides = ring.divides
    kept: list[int] = []
    for m in sorted(set(monomials)):
        if not any(divides(k, m) for k in kept):
            kept.append(m)
    return tuple(kept)


def _box_union(ring: Ring, corners) -> int:
    """Size of the union of the boxes of standard monomials of corners
    sharing one support, by inclusion-exclusion: each box adds its size
    less the union of its meets with the later boxes; two boxes meet in
    the box of their gcd (the box of ``Q1.plus(Q2)``).  Meets inside
    other meets add nothing and are dropped."""
    total = 0
    for k, c in enumerate(corners):
        meets = {ring.gcd(c, d) for d in corners[k + 1:]}
        meets = [a for a in meets
                 if not any(a != b and ring.divides(a, b) for b in meets)]
        total += prod(filter(None, ring.decode(c))) - _box_union(ring, meets)
    return total


class MonomialIdeal:
    """A monomial ideal held as its sorted minimal generating antichain."""

    __slots__ = ("ring", "gens", "_by_support")

    def __init__(self, ring: Ring, monomials=()):
        self.ring = ring
        self.gens = _minimalize(ring, monomials)
        self._by_support = None

    @classmethod
    def from_polys(cls, polys):
        """Build from single-term polynomials sharing one ring."""
        rings = {p.ring for p in polys}
        if len(rings) != 1:
            raise ValueError("generators live in different rings")
        ms = []
        for p in polys:
            if len(p.terms) != 1:
                raise ValueError(f"{p!r} is not a monomial")
            ms.append(p.leading_monomial())
        return cls(rings.pop(), ms)

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.ring == other.ring and self.gens == other.gens

    def __hash__(self):
        return hash((self.ring, self.gens))

    def __repr__(self):
        inside = ", ".join(self.ring.monomial_text(m) for m in self.gens)
        return f"MonomialIdeal({inside})"

    @property
    def is_unit(self):
        return self.gens == (0,)

    def contains(self, m: int) -> bool:
        return any(self.ring.divides(g, m) for g in self.gens)

    def plus(self, other) -> "MonomialIdeal":
        extra = other.gens if isinstance(other, MonomialIdeal) else tuple(other)
        return MonomialIdeal(self.ring, self.gens + tuple(extra))

    def colon(self, m: int) -> "MonomialIdeal":
        gcd = self.ring.gcd
        return MonomialIdeal(self.ring, (g - gcd(g, m) for g in self.gens))

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.ring != other.ring:
            raise ValueError("ideals live in different rings")
        lcm = self.ring.lcm
        return MonomialIdeal(
            self.ring, (lcm(a, b) for a in self.gens for b in other.gens)
        )

    def support(self, m: int) -> frozenset[int]:
        return frozenset(
            v for v, e in enumerate(self.ring.decode(m)) if e
        )

    def restricted(self, prime) -> "MonomialIdeal":
        """Localize away from a prime: zero out exponents outside it."""
        S = frozenset(prime)
        enc = self.ring.encode
        dec = self.ring.decode
        return MonomialIdeal(
            self.ring,
            (
                enc([e if v in S else 0 for v, e in enumerate(dec(g))])
                for g in self.gens
            ),
        )

    def irreducible_components(self) -> list["MonomialIdeal"]:
        """The unique irredundant decomposition of this ideal into ideals
        generated by pure powers, sorted by their generators.

        Built one generator at a time, smallest support first: by
        distributivity, adding m keeps each component that contains m
        and splits every other component Q into Q + (x_v^{m_v}), one per
        variable v of m.  A kept component never contains a split (it
        would contain the old component the split came from), and a
        split that is strictly inside another has fewer generators or a
        larger exponent sum, so taking the splits in that order and
        dropping each one that contains a component already taken
        leaves exactly the irredundant ones.
        """
        if self.is_unit:
            return [self]
        dec = self.ring.decode
        shifts = self.ring._decode_shifts
        supports = sorted(
            ([(v, e) for v, e in enumerate(dec(g)) if e] for g in self.gens),
            key=len,
        )
        # A component is a dict {v: a}, the ideal of the powers x_v^a,
        # with the bitmask of its variables: a component can only contain
        # another whose variables it has.
        comps: list[tuple[dict[int, int], int]] = [({}, 0)]
        for m in supports:
            kept: list[tuple[dict[int, int], int]] = []
            splits: list[tuple[dict[int, int], int]] = []
            for Q, qmask in comps:
                if any(0 < Q.get(v, 0) <= e for v, e in m):
                    kept.append((Q, qmask))
                else:
                    splits.extend(({**Q, v: e}, qmask | 1 << v) for v, e in m)
            splits.sort(key=lambda N: (len(N[0]), -sum(N[0].values())))
            for N, nmask in splits:
                if not any(
                    not qmask & ~nmask and all(N[v] <= a for v, a in Q.items())
                    for Q, qmask in kept
                ):
                    kept.append((N, nmask))
            comps = kept
        return sorted(
            (
                MonomialIdeal(self.ring, (a << shifts[v] for v, a in Q.items()))
                for Q, _ in comps
            ),
            key=lambda Q: Q.gens,
        )

    def _groups(self) -> dict[frozenset[int], list[int]]:
        """Corners of the irreducible components, grouped by support and
        computed once.  A component's generators are powers of distinct
        variables; their sum, its corner, bounds its standard monomials."""
        if self._by_support is None:
            groups: dict[frozenset[int], list[int]] = {}
            for Q in self.irreducible_components():
                corner = sum(Q.gens)
                groups.setdefault(self.support(corner), []).append(corner)
            self._by_support = {} if self.is_unit else groups
        return self._by_support

    def associated_primes(self) -> list[frozenset[int]]:
        """Supports of the associated primes, smallest first: the radicals
        of the irredundant irreducible components."""
        return sorted(self._groups(), key=lambda S: (len(S), sorted(S)))

    def minimal_primes(self) -> list[frozenset[int]]:
        rads = self._groups()
        keep = [S for S in rads if not any(T < S for T in rads)]
        return sorted(keep, key=lambda S: (len(S), sorted(S)))

    def multiplicity_at(self, prime) -> int:
        """Length of the localization at a prime; 0 when the prime misses
        the ideal, ValueError when the prime is not minimal over it.
        Localizing keeps the irreducible components supported inside the
        prime; when all are supported on it, their standard monomials are
        what is left (Miller and Sturmfels, ch. 5)."""
        S = frozenset(prime)
        groups = self._groups()
        if any(T < S for T in groups):
            raise ValueError("localization has infinite length")
        return _box_union(self.ring, groups.get(S, ()))

    def degree(self) -> int:
        """Sum of multiplicities over the minimal primes of top dimension;
        0 for the unit ideal, which has none."""
        primes = self.minimal_primes()
        codim = min(map(len, primes), default=0)
        return sum(
            self.multiplicity_at(S) for S in primes if len(S) == codim
        )

    def k_polynomial(self, target: Ring, images) -> Poly:
        """Hilbert-series numerator under a grading sending each variable
        to the packed target monomial ``images[v]``."""
        images = tuple(images)
        if len(images) != len(self.ring.names):
            raise ValueError("need one grading image per variable")
        dec = self.ring.decode
        one = Poly.constant(target, 1)
        memo: dict[tuple[int, ...], Poly] = {}

        def weight(m: int) -> Poly:
            packed = 0
            for v, e in enumerate(dec(m)):
                if e:
                    packed += e * images[v]
            return Poly(target, {packed: 1})

        def K(gens: tuple[int, ...]) -> Poly:
            val = memo.get(gens)
            if val is not None:
                return val
            # K(J + m) = K(J) - t^m * K(J : m) for each prefix J + m of gens
            # in turn, so recursion only goes into colon ideals.
            val = one
            for i, pivot in enumerate(gens):
                prefix = gens[: i + 1]
                got = memo.get(prefix)
                if got is None:
                    colon = _minimalize(
                        self.ring, (g - self.ring.gcd(g, pivot) for g in gens[:i])
                    )
                    got = memo[prefix] = val - weight(pivot) * K(colon)
                val = got
            return val

        return K(self.gens)

    def multidegree(self, target: Ring, images) -> Poly:
        """Lowest part of the K-polynomial after each target variable v
        is replaced by 1 - v."""
        K = self.k_polynomial(target, images)
        flip = {nm: 1 - Poly.variable(target, nm) for nm in target.names}
        degree = target.degree
        low, part = None, {}
        for m, c in K.map_variables(target, flip).terms.items():
            d = degree(m)
            if low is None or d < low:
                low, part = d, {m: c}
            elif d == low:
                part[m] = c
        return Poly._of(target, part)


def prime_names(ring: Ring, prime) -> tuple[str, ...]:
    return tuple(ring.names[v] for v in sorted(prime))


def prime_from_names(ring: Ring, names) -> frozenset[int]:
    return frozenset(ring.index(nm) for nm in names)


def grading_images(ring: Ring, kind: str) -> tuple[Ring, tuple[int, ...]]:
    """A target ring and the packed target weight of each variable.

    ``standard`` sends everything to q, ``rows`` sends z[i,j] to x{i},
    ``rows-columns`` sends z[i,j] to x{i}*y{j}, with x and y for just the
    rows and columns the ring names: for an n by n matrix the target is
    ``schubert.x_ring(n)`` or ``double_ring(n)``.
    """
    if kind == "standard":
        target = lex_ring(("q",))
        return target, (target.variable("q"),) * len(ring.names)
    if kind not in ("rows", "rows-columns"):
        raise ValueError(f"unknown grading {kind!r}")
    cells = []
    for nm in ring.names:
        if not (nm.startswith("z[") and nm.endswith("]")):
            raise ValueError(f"{nm!r} is not a matrix variable")
        i, j = nm[2:-1].split(",")
        cells.append((int(i), int(j)))
    xs = [f"x{i}" for i in sorted({i for i, _ in cells})]
    if kind == "rows":
        target = lex_ring(xs)
        return target, tuple(target.variable(f"x{i}") for i, _ in cells)
    target = lex_ring(xs + [f"y{j}" for j in sorted({j for _, j in cells})])
    return target, tuple(
        target.variable(f"x{i}") + target.variable(f"y{j}") for i, j in cells
    )
