"""Exact polynomial arithmetic with packed-integer monomials.

A monomial lives in a single Python int, carved into 16-bit slots,
one slot per entry of the ring's layout, most significant slot
first.  Each slot stores the exponent of one variable, so comparing
two packed monomials as integers is exactly the slot-by-slot
lexicographic comparison, and multiplying monomials is integer
addition.  The top bit of every slot is a guard kept at zero; it
absorbs borrows during subtraction, which turns divisibility into
three integer operations no matter how many variables there are.

A ring keeps one shift per variable, where its slot starts, and its
masks over all slots are repeated byte patterns, so its state and build
time are linear in its variables.

A layout is a permutation of the variables, one slot each.  A ring on
matrix cells lays its slots out in the order a term order reads the
cells: ``diag`` reads the rows top to bottom, each left to right;
``antidiag`` the rows top to bottom, each right to left; ``col-lex``
the columns left to right, each top to bottom.  ``yref:a,b:BASE`` reads
cell (a, b) first and the rest as BASE does, so it compares that cell's
degree first and breaks ties by BASE.  Exponents must stay below 2**15;
nothing in this package gets anywhere near that.
"""

from __future__ import annotations

import re
import struct
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import itemgetter

SLOT_BITS = 16
SLOT_CAP = 1 << (SLOT_BITS - 1)


class Ring:
    """Polynomial ring with a fixed monomial order given by a slot layout."""

    __slots__ = ("names", "layout", "_index", "_decode_shifts",
                 "_guard", "_values", "_lanes", "_nbytes", "_unpack", "_pick")

    def __init__(self, names, layout):
        self.names = tuple(names)
        self.layout = tuple(layout)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        if sorted(self.layout) != list(range(len(self.names))):
            raise ValueError("layout must be a permutation of the variables")
        self._index = {nm: v for v, nm in enumerate(self.names)}
        nslots = len(self.layout)
        decode = [0] * nslots
        for k, v in enumerate(self.layout):
            decode[v] = SLOT_BITS * (nslots - 1 - k)
        self._decode_shifts = tuple(decode)
        self._guard = int.from_bytes(b"\x80\x00" * nslots, "big")
        self._values = int.from_bytes(b"\x7f\xff" * nslots, "big")
        # The low half of every 32-bit lane: what ``degree`` needs to add
        # up the exponents without a loop.
        self._lanes = int.from_bytes(b"\xff\xff\x00\x00" * ((nslots + 1) // 2), "little")
        # ``decode`` unpacks every slot in one C call, then picks the slot
        # of each variable, if the slots are not the variables in order.
        self._nbytes = 2 * nslots
        self._unpack = struct.Struct(f">{nslots}H").unpack
        picks = [nslots - 1 - s // SLOT_BITS for s in decode]
        self._pick = None if picks == list(range(nslots)) else itemgetter(*picks)

    def __reduce__(self):
        return Ring, (self.names, self.layout)

    def __eq__(self, other):
        if not isinstance(other, Ring):
            return NotImplemented
        return self.names == other.names and self.layout == other.layout

    def __hash__(self):
        return hash((self.names, self.layout))

    def __repr__(self):
        return f"Ring({len(self.names)} variables)"

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def variable(self, name):
        """Packed monomial for a single variable."""
        return 1 << self._decode_shifts[self.index(name)]

    def encode(self, exponents):
        """Pack an exponent vector (sequence by index, or dict by name)."""
        if isinstance(exponents, dict):
            vec = [0] * len(self.names)
            for nm, e in exponents.items():
                vec[self.index(nm)] = e
        else:
            vec = list(exponents)
            if len(vec) != len(self.names):
                raise ValueError("exponent vector has wrong length")
        m = 0
        for e, s in zip(vec, self._decode_shifts):
            if not 0 <= e < SLOT_CAP:
                raise ValueError(f"exponent {e} out of range")
            m += e << s
        return m

    def decode(self, m):
        """Exponent vector of a packed monomial, indexed like ``names``."""
        slots = self._unpack(m.to_bytes(self._nbytes, "big"))
        return slots if self._pick is None else self._pick(slots)

    def degree(self, m):
        """Total degree: the slots folded pairwise into 32-bit lanes and
        summed by casting out 2**32 - 1.  Exact while the slot count
        stays below 2**17."""
        lanes = self._lanes
        return ((m & lanes) + ((m >> SLOT_BITS) & lanes)) % 0xFFFFFFFF

    def divides(self, d, m):
        """Whether monomial ``d`` divides monomial ``m``."""
        g = self._guard
        return ((m | g) - d) & g == g

    def lcm(self, a, b):
        g = self._guard
        win = ((a | g) - b) & g
        win -= win >> (SLOT_BITS - 1)
        return (a & win) | (b & self._values & ~win)

    def gcd(self, a, b):
        g = self._guard
        win = ((a | g) - b) & g
        win -= win >> (SLOT_BITS - 1)
        return (b & win) | (a & self._values & ~win)

    def monomial_text(self, m):
        if m == 0:
            return "1"
        parts = []
        for v, e in enumerate(self.decode(m)):
            if e == 1:
                parts.append(self.names[v])
            elif e > 1:
                parts.append(f"{self.names[v]}^{e}")
        return "*".join(parts)


def matrix_names(n):
    """Row-major generic-matrix variable names z[1,1] .. z[n,n]."""
    return tuple(f"z[{i},{j}]" for i in range(1, n + 1) for j in range(1, n + 1))


# Every order on the matrix's cells is a lex order, fixed by the order
# in which it reads the cells: a sort key on (row, column).
_READING_KEYS = {
    "diag": lambda cell: cell,
    "antidiag": lambda cell: (cell[0], -cell[1]),
    "col-lex": lambda cell: (cell[1], cell[0]),
}


def _reading_key(n, spec):
    """Sort key on the cells of an n by n matrix for an order name: diag,
    antidiag, col-lex, or yref:a,b:BASE with BASE one of the first three,
    which reads cell (a, b) first and the rest as BASE does."""
    if spec in _READING_KEYS:
        return _READING_KEYS[spec]
    if not spec.startswith("yref:"):
        raise ValueError(f"unknown order {spec!r}")
    cell_part, sep, base = spec[5:].partition(":")
    if not sep:
        raise ValueError(f"order {spec!r} is missing its base order")
    first = parse_cell(cell_part)
    if base not in _READING_KEYS:
        raise ValueError(f"a yref base must be diag, antidiag or col-lex, not {base!r}")
    if not (1 <= first[0] <= n and 1 <= first[1] <= n):
        raise ValueError(f"cell {first} outside a {n} by {n} grid")
    key = _READING_KEYS[base]
    return lambda cell: (cell != first, key(cell))


def parse_cell(text):
    """A cell written as its row and column split by a comma, such as 3,2."""
    m = re.fullmatch(r"\s*(\d+)\s*,\s*(\d+)\s*", text)
    if not m:
        raise ValueError(f"expected a cell like 3,2 — got {text!r}")
    return int(m.group(1)), int(m.group(2))


def _cell_ring(cells, key):
    """Ring on the variables z[i,j] of the given cells, named in row-major
    order, with its slots in the order ``key`` reads the cells."""
    cells = sorted(cells)
    return Ring(
        (f"z[{i},{j}]" for i, j in cells),
        sorted(range(len(cells)), key=lambda v: key(cells[v])),
    )


def matrix_ring(n, spec="antidiag"):
    """Ring on the n by n generic matrix under a named order."""
    every = range(1, n + 1)
    return _cell_ring([(i, j) for i in every for j in every], _reading_key(n, spec))


def lex_ring(names):
    """Plain lex ring: earlier names are larger."""
    names = tuple(names)
    return Ring(names, range(len(names)))


class Poly:
    """Immutable polynomial: a ring plus a packed-monomial to coefficient map.

    Coefficients are ints or Fractions; arithmetic never rounds.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=()):
        self.ring = ring
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for m, c in items:
            if not c:
                continue
            nc = acc.get(m, 0) + c
            if nc:
                acc[m] = nc
            elif m in acc:
                del acc[m]
        self.terms = acc

    @classmethod
    def _of(cls, ring, terms):
        """Wrap a term map that has no zero coefficient, without copying
        it: the caller hands the map over and never changes it again."""
        out = cls.__new__(cls)
        out.ring = ring
        out.terms = terms
        return out

    @classmethod
    def zero(cls, ring):
        return cls(ring)

    @classmethod
    def constant(cls, ring, c):
        return cls(ring, {0: c})

    @classmethod
    def variable(cls, ring, name):
        return cls(ring, {ring.variable(name): 1})

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.ring, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Poly({self.to_text()!r})"

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise ValueError("polynomials live in different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(self.ring, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self.terms)
        _add_product(acc, other.terms, _ONE)
        return Poly._of(self.ring, acc)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self.terms)
        _add_product(acc, other.terms, {0: -1})
        return Poly._of(self.ring, acc)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly.zero(self.ring)
            return Poly._of(self.ring, {m: c * other for m, c in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            # A monomial shifts every key by the same amount: no two
            # products collide and none is zero.
            ((mb, cb),) = b.items()
            return Poly._of(self.ring, {ma + mb: ca * cb for ma, ca in a.items()})
        acc = {}
        _add_product(acc, a, b)
        return Poly._of(self.ring, acc)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Poly.constant(self.ring, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms)

    def coefficient(self, m):
        return self.terms.get(m, 0)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.ring.degree(m) for m in self.terms)

    def normalized(self):
        """Canonical associate: integer coefficients, content 1, positive lead."""
        return Poly(self.ring, _primitive(self.terms))

    def map_variables(self, target, images=None):
        """Substitute polynomials for variables, landing in ``target``.

        ``images`` maps variable names to Poly or scalar values; names
        left out are sent to the same-named variable of the target.  The
        substitution is simultaneous: every image lands in ``target`` and
        is never substituted into again, so ``{x1: x2, x2: x1}`` swaps.
        It runs one source variable at a time: the terms are grouped by
        that variable's exponent e, each group is mapped over the
        remaining variables, and the result is multiplied by the e-th
        power of the image and added into one accumulator.  The powers of
        each image are kept in a list, filled in a loop up to the highest
        exponent asked for.
        """
        images = images or {}
        ims = []
        for nm in self.ring.names:
            if nm in images:
                im = images[nm]
                if not isinstance(im, Poly):
                    im = Poly.constant(target, im)
                elif im.ring != target:
                    raise ValueError(f"image of {nm!r} lives in the wrong ring")
            else:
                im = Poly.variable(target, nm)
            ims.append(im)
        # powers[v][e - 1] is the e-th power of the image of variable v.
        powers = [[im] for im in ims]

        def power(v, e):
            got = powers[v]
            while len(got) < e:
                got.append(got[-1] * ims[v])
            return got[e - 1]

        shifts = self.ring._decode_shifts

        def substitute(terms, v):
            # ``terms`` mentions only source variables v and later.
            if v == len(ims):
                return dict(terms)
            groups = {}
            for m, c in terms.items():
                e = m >> shifts[v] & (SLOT_CAP - 1)
                groups.setdefault(e, {})[m - (e << shifts[v])] = c
            acc = {}
            for e, group in groups.items():
                part = substitute(group, v + 1)
                _add_product(acc, part, power(v, e).terms if e else _ONE)
            return acc

        return Poly._of(target, substitute(self.terms, 0))

    def term_map(self):
        """Monomial-text to coefficient mapping, leading term first."""
        out = {}
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            out[self.ring.monomial_text(m)] = (
                c if isinstance(c, int) else str(c)
            )
        return out

    def to_text(self):
        if not self.terms:
            return "0"
        pieces = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            neg = c < 0
            mag = -c if neg else c
            if m == 0:
                body = str(mag)
            elif mag == 1:
                body = self.ring.monomial_text(m)
            else:
                body = f"{mag}*{self.ring.monomial_text(m)}"
            if not pieces:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f" - {body}" if neg else f" + {body}")
        return "".join(pieces)


# The term map of the constant one: adding a map times it adds the map.
_ONE = {0: 1}


def _add_product(acc, a, b):
    """Add the product of the term maps a and b into the term map acc, in
    place, deleting every coefficient that cancels to zero."""
    for mb, cb in b.items():
        for ma, ca in a.items():
            key = ma + mb
            nc = acc.get(key, 0) + ca * cb
            if nc:
                acc[key] = nc
            elif key in acc:
                del acc[key]


def _primitive(terms):
    """Integer multiple of a term map with content one and a positive
    leading coefficient; the map itself when it already is one."""
    if not terms:
        return terms
    dens = [c.denominator for c in terms.values() if type(c) is Fraction]
    if dens:
        den = lcm(*dens)
        terms = {m: int(c * den) for m, c in terms.items()}
    g = gcd(*terms.values())
    if terms[max(terms)] < 0:
        g = -g
    if g == 1:
        return terms
    return {m: c // g for m, c in terms.items()}


def exact_divide(f, g):
    """Quotient f/g when the division is exact; ValueError when not.

    The remainder's leading monomials come off a max-heap (negated keys
    on ``heapq``), as in Monagan and Pearce's heap division.  Every
    monomial that the tail of g touches lies below the term being
    cancelled, so a key is pushed only when it enters the remainder,
    and a popped key no longer in it (cancelled, or pushed twice) is
    skipped.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.ring != g.ring:
        raise ValueError("polynomials live in different rings")
    ring = f.ring
    guard = ring._guard
    glm = g.leading_monomial()
    glc = g.terms[glm]
    monic = isinstance(glc, int) and glc == 1
    tail = [(gm, gc) for gm, gc in g.terms.items() if gm != glm]
    rem = dict(f.terms)
    heap = [-m for m in rem]
    heapify(heap)
    out = {}
    while heap:
        m = -heappop(heap)
        c = rem.pop(m, None)
        if c is None:
            continue
        # ``Ring.divides(glm, m)``, inline.
        if ((m | guard) - glm) & guard != guard:
            raise ValueError("division is not exact")
        if monic:
            qc = c
        elif isinstance(c, int) and isinstance(glc, int) and c % glc == 0:
            qc = c // glc
        else:
            qc = Fraction(c, glc) if isinstance(c, int) else c / glc
        q = m - glm
        out[q] = qc
        for gm, gc in tail:
            key = gm + q
            old = rem.get(key)
            if old is None:
                rem[key] = -qc * gc
                heappush(heap, -key)
            else:
                nc = old - qc * gc
                if nc:
                    rem[key] = nc
                else:
                    del rem[key]
    return Poly._of(ring, out)


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*(?:\[[0-9]+(?:,[0-9]+)*\])?)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)


def _tokenize(text):
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"cannot read polynomial text at {text[pos:]!r}")
            break
        if m.group("num"):
            toks.append(("num", int(m.group("num"))))
        elif m.group("name"):
            toks.append(("name", m.group("name")))
        else:
            op = m.group("op")
            toks.append(("op", "^" if op == "**" else op))
        pos = m.end()
    return toks


def parse_poly(ring, text):
    """Read a polynomial like ``z[1,1]*z[2,2] - z[1,2]*z[2,1]``."""
    toks = _tokenize(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else (None, None)

    def unexpected(v):
        where = "end of" if v is None else f"{v!r} in"
        return ValueError(f"unexpected {where} polynomial text")

    def take(kind, value=None):
        nonlocal pos
        k, v = peek()
        if k != kind or (value is not None and v != value):
            raise unexpected(v)
        pos += 1
        return v

    def expr():
        k, v = peek()
        if (k, v) == ("op", "-"):
            take("op", "-")
            acc = -term()
        else:
            acc = term()
        while True:
            k, v = peek()
            if (k, v) == ("op", "+"):
                take("op", "+")
                acc = acc + term()
            elif (k, v) == ("op", "-"):
                take("op", "-")
                acc = acc - term()
            else:
                return acc

    def term():
        acc = factor()
        while True:
            k, v = peek()
            if (k, v) == ("op", "*"):
                take("op", "*")
                acc = acc * factor()
                if any(m & ring._guard for m in acc.terms):
                    raise ValueError(f"exponent of {SLOT_CAP} or more in polynomial text")
            elif (k, v) == ("op", "/"):
                take("op", "/")
                d = factor()
                if set(d.terms) - {0}:
                    raise ValueError("can only divide by a constant")
                if d.is_zero:
                    raise ValueError("division by zero in polynomial text")
                acc = acc * Fraction(1, d.coefficient(0))
            else:
                return acc

    def factor():
        k, v = peek()
        if (k, v) == ("op", "-"):
            take("op", "-")
            return -factor()
        base = atom()
        k, v = peek()
        if (k, v) == ("op", "^"):
            take("op", "^")
            e = take("num")
            top = max((max(ring.decode(m), default=0) for m in base.terms), default=0)
            if top * e >= SLOT_CAP:
                raise ValueError(f"exponent of {SLOT_CAP} or more in polynomial text")
            return base ** e
        return base

    def atom():
        k, v = peek()
        if k == "num":
            return Poly.constant(ring, take("num"))
        if k == "name":
            return Poly.variable(ring, take("name"))
        if (k, v) == ("op", "("):
            take("op", "(")
            inner = expr()
            take("op", ")")
            return inner
        raise unexpected(v)

    if not toks:
        raise ValueError("empty polynomial text")
    try:
        result = expr()
    except RecursionError:
        raise ValueError("polynomial text nests too deeply") from None
    if pos != len(toks):
        raise ValueError(f"trailing {toks[pos][1]!r} in polynomial text")
    return result
