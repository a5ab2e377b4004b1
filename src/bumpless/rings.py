"""Exact polynomial arithmetic with packed-integer monomials.

A monomial lives in a single Python int, carved into 16-bit slots,
one slot per entry of the ring's layout, most significant slot
first.  Each slot stores the exponent of one variable, so comparing
two packed monomials as integers is exactly the slot-by-slot
lexicographic comparison, and multiplying monomials is integer
addition.  The top bit of every slot is a guard kept at zero; it
absorbs borrows during subtraction, which turns divisibility into
three integer operations no matter how many variables there are.

A layout may mention a variable more than once (repeating a variable
up front refines the rest of the order by that variable's degree).
Slot values are linear in the exponent vector, so monomial products
and quotients stay consistent across repeated slots.  Exponents must
stay below 2**15; nothing in this package gets anywhere near that.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

SLOT_BITS = 16
SLOT_CAP = 1 << (SLOT_BITS - 1)


class Ring:
    """Polynomial ring with a fixed monomial order given by a slot layout."""

    __slots__ = ("names", "layout", "_index", "_shifts", "_units",
                 "_decode_shifts", "_guard", "_values")

    def __init__(self, names, layout):
        self.names = tuple(names)
        self.layout = tuple(layout)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        if set(self.layout) != set(range(len(self.names))):
            raise ValueError("layout must mention every variable at least once")
        self._index = {nm: v for v, nm in enumerate(self.names)}
        nslots = len(self.layout)
        shifts = tuple(SLOT_BITS * (nslots - 1 - k) for k in range(nslots))
        self._shifts = shifts
        units = [0] * len(self.names)
        decode = [0] * len(self.names)
        for k, v in enumerate(self.layout):
            units[v] += 1 << shifts[k]
            decode[v] = shifts[k]
        self._units = tuple(units)
        self._decode_shifts = tuple(decode)
        self._guard = sum(SLOT_CAP << s for s in shifts)
        self._values = sum((SLOT_CAP - 1) << s for s in shifts)

    def __eq__(self, other):
        if not isinstance(other, Ring):
            return NotImplemented
        return self.names == other.names and self.layout == other.layout

    def __hash__(self):
        return hash((self.names, self.layout))

    def __repr__(self):
        return f"Ring({len(self.names)} variables, {len(self.layout)} slots)"

    @property
    def one(self):
        """The packed empty monomial."""
        return 0

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def variable(self, name):
        """Packed monomial for a single variable."""
        return self._units[self.index(name)]

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
        for v, e in enumerate(vec):
            if not 0 <= e < SLOT_CAP:
                raise ValueError(f"exponent {e} out of range")
            m += e * self._units[v]
        return m

    def decode(self, m):
        """Exponent vector of a packed monomial, indexed like ``names``."""
        return tuple((m >> s) & (SLOT_CAP - 1) for s in self._decode_shifts)

    def degree(self, m):
        return sum(self.decode(m))

    def divides(self, d, m):
        """Whether monomial ``d`` divides monomial ``m``."""
        g = self._guard
        return ((m | g) - d) & g == g

    def quotient(self, m, d):
        """``m / d`` for a caller who already knows ``d`` divides ``m``."""
        return m - d

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


def _cell_slot(n, i, j):
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"cell ({i}, {j}) outside a {n} by {n} grid")
    return (i - 1) * n + (j - 1)


def diagonal_layout(n):
    """Lex order reading the matrix row by row, left to right."""
    return tuple(range(n * n))


def antidiagonal_layout(n):
    """Lex order reading each row right to left, rows top to bottom."""
    out = []
    for i in range(n):
        out.extend(range(i * n + n - 1, i * n - 1, -1))
    return tuple(out)


def column_layout(n):
    """Lex order reading the matrix column by column, top to bottom."""
    return tuple(j + n * i for j in range(n) for i in range(n))


def cell_first_layout(n, cell):
    """Lex order with one chosen cell largest, then right-to-left rows."""
    v = _cell_slot(n, *cell)
    return (v,) + tuple(k for k in antidiagonal_layout(n) if k != v)


def refined_by_cell(n, cell, base_layout):
    """Compare a chosen cell's degree first, break ties by the base order."""
    return (_cell_slot(n, *cell),) + tuple(base_layout)


def layout_from_spec(n, spec):
    """Parse an order name: diag, antidiag, col-lex, tau:a,b, yref:a,b:BASE."""
    if spec == "diag":
        return diagonal_layout(n)
    if spec == "antidiag":
        return antidiagonal_layout(n)
    if spec == "col-lex":
        return column_layout(n)
    if spec.startswith("tau:"):
        a, b = _parse_cell(spec[4:])
        return cell_first_layout(n, (a, b))
    if spec.startswith("yref:"):
        rest = spec[5:]
        cell_part, sep, base_part = rest.partition(":")
        if not sep:
            raise ValueError(f"order {spec!r} is missing its base order")
        a, b = _parse_cell(cell_part)
        return refined_by_cell(n, (a, b), layout_from_spec(n, base_part))
    raise ValueError(f"unknown order {spec!r}")


def _parse_cell(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected a cell a,b; got {text!r}")
    return int(parts[0]), int(parts[1])


def matrix_ring(n, spec="antidiag"):
    """Ring on the n by n generic matrix under a named order."""
    return Ring(matrix_names(n), layout_from_spec(n, spec))


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
        for m, c in other.terms.items():
            nc = acc.get(m, 0) + c
            if nc:
                acc[m] = nc
            else:
                del acc[m]
        out = Poly.__new__(Poly)
        out.ring = self.ring
        out.terms = acc
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Poly.__new__(Poly)
        out.ring = self.ring
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly.zero(self.ring)
            out = Poly.__new__(Poly)
            out.ring = self.ring
            out.terms = {m: c * other for m, c in self.terms.items()}
            return out
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        acc = {}
        for mb, cb in b.items():
            for ma, ca in a.items():
                key = ma + mb
                nc = acc.get(key, 0) + ca * cb
                if nc:
                    acc[key] = nc
                elif key in acc:
                    del acc[key]
        out = Poly.__new__(Poly)
        out.ring = self.ring
        out.terms = acc
        return out

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

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    def coefficient(self, m):
        return self.terms.get(m, 0)

    def sorted_terms(self):
        """Terms as (monomial, coefficient) pairs, largest monomial first."""
        return [(m, self.terms[m]) for m in sorted(self.terms, reverse=True)]

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.ring.degree(m) for m in self.terms)

    def normalized(self):
        """Canonical associate: integer coefficients, content 1, positive lead."""
        return Poly(self.ring, _primitive(self.terms))

    def convert(self, target):
        """Re-encode into a ring holding every variable that occurs."""
        if target == self.ring:
            return self
        units = [
            target._units[target._index[nm]] if nm in target._index else None
            for nm in self.ring.names
        ]
        rekeyed = []
        for m, c in self.terms.items():
            key = 0
            for v, e in enumerate(self.ring.decode(m)):
                if e:
                    if units[v] is None:
                        raise ValueError(
                            f"variable {self.ring.names[v]!r} is absent from the target"
                        )
                    key += e * units[v]
            rekeyed.append((key, c))
        return Poly(target, rekeyed)

    def map_variables(self, target, images=None):
        """Substitute polynomials for variables, landing in ``target``.

        ``images`` maps variable names to Poly or scalar values; names
        left out are sent to the same-named variable of the target.
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
        powers = [{} for _ in ims]

        def power(v, e):
            cache = powers[v]
            got = cache.get(e)
            if got is None:
                got = ims[v] if e == 1 else power(v, e - 1) * ims[v]
                cache[e] = got
            return got

        total = Poly.zero(target)
        for m, c in self.terms.items():
            piece = Poly.constant(target, c)
            for v, e in enumerate(self.ring.decode(m)):
                if e:
                    piece = piece * power(v, e)
            total = total + piece
        return total

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


def _primitive(terms):
    """Integer multiple of a term map with content one and a positive
    leading coefficient; the map itself when it already is one."""
    if not terms:
        return terms
    dens = [c.denominator for c in terms.values() if isinstance(c, Fraction)]
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
    """Quotient f/g when the division is exact; ValueError when not."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.ring != g.ring:
        raise ValueError("polynomials live in different rings")
    if f.is_zero:
        return f
    ring = f.ring
    glm = g.leading_monomial()
    glc = g.terms[glm]
    rem = dict(f.terms)
    out = {}
    while rem:
        m = max(rem)
        if not ring.divides(glm, m):
            raise ValueError("division is not exact")
        c = rem[m]
        if isinstance(c, int) and isinstance(glc, int) and c % glc == 0:
            qc = c // glc
        else:
            qc = Fraction(c, glc) if isinstance(c, int) else c / glc
        q = m - glm
        out[q] = qc
        for gm, gc in g.terms.items():
            key = gm + q
            nc = rem.get(key, 0) - qc * gc
            if nc:
                rem[key] = nc
            elif key in rem:
                del rem[key]
    return Poly(ring, out)


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

    def take(kind, value=None):
        nonlocal pos
        k, v = peek()
        if k != kind or (value is not None and v != value):
            raise ValueError(f"unexpected {v!r} in polynomial text")
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
        raise ValueError(f"unexpected {v!r} in polynomial text")

    if not toks:
        raise ValueError("empty polynomial text")
    result = expr()
    if pos != len(toks):
        raise ValueError(f"trailing {toks[pos][1]!r} in polynomial text")
    return result
