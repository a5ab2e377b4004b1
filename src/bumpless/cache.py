"""Content-addressed disk cache for reduced Groebner bases.

Entries are keyed by a hash of the ring (variable names plus slot
layout) and the packed terms of the generators, so a hit can never be
stale: different input, different key.  An entry is a JSON list of
basis elements, each a list of ``[coefficient, variable, exponent, ...]``
rows, one row per term, with variables given by their index in the
ring in increasing order.  An entry that does not decode to such terms,
or whose elements do not look like a reduced basis (content one, a
positive leading coefficient, no leading monomial dividing another),
counts as a miss and is recomputed and overwritten.  Writes go through
a temporary file in the cache directory and an atomic rename, which
keeps concurrent writers from tearing each other's entries; a write
that fails removes its temporary file and leaves the cache as it was.
Generators whose leading monomials are pairwise coprime are already a
Groebner basis, and ``groebner.buchberger`` never looks them up here:
computing their reduced basis costs less than a file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import suppress
from functools import lru_cache
from itertools import compress
from math import gcd
from pathlib import Path

from .rings import SLOT_CAP

_ENCODER = json.JSONEncoder(separators=(",", ":"))


def cache_root() -> Path:
    override = os.environ.get("BUMPLESS_CACHE_DIR")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME")
    if base:
        return Path(base) / "bumpless"
    return Path.home() / ".cache" / "bumpless"


@lru_cache(maxsize=32)
def _ring_digest(ring):
    return hashlib.sha256(json.dumps([ring.names, ring.layout]).encode())


def entry_path(ring, seeds) -> Path:
    """Where the basis of these sorted, primitive generators is kept."""
    digest = _ring_digest(ring).copy()
    # Hex keeps huge packed monomials clear of the int-to-decimal limit.
    text = ";".join([" ".join(map("%x:%x".__mod__, s)) for s in seeds])
    digest.update(text.encode())
    return cache_root() / f"gb-{digest.hexdigest()}.json"


def _encode(ring, terms) -> list[list[int]]:
    dec = ring.decode
    every = range(len(ring.names))
    rows = []
    for m, c in terms.items():
        ex = dec(m)
        row = [c]
        for v in compress(every, ex):
            row.append(v)
            row.append(ex[v])
        rows.append(row)
    return rows


def _decode(ring, data) -> list[dict[int, int]] | None:
    if not isinstance(data, list):
        return None
    units = ring._units
    nvars = len(units)
    basis = []
    leads = []
    for rows in data:
        if not isinstance(rows, list) or not rows:
            return None
        terms = {}
        for row in rows:
            if not isinstance(row, list) or len(row) % 2 != 1:
                return None
            c = row[0]
            if type(c) is not int or not c:
                return None
            m = 0
            prev = -1
            pairs = iter(row)
            next(pairs)
            for v, e in zip(pairs, pairs):
                if type(v) is not int or type(e) is not int:
                    return None
                if not (prev < v < nvars and 0 < e < SLOT_CAP):
                    return None
                m += e * units[v]
                prev = v
            terms[m] = c
        if len(terms) != len(rows):
            return None
        lead = max(terms)
        if terms[lead] < 0 or gcd(*terms.values()) != 1:
            return None
        basis.append(terms)
        leads.append(lead)
    # A divisor packs to a smaller int, so only later leads can be divided.
    leads.sort()
    divides = ring.divides
    if any(divides(a, b) for i, a in enumerate(leads) for b in leads[i + 1:]):
        return None
    return basis


def load_basis(ring, path) -> list[dict[int, int]] | None:
    """Term maps of the basis cached at ``entry_path``, or None."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    return _decode(ring, data)


def store_basis(ring, path, basis) -> None:
    # The C encoder collects every piece of its output before joining
    # them, so it gets one element at a time: same bytes, less memory.
    text = ",".join([_ENCODER.encode(_encode(ring, terms)) for terms in basis])
    text = f"[{text}]"
    tmp = None
    try:
        try:
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            with suppress(OSError):
                os.unlink(tmp)
