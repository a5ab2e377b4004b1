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
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import suppress
from math import gcd
from pathlib import Path

from .rings import SLOT_CAP


def cache_root() -> Path:
    override = os.environ.get("BUMPLESS_CACHE_DIR")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME")
    if base:
        return Path(base) / "bumpless"
    return Path.home() / ".cache" / "bumpless"


def _entry_path(ring, seeds) -> Path:
    digest = hashlib.sha256(json.dumps([ring.names, ring.layout]).encode())
    # Hex keeps huge packed monomials clear of the int-to-decimal limit.
    digest.update(
        ";".join(" ".join(f"{m:x}:{c:x}" for m, c in s) for s in seeds).encode()
    )
    return cache_root() / f"gb-{digest.hexdigest()}.json"


def _encode(ring, terms) -> list[list[int]]:
    rows = []
    for m, c in terms.items():
        row = [c]
        for v, e in enumerate(ring.decode(m)):
            if e:
                row += (v, e)
        rows.append(row)
    return rows


def _decode(ring, data) -> list[dict[int, int]] | None:
    if not isinstance(data, list):
        return None
    units = ring._units
    basis = []
    leads = []
    for rows in data:
        if not isinstance(rows, list) or not rows:
            return None
        terms = {}
        for row in rows:
            if not isinstance(row, list) or len(row) % 2 != 1:
                return None
            if not all(type(x) is int for x in row) or not row[0]:
                return None
            m = 0
            prev = -1
            for v, e in zip(row[1::2], row[2::2]):
                if not (prev < v < len(units) and 0 < e < SLOT_CAP):
                    return None
                m += e * units[v]
                prev = v
            terms[m] = row[0]
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


def load_basis(ring, seeds) -> list[dict[int, int]] | None:
    """Term maps of the cached basis for these generators, or None."""
    path = _entry_path(ring, seeds)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    return _decode(ring, data)


def store_basis(ring, seeds, basis) -> None:
    path = _entry_path(ring, seeds)
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump([_encode(ring, terms) for terms in basis], fh,
                      separators=(",", ":"))
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            with suppress(OSError):
                os.unlink(tmp)
