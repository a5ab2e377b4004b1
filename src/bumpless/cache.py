"""Content-addressed disk cache for reduced Groebner bases.

Every entry lives in one SQLite database, ``bases.sqlite3`` in the
cache directory, as a row of the table ``bases(key, basis)``.  The key
is a hash of the ring (variable names plus slot layout) and the packed
terms of the generators, so a hit can never be stale: different input,
different key.  An entry is a JSON list of basis elements, each a list
of ``[coefficient, variable, exponent, ...]`` rows, one row per term,
with variables given by their index in the ring in increasing order.
An entry that does not decode to such terms, or whose elements do not
look like a reduced basis (content one, a positive leading coefficient,
no leading monomial dividing another), counts as a miss and is
recomputed and overwritten.  The database runs in write-ahead-log mode
and each store is one autocommitted ``INSERT OR REPLACE``, so
concurrent writers wait for each other instead of tearing an entry, and
a write that fails or is killed leaves the cache as it was.  A database
that cannot be opened or read turns every lookup into a miss and every
store into a skipped write.  Each process opens its own connection on
first use, and a new one when the cache directory changes.  Entries of
earlier versions (``gb-*.json`` files) are never read again and can be
deleted.  Generators whose leading monomials are pairwise coprime are
already a Groebner basis, and ``groebner.buchberger`` never looks them
up here: computing their reduced basis costs less than a lookup.
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import lru_cache
from itertools import compress
from math import gcd
from pathlib import Path

from .rings import SLOT_CAP

_ENCODER = json.JSONEncoder(separators=(",", ":"))
DATABASE = "bases.sqlite3"
# (pid, cache directory, connection) of the open store, if any.
_open = None
# Connections a forked child inherited from its parent.
_inherited: list = []


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


def entry_key(ring, seeds) -> str:
    """The key the basis of these sorted, primitive generators is kept under."""
    digest = _ring_digest(ring).copy()
    # Hex keeps huge packed monomials clear of the int-to-decimal limit.
    text = ";".join([" ".join(map("%x:%x".__mod__, s)) for s in seeds])
    digest.update(text.encode())
    return digest.hexdigest()


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
    shifts = ring._decode_shifts
    nvars = len(shifts)
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
                m += e << shifts[v]
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


def _connection():
    """This process's connection to the database in ``cache_root()``."""
    import sqlite3

    global _open
    pid, root = os.getpid(), cache_root()
    if _open is not None:
        if _open[0] == pid and _open[1] == root:
            return _open[2]
        if _open[0] == pid:
            _open[2].close()
        else:
            # Inherited across a fork: even closing it would act on the
            # parent's locks, so it is kept and never touched.
            _inherited.append(_open[2])
        _open = None
    root.mkdir(parents=True, exist_ok=True)
    # A writer waits up to 30 s for another process's write to end.
    con = sqlite3.connect(root / DATABASE, timeout=30, isolation_level=None)
    try:
        con.execute("PRAGMA journal_mode=WAL")
        con.execute("PRAGMA synchronous=NORMAL")
        con.execute(
            "CREATE TABLE IF NOT EXISTS bases"
            "(key TEXT PRIMARY KEY, basis TEXT NOT NULL) WITHOUT ROWID"
        )
    except sqlite3.Error:
        con.close()
        raise
    _open = (pid, root, con)
    return con


def _run(sql: str, *params) -> tuple | None:
    """First row of one autocommitted statement on the store, or None
    when there is none or the store cannot be opened or used."""
    # Imported here, so a process that never touches the store never
    # loads SQLite.
    import sqlite3

    try:
        return _connection().execute(sql, params).fetchone()
    except (OSError, sqlite3.Error):
        return None


def load_basis(ring, key) -> list[dict[int, int]] | None:
    """Term maps of the basis stored under ``entry_key``, or None."""
    row = _run("SELECT basis FROM bases WHERE key = ?", key)
    if row is None:
        return None
    try:
        data = json.loads(row[0])
    except (ValueError, RecursionError):
        return None
    return _decode(ring, data)


def store_basis(ring, key, basis) -> None:
    # The C encoder collects every piece of its output before joining
    # them, so it gets one element at a time: same bytes, less memory.
    text = ",".join([_ENCODER.encode(_encode(ring, terms)) for terms in basis])
    _run("INSERT OR REPLACE INTO bases VALUES (?, ?)", key, f"[{text}]")
