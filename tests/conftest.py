import pytest

from bumpless.perms import apply_transposition
from bumpless.rings import Poly
from bumpless.schubert import divided_difference, xvar, yvar


@pytest.fixture(scope="session", autouse=True)
def private_basis_cache(tmp_path_factory):
    """Run every test against an empty basis cache of its own: a warm user
    cache would answer Buchberger calls and could hide a regression."""
    patch = pytest.MonkeyPatch()
    patch.setenv("BUMPLESS_CACHE_DIR", str(tmp_path_factory.mktemp("basis-cache")))
    yield
    patch.undo()


@pytest.fixture(scope="session")
def by_operators():
    """The double (or, with single=True, the single) Schubert polynomial
    of w by the classical route, independent of the library's tiling sum:
    the product of the cell factors x_i + y_j (or x_i) over the staircase
    i + j <= len(w), then one ``schubert.divided_difference`` per ascent
    on the way down.  Memoized per ring, word and family."""
    memo = {}

    def poly(w, ring, single=False):
        key = (ring, w, single)
        if key not in memo:
            n = len(w)
            i = next((i for i in range(1, n) if w[i - 1] < w[i]), None)
            if i is None:
                val = Poly.constant(ring, 1)
                for a in range(1, n):
                    for b in range(1, n - a + 1):
                        cell = xvar(ring, a)
                        val = val * (cell if single else cell + yvar(ring, b))
            else:
                above = poly(apply_transposition(w, i, i + 1), ring, single)
                val = divided_difference(above, i)
            memo[key] = val
        return memo[key]

    return poly
