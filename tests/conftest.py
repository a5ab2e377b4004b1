import pytest


@pytest.fixture(scope="session", autouse=True)
def private_basis_cache(tmp_path_factory):
    """Run every test against an empty basis cache of its own: a warm user
    cache would answer Buchberger calls and could hide a regression."""
    patch = pytest.MonkeyPatch()
    patch.setenv("BUMPLESS_CACHE_DIR", str(tmp_path_factory.mktemp("basis-cache")))
    yield
    patch.undo()
