import pytest

from domkit import solver


@pytest.fixture
def empty_caches(monkeypatch):
    """Starts the test with solver's cache empty and restores it after;
    the returned function empties it again."""

    def empty():
        monkeypatch.setattr(solver, "_gamma_cache", {})
        monkeypatch.setattr(solver, "_cached_residues", 0)

    empty()
    return empty
