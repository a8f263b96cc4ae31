import pytest

from domkit import solver


@pytest.fixture
def empty_caches(monkeypatch):
    """Starts the test with solver's caches empty and restores them after;
    the returned function empties them again."""

    def empty():
        monkeypatch.setattr(solver, "_gamma_cache", {})
        monkeypatch.setattr(solver, "_cached_residues", 0)
        monkeypatch.setattr(solver, "_class_cache", {})
        monkeypatch.setattr(solver, "_unkeyed", {})

    empty()
    return empty
