import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tlstar.graphs import TwoColoredStar, canonical_form, canonical_representative
from tlstar.report import run_engine


class EngineCache:
    """Session-wide memo for Groebner runs shared by property and acceptance tests."""

    def __init__(self):
        self._full = {}
        self._coarse = {}

    def full(self, g: TwoColoredStar):
        """(result, automaton, growth) for this exact graph."""
        hit = self._full.get(g)
        if hit is None:
            run = run_engine(g)
            hit = (run.groebner, run.automaton, run.growth)
            self._full[g] = hit
        return hit

    def coarse(self, g: TwoColoredStar) -> str:
        """Coarse growth, memoised per isomorphism class."""
        key = canonical_form(g)
        hit = self._coarse.get(key)
        if hit is None:
            _, _, growth = self.full(canonical_representative(g))
            hit = growth.coarse
            self._coarse[key] = hit
        return hit


@pytest.fixture(scope="session")
def engine() -> EngineCache:
    return EngineCache()
