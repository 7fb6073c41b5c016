import os

import pytest

from fusionrep.invariants import irreducible_invariants
from fusionrep.jobspec import load_jobspec, realize
from fusionrep.ringpres import completed_presentation, structure_constants

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir,
                        "src", "fusionrep", "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


class Pipeline:
    """Realized job plus the derived ring data, computed once per spec."""

    def __init__(self, stem: str):
        self.stem = stem
        self.spec = load_jobspec(fixture_path(stem + ".fus"))
        job = realize(self.spec, FIXTURES)
        self.group = job.group
        self.subgroups = job.subgroups
        self.fusion = job.fusion
        self.extension = job.extension
        self.fusion_alpha = job.fusion_alpha
        self._basis = None

    @property
    def basis(self):
        if self._basis is None:
            self._basis = irreducible_invariants(self.fusion)
        return self._basis

    def presentation(self, names=None):
        return structure_constants(self.basis, names)

    def completed(self, names=None, completed_names=None):
        return completed_presentation(self.presentation(names),
                                      completed_names)


_CACHE = {}


@pytest.fixture(scope="session")
def pipeline():
    def get(stem: str) -> Pipeline:
        if stem not in _CACHE:
            _CACHE[stem] = Pipeline(stem)
        return _CACHE[stem]
    return get
