import os

import pytest

from fusionrep.jobspec import Job, load_jobspec, realize

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir,
                        "src", "fusionrep", "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


_CACHE = {}


@pytest.fixture(scope="session")
def pipeline():
    """The realized Job of a bundled fixture, one per stem and session."""
    def get(stem: str) -> Job:
        if stem not in _CACHE:
            _CACHE[stem] = realize(load_jobspec(fixture_path(stem + ".fus")),
                                   FIXTURES)
        return _CACHE[stem]
    return get
