import os

# one BLAS thread, as the CLI runs: set before anything imports numpy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

from fusionrep.jobspec import Job, load_jobspec, realize  # noqa: E402

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
