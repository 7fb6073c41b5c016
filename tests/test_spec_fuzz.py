"""Mutated job specs through the command line: an exit code, never a traceback.

Each example takes a small spec, drops, duplicates or truncates one line or
replaces one number in it, and runs fusion-classes, spectrum, repring,
ktheory, twisted and adic on the result in-process.  A second test
mutates the order-343 specs rv1 and onan the same way and runs
fusion-classes, saturation under a morphism cap of 1000, and repring and
ktheory under a Hilbert cap of 2000, so that each example stays bounded.  Every outcome must be one
of the documented exit codes: 0 success, 1 input problem, 2 validation
failure, 3 cap exceeded.
"""

import contextlib
import io
import os
import re
import shutil

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fusionrep.cli import main

from conftest import FIXTURES


def _fixture_text(stem: str) -> str:
    with open(os.path.join(FIXTURES, stem + ".fus"), encoding="utf-8") as fh:
        return fh.read()


TEXTS = [_fixture_text(stem)
         for stem in ("sigma_3", "sigma_5", "sigma_7", "a4", "a4_sl23")]
TEXTS.append("[group]\nconstructor = extraspecial_p3\np = 3\n\n"
             "[fusion]\ngl2 = [[0, 1], [2, 0]]\n")
TEXTS_343 = [_fixture_text(stem) for stem in ("rv1", "onan")]
TRIVIAL = "[group]\ndegree = 1\nx = ()\n"
NUMBERS = ("0", "1", "2", "3", "4", "5", "8", "9", "-1", "99")
COMMANDS = ("fusion-classes", "spectrum", "repring", "ktheory", "twisted",
            "adic")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the cocycle tables the fixtures name."""
    out = tmp_path_factory.mktemp("fuzz")
    for name in os.listdir(FIXTURES):
        if name.endswith(".csv"):
            shutil.copy(os.path.join(FIXTURES, name), out)
    return out


@st.composite
def mutated_specs(draw, texts=TEXTS):
    lines = draw(st.sampled_from(texts)).splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(("drop", "duplicate", "truncate", "number")))
    if how == "drop":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, lines[i])
    elif how == "truncate":
        lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
    else:
        spots = [m.span() for m in re.finditer(r"\d+", "\n".join(lines))]
        if spots:
            text = "\n".join(lines)
            a, b = draw(st.sampled_from(spots))
            lines = (text[:a] + draw(st.sampled_from(NUMBERS))
                     + text[b:]).splitlines()
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_specs())
@example(TRIVIAL)
def test_mutated_specs_exit_cleanly(workdir, text):
    spec = workdir / "job.fus"
    spec.write_text(text)
    for command in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command, str(spec), "--cap-order", "100"])
        assert code in (0, 1, 2, 3), (command, text)
        if code:
            assert err.getvalue().startswith("error:"), (command, text)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_specs(TEXTS_343))
def test_mutated_order_343_specs_exit_cleanly(workdir, text):
    spec = workdir / "job.fus"
    spec.write_text(text)
    for command, extra in (("fusion-classes", ()),
                           ("saturation", ("--cap-morphisms", "1000")),
                           ("repring", ("--cap-hilbert", "2000")),
                           ("ktheory", ("--cap-hilbert", "2000"))):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command, str(spec), *extra])
        assert code in (0, 1, 2, 3), (command, text)
        if code:
            assert err.getvalue().startswith("error:"), (command, text)
