"""Byte-identity guard on the CLI output of every bundled fixture.

Each case runs one command in-process and compares standard output, text
and ``--json``, with a file under ``tests/golden/``.  The ``a4_sl23`` files
also check the same system with its extension written as an explicit group.
Regenerate the files (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import os
import sys

import pytest

from fusionrep.cli import main
from fusionrep.permgroup import FiniteGroup

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
FIXTURES = os.path.join(HERE, os.pardir, "src", "fusionrep", "fixtures")

ORDER_343 = ("onan", "onan_2", "he", "he_2", "fi24p", "fi24", "rv1", "rv2",
             "rv3")
STEMS = ("sigma_3", "sigma_5", "sigma_7", "a4", "a4_sl23") + ORDER_343
PER_FIXTURE = ("chartable", "fusion-classes", "repring", "ktheory",
               "spectrum")

CASES = (
    [(cmd, stem, ()) for stem in STEMS for cmd in PER_FIXTURE]
    + [("twisted", "a4_sl23", ())]
    + [("adic", stem, ("--k", "2"))
       for stem in ("a4", "sigma_3", "sigma_5", "sigma_7")]
    + [("saturation", stem, ()) for stem in STEMS]
)
# --dot excludes --json, so these cases have a text golden only.
DOT_CASES = [("spectrum", stem, ("--dot",)) for stem in ("sigma_3", "a4")]
MODES = ([(*case, json_mode) for case in CASES for json_mode in (False, True)]
         + [(*case, False) for case in DOT_CASES])


def _golden_name(cmd, stem, extra, json_mode):
    tag = "".join(a.lstrip("-") for a in extra)
    base = f"{cmd}-{stem}" + (f"-{tag}" if tag else "")
    return base + (".json" if json_mode else ".txt")


def _run(cmd, stem, extra, json_mode):
    return _main([cmd, os.path.join(FIXTURES, stem + ".fus"), *extra],
                 json_mode)


def _main(argv, json_mode):
    if json_mode:
        argv = [*argv, "--json"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _param(cmd, stem, extra, json_mode):
    """A case as a pytest param; saturation on 7^{1+2} is marked slow."""
    slow = cmd == "saturation" and stem in ORDER_343
    return pytest.param(
        cmd, stem, extra, json_mode, marks=[pytest.mark.slow] if slow else [],
        id=(_golden_name(cmd, stem, extra, False)[:-4]
            + ("-json" if json_mode else "-text")))


@pytest.mark.parametrize("cmd,stem,extra,json_mode",
                         [_param(*case) for case in MODES])
def test_golden(cmd, stem, extra, json_mode):
    code, out = _run(cmd, stem, extra, json_mode)
    assert code == 0
    path = os.path.join(GOLDEN, _golden_name(cmd, stem, extra, json_mode))
    with open(path, "r", encoding="utf-8", newline="") as fh:
        assert out == fh.read()


# a4_sl23 with its extension written in the explicit-group form: Q8 on 8
# points, i and j over x and y, kernel generated by i^2.
A4_SL23_EXPLICIT = """\
[group]
degree = 4
x = (1 2)(3 4)
y = (1 3)(2 4)

[fusion]
S -> y, x y

[extension]
degree = 8
i = (1 2 4 7)(3 6 8 5)
j = (1 3 4 8)(2 5 7 6)
kernel = i^2
projection = x, y

[fusion_alpha]
S -> j, i j
"""


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("cmd", [*PER_FIXTURE, "twisted", "saturation"])
def test_explicit_extension_form_matches_the_a4_sl23_goldens(
        tmp_path, cmd, json_mode):
    spec = tmp_path / "a4_sl23_explicit.fus"
    spec.write_text(A4_SL23_EXPLICIT)
    names = os.path.join(FIXTURES, "a4_sl23.names.json")
    code, out = _main([cmd, str(spec), "--names", names], json_mode)
    assert code == 0
    path = os.path.join(GOLDEN, _golden_name(cmd, "a4_sl23", (), json_mode))
    with open(path, "r", encoding="utf-8", newline="") as fh:
        assert out == fh.read()


GUARDED = ([(cmd, stem, ()) for cmd in ("chartable", "repring", "ktheory",
                                         "spectrum", "twisted")
            for stem in STEMS]
           + [("adic", stem, ("--k", "1")) for stem in STEMS])


@pytest.mark.parametrize(
    "cmd,stem,extra", GUARDED,
    ids=[_golden_name(*case, False)[:-4] for case in GUARDED])
def test_only_saturation_enumerates_subgroups(monkeypatch, cmd, stem, extra):
    """Every command but saturation runs without the subgroup lattice: with
    the enumeration raising, and all_subgroups too, so that a lattice
    cached on a shared group by an earlier run counts as well, each run
    prints its golden where there is one and otherwise exits 0, or 1 for
    twisted on a spec without an [extension] section."""
    def refuse(self, cap=None):
        raise AssertionError("the subgroup lattice was enumerated")

    monkeypatch.setattr(FiniteGroup, "_enumerate_subgroups", refuse)
    monkeypatch.setattr(FiniteGroup, "all_subgroups", refuse)
    code, out = _run(cmd, stem, extra, False)
    path = os.path.join(GOLDEN, _golden_name(cmd, stem, extra, False))
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8", newline="") as fh:
            assert (code, out) == (0, fh.read())
    else:
        assert code == (1 if cmd == "twisted" else 0)


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for case in MODES:
        code, out = _run(*case)
        if code != 0:
            sys.exit(f"{case} exited {code}")
        name = _golden_name(*case)
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(out)
        print(name, flush=True)
