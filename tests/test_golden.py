"""Byte-identity guard on the CLI output of every bundled fixture.

Each case runs one command in-process and compares standard output, text
and ``--json``, with a file under ``tests/golden/``.  Regenerate the files
(only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import os
import sys

import pytest

from fusionrep.cli import main

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
    argv = [cmd, os.path.join(FIXTURES, stem + ".fus"), *extra]
    if json_mode:
        argv.append("--json")
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
