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

STEMS = ("sigma_3", "sigma_5", "sigma_7", "a4", "a4_sl23", "onan", "onan_2",
         "he", "he_2", "fi24p", "fi24", "rv1", "rv2", "rv3")
PER_FIXTURE = ("chartable", "fusion-classes", "repring", "ktheory",
               "spectrum")

CASES = (
    [(cmd, stem, ()) for stem in STEMS for cmd in PER_FIXTURE]
    + [("twisted", "a4_sl23", ())]
    + [("adic", stem, ("--k", "2"))
       for stem in ("a4", "sigma_3", "sigma_5", "sigma_7")]
)


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


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "cmd,stem,extra", CASES,
    ids=[_golden_name(c, s, e, False)[:-4] for c, s, e in CASES])
def test_golden(cmd, stem, extra, json_mode):
    code, out = _run(cmd, stem, extra, json_mode)
    assert code == 0
    path = os.path.join(GOLDEN, _golden_name(cmd, stem, extra, json_mode))
    with open(path, "r", encoding="utf-8", newline="") as fh:
        assert out == fh.read()


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for case in CASES:
        for json_mode in (False, True):
            code, out = _run(*case, json_mode)
            if code != 0:
                sys.exit(f"{case} exited {code}")
            name = _golden_name(*case, json_mode)
            with open(os.path.join(GOLDEN, name), "w", encoding="utf-8",
                      newline="") as fh:
                fh.write(out)
            print(name, flush=True)
