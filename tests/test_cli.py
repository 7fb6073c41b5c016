import json
import os
import subprocess
import sys
import time
from collections import Counter

import pytest

import fusionrep
from fusionrep.cli import main

from conftest import fixture_path
from test_golden import A4_SL23_EXPLICIT


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage(capsys):
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["bogus", "x"])[0] == 1
    assert run(capsys, ["repring"])[0] == 1


def test_primes_flag_takes_large_primes(capsys):
    """The prime 2^61 - 1 is certified at once and its spectrum printed;
    2^89 - 1 is past the proven Miller-Rabin bound, an input error."""
    spec = fixture_path("sigma_5.fus")
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["spectrum", spec, "--primes",
                                  str(2 ** 61 - 1)])
    assert code == 0, err
    assert time.perf_counter() - t0 < 1.0
    assert f"({2 ** 61 - 1}, t + " in out
    code, out, err = run(capsys, ["spectrum", spec, "--primes",
                                  str(2 ** 89 - 1)])
    assert code == 1 and out == ""
    assert err == (f"error: the primality of {2 ** 89 - 1} cannot be "
                   "certified: it is past 3317044064679887385961981\n")


def test_repring_text(capsys):
    code, out, err = run(capsys, ["repring", fixture_path("sigma_3.fus")])
    assert code == 0, err
    assert out.startswith("classes 2")
    assert "basis 1 (1), x (2)" in out
    assert "Z[x]/( x^2 - x - 2 )" in out


def test_repring_lists_the_unit_first(capsys, tmp_path):
    """F_{D8}(S_4) has an F-stable linear character besides the unit, the
    sign, whose row sorts before the unit's by (degree, row); the unit is
    still listed first."""
    spec = tmp_path / "s4.fus"
    spec.write_text("[group]\ndegree = 4\nr = (1 2 3 4)\ns = (1 3)\n\n"
                    "[subgroups]\nV = r r, r s\n\n"
                    "[fusion]\nV -> r s, r s r s r r\n")
    code, out, err = run(capsys, ["repring", str(spec)])
    assert code == 0, err
    assert out.splitlines()[:2] == ["classes 4",
                                    "basis 1 (1), X1 (1), X2 (3), X3 (3)"]


def test_ktheory_text(capsys):
    code, out, _ = run(capsys, ["ktheory", fixture_path("sigma_3.fus")])
    assert code == 0 and out == "Z[[y]]/( y^2 + 3y )\n"
    code, out, _ = run(capsys, ["ktheory", fixture_path("a4.fus")])
    assert code == 0 and out == "Z[[y]]/( y^2 + 4y )\n"


def test_json_mode(capsys):
    code, out, _ = run(capsys, ["repring", fixture_path("a4.fus"), "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1 and data["command"] == "repring"
    assert data["ring"] == "Z[x]/( x^2 - 2x - 3 )"
    assert [b["name"] for b in data["basis"]] == ["1", "x"]
    code, out, _ = run(capsys, ["ktheory", fixture_path("a4.fus"), "--json"])
    data = json.loads(out)
    assert data["ring"] == "Z[[y]]/( y^2 + 4y )"
    assert data["variables"] == [{"name": "y", "shift": 3}]


def test_chartable(capsys):
    code, out, _ = run(capsys, ["chartable", fixture_path("a4.fus")])
    assert code == 0
    assert "order 4" in out and "degrees 1^4" in out
    code, out, _ = run(capsys, ["chartable", fixture_path("a4.fus"),
                                "--json"])
    assert json.loads(out)["table"]["order"] == 4


def test_fusion_classes(capsys):
    code, out, _ = run(capsys, ["fusion-classes", fixture_path("a4.fus")])
    assert code == 0
    assert out.startswith("classes 2")
    assert "class 1: size 1, rep ()" in out
    assert "class 2: size 3" in out
    code, out, _ = run(capsys, ["fusion-classes", fixture_path("a4.fus"),
                                "--json"])
    assert [c["size"] for c in json.loads(out)["classes"]] == [1, 3]


def test_saturation(capsys):
    code, out, _ = run(capsys, ["saturation", fixture_path("a4.fus")])
    assert code == 0 and "saturated yes" in out
    code, out, _ = run(capsys, ["saturation", fixture_path("a4.fus"),
                                "--json"])
    data = json.loads(out)
    assert data["ok"] is True and data["violations"] == []
    # --saturation-large is accepted and changes nothing; the order-343
    # checks run without it (saturation goldens)
    assert run(capsys, ["saturation", fixture_path("a4.fus"), "--json",
                        "--saturation-large"])[:2] == (0, out)


def test_spectrum(capsys):
    code, out, _ = run(capsys, ["spectrum", fixture_path("sigma_3.fus")])
    assert code == 0
    assert "conductor 3" in out and "connected yes" in out and "P[" in out
    code, out, _ = run(capsys, ["spectrum", fixture_path("sigma_3.fus"),
                                "--dot"])
    assert code == 0 and out.startswith("digraph spectrum {")
    code, out, _ = run(capsys, ["spectrum", fixture_path("sigma_3.fus"),
                                "--json"])
    data = json.loads(out)
    assert data["connected"] is True and data["conductor"] == 3


def test_spectrum_flags(capsys):
    assert run(capsys, ["repring", fixture_path("sigma_3.fus"),
                        "--dot"])[0] == 1
    assert run(capsys, ["spectrum", fixture_path("sigma_3.fus"),
                        "--json", "--dot"])[0] == 1
    assert run(capsys, ["spectrum", fixture_path("sigma_3.fus"),
                        "--primes", "3"])[0] == 0
    code, _, err = run(capsys, ["spectrum", fixture_path("sigma_3.fus"),
                                "--primes", "4"])
    assert code == 1 and "not prime" in err
    assert run(capsys, ["spectrum", fixture_path("sigma_3.fus"),
                        "--conductor-order"])[0] == 0


def test_twisted(capsys):
    code, out, _ = run(capsys, ["twisted", fixture_path("a4_sl23.fus")])
    assert code == 0
    assert "extension order 8, coefficients 2" in out
    assert "basis rho (2)" in out
    assert "x acts by [[3]]" in out
    assert "completed module: Z" in out
    assert "y acts by [[0]]" in out
    code, out, _ = run(capsys, ["twisted", fixture_path("a4_sl23.fus"),
                                "--json"])
    data = json.loads(out)
    assert data["completed"]["kind"] == "finite"
    assert data["completed"]["free_rank"] == 1
    assert data["module"]["matrices"] == [[[3]]]
    code, _, err = run(capsys, ["twisted", fixture_path("a4.fus")])
    assert code == 1 and "extension" in err


def test_transpose_cocycle_flag(capsys, tmp_path):
    """The spec key transpose = true is the one cocycle transposition: the
    twisted command runs on a4_sl23 with it, and the flag exits 1."""
    csv_path = os.path.abspath(fixture_path("a4_quaternion.csv"))
    with open(fixture_path("a4_sl23.fus"), encoding="utf-8") as fh:
        text = fh.read().replace("cocycle = a4_quaternion.csv",
                                 f"cocycle = {csv_path}\ntranspose = true")
    spec = tmp_path / "a4_sl23_transposed.fus"
    spec.write_text(text)
    assert run(capsys, ["twisted", str(spec)])[0] == 0
    for stem in ("a4_sl23", "a4"):
        assert run(capsys, ["twisted", fixture_path(stem + ".fus"),
                            "--transpose-cocycle"])[0] == 1


def test_adic(capsys):
    code, out, _ = run(capsys, ["adic", fixture_path("sigma_3.fus"),
                                "--k", "2"])
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 2
    assert lines[0].startswith("k 1: m ")
    assert lines[1].startswith("k 2: m ")
    code, out, _ = run(capsys, ["adic", fixture_path("sigma_3.fus"),
                                "--json"])
    data = json.loads(out)
    assert data["results"][0]["k"] == 1 and "free_rank" in data["results"][0]
    assert run(capsys, ["adic", fixture_path("sigma_3.fus"),
                        "--k", "0"])[0] == 1


def test_adic_builds_each_power_once(capsys, monkeypatch):
    import fusionrep.ringpres
    real = fusionrep.ringpres.lattice_chain
    chains = []  # [rank, generators, lattices drawn] per chain

    def counted(maps, n):
        tally = [n, len(maps), 0]
        chains.append(tally)
        for lattice in real(maps, n):
            tally[2] += 1
            yield lattice

    monkeypatch.setattr(fusionrep.ringpres, "lattice_chain", counted)
    code, out, _ = run(capsys, ["adic", fixture_path("sigma_5.fus"),
                                "--k", "3", "--json"])
    assert code == 0
    ms = [r["m"] for r in json.loads(out)["results"]]
    # R(Z/5) has rank 5: I(S) has the four generators chi_i - 1 and the
    # restricted ideal J one; R(F) has rank 2.  One chain per ideal serves
    # every k: I(S)^m is drawn once for m up to the largest m, and J^k and
    # I(F)^k once for k up to 3
    assert sorted(chains) == [[2, 1, 3], [5, 1, 3], [5, 4, max(ms)]]


# the stage functions a Job calls, by the modules that define them
_STAGES = (("invariants", "irreducible_invariants"),
           ("ringpres", "structure_constants"),
           ("ringpres", "completed_presentation"),
           ("twisted", "twisted_invariant_basis"),
           ("twisted", "module_structure"),
           ("twisted", "completed_module"),
           ("ringpres", "adic_equivalence_exponent"),
           ("ringpres", "quotient_by_ideal_power"),
           ("spectrum", "prime_symbols"))
_BASIS = ("irreducible_invariants",)
_PRESENTATION = ("structure_constants",)
_LATTICE = ("invariant_lattice",)


@pytest.mark.parametrize("argv,lines,stages", [
    (["repring", "sigma_5.fus"], 3, [_BASIS, _LATTICE, _PRESENTATION]),
    (["ktheory", "sigma_5.fus"], 1,
     [_BASIS, _LATTICE, _PRESENTATION, ("completed_presentation",)]),
    (["adic", "sigma_5.fus", "--k", "3"], 3,
     [_BASIS, _LATTICE, _PRESENTATION, ("structure_tensor",)]
     + [(stage, k) for k in (1, 2, 3) for stage in
        ("adic_equivalence_exponent", "quotient_by_ideal_power")]),
    (["twisted", "a4_sl23.fus"], 6,
     [_BASIS, _LATTICE, _PRESENTATION, ("twisted_invariant_basis",),
      _LATTICE, ("TwistedBasis",), ("module_structure",),
      ("completed_presentation",), ("completed_module",)]),
], ids=["repring", "ktheory", "adic", "twisted"])
def test_each_stage_runs_once_per_job(capsys, monkeypatch, argv, lines,
                                      stages):
    """Wrap every stage function in the module that defines it (the job
    imports each one when it first runs the stage), the two library
    call sites that build the basis or the presentation when they are not
    passed one, the structure tensor of Irr(S), which only the character
    ring of adic reads, invariant_lattice where invariants and twisted
    call it, once per basis, and the TwistedBasis constructor, so the
    twisted basis is built and certified once, under its display names;
    tally the calls by name and integer arguments (k)."""
    import fusionrep.chartable
    import fusionrep.invariants
    import fusionrep.ringpres
    import fusionrep.spectrum
    import fusionrep.twisted
    calls = Counter()
    sites = ([(getattr(fusionrep, mod), name) for mod, name in _STAGES]
             + [(fusionrep.ringpres, "irreducible_invariants"),
                (fusionrep.twisted, "structure_constants"),
                (fusionrep.twisted, "TwistedBasis"),
                (fusionrep.chartable.CharacterTable, "structure_tensor")]
             + [(mod, "invariant_lattice")
                for mod in (fusionrep.invariants, fusionrep.twisted)])
    for mod, name in sites:
        def counted(*a, _real=getattr(mod, name), _name=name, **kw):
            calls[(_name,) + tuple(x for x in a if isinstance(x, int))] += 1
            return _real(*a, **kw)

        monkeypatch.setattr(mod, name, counted)
    cmd, stem, *extra = argv
    code, out, _ = run(capsys, [cmd, fixture_path(stem), *extra])
    assert code == 0 and len(out.splitlines()) == lines
    assert calls == Counter(stages)
    assert calls[_BASIS] == 1 and calls[_PRESENTATION] == 1


_LAYERS = {"chartable", "cyclotomic", "intlinalg", "invariants", "ringpres",
           "spectrum", "twisted"}

_LOADED = """
import contextlib, io, json, sys
from fusionrep.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(name for name in sys.modules
                               if name.startswith("fusionrep.")),
                  [name for name in ("numpy", "fractions")
                   if name in sys.modules]]))
"""


def _src_env(**extra) -> dict:
    """The environment of a fresh process that imports fusionrep from
    this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        fusionrep.__file__)))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, **extra,
                PYTHONPATH=src if not path else src + os.pathsep + path)


@pytest.mark.parametrize("cmd,stem,extra,loaded", [
    ("fusion-classes", "sigma_5", (), set()),
    ("fusion-classes", "he", (), set()),
    ("saturation", "sigma_5", (), set()),
    ("saturation", "onan", (), set()),
    ("ktheory", "sigma_5", (), _LAYERS - {"spectrum", "twisted"}),
    ("fusion-classes", "a4_sl23", (), set()),
    ("fusion-classes", None, (), set()),
    ("twisted", "a4_sl23", (), _LAYERS - {"spectrum"}),
    ("adic", "a4", (), _LAYERS - {"spectrum", "twisted"}),
    ("spectrum", "he", (), {"cyclotomic", "spectrum"}),
    ("spectrum", "he", ("--conductor-order", "--primes", "2,3,7"),
     {"cyclotomic", "spectrum"}),
], ids=["fusion-classes", "fusion-classes-he", "saturation", "saturation-onan",
        "ktheory", "extension", "extension-explicit", "twisted", "adic",
        "spectrum-he", "spectrum-he-order"])
def test_a_command_loads_only_the_layers_it_runs(tmp_path, cmd, stem, extra,
                                                 loaded):
    """In a fresh process, the modules a command imports: fusion-classes
    and saturation need none of the character, ring, twisted, spectrum
    and linear-algebra layers, saturation on an order-343 fixture (onan)
    included; ktheory loads no twisted or spectrum, and spectrum, with or
    without primes to factor over, no character, ring or linear-algebra
    layer.  An [extension] section, by cocycle (a4_sl23) or by its group
    (stem None: Q8 over V4, written out), is realized with no twisted
    layer.  No command loads numpy or fractions."""
    if stem is None:
        spec = tmp_path / "a4_sl23_explicit.fus"
        spec.write_text(A4_SL23_EXPLICIT)
    else:
        spec = fixture_path(stem + ".fus")
    done = subprocess.run(
        [sys.executable, "-c", _LOADED, cmd, str(spec), *extra],
        capture_output=True, text=True, env=_src_env(), check=True)
    code, modules, heavy = json.loads(done.stdout)
    assert code == 0
    assert {m.split(".")[1] for m in modules} & _LAYERS == loaded
    assert heavy == []


def test_error_exit_codes(capsys, tmp_path):
    code, _, err = run(capsys, ["repring", "/nonexistent/file.fus"])
    assert code == 1 and err.startswith("error:")
    bad = tmp_path / "bad.fus"
    bad.write_text("[group]\ndegree = 3\ns = (1 2\n")
    code, _, err = run(capsys, ["repring", str(bad)])
    assert code == 1 and "line 3" in err
    code, _, _ = run(capsys, ["repring", fixture_path("onan.fus"),
                              "--cap-hilbert", "1"])
    assert code == 3
    # the completion on he ends with 90 members
    code, _, _ = run(capsys, ["ktheory", fixture_path("he.fus"),
                              "--cap-hilbert", "89"])
    assert code == 3
    code, _, _ = run(capsys, ["repring", fixture_path("a4.fus"),
                              "--cap-order", "2"])
    assert code == 3


S3_SPEC = "[group]\ndegree = 6\nx = (1 2 3)(4 5 6)\ny = (1 4)(2 6)(3 5)\n"


@pytest.mark.parametrize("argv, error_type, exit_code, message", [
    (["fusion-classes", "/nonexistent/file.fus"], "InputError", 1,
     "cannot read spec file"),
    (["repring", "s3.fus"], "NotAPrimePowerGroup", 2,
     "|S| = 6 is not a prime power"),
    (["saturation", fixture_path("he.fus"), "--cap-morphisms", "100"],
     "MorphismCapExceeded", 3, "morphism closure exceeds cap 100"),
])
def test_json_errors(capsys, tmp_path, monkeypatch, argv, error_type,
                     exit_code, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s3.fus").write_text(S3_SPEC)
    code, out, err = run(capsys, argv + ["--json"])
    assert code == exit_code
    assert err.startswith("error: ") and err.count("\n") == 1
    data = json.loads(out)
    assert data == {"schema": 1, "command": argv[0], "error": {
        "type": error_type, "message": err[len("error: "):-1],
        "exit_code": exit_code}}
    if message is not None:
        assert message in data["error"]["message"]
    assert run(capsys, argv)[1] == ""


@pytest.mark.parametrize("argv, command, message", [
    (["adic", "a4.fus", "--k", "foo", "--json"], "adic",
     "argument --k: invalid int value: 'foo'"),
    (["nosuch", "a4.fus", "--json"], None,
     "argument command: invalid choice: 'nosuch'"),
    (["spectrum", "a4.fus", "--json", "--dot"], "spectrum",
     "argument --dot: not allowed with argument --json"),
    (["--json"], None, "the following arguments are required"),
], ids=["bad-k", "unknown-command", "json-dot", "no-command"])
def test_usage_errors_are_json(capsys, argv, command, message):
    """A usage error exits 1 like any other input error: under --json with
    the JSON error object, command null when the command is missing or
    unknown; in text mode with the usage line on stderr and nothing on
    stdout."""
    code, out, err = run(capsys, argv)
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1
    assert json.loads(out) == {"schema": 1, "command": command, "error": {
        "type": "InputError", "message": err[len("error: "):-1],
        "exit_code": 1}}
    assert message in err
    text = [a for a in argv if a != "--json"]
    if "--dot" in text:  # --dot alone is no usage error
        return
    code, out, err = run(capsys, text)
    usage, _, last = err.rpartition("\nerror: ")
    assert code == 1 and out == "" and usage.startswith("usage: fusionrep ")
    assert message in last and last.count("\n") == 1


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("kind", ["spec", "cocycle"])
def test_non_utf8_input_exits_1(capsys, tmp_path, kind, as_json):
    """A spec file or a cocycle CSV that is not UTF-8 text exits 1 with a
    message, and with a JSON error under --json."""
    spec = tmp_path / "bad.fus"
    if kind == "spec":
        spec.write_bytes(b"\xff\xfe[group]\n")
    else:
        with open(fixture_path("a4_sl23.fus"), encoding="utf-8") as fh:
            spec.write_text(fh.read().replace("a4_quaternion.csv", "bad.csv"))
        with open(fixture_path("a4_quaternion.csv"), "rb") as fh:
            (tmp_path / "bad.csv").write_bytes(b"\xff" + fh.read())
    argv = ["twisted", str(spec)] + (["--json"] if as_json else [])
    code, out, err = run(capsys, argv)
    message = f"cannot read {kind} file: not UTF-8 text"
    assert code == 1 and err == f"error: {message}\n"
    if as_json:
        assert json.loads(out)["error"] == {
            "type": "InputError", "message": message, "exit_code": 1}
    else:
        assert out == ""


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case", ["bad-prime", "missing-names", "bad-names"])
def test_bad_primes_and_name_files_exit_1(capsys, tmp_path, case, as_json):
    """A --primes entry that is no integer, a --names file that cannot be
    read and one that is not JSON each exit 1 with an InputError."""
    spec = fixture_path("sigma_3.fus")
    (tmp_path / "bad.json").write_text("{")
    argv, message = {
        "bad-prime": (["spectrum", spec, "--primes", "2,x"], "bad prime 'x'"),
        "missing-names": (["repring", spec, "--names",
                           str(tmp_path / "none.json")],
                          "cannot read name mapping: "),
        "bad-names": (["repring", spec, "--names", str(tmp_path / "bad.json")],
                      "bad name mapping JSON: "),
    }[case]
    code, out, err = run(capsys, argv + (["--json"] if as_json else []))
    assert code == 1 and err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    if as_json:
        assert json.loads(out) == {"schema": 1, "command": argv[0], "error": {
            "type": "InputError", "message": err[len("error: "):-1],
            "exit_code": 1}}
    else:
        assert out == ""
    if case == "bad-prime":
        assert err == "error: bad prime 'x'\n"


def test_spectrum_on_the_trivial_group_asks_for_primes(capsys, tmp_path):
    spec = tmp_path / "trivial.fus"
    spec.write_text("[group]\ndegree = 1\nx = ()\n")
    code, out, err = run(capsys, ["spectrum", str(spec)])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--primes" in err
    code, _, err = run(capsys, ["spectrum", str(spec), "--primes", "2"])
    assert code == 0, err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("cap", ["order", "subgroups", "morphisms", "hilbert",
                                 "adic"])
def test_non_positive_caps_are_rejected(capsys, cap, value):
    code, out, err = run(capsys, ["adic", fixture_path("sigma_3.fus"),
                                  f"--cap-{cap}", value])
    assert code == 1 and out == ""
    assert err == f"error: cap_{cap} must be positive\n"


def test_the_completed_module_takes_no_cap(capsys, tmp_path):
    """The completion of a twisted module runs no chain, so neither the
    flag --cap-chain nor the option cap_chain exists."""
    code, out, _ = run(capsys, ["twisted", fixture_path("a4_sl23.fus"),
                                "--cap-chain", "1"])
    assert code == 1 and out == ""
    spec = tmp_path / "capped.fus"
    spec.write_text("[group]\ndegree = 2\ng = (1 2)\n\n"
                    "[options]\ncap_chain = 1\n")
    code, out, err = run(capsys, ["twisted", str(spec)])
    assert code == 1 and out == ""
    assert "unknown option 'cap_chain'" in err


SAT5_SPEC = ("[group]\nconstructor = extraspecial_p3\np = 5\n\n"
             "[fusion]\ngl2 = [[2, 0], [0, 3]]\n")


@pytest.mark.parametrize("cap, code", [(73, 0), (72, 3)])
def test_cap_subgroups_counts_the_candidates_built(capsys, tmp_path, cap,
                                                   code):
    """The layered enumeration builds 73 candidates H<g> on 5^{1+2}."""
    spec = tmp_path / "sat5.fus"
    spec.write_text(SAT5_SPEC)
    got, out, _ = run(capsys, ["saturation", str(spec), "--json",
                               "--cap-subgroups", str(cap)])
    assert got == code
    if code == 3:
        assert json.loads(out)["error"]["message"] == "more than 72 candidates"


@pytest.mark.parametrize("value", ["0", "-1"],
                         ids=["cap-saturation-0", "cap-saturation--1"])
def test_removed_flags_exit_1(capsys, value):
    """Saturation has no order cap, so --cap-saturation is not accepted."""
    assert run(capsys, ["saturation", fixture_path("a4.fus"),
                        "--cap-saturation", value])[0] == 1


def test_names_override(capsys, tmp_path):
    alt = tmp_path / "names.json"
    alt.write_text(json.dumps({"X1": "T", "v1": "q"}))
    code, out, _ = run(capsys, ["repring", fixture_path("sigma_3.fus"),
                                "--names", str(alt)])
    assert code == 0 and "Z[T]/( T^2 - T - 2 )" in out
    code, out, _ = run(capsys, ["ktheory", fixture_path("sigma_3.fus"),
                                "--names", str(alt)])
    assert out == "Z[[q]]/( q^2 + 3q )\n"
    badmap = tmp_path / "badmap.json"
    badmap.write_text("[1, 2]")
    assert run(capsys, ["repring", fixture_path("sigma_3.fus"),
                        "--names", str(badmap)])[0] == 1


@pytest.mark.parametrize("cmd,stem,mapping,message", [
    ("repring", "onan", {"X1": "A", "X2": "A"}, "X1 and X2 the same name 'A'"),
    ("ktheory", "onan", {"X1": "A", "X2": "A"}, "X1 and X2 the same name 'A'"),
    ("repring", "onan", {"X1": "X2"}, "X1 and X2 the same name 'X2'"),
    ("ktheory", "onan", {"v1": "w", "v2": "w"}, "v1 and v2 the same name 'w'"),
    ("repring", "onan", {"X1": ""}, "X1 an empty name"),
    ("twisted", "a4_sl23", {"v1": ""}, "v1 an empty name"),
    ("twisted", "a4_sl23", {"W1": ""}, "W1 an empty name"),
    ("repring", "sigma_3", {"X1": "2"},
     "X1 the name '2', which is not an identifier"),
    ("ktheory", "sigma_3", {"v1": "q r"},
     "v1 the name 'q r', which is not an identifier"),
    ("twisted", "a4_sl23", {"W1": "rho-1"},
     "W1 the name 'rho-1', which is not an identifier"),
], ids=["repring-X", "ktheory-X", "repring-X-kept", "ktheory-v",
        "repring-X-empty", "twisted-v-empty", "twisted-W-empty",
        "repring-X-digit", "ktheory-v-space", "twisted-W-dash"])
def test_names_must_be_non_empty_and_distinct(capsys, tmp_path, cmd, stem,
                                              mapping, message):
    path = tmp_path / "names.json"
    path.write_text(json.dumps(mapping))
    code, out, err = run(capsys, [cmd, fixture_path(stem + ".fus"),
                                  "--names", str(path)])
    assert code == 1 and out == ""
    assert err == f"error: name mapping gives {message}\n"


@pytest.mark.parametrize("key", ["x1", "Q9", "X0", "X01", "v", "W1a", ""])
def test_name_mapping_keys_must_name_a_generator(capsys, tmp_path, key):
    path = tmp_path / "names.json"
    path.write_text(json.dumps({"X1": "A", key: "a"}))
    argv = ["repring", fixture_path("sigma_3.fus"), "--names", str(path)]
    code, out, err = run(capsys, argv)
    message = f"name mapping key {key!r} is not X<n>, v<n> or W<n>"
    assert code == 1 and out == "" and err == f"error: {message}\n"
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 1 and json.loads(out)["error"] == {
        "type": "InputError", "message": message, "exit_code": 1}


def test_twisted_names_the_completed_module_basis(capsys, tmp_path):
    """V4 with A4 fusion, extended by the trivial cocycle: its twisted
    module has a shifted action that is not nilpotent, so the completed
    module is symbolic, and the names file renames its generators and its
    action."""
    (tmp_path / "zero.csv").write_text("0,0,0,0\n" * 4)
    spec = tmp_path / "v4_trivial.fus"
    spec.write_text("[group]\ndegree = 4\nx = (1 2)(3 4)\ny = (1 3)(2 4)\n\n"
                    "[fusion]\nS -> y, x y\n\n"
                    "[extension]\ncoefficients = 2\ncocycle = zero.csv\n\n"
                    "[fusion_alpha]\nS -> z, y, x y\n")
    (tmp_path / "v4_trivial.names.json").write_text(
        json.dumps({"W1": "one", "W2": "three", "v1": "u"}))
    code, out, _ = run(capsys, ["twisted", str(spec)])
    assert code == 0
    lines = out.splitlines()
    assert "basis one (1), three (3)" in lines
    assert ("completed module (symbolic): chain did not stabilize, "
            "generators (one, three)") in lines
    assert "  u acts by [[-3, 3], [1, -1]]" in lines


@pytest.mark.parametrize("cmd", ["repring", "ktheory"])
@pytest.mark.parametrize("pair", [("onan", "onan_2"), ("fi24p", "fi24"),
                                  ("rv2", "rv3")])
def test_equivalent_specs_print_identically(capsys, cmd, pair):
    a, b = pair
    code_a, out_a, _ = run(capsys, [cmd, fixture_path(a + ".fus")])
    code_b, out_b, _ = run(capsys, [cmd, fixture_path(b + ".fus")])
    assert code_a == 0 and code_b == 0
    assert out_a == out_b


def test_onan_through_cli(capsys):
    code, out, _ = run(capsys, ["repring", fixture_path("onan.fus")])
    assert code == 0
    assert ("Z[A,B]/( A^2 - 65A - 66B - 78, B^2 - 108A - 107B - 120, "
            "AB - 84A - 84B - 72 )") in out
    code, out, _ = run(capsys, ["ktheory", fixture_path("onan.fus")])
    assert out == ("Z[[z,w]]/( z^2 + 235z - 66w, w^2 - 108z + 277w, "
                   "zw + 108z + 66w )\n")
