import json

import pytest

from fusionrep.cli import main

from conftest import fixture_path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage(capsys):
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["bogus", "x"])[0] == 1
    assert run(capsys, ["repring"])[0] == 1


def test_repring_text(capsys):
    code, out, err = run(capsys, ["repring", fixture_path("sigma_3.fus")])
    assert code == 0, err
    assert out.startswith("classes 2")
    assert "basis 1 (1), x (2)" in out
    assert "Z[x]/( x^2 - x - 2 )" in out


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
    # order-343 group refuses without the large flag
    code, _, err = run(capsys, ["saturation", fixture_path("onan.fus")])
    assert code == 3 and "error:" in err


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


def test_transpose_cocycle_flag(capsys):
    assert run(capsys, ["twisted", fixture_path("a4_sl23.fus"),
                        "--transpose-cocycle"])[0] == 0
    assert run(capsys, ["twisted", fixture_path("a4.fus"),
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


def _count_calls(monkeypatch, name, modules):
    """Wrap one function in each module that imported it; return the tally."""
    calls = []
    for mod in modules:
        real = getattr(mod, name)

        def counted(*a, _real=real, **kw):
            calls.append(1)
            return _real(*a, **kw)

        monkeypatch.setattr(mod, name, counted)
    return calls


def test_adic_builds_the_basis_once(capsys, monkeypatch):
    import fusionrep.cli
    import fusionrep.ringpres
    calls = _count_calls(monkeypatch, "irreducible_invariants",
                         (fusionrep.cli, fusionrep.ringpres))
    code, out, _ = run(capsys, ["adic", fixture_path("sigma_5.fus"),
                                "--k", "3"])
    assert code == 0 and len(out.splitlines()) == 3
    assert len(calls) == 1


def test_twisted_builds_the_presentation_once(capsys, monkeypatch):
    import fusionrep.cli
    import fusionrep.twisted
    calls = _count_calls(monkeypatch, "structure_constants",
                         (fusionrep.cli, fusionrep.twisted))
    assert run(capsys, ["twisted", fixture_path("a4_sl23.fus")])[0] == 0
    assert len(calls) == 1


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
    code, _, _ = run(capsys, ["repring", fixture_path("a4.fus"),
                              "--cap-order", "2"])
    assert code == 3


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
