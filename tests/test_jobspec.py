import os

import pytest

from oracles import section_cocycle, spec_text

from fusionrep.cli import main
from fusionrep.errors import InputError, ParseError, UnknownName
from fusionrep.jobspec import load_jobspec, parse_jobspec, realize

from conftest import FIXTURES, fixture_path

ALL_FIXTURES = ("sigma_3", "sigma_5", "sigma_7", "a4", "a4_sl23", "onan",
                "onan_2", "rv1", "rv2", "rv3", "he", "he_2", "fi24p", "fi24")


def test_fixture_inventory():
    found = sorted(f[:-4] for f in os.listdir(FIXTURES)
                   if f.endswith(".fus"))
    assert found == sorted(ALL_FIXTURES)


@pytest.mark.parametrize("stem", ALL_FIXTURES)
def test_round_trip(stem):
    """The parser reads back every field of a spec written as text."""
    spec = load_jobspec(fixture_path(stem + ".fus"))
    again = parse_jobspec(spec_text(spec))
    assert again == spec
    assert parse_jobspec(spec_text(again)) == again


def test_realize_sigma_3(pipeline):
    P = pipeline("sigma_3")
    assert P.group.order == 3
    assert len(P.fusion.generators) == 1
    assert load_jobspec(fixture_path("sigma_3.fus")).option("primes") \
        == (2, 3)


def test_realize_extension(pipeline):
    P = pipeline("a4_sl23")
    assert P.extension is not None
    assert P.extension.group.order == 8
    assert len(P.extension.group.conjugacy_classes()) == 5
    assert P.fusion_alpha is not None


def test_realize_onan(pipeline):
    P = pipeline("onan")
    assert P.group.order == 343
    assert sorted(P.subgroups) == ["A0", "A1"]
    assert len(P.fusion.generators) == 9


def check_bad(text, exc):
    with pytest.raises(exc) as info:
        parse_jobspec(text)
    return info.value


def test_parse_errors():
    e = check_bad("[group]\ndegree = 4\nx = (1 2\n", ParseError)
    assert str(e).startswith("line 3, ")
    check_bad("[group]\ndegree = 4\nx = (1 2)(3 4)\n[fusion]\nS -> q\n",
              UnknownName)
    check_bad("[group]\ndegree = 4\nx = (1 2)(3 4)\n[fusion]\nT0 -> x\n",
              UnknownName)
    # the gl2 shorthand needs the extraspecial constructor
    check_bad("[group]\ndegree = 4\nx = (1 2)(3 4)\n"
              "[fusion]\ngl2 = [[1,0],[0,1]]\n", ParseError)
    check_bad("[group]\nconstructor = extraspecial_p3\n", ParseError)
    check_bad("[group]\nconstructor = extraspecial_p3\np = 6\n", ParseError)
    check_bad("[grp]\n", ParseError)
    check_bad("x = (1 2)\n", ParseError)
    check_bad("[group]\ndegree = 4\nx = (1 2)(3 4)\n[options]\nzoom = 1\n",
              ParseError)
    check_bad("[group]\ndegree = 4\nx = (1 2)(3 4)\n[options]\nprimes = 4\n",
              ParseError)
    check_bad("[group]\ndegree = 4\nx = (1 2)(3 4)\n[fusion_alpha]\nS -> x\n",
              ParseError)
    # "z" is reserved for the kernel generator of a cocycle extension
    check_bad("[group]\ndegree = 2\nz = (1 2)\n[extension]\n"
              "coefficients = 2\ncocycle = t.csv\n", ParseError)
    check_bad("[group]\ndegree = 2\ng = (1 2)\n[extension]\n"
              "coefficients = 2\n", ParseError)
    # a permutation degree must be positive in both sections
    for text, line in (("[group]\ndegree = -1\nx = ()\n", 2),
                       ("[group]\ndegree = 0\nx = ()\n", 2),
                       ("[group]\ndegree = 2\nx = (1 2)\n[extension]\n"
                        "degree = -2\na = ()\nkernel = a\nprojection = x\n",
                        5)):
        e = check_bad(text, ParseError)
        assert str(e).startswith(f"line {line}, ")
        assert "degree must be positive" in str(e)
    # generator lines read the same in [group] and [extension]
    for section in ("[group]", "[group]\ndegree = 2\ng = (1 2)\n[extension]"):
        for body, message in (("x = (1 2)\n", "degree must precede"),
                              ("degree = 2\n2x = (1 2)\n", "bad generator"),
                              ("degree = 2\nx = (1 2)\nx = ()\n",
                               "duplicate generator"),
                              ("degree = 2\nx = (1 3)\n", "")):
            e = check_bad(f"{section}\n{body}", ParseError)
            assert message in str(e)


EXPLICIT_BASE = "[group]\ndegree = 2\nx = (1 2)\n[extension]\n"


@pytest.mark.parametrize("body, message", [
    ("degree = 4\na = (1 2 3 4)\nkernel = a^2\n",
     "[extension] needs degree, generators, kernel and projection"),
    ("degree = 4\na = (1 2 3 4)\nkernel = a^2\nprojection = x, x\n",
     "projection needs one word per generator"),
    ("degree = 4\na = (1 2 3 4)\nkernel = a^2\nprojection = x\n"
     "coefficients = 2\ncocycle = t.csv\n",
     "[extension] mixes the cocycle and explicit-group forms"),
], ids=["incomplete", "projection", "mixed"])
def test_explicit_extension_parse_errors(capsys, tmp_path, body, message):
    """The parse errors of the explicit-group [extension] form exit 1."""
    text = EXPLICIT_BASE + body
    assert str(check_bad(text, ParseError)).endswith(message)
    spec = tmp_path / "bad.fus"
    spec.write_text(text)
    assert main(["fusion-classes", str(spec)]) == 1
    assert capsys.readouterr().err.endswith(f"{message}\n")


def test_structural_equality():
    s1 = parse_jobspec("[group]\ndegree = 4\nx = (1 2)(3 4)\n")
    s2 = parse_jobspec("[group]\n\n# c\ndegree  =  4\nx =  (1 2) (3 4)\n")
    assert s1 == s2
    s3 = parse_jobspec("[group]\ndegree = 4\nx = (1 3)(2 4)\n")
    assert s1 != s3
    assert hash(s1) == hash(s2)


def test_missing_cocycle_file(tmp_path):
    spec = parse_jobspec("[group]\ndegree = 2\ng = (1 2)\n[extension]\n"
                         "coefficients = 2\ncocycle = missing.csv\n")
    with pytest.raises(InputError):
        realize(spec, str(tmp_path))


def test_realize_order_cap():
    spec = parse_jobspec("[group]\ndegree = 9\ns = (1 2 3 4 5 6 7 8 9)\n")
    from fusionrep.errors import OrderCapExceeded
    with pytest.raises(OrderCapExceeded):
        realize(spec, ".", caps={"order": 5})


def test_realize_takes_missing_caps_from_the_options():
    from fusionrep.errors import OrderCapExceeded
    spec = parse_jobspec("[group]\ndegree = 9\ns = (1 2 3 4 5 6 7 8 9)\n"
                         "[options]\ncap_order = 5\ncap_hilbert = 7\n")
    for caps in (None, {}, {"order": None}):
        with pytest.raises(OrderCapExceeded):
            realize(spec, ".", caps=caps)
    job = realize(spec, ".", caps={"order": 9})
    assert job.group.order == 9
    assert job.caps == {"order": 9, "hilbert": 7}


def test_word_exponents_reduce_modulo_the_generator_order():
    spec = parse_jobspec("[group]\ndegree = 3\nx = (1 2 3)\n[subgroups]\n"
                         "A = x^1000000000000000000\nB = x^-4\nC = x^-3\n")
    job = realize(spec)
    G = job.group
    x = G.names["x"]
    assert job.subgroups["A"].gen_indices == (G.power(x, 10 ** 18 % 3),)
    assert job.subgroups["B"].gen_indices == (G.power(x, 2),)
    assert job.subgroups["C"].gen_indices == (G.identity,)


def test_transpose_flip(tmp_path):
    """transpose = true realizes the extension of the transposed table."""
    csv_path = os.path.abspath(fixture_path("a4_quaternion.csv"))
    with open(fixture_path("a4_sl23.fus"), encoding="utf-8") as fh:
        text = fh.read().replace("cocycle = a4_quaternion.csv",
                                 f"cocycle = {csv_path}\ntranspose = true")
    job = realize(parse_jobspec(text), str(tmp_path))
    with open(csv_path, encoding="utf-8") as fh:
        table = [[int(v) for v in line.split(",")]
                 for line in fh if line.strip()]
    transposed = tuple(tuple(col) for col in zip(*table))
    assert transposed != tuple(map(tuple, table))
    assert section_cocycle(job.extension) == transposed
