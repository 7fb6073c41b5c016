"""Job specification files: one group, its fusion data, options.

The format is line-based with INI-style section headers.  Full-line
comments start with '#'.  Sections:

  [group]       constructor = extraspecial_p3 / p = 7, or degree = n plus
                one 'name = (1 2)(3 4)' line per generator (1-based cycles)
  [subgroups]   name = word, word   (generator words over group generators)
  [fusion]      gl2 = [[a,b],[c,d]] (extraspecial shorthand), or
                TARGET -> word, word  with TARGET = S or a subgroup name
  [extension]   coefficients = n / cocycle = file.csv [/ transpose = true],
                or degree = n, generator lines, kernel = word,
                projection = word, word (images of the generators)
  [fusion_alpha] S -> word, word   (words over the extension group)
  [options]     primes, k, conductor, cap_* keys

A word is a whitespace-separated product of tokens 'name' or 'name^exp'.
parse_jobspec is pure text -> JobSpec; realize materializes the groups.
"""

from __future__ import annotations

import csv
import json
import os
import re
from functools import cached_property

from .errors import InputError, ParseError, UnknownName
from .fusion import FusionSystem, build_fusion
from .permgroup import (FiniteGroup, NotAPermutation, build_group,
                        extraspecial_p3, is_prime, make_hom, parse_cycles)

_SECTIONS = ("group", "subgroups", "fusion", "extension", "fusion_alpha",
             "options")
_OPTION_KEYS = ("primes", "k", "conductor", "cap_order", "cap_subgroups",
                "cap_morphisms", "cap_hilbert", "cap_adic")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class JobSpec:
    """Parsed, validated job description.  Equality is structural."""

    def __init__(self, group_constructor, group_p, group_degree, group_gens,
                 subgroups, fusion, extension, fusion_alpha, options):
        self.group_constructor = group_constructor
        self.group_p = group_p
        self.group_degree = group_degree
        self.group_gens = tuple(group_gens)      # (name, perm tuple)
        self.subgroups = tuple(subgroups)        # (name, (word, ...))
        self.fusion = tuple(fusion)              # ("gl2", matrix) | ("hom", target, words)
        self.extension = extension               # None | ("cocycle", n, file, transpose)
        #                                        # | ("group", degree, gens, kernel, projections)
        self.fusion_alpha = tuple(fusion_alpha)
        self.options = tuple(options)            # (key, parsed value) pairs

    def _key(self):
        return (self.group_constructor, self.group_p, self.group_degree,
                self.group_gens, self.subgroups, self.fusion, self.extension,
                self.fusion_alpha, self.options)

    def __eq__(self, other):
        if not isinstance(other, JobSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def option(self, key, default=None):
        for k, v in self.options:
            if k == key:
                return v
        return default

def _parse_word(s: str, lineno: int, col: int, known) -> tuple:
    tokens = s.split()
    if not tokens:
        raise ParseError(lineno, col, "empty word")
    out = []
    for tok in tokens:
        name, sep, exp = tok.partition("^")
        if sep:
            try:
                e = int(exp)
            except ValueError:
                raise ParseError(lineno, col,
                                 f"bad exponent in {tok!r}") from None
        else:
            e = 1
        if not _NAME_RE.match(name):
            raise ParseError(lineno, col, f"bad generator name {name!r}")
        if known is not None and name not in known:
            raise UnknownName(
                f"line {lineno}: unknown generator {name!r} in word")
        out.append((name, e))
    return tuple(out)


def _parse_words(s: str, lineno: int, col: int, known) -> tuple:
    return tuple(_parse_word(part, lineno, col, known)
                 for part in s.split(","))


def _parse_gl2(value: str, lineno: int, col: int):
    try:
        m = json.loads(value)
    except ValueError:
        raise ParseError(lineno, col,
                         "expected a 2x2 integer matrix") from None
    if (not isinstance(m, list) or len(m) != 2
            or any(not isinstance(r, list) or len(r) != 2 for r in m)
            or any(type(v) is not int for r in m for v in r)):
        raise ParseError(lineno, col, "expected a 2x2 integer matrix")
    return ((m[0][0], m[0][1]), (m[1][0], m[1][1]))


def _generator(key: str, value: str, lineno: int, col: int, degree,
               gens) -> tuple:
    """One 'name = cycles' line of [group] or [extension], checked against
    the generators gens read before it."""
    if not _NAME_RE.match(key):
        raise ParseError(lineno, col, f"bad generator name {key!r}")
    if any(key == name for name, _ in gens):
        raise ParseError(lineno, col, f"duplicate generator {key!r}")
    if degree is None:
        raise ParseError(lineno, col, "degree must precede generator lines")
    try:
        return key, parse_cycles(value, degree)
    except NotAPermutation as exc:
        raise ParseError(lineno, col, str(exc)) from None


def _parse_int(value: str, lineno: int, col: int, what: str,
               positive: bool = False) -> int:
    try:
        n = int(value)
    except ValueError:
        raise ParseError(lineno, col, f"{what} must be an integer") from None
    if positive and n < 1:
        raise ParseError(lineno, col, f"{what} must be positive")
    return n


def parse_jobspec(text: str) -> JobSpec:
    """Parse and validate; raises positioned ParseError or UnknownName."""
    section = None
    seen_sections = set()
    group_raw = []          # (key, value, lineno, col)
    subgroups_raw = []
    fusion_raw = []
    ext_raw = []
    alpha_raw = []
    options_raw = []
    bodies = {"group": group_raw, "subgroups": subgroups_raw,
              "fusion": fusion_raw, "extension": ext_raw,
              "fusion_alpha": alpha_raw, "options": options_raw}

    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        indent = len(raw) - len(raw.lstrip())
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError(lineno, indent + 1, "unterminated section header")
            name = stripped[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(lineno, indent + 2, f"unknown section {name!r}")
            if name in seen_sections:
                raise ParseError(lineno, indent + 2, f"duplicate section {name!r}")
            seen_sections.add(name)
            section = name
            continue
        if section is None:
            raise ParseError(lineno, indent + 1, "content before any section")
        if "->" in stripped and section in ("fusion", "fusion_alpha"):
            lhs, _, rhs = stripped.partition("->")
            bodies[section].append(("->", lhs.strip(), rhs.strip(), lineno,
                                    indent + 1 + stripped.index("->")))
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ParseError(lineno, indent + 1, "expected 'key = value'")
        bodies[section].append(("=", key.strip(), value.strip(), lineno,
                                indent + 1))

    if "group" not in seen_sections:
        raise ParseError(1, 1, "missing [group] section")

    # group section
    constructor = p = degree = None
    gens = []
    for kind, key, value, lineno, col in group_raw:
        if kind != "=":
            raise ParseError(lineno, col, "morphism entries belong in [fusion]")
        if key == "constructor":
            if value != "extraspecial_p3":
                raise ParseError(lineno, col, f"unknown constructor {value!r}")
            constructor = value
        elif key == "p":
            p = _parse_int(value, lineno, col, "p")
        elif key == "degree":
            degree = _parse_int(value, lineno, col, "degree", positive=True)
        else:
            gens.append(_generator(key, value, lineno, col, degree, gens))
    if constructor is not None:
        if degree is not None or gens:
            raise ParseError(1, 1, "constructor and explicit generators "
                             "cannot be combined")
        if p is None:
            raise ParseError(1, 1, "constructor extraspecial_p3 requires p")
        if not is_prime(p) or p == 2:
            raise ParseError(1, 1, f"p = {p} is not an odd prime")
        known_names = {"a", "b", "c"}
    else:
        if degree is None or not gens:
            raise ParseError(1, 1, "[group] needs a constructor or degree "
                             "plus generators")
        if p is not None:
            raise ParseError(1, 1, "p is only valid with a constructor")
        known_names = {name for name, _ in gens}

    # subgroups
    subgroups = []
    sub_names = set()
    for kind, key, value, lineno, col in subgroups_raw:
        if kind != "=":
            raise ParseError(lineno, col, "expected 'name = word, word'")
        if not _NAME_RE.match(key) or key == "S":
            raise ParseError(lineno, col, f"bad subgroup name {key!r}")
        if key in sub_names or key in known_names:
            raise ParseError(lineno, col, f"name {key!r} already in use")
        sub_names.add(key)
        subgroups.append((key, _parse_words(value, lineno, col, known_names)))

    # fusion
    fusion = []
    for entry in fusion_raw:
        fusion.append(_fusion_entry(entry, constructor, known_names,
                                    sub_names, "fusion"))

    # extension
    extension = None
    if "extension" in seen_sections:
        extension = _parse_extension(ext_raw, known_names)
        if extension[0] == "cocycle" and "z" in known_names:
            raise ParseError(1, 1, "generator name 'z' is reserved when an "
                             "extension is built from a cocycle")

    # fusion on the extension group
    alpha_names = None
    if extension is not None:
        if extension[0] == "cocycle":
            alpha_names = known_names | {"z"}
        else:
            alpha_names = {name for name, _ in extension[2]}
    fusion_alpha = []
    for entry in alpha_raw:
        if extension is None:
            raise ParseError(entry[3], entry[4],
                             "[fusion_alpha] requires [extension]")
        fusion_alpha.append(_fusion_entry(entry, None, alpha_names,
                                          set(), "fusion_alpha"))

    # options
    options = []
    seen_keys = set()
    for kind, key, value, lineno, col in options_raw:
        if kind != "=":
            raise ParseError(lineno, col, "expected 'key = value'")
        if key not in _OPTION_KEYS:
            raise ParseError(lineno, col, f"unknown option {key!r}")
        if key in seen_keys:
            raise ParseError(lineno, col, f"duplicate option {key!r}")
        seen_keys.add(key)
        if key == "primes":
            vals = tuple(_parse_int(v.strip(), lineno, col, "prime")
                         for v in value.split(","))
            for q in vals:
                if not is_prime(q):
                    raise ParseError(lineno, col, f"{q} is not prime")
            options.append((key, vals))
        elif key == "conductor":
            if value not in ("exponent", "order"):
                raise ParseError(lineno, col,
                                 "conductor must be exponent or order")
            options.append((key, value))
        else:
            n = _parse_int(value, lineno, col, key)
            if n < 1:
                raise ParseError(lineno, col, f"{key} must be positive")
            options.append((key, n))

    return JobSpec(constructor, p, degree, gens, subgroups, fusion,
                   extension, fusion_alpha, options)


def _fusion_entry(entry, constructor, known_names, sub_names, where):
    kind = entry[0]
    if kind == "->":
        _, target, rhs, lineno, col = entry
        if target != "S" and target not in sub_names:
            raise UnknownName(f"line {lineno}: unknown target {target!r}")
        return ("hom", target, _parse_words(rhs, lineno, col, known_names))
    _, key, value, lineno, col = entry
    if key != "gl2":
        raise ParseError(lineno, col,
                         f"unknown {where} entry {key!r} (gl2 or 'TARGET -> words')")
    if constructor != "extraspecial_p3":
        raise ParseError(lineno, col,
                         "gl2 shorthand requires the extraspecial constructor")
    return ("gl2", _parse_gl2(value, lineno, col))


def _parse_extension(ext_raw, base_names):
    coefficients = cocycle = None
    transpose = False
    degree = kernel = projection = None
    gens = []
    for kind, key, value, lineno, col in ext_raw:
        if kind != "=":
            raise ParseError(lineno, col, "expected 'key = value'")
        if key == "coefficients":
            coefficients = _parse_int(value, lineno, col, "coefficients")
            if coefficients < 2:
                raise ParseError(lineno, col, "coefficients must be >= 2")
        elif key == "cocycle":
            cocycle = value
            if not cocycle:
                raise ParseError(lineno, col, "empty cocycle filename")
        elif key == "transpose":
            if value not in ("true", "false"):
                raise ParseError(lineno, col, "transpose must be true or false")
            transpose = value == "true"
        elif key == "degree":
            degree = _parse_int(value, lineno, col, "degree", positive=True)
        elif key == "kernel":
            kernel = (value, lineno, col)
        elif key == "projection":
            projection = (value, lineno, col)
        else:
            gens.append(_generator(key, value, lineno, col, degree, gens))
    if cocycle is not None or coefficients is not None:
        if degree is not None or gens or kernel or projection:
            raise ParseError(1, 1, "[extension] mixes the cocycle and "
                             "explicit-group forms")
        if cocycle is None or coefficients is None:
            raise ParseError(1, 1, "[extension] needs both coefficients "
                             "and cocycle")
        return ("cocycle", coefficients, cocycle, transpose)
    if degree is None or not gens or kernel is None or projection is None:
        raise ParseError(1, 1, "[extension] needs degree, generators, "
                         "kernel and projection")
    names = {name for name, _ in gens}
    kword = _parse_word(kernel[0], kernel[1], kernel[2], names)
    pwords = _parse_words(projection[0], projection[1], projection[2],
                          base_names)
    if len(pwords) != len(gens):
        raise ParseError(projection[1], projection[2],
                         "projection needs one word per generator")
    return ("group", degree, tuple(gens), kword, pwords)


def load_jobspec(path: str) -> JobSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_jobspec(fh.read())


# --- realization ----------------------------------------------------------------


class Job:
    """A realized JobSpec and the stages computed on it.

    Each stage (the invariant basis of R(F), its presentation and
    completion, the twisted basis, the module over R(F) and its completion,
    and per k the adic exponent and R(F)/I^k) is built on first use, once,
    with its own cap from caps where it has one and, where it names
    generators, the names mapping; the commands pass neither.  A stage
    imports the layer that builds it when it first runs, so a command
    loads only the layers it reaches.
    """

    def __init__(self, group: FiniteGroup, subgroups: dict,
                 fusion: FusionSystem, extension, fusion_alpha, caps: dict,
                 names: dict):
        self.group = group
        self.subgroups = subgroups
        self.fusion = fusion
        self.extension = extension
        self.fusion_alpha = fusion_alpha
        self.caps = caps
        self.names = names
        self._adic = {}

    def _cap(self, cap: str, key: str = "cap") -> dict:
        bound = self.caps.get(cap)
        return {} if bound is None else {key: bound}

    @cached_property
    def basis(self):
        """The invariant basis 1, X1, .. of R(F)."""
        from .invariants import irreducible_invariants
        return irreducible_invariants(self.fusion, **self._cap("hilbert"))

    @cached_property
    def presentation(self):
        from .ringpres import structure_constants
        return structure_constants(self.basis, self.names)

    @cached_property
    def completed(self):
        from .ringpres import completed_presentation
        return completed_presentation(self.presentation, self.names)

    @cached_property
    def twisted_basis(self):
        if self.extension is None:
            raise InputError(
                "the twisted command needs an [extension] section")
        from .twisted import twisted_invariant_basis
        TB = twisted_invariant_basis(self.extension, self.fusion_alpha,
                                     base=self.fusion, **self._cap("hilbert"))
        return TB.with_names(self.names)

    @cached_property
    def module(self):
        """The twisted basis as a module over R(F), acted on by the
        generators of the presentation."""
        from .twisted import module_structure
        return module_structure(self.fusion, self.basis, self.extension,
                                self.twisted_basis, self.presentation)

    @cached_property
    def completed_module(self):
        from .twisted import completed_module
        return completed_module(self.module, self.presentation,
                                self.completed.names)

    def adic(self, k: int) -> tuple:
        """(m, quotient): the adic equivalence exponent for k and the
        free rank and torsion of R(F)/I(F)^k."""
        if k not in self._adic:
            from .ringpres import (adic_equivalence_exponent,
                                   quotient_by_ideal_power)
            m = adic_equivalence_exponent(self.fusion, k, basis=self.basis,
                                          **self._cap("adic"))
            self._adic[k] = (m, quotient_by_ideal_power(self.presentation, k))
        return self._adic[k]

    def saturation(self):
        return self.fusion.check_saturation(
            **self._cap("morphisms"), **self._cap("subgroups", "subgroup_cap"))

    def spectrum(self, primes=None, conductor: str = "exponent"):
        """The prime spectrum over the given rational primes, by default
        the prime of S."""
        if primes is None:
            if self.fusion.p is None:
                raise InputError(
                    "the trivial group has no prime; give --primes")
            primes = (self.fusion.p,)
        from .spectrum import prime_symbols
        return prime_symbols(self.fusion, primes, conductor=conductor)


def _word_element(G: FiniteGroup, word) -> int:
    out = G.identity
    for name, exp in word:
        out = G.mul(out, G.power(G.names[name], exp))
    return out


def _gl2_hom(S: FiniteGroup, p: int, matrix):
    (a11, a12), (a21, a22) = matrix
    det = (a11 * a22 - a12 * a21) % p
    if det == 0:
        raise InputError(f"gl2 matrix {matrix} is singular mod {p}")
    img_a = _word_element(S, (("a", a11 % p), ("b", a21 % p)))
    img_b = _word_element(S, (("a", a12 % p), ("b", a22 % p)))
    return make_hom(S.full_subgroup(), (img_a, img_b), S)


def _load_cocycle_table(path: str, order: int):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row and any(
                cell.strip() for cell in row)]
    except OSError as exc:
        raise InputError(f"cannot read cocycle file: {exc}") from None
    except UnicodeDecodeError:
        raise InputError("cannot read cocycle file: not UTF-8 text") from None
    table = []
    for row in rows:
        try:
            table.append([int(cell.strip()) for cell in row])
        except ValueError:
            raise InputError(
                f"non-integer entry in cocycle file {os.path.basename(path)}"
            ) from None
    if len(table) != order or any(len(r) != order for r in table):
        raise InputError(
            f"cocycle table must be {order} x {order} for this group")
    return table


def _fusion_homs(G: FiniteGroup, entries, subgroups: dict, p):
    homs = []
    for entry in entries:
        if entry[0] == "gl2":
            homs.append(_gl2_hom(G, p, entry[1]))
            continue
        _, target, words = entry
        dom = G.full_subgroup() if target == "S" else subgroups[target]
        if len(words) != len(dom.gen_indices):
            raise InputError(
                f"{target} has {len(dom.gen_indices)} generators, "
                f"{len(words)} images given")
        images = tuple(_word_element(G, w) for w in words)
        homs.append(make_hom(dom, images, G))
    return homs


def realize(spec: JobSpec, base_dir: str = ".", caps: dict = None,
            names: dict = None) -> Job:
    """Materialize the groups and fusion systems a JobSpec describes, as a
    Job.

    base_dir anchors relative cocycle file paths (the directory of the spec
    file, for specs loaded from disk).  caps maps cap names without their
    "cap_" prefix ("order", "hilbert", ..) to bounds; a cap missing from it
    or None there is taken from the spec's [options], else the default.
    "order" bounds the closure of explicitly given generators.  names maps
    the automatic names X1.., v1.. and W1.. to display names.
    """
    caps = dict(caps or {})
    for key, value in spec.options:
        if key.startswith("cap_") and caps.get(key[4:]) is None:
            caps[key[4:]] = value
    bg_kw = {} if caps.get("order") is None else {"cap": caps["order"]}
    if spec.group_constructor is not None:
        S = extraspecial_p3(spec.group_p)
    else:
        S = build_group(spec.group_degree,
                        [perm for _, perm in spec.group_gens],
                        names=[name for name, _ in spec.group_gens],
                        **bg_kw)
    subgroups = {}
    for name, words in spec.subgroups:
        gens = tuple(_word_element(S, w) for w in words)
        subgroups[name] = S.subgroup(gens)
    fusion = build_fusion(S, _fusion_homs(S, spec.fusion, subgroups,
                                          spec.group_p))

    extension = None
    fusion_alpha = None
    if spec.extension is not None:
        from .extension import (Cocycle, central_extension,
                                extension_from_groups)
        if spec.extension[0] == "cocycle":
            _, coeff, fname, transpose = spec.extension
            path = fname if os.path.isabs(fname) else os.path.join(base_dir,
                                                                   fname)
            table = _load_cocycle_table(path, S.order)
            alpha = Cocycle(S, coeff, table)
            if transpose:
                alpha = alpha.transpose()
            extension = central_extension(S, alpha)
        else:
            _, degree, gens, kword, pwords = spec.extension
            G = build_group(degree, [perm for _, perm in gens],
                            names=[name for name, _ in gens], **bg_kw)
            a_gen = _word_element(G, kword)
            images = tuple(_word_element(S, w) for w in pwords)
            proj = make_hom(G.full_subgroup(), images, S,
                            require_injective=False)
            extension = extension_from_groups(G, a_gen, proj)
        E = extension
        homs = _fusion_homs(E.group, spec.fusion_alpha, {}, None)
        fusion_alpha = build_fusion(E.group, homs)
    return Job(S, subgroups, fusion, extension, fusion_alpha, caps,
               names)
