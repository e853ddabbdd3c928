"""Contracted boson representations of the bilinear generator algebras.

Each kind carries a semidirect structure: a bilinear stability sector h
(L and R for kind I, E for kinds II/III) acting on a contracted abelian
pair sector spanned by Z[a,b] = k z[a,b] and D[a,b] = conj(k) d[a,b] for a
global rational contraction constant k.  Every generator of h has the one
E pattern E_ij = sum_s z[i,s] d[j,s]: L_ij is E_ij, and R_ab is minus E_ba
of the transposed matrix, so one rule with the kind's symmetry sign gives
all of h's structure constants (see h_pair_bracket).  verify_contraction
checks, on every monomial up to a degree bound, that

  (i)   h closes with its own structure constants,
  (ii)  [h, Z] and [h, D] reproduce the uncontracted adjoint action,
  (iii) [D[a,b], Z[c,d]] = |k|^2 * (the kind's delta pattern) * identity,

all exactly.  build_rep_matrices realizes generators as sparse exact
matrices on the graded-lex monomial basis of degree <= d; images that
escape the truncation (only Z can produce them) are counted per dropped
term and reported, never silently discarded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Iterator, Sequence

from .algebra import AlgebraKind, Monomial, Poly, Rational, _apply_zd, \
    _graded, _heisenberg_chunk, _sweep, bargmann_inner, monomials_upto
from .algebra import apply_partial, mul_z  # noqa: F401
from .determinants import apply_E, apply_L, apply_R
from .report import Report

_FAMILIES = ("E", "L", "R", "Z", "D", "identity")


@dataclass(frozen=True)
class GeneratorSpec:
    """One generator: family tag, index pair, column bound (E only), scale."""

    family: str
    a: int = 0
    b: int = 0
    ncols: int = 0
    scale: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown generator family {self.family!r}")
        object.__setattr__(self, "scale", Fraction(self.scale))

    @property
    def name(self) -> str:
        if self.family == "identity":
            return "identity"
        return f"{self.family}[{self.a},{self.b}]"


def apply_generator(g: GeneratorSpec, f: Poly) -> Poly:
    """Apply one generator to a polynomial, exactly."""
    if g.family == "identity":
        out = f
    elif g.family == "E":
        out = apply_E(f, g.a, g.b, g.ncols)
    elif g.family == "L":
        out = apply_L(f, g.a, g.b)
    elif g.family == "R":
        out = apply_R(f, g.a, g.b)
    else:  # Z or D
        out = _apply_zd((g.family.lower(), g.a, g.b), f)
    return out * g.scale


def h_generators(kind: AlgebraKind) -> list[GeneratorSpec]:
    """The stability sector: all L_ij and R_ab for kind I, all E_ij else."""
    if kind.family == "I":
        gens = [GeneratorSpec("L", i, j)
                for i in range(1, kind.rows + 1)
                for j in range(1, kind.rows + 1)]
        gens += [GeneratorSpec("R", a, b)
                 for a in range(1, kind.cols + 1)
                 for b in range(1, kind.cols + 1)]
        return gens
    n = kind.rows
    return [GeneratorSpec("E", i, j, ncols=n)
            for i in range(1, n + 1) for j in range(1, n + 1)]


def pair_generators(kind: AlgebraKind,
                    k: Rational = 1) -> tuple[list[GeneratorSpec], list[GeneratorSpec]]:
    """The contracted pair sector (Z list, D list) over canonical variables."""
    k = Fraction(k)
    zs = [GeneratorSpec("Z", a, b, scale=k) for a, b in kind.variables()]
    ds = [GeneratorSpec("D", a, b, scale=k) for a, b in kind.variables()]
    return zs, ds


def _check_families(g: GeneratorSpec, families: str, role: str) -> None:
    if g.family not in families:
        raise ValueError(f"{g.name} is not {role}")


def _check_full_e(kind: AlgebraKind, g: GeneratorSpec) -> None:
    """The bracket rules hold for E summed over every column, s <= cols."""
    if g.family == "E" and g.ncols != kind.cols:
        raise ValueError(f"{g.name} with ncols={g.ncols} is truncated; the "
                         f"brackets need ncols={kind.cols} for {kind.label}")


def h_bracket(kind: AlgebraKind, g1: GeneratorSpec,
              g2: GeneratorSpec) -> list[tuple[int, GeneratorSpec]]:
    """Structure constants of the stability sector: [g1, g2] as a combination.

    Each family follows the gl pattern [F_ij, F_kl] = d_jk F_il - d_li F_kj,
    which R keeps as minus the transposed E; [L, R] = 0.  An E truncated
    below the kind's column bound raises ValueError (see _check_full_e).
    """
    for g in (g1, g2):
        _check_families(g, "ELR", "a stability generator (E, L or R)")
        _check_full_e(kind, g)
    if g1.family != g2.family:
        return []
    out = []
    if g1.b == g2.a:
        out.append((1, GeneratorSpec(g1.family, g1.a, g2.b, ncols=g1.ncols)))
    if g2.b == g1.a:
        out.append((-1, GeneratorSpec(g1.family, g2.a, g1.b, ncols=g1.ncols)))
    return out


def h_pair_bracket(kind: AlgebraKind, h: GeneratorSpec,
                   p: GeneratorSpec) -> list[tuple[int, GeneratorSpec]]:
    """The adjoint action [h, p] for p in the pair sector.

    One rule, with sign = kind._sign (I 0, II +1, III -1):

        [E_ij, Z_kl] =  d_jk Z_il + sign d_jl Z_ik
        [E_ij, D_kl] = -d_ik D_jl - sign d_il D_jk

    L_ij is read as E_ij.  R_ab = -E_ba on the transposed matrix, so R_ab
    takes i, j = b, a, reads p's pair (c, d) as k, l = d, c, and negates
    the coefficient and transposes the result pair back.  A term is kept
    when its coefficient is nonzero and its pair exists, which drops the
    vanishing kind III diagonal.  A truncated E raises ValueError.
    """
    _check_families(h, "ELR", "a stability generator (E, L or R)")
    _check_families(p, "ZD", "a pair generator (Z or D)")
    _check_full_e(kind, h)
    flip = h.family == "R"
    i, j = (h.b, h.a) if flip else (h.a, h.b)
    k, l = (p.b, p.a) if flip else (p.a, p.b)
    sign = kind._sign
    if p.family == "Z":
        terms = [(int(j == k), i, l), (sign * (j == l), i, k)]
    else:
        terms = [(-(i == k), j, l), (-sign * (i == l), j, k)]
    out = []
    for c, a, b in terms:
        if flip:
            c, a, b = -c, b, a
        if c and (a, b) in kind._layout.fold:
            out.append((c, GeneratorSpec(p.family, a, b, scale=p.scale)))
    return out


def _bracket_name(g1: GeneratorSpec, g2: GeneratorSpec) -> str:
    return f"[{g1.name},{g2.name}]"


def _contraction_chunk(gens: list, checks: list, f: Poly) -> list:
    # checks carry the k = 1 expectations (see verify_contraction), so the
    # shared check runs on unscaled generators; only a failing triple is
    # multiplied back by t = s_A s_B to the scaled check's sides.
    unscaled = [replace(g, scale=1) for g in gens]
    triples = _heisenberg_chunk(apply_generator, unscaled, checks, f)
    for n, (_, i, j, _) in enumerate(checks):
        label, lhs, rhs = triples[n]
        if lhs is not rhs:
            t = gens[i].scale * gens[j].scale
            triples[n] = (label, lhs * t, rhs * t)
    return triples


def verify_contraction(kind: AlgebraKind, dmax: int, k: Rational = 1,
                       jobs: int = 1) -> Report:
    """Check the contracted-algebra conditions (i)-(iii) on all monomials
    of degree <= dmax, exactly; see the module docstring.

    Every generator is a scale times an unscaled operator, A = s_A A^ (s = 1
    on h, s = k on Z and D), and every check is homogeneous in the scales:

        s_A s_B [A^, B^] f = sum_C c_C s_C C^ f,   or   = sigma f.

    Each term carries t = s_A s_B on both sides.  A bracket in h has
    s_A = s_B = s_C = 1; h_pair_bracket gives each result generator p's own
    scale, so a bracket [h, p] has s_C = s_B = t; and [D, Z] has
    sigma = k^2 delta = t delta.  k = 0 is refused, so t is nonzero, and
    the check is exactly, over Q, the k = 1 one

        [A^, B^] f = sum_C c_C C^ f,   or   = delta f,

    on unscaled images, whose coefficients stay ints.  Its expectations are
    h_bracket's and h_pair_bracket's coefficients and commutator_scalar as
    returned, all ints and the same table for every k: k reaches only the
    generator scales, which _contraction_chunk multiplies back, by t, into
    a failing triple, so a failure record shows [A, B] f and its expected
    value exactly as the scaled check would, for any nonzero rational k.
    A check [A, B] and its reversed partner [B, A] share A^(B^ f) and B^(A^ f).
    """
    k = Fraction(k)
    if not k:  # Z and D would be zero, so (ii) and (iii) would compare 0 with 0
        raise ValueError("contraction constant k = 0 makes Z and D zero; "
                         "the sweep would check nothing")
    if not kind.variables():  # every generator is zero: 0 compared with 0
        raise ValueError(f"the contraction sweep of {kind.label} checks "
                         "nothing: the kind has no variables")
    hgens = h_generators(kind)
    zgens, dgens = pair_generators(kind, k)
    index: dict[GeneratorSpec, int] = {}  # each distinct generator once

    def at(g: GeneratorSpec) -> int:
        return index.setdefault(g, len(index))

    checks: list[tuple[str, int, int, object]] = []

    def add(g1: GeneratorSpec, g2: GeneratorSpec, expected) -> None:
        i, j = at(g1), at(g2)
        if isinstance(expected, list):
            expected = [(c, at(g)) for c, g in expected]
        checks.append((_bracket_name(g1, g2), i, j, expected))

    for g1 in hgens:
        for g2 in hgens:
            add(g1, g2, h_bracket(kind, g1, g2))
    for h in hgens:
        for p in zgens + dgens:
            add(h, p, h_pair_bracket(kind, h, p))
    for d in dgens:
        for z in zgens:  # sigma / t = delta: k^2 is in t
            add(d, z, kind.commutator_scalar(d.a, d.b, z.a, z.b))
    return _sweep("contraction", kind, {"dmax": dmax, "k": str(k)},
                  partial(_contraction_chunk, list(index), checks), jobs,
                  label_key="bracket")


# ---- matrix realization ----

@dataclass
class SparseRepMatrix:
    """One generator as an exact sparse matrix on the truncated basis.

    entries maps (row, col) to a nonzero int or Fraction; overflow_count is
    the number of image terms of degree basis_degree + 1 that fall outside
    the basis (only multiplication operators produce any).
    """

    name: str
    kind_label: str
    basis_degree: int
    dim: int
    entries: dict
    overflow_count: int

    def to_json(self) -> dict:
        entries = self.entries  # (int, int) keys get CPython's fast compare
        triplets = [[r, c, str(entries[r, c])] for r, c in sorted(entries)]
        return {"name": self.name, "basis_degree": self.basis_degree,
                "triplets": triplets, "overflow_count": self.overflow_count}


def basis_monomials(kind: AlgebraKind, d: int) -> list[Monomial]:
    """The graded-lex monomial basis of build_rep_matrices.  _rep_matrices
    sums field units over the same algebra._graded multisets, so its key i
    is the pack of monomial i."""
    return list(monomials_upto(kind, d))


def gram_diagonal(kind: AlgebraKind, basis: Sequence[Monomial]) -> list[Fraction]:
    """Self-pairings of the basis monomials, by operator application."""
    out = []
    for mono in basis:
        f = Poly.from_monomial(kind, mono)
        out.append(bargmann_inner(f, f))
    return out


def build_rep_matrices(kind: AlgebraKind, generators: Sequence[GeneratorSpec],
                       d: int) -> list[SparseRepMatrix]:
    """Sparse exact matrices of the generators on the degree <= d basis.

    The list of what _rep_matrices yields; the export command consumes that
    iterator itself, so it holds one generator's matrix at a time.
    """
    return list(_rep_matrices(kind, generators, d))


def _rep_matrices(kind: AlgebraKind, generators: Sequence[GeneratorSpec],
                  d: int) -> Iterator[SparseRepMatrix]:
    """Each generator's matrix in turn, built only when it is asked for.

    The basis, its index and the tagged batch are built once, at the call,
    so a bad d raises ValueError here and not at the first matrix.
    """
    layout = kind._layout
    # basis_monomials' order: field units follow kind.variables()
    keys = list(map(sum, _graded(layout.unit.values(), d)))
    index = {key: i for i, key in enumerate(keys)}
    # the whole basis as one batch: column i is the part of an image tagged i
    # (see capelli.algebra), its row the untagged monomial
    states = Poly(kind, layout.batch(keys))
    dim, low, tag = len(keys), layout.low, layout.tag

    def matrix(g: GeneratorSpec) -> SparseRepMatrix:
        entries: dict = {}
        overflow = 0
        for m, c in apply_generator(g, states).terms.items():
            row = index.get(m & low)
            if row is None:
                overflow += 1
            else:
                entries[(row, m >> tag)] = c
        return SparseRepMatrix(name=g.name, kind_label=kind.label,
                               basis_degree=d, dim=dim,
                               entries=entries, overflow_count=overflow)

    # map keeps no reference to a matrix it has handed on
    return map(matrix, generators)


def default_generators(kind: AlgebraKind, k: Rational = 1) -> list[GeneratorSpec]:
    """Everything the export path emits: h sector, Z, D, and the identity."""
    zs, ds = pair_generators(kind, k)
    return h_generators(kind) + zs + ds + [GeneratorSpec("identity")]
