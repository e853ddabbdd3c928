"""Contracted boson representations of the bilinear generator algebras.

Each kind carries a semidirect structure: a bilinear stability sector h
(L and R for kind I, E for kinds II/III) acting on a contracted abelian
pair sector spanned by Z[a,b] = k z[a,b] and D[a,b] = conj(k) d[a,b] for a
global rational contraction constant k.  verify_contraction checks, on
every monomial up to a degree bound, that

  (i)   h closes with its own structure constants,
  (ii)  [h, Z] and [h, D] reproduce the uncontracted adjoint action,
  (iii) [D[a,b], Z[c,d]] = |k|^2 * (the kind's delta pattern) * identity,

all exactly.  build_rep_matrices realizes generators as sparse exact
matrices on the graded-lex monomial basis of degree <= d; images that
escape the truncation (only Z can produce them) are counted per dropped
term and reported, never silently discarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Sequence

from .algebra import AlgebraKind, Monomial, Poly, Rational, _sweep, \
    apply_partial, bargmann_inner, monomials_upto, mul_z
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
    elif g.family == "Z":
        out = mul_z(f, g.a, g.b)
    else:
        out = apply_partial(f, g.a, g.b)
    return out if g.scale == 1 else g.scale * out


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


def _gl_bracket(g1: GeneratorSpec, g2: GeneratorSpec) -> list[tuple[int, GeneratorSpec]]:
    """[F_ij, F_kl] = d_jk F_il - d_li F_kj for one gl-patterned family."""
    out = []
    if g1.b == g2.a:
        out.append((1, GeneratorSpec(g1.family, g1.a, g2.b, ncols=g1.ncols)))
    if g2.b == g1.a:
        out.append((-1, GeneratorSpec(g1.family, g2.a, g1.b, ncols=g1.ncols)))
    return out


def h_bracket(kind: AlgebraKind, g1: GeneratorSpec,
              g2: GeneratorSpec) -> list[tuple[int, GeneratorSpec]]:
    """Structure constants of the stability sector: [g1, g2] as a combination.

    L and R each follow the gl pattern; [L, R] = 0.
    """
    if g1.family != g2.family:
        return []
    return _gl_bracket(g1, g2)


def h_pair_bracket(kind: AlgebraKind, h: GeneratorSpec,
                   p: GeneratorSpec) -> list[tuple[int, GeneratorSpec]]:
    """The adjoint action [h, p] for p in the pair sector.

    kind I:    [L_ij, Z_ab] =  d_ja Z_ib     [L_ij, D_ab] = -d_ia D_jb
               [R_ab, Z_cd] = -d_ad Z_cb     [R_ab, D_cd] =  d_bd D_ca
    kind II:   [E_ij, Z_kl] =  d_jk Z_il + d_jl Z_ik
               [E_ij, D_kl] = -d_ik D_jl - d_il D_jk
    kind III:  same as II with minus on the second terms; index pairs that
               collapse onto the vanishing diagonal are dropped.
    """
    fam = p.family
    out: list[tuple[int, tuple[int, int]]] = []
    if kind.family == "I":
        if h.family == "L":
            if fam == "Z" and h.b == p.a:
                out.append((1, (h.a, p.b)))
            if fam == "D" and h.a == p.a:
                out.append((-1, (h.b, p.b)))
        else:
            if fam == "Z" and h.a == p.b:
                out.append((-1, (p.a, h.b)))
            if fam == "D" and h.b == p.b:
                out.append((1, (p.a, h.a)))
    else:
        cross = -1 if kind.family == "III" else 1
        if fam == "Z":
            if h.b == p.a:
                out.append((1, (h.a, p.b)))
            if h.b == p.b:
                out.append((cross, (h.a, p.a)))
        else:
            if h.a == p.a:
                out.append((-1, (h.b, p.b)))
            if h.a == p.b:
                out.append((-cross, (h.b, p.a)))
    result = []
    for c, (a, b) in out:
        if kind.family == "III" and a == b:
            continue  # z[a,a] and d[a,a] vanish identically
        result.append((c, GeneratorSpec(fam, a, b, scale=p.scale)))
    return result


def _bracket_name(g1: GeneratorSpec, g2: GeneratorSpec) -> str:
    return f"[{g1.name},{g2.name}]"


def _combination(f: Poly, combo: Sequence[tuple[int, GeneratorSpec]]) -> Poly:
    out = Poly.zero(f.kind)
    for c, g in combo:
        out = out + c * apply_generator(g, f)
    return out


def _contraction_chunk(checks: list, f: Poly) -> list:
    out = []
    for label, g1, g2, expected in checks:
        lhs = apply_generator(g1, apply_generator(g2, f)) \
            - apply_generator(g2, apply_generator(g1, f))
        if isinstance(expected, list):
            rhs = _combination(f, expected)
        else:
            rhs = expected * f
        out.append((label, lhs, rhs))
    return out


def verify_contraction(kind: AlgebraKind, dmax: int, k: Rational = 1,
                       jobs: int = 1) -> Report:
    """Check the contracted-algebra conditions (i)-(iii) on all monomials
    of degree <= dmax, exactly; see the module docstring."""
    k = Fraction(k)
    hgens = h_generators(kind)
    zgens, dgens = pair_generators(kind, k)
    ksq = k * k  # |k|^2 for rational k
    checks: list[tuple[str, GeneratorSpec, GeneratorSpec, object]] = []
    for g1 in hgens:
        for g2 in hgens:
            checks.append((_bracket_name(g1, g2), g1, g2,
                           h_bracket(kind, g1, g2)))
    for h in hgens:
        for p in zgens + dgens:
            checks.append((_bracket_name(h, p), h, p,
                           h_pair_bracket(kind, h, p)))
    for d in dgens:
        for z in zgens:
            scalar = ksq * kind.commutator_scalar(d.a, d.b, z.a, z.b)
            checks.append((_bracket_name(d, z), d, z, scalar))
    return _sweep("contraction", kind, {"dmax": dmax, "k": str(k)},
                  partial(_contraction_chunk, checks), jobs,
                  label_key="bracket")


# ---- matrix realization ----

@dataclass
class SparseRepMatrix:
    """One generator as an exact sparse matrix on the truncated basis.

    entries maps (row, col) to a nonzero rational; overflow_count is the
    number of image terms of degree basis_degree + 1 that fall outside the
    basis (only multiplication operators produce any).
    """

    name: str
    kind_label: str
    basis_degree: int
    dim: int
    entries: dict
    overflow_count: int

    def to_json(self) -> dict:
        triplets = [[r, c, str(Fraction(v))]
                    for (r, c), v in sorted(self.entries.items())]
        return {"name": self.name, "basis_degree": self.basis_degree,
                "triplets": triplets, "overflow_count": self.overflow_count}


def basis_monomials(kind: AlgebraKind, d: int) -> list[Monomial]:
    """The graded-lex monomial basis used by build_rep_matrices."""
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
    """Sparse exact matrices of the generators on the degree <= d basis."""
    basis = basis_monomials(kind, d)
    index = {mono: i for i, mono in enumerate(basis)}
    out = []
    for g in generators:
        entries: dict = {}
        overflow = 0
        for col, mono in enumerate(basis):
            image = apply_generator(g, Poly.from_monomial(kind, mono))
            for m, c in image.terms.items():
                row = index.get(m)
                if row is None:
                    overflow += 1
                else:
                    entries[(row, col)] = c
            # distinct image monomials per column, so no accumulation needed
        out.append(SparseRepMatrix(name=g.name, kind_label=kind.label,
                                   basis_degree=d, dim=len(basis),
                                   entries=entries, overflow_count=overflow))
    return out


def default_generators(kind: AlgebraKind, k: Rational = 1) -> list[GeneratorSpec]:
    """Everything the export path emits: h sector, Z, D, and the identity."""
    zs, ds = pair_generators(kind, k)
    return h_generators(kind) + zs + ds + [GeneratorSpec("identity")]
