"""Extremal (highest weight) states, their norms, and matrix elements.

An extremal state is a product of leading-minor determinants (kinds I, II)
or Pfaffians (kind III) labeled by a weakly decreasing weight nu:

    kind I:   psi_nu = x_1^{pi_1} ... x_L^{pi_L},  pi_j = nu_j - nu_{j+1}
    kind II:  same with pi_j = (nu_j - nu_{j+1})/2, all nu_j even
    kind III: Phi_nu = phi_1^{p_1} ... phi_m^{p_m}, nu_{2i-1} = nu_{2i},
              p_i = nu_{2i} - nu_{2i+2}

The kinds differ only in a (block, step) shape, see _shape.  Factor i
spans the first b*i rows of the weight, with block b = 2 for a Pfaffian
and 1 for a minor, and each unit of its power raises those rows by `step`:
2 for kind II, where a row index counts once on each side of z[i,j] and
twice on the diagonal, and 1 otherwise.  So kind III is kind I read on row
pairs, with nu_{bi} the weight of block i, and kind II is kind I with
steps of 2, where every factorial becomes a double factorial.  Each closed
form below is written once in these terms.

Closed-form self-pairings, ladder eigenvalues, and single-step matrix
elements are implemented exactly; everything is cross-checked elsewhere
against the brute-force Bargmann pairing, never the other way around.
Matrix elements are rational multiples of a single square root, carried
exactly by RadicalValue.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Optional, Union

from .algebra import AlgebraKind, Poly, Rational, _apply_zd, bargmann_inner, \
    weight
from .algebra import apply_partial, mul_z  # noqa: F401
from .contraction import apply_generator, h_generators
from .determinants import det_z, pfaffian_z


def double_factorial(n: int) -> int:
    """n!! with (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial of {n}")
    return prod(range(n, 0, -2))


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s*s*r with r squarefree; trial division, n positive."""
    s, r = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                r *= d
        d += 1 if d == 2 else 2
    return s, r * n


@dataclass(frozen=True)
class RadicalValue:
    """Exact value coeff * sqrt(radicand).

    Canonical form: the radicand is a squarefree positive integer (as a
    Fraction with denominator 1), square parts having been absorbed into
    the coefficient, and the zero value is (0, 1).  sqrt(r) is irrational
    for squarefree r > 1, so equality of canonical forms is equality of
    values; dataclass equality is therefore decidable and exact.
    """

    coeff: Fraction
    radicand: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        coeff = Fraction(self.coeff)
        radicand = Fraction(self.radicand)
        if radicand <= 0:
            raise ValueError("radicand must be positive (zero is (0, 1))")
        if not coeff:
            coeff, radicand = Fraction(0), Fraction(1)
        else:
            sn, rn = _squarefree_split(radicand.numerator)
            sd, rd = _squarefree_split(radicand.denominator)
            # sqrt(num/den) = (sn / (sd * rd)) * sqrt(rn * rd)
            coeff *= Fraction(sn, sd * rd)
            radicand = Fraction(rn * rd)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "radicand", radicand)

    @classmethod
    def zero(cls) -> "RadicalValue":
        return cls(Fraction(0))

    @classmethod
    def from_square(cls, q: Rational) -> "RadicalValue":
        """The nonnegative square root of q >= 0 as a RadicalValue."""
        q = Fraction(q)
        if q < 0:
            raise ValueError("cannot take the square root of a negative value")
        if not q:
            return cls.zero()
        return cls(Fraction(1), q)

    def is_zero(self) -> bool:
        return not self.coeff

    def squared(self) -> Fraction:
        return self.coeff * self.coeff * self.radicand

    def __mul__(self, other: Union["RadicalValue", Rational]) -> "RadicalValue":
        if isinstance(other, RadicalValue):
            return RadicalValue(self.coeff * other.coeff,
                                self.radicand * other.radicand)
        return RadicalValue(self.coeff * Fraction(other), self.radicand)

    __rmul__ = __mul__

    def to_float(self) -> float:
        return float(self.coeff) * float(self.radicand) ** 0.5

    def to_json(self) -> dict:
        return {"coeff": str(self.coeff), "radicand": str(self.radicand)}


def _shape(kind: AlgebraKind) -> tuple[int, int]:
    """(block, step): weight rows per factor (2 for a kind III Pfaffian,
    else 1) and weight step per factor power (2 for kind II, else 1)."""
    return (2 if kind.family == "III" else 1), (2 if kind.family == "II" else 1)


_FACTORIAL = {1: factorial, 2: double_factorial}  # by step

# The largest factorial argument norm_closed_form expands, and so matel's
# closed forms too.  20000! has 77,338 digits and takes about 0.2 s with
# its decimal; the cost grows about 4x per doubling, so an unbounded weight
# would run for hours or run out of memory.
_NORM_MAX_FACTORIAL = 20_000


@dataclass(frozen=True)
class ExtremalLabel:
    """A validated extremal weight for one algebra kind.

    nu may carry trailing zeros; closed forms below are invariant under that
    padding (covered by tests).
    """

    kind: AlgebraKind
    nu: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nu", tuple(int(v) for v in self.nu))
        nu = self.nu
        b, step = _shape(self.kind)
        if any(v < 0 for v in nu):
            raise ValueError("weight entries must be nonnegative")
        if any(nu[i] < nu[i + 1] for i in range(len(nu) - 1)):
            raise ValueError("weight must be weakly decreasing")
        if len(nu) > self.kind.det_bound:
            raise ValueError("weight longer than the minor range")
        if any(v % step for v in nu):
            raise ValueError(f"{self.kind.label} extremal weights have even entries")
        # every row of a block carries the block's weight; nu is zero-padded
        if any(self._entry(i) != self._entry(i - (i - 1) % b)
               for i in range(1, len(nu) + b)):
            raise ValueError(f"{self.kind.label} weights come in equal pairs "
                             "(an odd-length weight ends in 0)")

    def _entry(self, i: int) -> int:
        """nu_i (1-based) with nu = 0 beyond the stored length."""
        return self.nu[i - 1] if 1 <= i <= len(self.nu) else 0

    @property
    def exponents(self) -> tuple[int, ...]:
        """Factor exponents (pi_j for minors, p_i for Pfaffian blocks)."""
        b, step = _shape(self.kind)
        return tuple((self._entry(b * i) - self._entry(b * i + b)) // step
                     for i in range(1, len(self.nu) // b + 1))


def extremal_poly(label: ExtremalLabel) -> Poly:
    """The extremal state polynomial for the label, exact."""
    kind = label.kind
    factor = pfaffian_z if kind.family == "III" else det_z
    out = Poly.constant(kind, 1)
    for i, p in enumerate(label.exponents, start=1):
        if p:
            out = out * factor(kind, i) ** p
    return out


def is_extremal(f: Poly) -> bool:
    """True when every raising generator of h_generators annihilates f.

    Those are E_ij (L_ij for kind I) with i < j, and for kind I also R_ab
    with a > b, since R_ab is minus the transposed E_ba.  Requires a nonzero
    f of definite weight (raises otherwise).
    """
    if f.is_zero():
        raise ValueError("the zero polynomial is not a state")
    if weight(f) is None:
        raise ValueError("is_extremal needs a definite-weight state")
    return all(apply_generator(g, f).is_zero() for g in h_generators(f.kind)
               if (g.a > g.b if g.family == "R" else g.a < g.b))


def norm_closed_form(label: ExtremalLabel) -> Fraction:
    """Closed-form self-pairing <psi_nu | psi_nu>, exact.

    With (b, step) = _shape(kind), L = len(nu) // b, fact = ! (!! when step
    is 2) and g_ij = nu_{bi} - nu_{bj} + b(j-i), the value is

        prod_{i<=L} fact(nu_{bi} + b(L-i)) prod_{i<j<=L} fact(g_ij - b)/fact(g_ij)

    (the last factor is 1/g_ij for kind I, 1/(g_ij (g_ij-1)) for kind III).
    It is invariant under trailing-zero padding of nu.  Its largest
    factorial argument is nu_b + b(L-1); above _NORM_MAX_FACTORIAL the
    weight is refused with ValueError before any factorial is computed.
    """
    b, step = _shape(label.kind)
    fact = _FACTORIAL[step]
    top = len(label.nu) // b
    w = [label._entry(b * i) for i in range(top + 1)]  # w[i] = nu_{bi}
    if top and w[1] + b * (top - 1) > _NORM_MAX_FACTORIAL:
        raise ValueError("weight too large for the closed form: it expands "
                         f"factorials past {_NORM_MAX_FACTORIAL}")
    out = Fraction(1)
    for i in range(1, top + 1):
        out *= fact(w[i] + b * (top - i))
        for j in range(i + 1, top + 1):
            g = w[i] - w[j] + b * (j - i)
            out *= Fraction(fact(g - b), fact(g))
    return out


def ladder_eigenvalue(kind: AlgebraKind, n: int, p: int,
                      nu: tuple[int, ...]) -> Fraction:
    """Eigenvalue of the p-step lowering-after-raising ladder on an extremal
    state of weight nu.

    Raising the n-th factor (the leading b*n rows) p times and lowering it
    p times, nabla_n^p x_n^p on psi_nu for kinds I/II and box_n^p phi_n^p on
    Phi_nu for kind III, multiplies a state whose nu has at most b*n parts by

        prod_{i<=n} fact(base_i + step*p) / fact(base_i),  base_i = nu_{bi} + b(n-i)

    with (b, step) and fact as in norm_closed_form.  At p = 2 kind III's
    value is also the nabla_{2n} x_{2n} eigenvalue, since x_{2n} = phi_n^2.
    """
    if p < 0:
        raise ValueError("ladder power must be nonnegative")
    label = ExtremalLabel(kind, nu)
    b, step = _shape(kind)
    if not 1 <= b * n <= kind.det_bound:
        raise ValueError(f"ladder factor {n} out of range for {kind.label}")
    if len(nu) > b * n:
        raise ValueError("weight longer than the ladder factor")
    fact = _FACTORIAL[step]
    out = Fraction(1)
    for i in range(1, n + 1):
        base = label._entry(b * i) + b * (n - i)
        out *= Fraction(fact(base + step * p), fact(base))
    return out


def pfaffian_ladder_eigenvalue(nu: tuple[int, ...], m: int) -> int:
    """Eigenvalue X_nu of box_m phi_m on a kind III extremal state: the
    one-step ladder_eigenvalue of III(2m), prod_{i<=m} (nu_{2i} + 2m + 1 - 2i)
    with nu padded with zeros; a weight that labels no such state raises."""
    if len(nu) > 2 * m:
        raise ValueError("weight longer than the Pfaffian block")
    return int(ladder_eigenvalue(AlgebraKind.type_iii(2 * m), m, 1, nu)) if m else 1


def matel_step_variable(kind: AlgebraKind, k: int) -> tuple[int, int]:
    """Index pair of the variable whose matrix element matel_extremal gives:
    z[k,k] for kinds I/II, z[2k-1,2k] for kind III (rows bk-b+1 and bk)."""
    b, _ = _shape(kind)
    return (b * k - b + 1, b * k)


def matel_shifted_weight(kind: AlgebraKind, nu: tuple[int, ...],
                         k: int) -> Optional[tuple[int, ...]]:
    """The weight one raising step above nu at position k, or None when the
    raised weight is not weakly decreasing (nu padded with zeros as needed).
    The step raises rows b(k-1)+1 .. bk by `step`, (b, step) = _shape(kind)."""
    label = ExtremalLabel(kind, nu)
    b, step = _shape(kind)
    if not 1 <= b * k <= kind.det_bound:
        raise ValueError(f"step index {k} out of range for {kind.label}")
    if k > 1 and label._entry(b * k - b) < label._entry(b * k) + step:
        return None
    full = [label._entry(i) for i in range(1, max(len(nu), b * k) + 1)]
    for i in range(b * k - b, b * k):
        full[i] += step
    return tuple(full)


def matel_extremal(kind: AlgebraKind, nu: tuple[int, ...], k: int) -> RadicalValue:
    """Normalized matrix element of one raising step at row k.

    The value is <nu'|z|nu> / sqrt(<nu'|nu'><nu|nu>) where z is
    matel_step_variable(kind, k) and nu' = matel_shifted_weight(kind, nu, k).
    nu is padded with zeros beyond its stored length.  If nu' is not weakly
    decreasing the element vanishes and the exact zero is returned; a k
    outside the structural range is an error.

    Closed form: (gap) * (M_mu / M_mu') * sqrt(N_nu' / N_nu) where gap is
    nu_{bk} - nu_{bk+1} + step, the M's are the norms of the bottom-anchored
    truncations mu_i = nu_i - nu_{bk+1} (i <= bk), and the N's are full
    norms, with (b, step) = _shape(kind).
    """
    label = ExtremalLabel(kind, nu)  # validates nu for the kind
    full_shifted = matel_shifted_weight(kind, nu, k)
    if full_shifted is None:
        return RadicalValue.zero()
    top = _shape(kind)[0] * k
    tail = label._entry(top + 1)
    full = tuple(label._entry(i) for i in range(1, len(full_shifted) + 1))
    mu = tuple(v - tail for v in full[:top])
    mu_shifted = tuple(v - tail for v in full_shifted[:top])
    m, m_up, n, n_up = (norm_closed_form(ExtremalLabel(kind, w))
                        for w in (mu, mu_shifted, full, full_shifted))
    return (mu_shifted[-1] * (m / m_up)) * RadicalValue.from_square(n_up / n)


def matel_bruteforce(bra: Poly, op: Optional[tuple], ket: Poly) -> Fraction:
    """<bra | op ket> by direct operator application, unnormalized.

    op is ("z", a, b) for multiplication, ("d", a, b) for the scaled
    derivative, or None for the identity.
    """
    return bargmann_inner(bra, ket if op is None else _apply_zd(op, ket))
