"""Extremal (highest weight) states, their norms, and matrix elements.

An extremal state is a product of leading-minor determinants (kinds I, II)
or Pfaffians (kind III) labeled by a weakly decreasing weight nu:

    kind I:   psi_nu = x_1^{pi_1} ... x_L^{pi_L},  pi_j = nu_j - nu_{j+1}
    kind II:  same with pi_j = (nu_j - nu_{j+1})/2, all nu_j even
    kind III: Phi_nu = phi_1^{p_1} ... phi_m^{p_m}, nu_{2i-1} = nu_{2i},
              p_i = nu_{2i} - nu_{2i+2}

Closed-form self-pairings, ladder eigenvalues, and single-step matrix
elements are implemented exactly; everything is cross-checked elsewhere
against the brute-force Bargmann pairing, never the other way around.
Matrix elements are rational multiples of a single square root, carried
exactly by RadicalValue.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isqrt
from typing import Optional, Union

from .algebra import AlgebraKind, Poly, Rational, apply_partial, bargmann_inner, \
    mul_z, weight
from .determinants import apply_E, apply_L, apply_R, det_z, pfaffian_z


def double_factorial(n: int) -> int:
    """n!! with (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial of {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


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
            if self.is_zero() or other.is_zero():
                return RadicalValue.zero()
            return RadicalValue(self.coeff * other.coeff,
                                self.radicand * other.radicand)
        if not other:
            return RadicalValue.zero()
        return RadicalValue(self.coeff * Fraction(other), self.radicand)

    __rmul__ = __mul__

    def to_float(self) -> float:
        return float(self.coeff) * float(self.radicand) ** 0.5

    def to_json(self) -> dict:
        return {"coeff": str(self.coeff), "radicand": str(self.radicand)}


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
        if any(v < 0 for v in nu):
            raise ValueError("weight entries must be nonnegative")
        if any(nu[i] < nu[i + 1] for i in range(len(nu) - 1)):
            raise ValueError("weight must be weakly decreasing")
        family = self.kind.family
        if family == "I":
            if len(nu) > self.kind.det_bound:
                raise ValueError("weight longer than the minor range")
        elif family == "II":
            if len(nu) > self.kind.rows:
                raise ValueError("weight longer than the matrix size")
            if any(v % 2 for v in nu):
                raise ValueError("kind II extremal weights have even entries")
        else:
            if len(nu) > self.kind.rows:
                raise ValueError("weight longer than the matrix size")
            for i in range(0, len(nu) - 1, 2):
                if nu[i] != nu[i + 1]:
                    raise ValueError("kind III weights come in equal pairs")
            if len(nu) % 2 and nu[-1] != 0:
                raise ValueError("kind III odd-length weights must end in 0")

    def _entry(self, i: int) -> int:
        """nu_i (1-based) with nu = 0 beyond the stored length."""
        return self.nu[i - 1] if 1 <= i <= len(self.nu) else 0

    @property
    def exponents(self) -> tuple[int, ...]:
        """Factor exponents (pi_j for minors, p_i for Pfaffian blocks)."""
        nu = self.nu
        if self.kind.family == "III":
            m = len(nu) // 2
            return tuple(self._entry(2 * i) - self._entry(2 * i + 2)
                         for i in range(1, m + 1))
        step = 2 if self.kind.family == "II" else 1
        return tuple((self._entry(j) - self._entry(j + 1)) // step
                     for j in range(1, len(nu) + 1))


def extremal_poly(label: ExtremalLabel) -> Poly:
    """The extremal state polynomial for the label, exact."""
    kind = label.kind
    out = Poly.constant(kind, 1)
    if kind.family == "III":
        for i, p in enumerate(label.exponents, start=1):
            if p:
                out = out * pfaffian_z(kind, i) ** p
    else:
        for j, p in enumerate(label.exponents, start=1):
            if p:
                out = out * det_z(kind, j) ** p
    return out


def is_extremal(f: Poly) -> bool:
    """True when every raising generator annihilates f.

    Kinds II/III: E_ij f = 0 for i < j (full column range).  Kind I: both
    L_ij f = 0 for i < j and R_ab f = 0 for b < a.  Requires a nonzero f of
    definite weight (raises otherwise).
    """
    if f.is_zero():
        raise ValueError("the zero polynomial is not a state")
    if weight(f) is None:
        raise ValueError("is_extremal needs a definite-weight state")
    kind = f.kind
    if kind.family == "I":
        for i in range(1, kind.rows + 1):
            for j in range(i + 1, kind.rows + 1):
                if not apply_L(f, i, j).is_zero():
                    return False
        for a in range(1, kind.cols + 1):
            for b in range(1, a):
                if not apply_R(f, a, b).is_zero():
                    return False
        return True
    for i in range(1, kind.rows + 1):
        for j in range(i + 1, kind.rows + 1):
            if not apply_E(f, i, j, kind.rows).is_zero():
                return False
    return True


def norm_closed_form(label: ExtremalLabel) -> Fraction:
    """Closed-form self-pairing <psi_nu | psi_nu>, exact.

    kind I:   prod_i (nu_i+L-i)! / prod_{i<j} (nu_i-nu_j+j-i)
    kind II:  prod_i (nu_i+L-i)!! prod_{j>i} (nu_i-nu_j+j-i-1)!!/(nu_i-nu_j+j-i)!!
    kind III: prod_i (nu_{2i}+2m-2i)! / prod_{i<j} (nu_{2i}-nu_{2j}+2j-2i)
                                                   (nu_{2i}-nu_{2j}+2j-2i-1)

    with L = len(nu), m = L // 2; the value is invariant under trailing-zero
    padding of nu.
    """
    nu = label.nu
    family = label.kind.family
    if family == "III":
        m = len(nu) // 2
        out = Fraction(1)
        for i in range(1, m + 1):
            out *= factorial(label._entry(2 * i) + 2 * m - 2 * i)
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                diff = label._entry(2 * i) - label._entry(2 * j)
                out /= (diff + 2 * j - 2 * i) * (diff + 2 * j - 2 * i - 1)
        return out
    n = len(nu)
    if family == "I":
        out = Fraction(1)
        for i in range(1, n + 1):
            out *= factorial(label._entry(i) + n - i)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                out /= label._entry(i) - label._entry(j) + j - i
        return out
    out = Fraction(1)
    for i in range(1, n + 1):
        out *= double_factorial(label._entry(i) + n - i)
        for j in range(i + 1, n + 1):
            diff = label._entry(i) - label._entry(j) + j - i
            out *= Fraction(double_factorial(diff - 1), double_factorial(diff))
    return out


def ladder_eigenvalue(kind: AlgebraKind, n: int, p: int,
                      nu: tuple[int, ...]) -> Fraction:
    """Eigenvalue of the p-step lowering-after-raising ladder on an extremal
    state of weight nu.

    Kinds I/II: nabla_n^p x_n^p acting on psi_nu (nu of at most n parts):

        kind I:  prod_{i<=n} (nu_i+n+p-i)!  / (nu_i+n-i)!
        kind II: prod_{i<=n} (nu_i+n+2p-i)!!/ (nu_i+n-i)!!

    Kind III: n counts Pfaffian blocks (matrix block 2n); box_n^p phi_n^p
    acting on Phi_nu gives prod_{i<=n} (nu_{2i}+2n+p-2i)!/(nu_{2i}+2n-2i)!.
    At p = 2 this is also the nabla_{2n} x_{2n} eigenvalue, since
    x_{2n} = phi_n^2.
    """
    if p < 0:
        raise ValueError("ladder power must be nonnegative")
    label = ExtremalLabel(kind, nu)
    if kind.family == "III":
        if not 1 <= 2 * n <= kind.rows:
            raise ValueError(f"Pfaffian block count {n} out of range")
        if len(nu) > 2 * n:
            raise ValueError("weight longer than the ladder block")
        out = Fraction(1)
        for i in range(1, n + 1):
            e = label._entry(2 * i)
            out *= Fraction(factorial(e + 2 * n + p - 2 * i),
                            factorial(e + 2 * n - 2 * i))
        return out
    if not 1 <= n <= kind.det_bound:
        raise ValueError(f"minor size {n} out of range for {kind.label}")
    if len(nu) > n:
        raise ValueError("weight longer than the ladder minor")
    out = Fraction(1)
    for i in range(1, n + 1):
        e = label._entry(i)
        if kind.family == "I":
            out *= Fraction(factorial(e + n + p - i), factorial(e + n - i))
        else:
            out *= Fraction(double_factorial(e + n + 2 * p - i),
                            double_factorial(e + n - i))
    return out


def pfaffian_ladder_eigenvalue(nu: tuple[int, ...], m: int) -> int:
    """Eigenvalue X_nu of box_m phi_m on a kind III extremal state:
    prod_{i<=m} (nu_{2i} + 2m + 1 - 2i), nu padded with zeros."""
    if len(nu) > 2 * m:
        raise ValueError("weight longer than the Pfaffian block")
    padded = tuple(nu) + (0,) * (2 * m - len(nu))
    out = 1
    for i in range(1, m + 1):
        out *= padded[2 * i - 1] + 2 * m + 1 - 2 * i
    return out


def matel_step_variable(kind: AlgebraKind, k: int) -> tuple[int, int]:
    """Index pair of the variable whose matrix element matel_extremal gives:
    z[k,k] for kinds I/II, z[2k-1,2k] for kind III."""
    if kind.family == "III":
        return (2 * k - 1, 2 * k)
    return (k, k)


def matel_shifted_weight(kind: AlgebraKind, nu: tuple[int, ...],
                         k: int) -> Optional[tuple[int, ...]]:
    """The weight one raising step above nu at position k, or None when the
    raised weight is not weakly decreasing (nu padded with zeros as needed)."""
    label = ExtremalLabel(kind, nu)
    family = kind.family
    if family == "III":
        if not 1 <= 2 * k <= kind.rows:
            raise ValueError(f"step index {k} out of range for {kind.label}")
        if k > 1 and label._entry(2 * k - 2) < label._entry(2 * k) + 1:
            return None
        full = tuple(label._entry(i)
                     for i in range(1, max(len(nu), 2 * k) + 1))
        return full[:2 * k - 2] + (full[2 * k - 2] + 1,
                                   full[2 * k - 1] + 1) + full[2 * k:]
    if not 1 <= k <= kind.det_bound:
        raise ValueError(f"step index {k} out of range for {kind.label}")
    step = 2 if family == "II" else 1
    if k > 1 and label._entry(k - 1) < label._entry(k) + step:
        return None
    full = tuple(label._entry(i) for i in range(1, max(len(nu), k) + 1))
    return full[:k - 1] + (full[k - 1] + step,) + full[k:]


def matel_extremal(kind: AlgebraKind, nu: tuple[int, ...], k: int) -> RadicalValue:
    """Normalized matrix element of one raising step at row k.

    The value is <nu'|z|nu> / sqrt(<nu'|nu'><nu|nu>) where z is
    matel_step_variable(kind, k) and nu' is nu raised at position k
    (Delta_k for kind I, 2 Delta_k for kind II, Delta_{2k-1}+Delta_{2k} for
    kind III).  nu is padded with zeros beyond its stored length.  If nu'
    is not weakly decreasing the element vanishes and the exact zero is
    returned; a k outside the structural range is an error.

    Closed form: (gap) * (M_mu / M_mu') * sqrt(N_nu' / N_nu) where gap is
    nu_k - nu_{k+1} + 1 (kind I), + 2 (kind II), or
    nu_{2k} - nu_{2k+2} + 1 (kind III), the M's are the norms of the
    bottom-anchored truncations mu_i = nu_i - nu_{k+1} (i <= k; paired rows
    for kind III), and the N's are full norms.
    """
    label = ExtremalLabel(kind, nu)  # validates nu for the kind
    full_shifted = matel_shifted_weight(kind, nu, k)
    if full_shifted is None:
        return RadicalValue.zero()
    block = 2 * k if kind.family == "III" else k
    tail = label._entry(block + 1)
    full = tuple(label._entry(i) for i in range(1, len(full_shifted) + 1))
    mu = tuple(v - tail for v in full[:block])
    mu_shifted = tuple(v - tail for v in full_shifted[:block])
    gap = mu_shifted[-1]
    ratio = Fraction(norm_closed_form(ExtremalLabel(kind, mu)),
                     norm_closed_form(ExtremalLabel(kind, mu_shifted)))
    root = RadicalValue.from_square(
        Fraction(norm_closed_form(ExtremalLabel(kind, full_shifted)),
                 norm_closed_form(ExtremalLabel(kind, full))))
    return (gap * ratio) * root


def matel_bruteforce(bra: Poly, op: Optional[tuple], ket: Poly) -> Fraction:
    """<bra | op ket> by direct operator application, unnormalized.

    op is ("z", a, b) for multiplication, ("d", a, b) for the scaled
    derivative, or None for the identity.
    """
    if op is None:
        target = ket
    elif op[0] == "z":
        target = mul_z(ket, op[1], op[2])
    elif op[0] == "d":
        target = apply_partial(ket, op[1], op[2])
    else:
        raise ValueError(f"unknown operator tag {op[0]!r}")
    return bargmann_inner(bra, target)
