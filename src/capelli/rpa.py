"""Random-phase-approximation treatment of quadratic boson Hamiltonians.

This is the one floating-point corner of the package.  A Hamiltonian

    H = E0 + sum_ij V_ij b+_i b_j + sum_ij W_ij b+_i b+_j + h.c. of the W term

(the b's are the unit-normalized boson operators realized elsewhere as
z -> b+, d -> b) has the exact normal-mode structure captured by the 2M x 2M
stability matrix

    S = [[ A,        B       ],
         [ -conj(B), -conj(A)]]       A = V,  B = W + W^T.

The Hamiltonian is stable when the spectrum of S is real and nonzero; then
the frequencies come in +/- pairs, the positive-branch amplitudes (X, Y)
normalize to X+X - Y+Y = 1, degenerate modes included, and the correlated
ground-state shift is delta_E = (sum_n w_n - trace A) / 2.  Because H is
quadratic the RPA is not an approximation here: the Fock-space oracle below
reproduces the frequencies to truncation accuracy, which is what the tests
check.  Every term of H keeps the parity of the total occupation, so the
oracle builds the even and the odd block of the Fock matrix apart, each of
about half the side, one at a time, and never the full matrix.  Each
block gets its eigenvalues only (np.linalg.eigvalsh).  The ground vector,
needed for the truncation check, is the quasiparticle vacuum of the even
block, or the lowest odd state should a bad truncation put the odd block
lowest; it comes from one step of inverse iteration, a single linear solve
with the lowest block shifted just below its lowest eigenvalue (Wilkinson;
Ipsen, SIAM Review 39, 1997), not from a full set of eigenvectors.  Each
block is banded in its own indices, so that solve is a block-tridiagonal
elimination (Golub and Van Loan, Matrix Computations, 4.5).  The peak is
then the even block and eigvalsh's copy of it, about 2 ne^2 items for an
even block of side ne, against the 5 ne^2 that _fock_bytes bounds.

The alternative reading of W as the full two-boson coefficient (B = W
directly, with the Hamiltonian carrying W/2 b+ b+) is available as
b_convention="direct" on every entry point; both conventions are kept
consistent between solver and oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

B_CONVENTIONS = ("sum", "direct")
_FOCK_MAX_BYTES = 1 << 30  # largest footprint fock_oracle may take
_EIGH_ROW_ITEMS = 512  # the solvers' O(side) buffers per row, with room to spare
_GROUND_SHIFT = 1e-12  # sigma = lambda_0 - _GROUND_SHIFT * spectral radius
_GROUND_RESIDUAL = 1e-8  # largest |(block - lambda_0) x| / spectral radius


class RpaError(RuntimeError):
    """Eigensolver breakdown or inconsistent normalization."""


class FockCutoffError(RuntimeError):
    """Truncated Fock space too small: the ground state touches the boundary."""


@dataclass
class QuadraticBosonHamiltonian:
    """E0 + V (one-boson, Hermitian) + W (two-boson, symmetrized on input)."""

    E0: float
    V: np.ndarray
    W: np.ndarray

    def __post_init__(self) -> None:
        V = np.asarray(self.V)
        W = np.asarray(self.W)
        if not (np.iscomplexobj(V) or np.iscomplexobj(W)):
            V = V.astype(float)
            W = W.astype(float)
        if V.ndim != 2 or V.shape[0] != V.shape[1] or V.shape != W.shape:
            raise ValueError("V and W must be square matrices of equal size")
        if not (np.isfinite(self.E0) and np.isfinite(V).all()
                and np.isfinite(W).all()):
            raise ValueError("E0, V and W must be finite")
        if not np.allclose(V, V.conj().T, atol=1e-12):
            raise ValueError("V must be Hermitian")
        self.V = V
        self.W = (W + W.T) / 2  # W = W^T exactly from here on

    @property
    def modes(self) -> int:
        return self.V.shape[0]


def _b_matrix(H: QuadraticBosonHamiltonian, b_convention: str) -> np.ndarray:
    if b_convention not in B_CONVENTIONS:
        raise ValueError(f"b_convention must be one of {B_CONVENTIONS}")
    return 2 * H.W if b_convention == "sum" else H.W


def build_rpa_matrix(H: QuadraticBosonHamiltonian,
                     b_convention: str = "sum") -> np.ndarray:
    """The stability matrix [[A, B], [-conj(B), -conj(A)]]."""
    A = H.V
    B = _b_matrix(H, b_convention)
    top = np.hstack([A, B])
    bottom = np.hstack([-B.conj(), -A.conj()])
    return np.vstack([top, bottom])


@dataclass
class RpaSolution:
    """Normal-mode data; amplitudes are None when the flag says unstable.

    For a stable Hamiltonian: frequencies ascending, columns of X and Y per
    mode with X+X - Y+Y = identity, and the ground-state energy shift
    delta_E.  Otherwise only the raw stability-matrix eigenvalues are
    reported (no pseudo-normalization of degenerate or complex modes).
    """

    stable: bool
    frequencies: np.ndarray
    raw_eigenvalues: np.ndarray
    X: Optional[np.ndarray]
    Y: Optional[np.ndarray]
    delta_E: Optional[float]


def solve_rpa(H: QuadraticBosonHamiltonian, b_convention: str = "sum",
              tol: float = 1e-10) -> RpaSolution:
    """Diagonalize the stability matrix and normalize the positive branch.

    Stability means every eigenvalue is real (|imag| <= tol) and nonzero
    (|w| > tol); zero modes therefore trip the unstable flag rather than
    being pseudo-normalized.
    """
    M = H.modes
    S = build_rpa_matrix(H, b_convention)
    try:
        eigvals, eigvecs = np.linalg.eig(S)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails
        raise RpaError(f"stability-matrix eigensolver failed: {exc}") from exc
    raw = np.array(sorted(eigvals, key=lambda w: (w.real, w.imag)))
    if np.any(np.abs(raw.imag) > tol) or np.any(np.abs(raw) <= tol):
        return RpaSolution(stable=False, frequencies=np.array([]),
                           raw_eigenvalues=raw, X=None, Y=None, delta_E=None)
    order = [i for i in np.argsort(eigvals.real) if eigvals[i].real > 0]
    freqs = eigvals.real[order]
    T = eigvecs[:, order]
    # Symplectic (Lowdin) orthonormalization T <- T G^(-1/2), G = X+X - Y+Y.
    # Modes of distinct frequency are already symplectically orthogonal, so
    # this mixes columns only within a degenerate subspace, where eig's
    # vectors need not be orthogonal.
    gram = T[:M].conj().T @ T[:M] - T[M:].conj().T @ T[M:]
    g, U = np.linalg.eigh(gram)
    if g[0] <= tol:
        raise RpaError("positive-frequency mode with non-positive norm; "
                       "the stability matrix is defective beyond tolerance")
    T = T @ ((U / np.sqrt(g)) @ U.conj().T)
    # fix each mode's overall phase so output is reproducible
    pivot = T[np.argmax(np.abs(T[:M]), axis=0), np.arange(M)]
    T = T / (pivot / np.abs(pivot))
    X, Y = T[:M], T[M:]
    delta_E = 0.5 * (freqs.sum() - np.trace(H.V).real)
    return RpaSolution(stable=True, frequencies=freqs, raw_eigenvalues=raw,
                       X=X, Y=Y, delta_E=float(delta_E))


def _fock_block(H: QuadraticBosonHamiltonian, wcoeff: np.ndarray,
                occ: np.ndarray, nmax: int,
                states: np.ndarray) -> tuple[np.ndarray, int]:
    """The Fock matrix on `states`, the ascending indices of one occupation
    parity, which every term maps into itself, and its half-bandwidth: the
    largest |row - column| of an entry it writes, 1 for a diagonal block.

    One vectorized pass per (i, j).  An entry that gets several terms gets
    them in (i, j) order, as the per-state reference build in
    tests/test_rpa.py adds them, so the block equals the matching sub-block
    of that matrix to the bit, and a rebuild equals the first build.
    """
    M = H.modes
    strides = [(nmax + 1) ** (M - 1 - i) for i in range(M)]
    n = occ[:, states]  # n[i] = n_i of every state of the block
    local = np.empty(occ.shape[1], dtype=np.intp)  # Fock index -> block index
    local[states] = np.arange(len(states))
    block = np.zeros((len(states),) * 2, dtype=np.result_type(H.V, wcoeff))
    block[np.diag_indices(len(states))] = H.E0
    width = 1
    for i in range(M):
        for j in range(M):
            up = int(i != j)
            if H.V[i, j]:  # b+_i b_j
                ok = np.flatnonzero((n[j] >= 1) & (n[i] + up <= nmax))
                amp = np.sqrt(n[j, ok]) * np.sqrt(n[i, ok] + up)
                tgt = local[states[ok] + strides[i] - strides[j]]
                block[tgt, ok] += H.V[i, j] * amp
                width = max(width, int(np.abs(tgt - ok).max(initial=0)))
            w = wcoeff[i, j]
            if w:  # b+_i b+_j, which raises n_i by 2 when i == j
                ok = np.flatnonzero((n[i] + 1 <= nmax) & (n[j] + 2 - up <= nmax))
                amp = np.sqrt((n[i, ok] + 1) * (n[j, ok] + 2 - up))
                tgt = local[states[ok] + strides[i] + strides[j]]
                block[tgt, ok] += w * amp
                block[ok, tgt] += np.conj(w) * amp  # h.c. (b_i b_j)
                width = max(width, int(np.abs(tgt - ok).max(initial=0)))
    return block, width


def _fock_bytes(modes: int, nmax: int, itemsize: int) -> int:
    """An upper bound on the bytes fock_oracle holds at once.

    The bound counts 5 ne^2 items, ne the side of the even block (ne = no,
    or no + 1 for even nmax, no the side of the odd block), as if an eigh
    ran on the even block: its block and, as measured for numpy's LAPACK
    ?syevd/?heevd, about four more matrices of its side.  On top come
    _EIGH_ROW_ITEMS per row for the solvers' O(side) buffers (2.6 to 4.1 kB
    were measured for eigh) and the occupation tables and index arrays,
    8 bytes each per state and mode.  No eigh runs on a block any more, and
    only one block is alive at a time, so the bound has 3 ne^2 items of
    headroom over the measured peak: that is at the even eigvalsh, which
    holds the even block and its own copy of it, 2 ne^2 items.  The banded
    ground-vector solve holds the lowest block and about side * w more
    items, w its half-bandwidth (225 at side 1,688 for three modes at nmax
    14), so about 2 ne^2 at most.
    """
    side = (nmax + 1) ** modes
    ne = (side + 1 - nmax % 2) // 2
    return itemsize * (5 * ne * ne + _EIGH_ROW_ITEMS * ne) + 8 * side * (modes + 8)


def _banded_solve(a: np.ndarray, b: np.ndarray, w: int) -> np.ndarray:
    """x with a x = b, for a Hermitian positive definite `a` of
    half-bandwidth w.

    Block-tridiagonal elimination (Golub and Van Loan, Matrix Computations,
    4.5) over slabs of side w, the last one shorter, so slab k meets only
    slabs k - 1 and k + 1.  Each step solves the running Schur complement S
    against the next upper slab and the right side, S [G, g] = [a_k,k+1, y],
    and the back sweep is x_k = g - G x_k+1.  No pivoting crosses slabs:
    every Schur complement of a positive definite matrix is positive
    definite.  The lower slabs are read as stored, not as transposes of
    the upper ones, which a complex Hermitian `a` would need conjugated.
    """
    n = len(a)
    s, y, steps = a[:w, :w], b[:w], []
    for lo in range(w, n, w):
        hi = min(lo + w, n)
        lower = a[lo:hi, lo - w:lo]
        sol = np.linalg.solve(s, np.column_stack([a[lo - w:lo, lo:hi], y]))
        G, g = sol[:, :-1], sol[:, -1]
        steps.append((G, g))
        s = a[lo:hi, lo:hi] - lower @ G
        y = b[lo:hi] - lower @ g
    x = [np.linalg.solve(s, y)]
    for G, g in reversed(steps):
        x.append(g - G @ x[-1])
    return np.concatenate(x[::-1])


def _ground_vector(block: np.ndarray, width: int, lowest: float,
                   radius: float) -> np.ndarray:
    """The unit eigenvector of the Hermitian `block`, of half-bandwidth
    `width`, at its lowest eigenvalue, from one step of inverse iteration;
    `block` is left shifted.

    One solve of (block - sigma) x = start, sigma = lowest - _GROUND_SHIFT *
    radius (radius is the whole Fock matrix's spectral radius, nonzero even
    when the block is 0), amplifies the start vector's ground component by
    about the gap over that shift.  block - sigma is positive definite, so
    _banded_solve takes it in O(side * width^2) time and side * width items
    besides the block, where a dense solve would take O(side^3) and side^2;
    the oracle's peak stays the even eigvalsh's 2 ne^2 items.
    The start cos(0), cos(1), ... has distinct entries, so no permutation
    symmetry of the states makes it orthogonal to the ground vector.
    Raises RpaError when the residual |(block - lowest) x| exceeds
    _GROUND_RESIDUAL * radius.
    """
    shift = _GROUND_SHIFT * radius
    block.reshape(-1)[::len(block) + 1] -= lowest - shift  # a view: in place
    x = _banded_solve(block, np.cos(np.arange(len(block))), width)
    x /= np.linalg.norm(x)
    residual = np.linalg.norm(block @ x - shift * x)
    if not residual <= _GROUND_RESIDUAL * radius:
        raise RpaError(f"Fock ground vector has residual {residual:.3e}, "
                       f"above {_GROUND_RESIDUAL:g} times the spectral "
                       f"radius {radius:.3e}")
    return x


def fock_oracle(H: QuadraticBosonHamiltonian, nmax: int,
                b_convention: str = "sum", k_lowest: Optional[int] = None,
                boundary_tol: float = 1e-8) -> np.ndarray:
    """Exact eigenvalues of H on the Fock space with <= nmax quanta per mode,
    in ascending order.

    The matrix is assembled from the exact boson elements b+|n> =
    sqrt(n+1)|n+1>, i.e. the unit-normalized z/d representation matrices,
    as its even- and odd-occupation blocks; the full matrix is never built.
    Each block gets np.linalg.eigvalsh and nothing else, and only one is
    held at a time: the even one is dropped after its eigvalsh and rebuilt
    if it comes out lowest, so the peak is about 2 ne^2 items (ne the even
    side: the block and eigvalsh's copy), with 3 ne^2 of headroom under
    _fock_bytes.  The block whose lowest eigenvalue is lowest, the even one
    unless a bad truncation puts the odd one lower, then gives the ground
    vector by one banded linear solve (see _ground_vector), so the check
    below always reads the ground state.
    Raises FockCutoffError when the ground state's weight on boundary
    occupations (some n_i in {nmax-1, nmax}; two shells because pair
    couplings conserve occupation parity, so a single shell can be empty
    while the truncation is still bad) exceeds boundary_tol.  Raises
    RpaError when that solve misses the ground vector.  Raises ValueError
    for an RPA-unstable Hamiltonian, whose spectrum is unbounded below,
    and, before allocating anything, when the matrix of side
    (nmax+1)^modes is too large for _FOCK_MAX_BYTES (1 GiB; see
    _fock_bytes).  solve_rpa's RpaError passes through for a mode of
    negative norm.
    """
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    M = H.modes
    size = (nmax + 1) ** M
    complex_input = np.iscomplexobj(H.V) or np.iscomplexobj(H.W)
    if _fock_bytes(M, nmax, 16 if complex_input else 8) > _FOCK_MAX_BYTES:
        raise ValueError(f"Fock matrix of side {size} at nmax={nmax} exceeds "
                         f"the {_FOCK_MAX_BYTES >> 30} GiB limit for its "
                         "parity blocks and solver workspace; lower nmax")
    if not solve_rpa(H, b_convention).stable:
        raise ValueError("Fock oracle needs a stable Hamiltonian")
    wcoeff = _b_matrix(H, b_convention) / 2  # coefficient of b+_i b+_j, i,j summed
    occ = np.indices((nmax + 1,) * M).reshape(M, size)  # occ[i] = n_i of every state
    parity = occ.sum(axis=0) % 2
    classes = np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)
    even_vals = np.linalg.eigvalsh(_fock_block(H, wcoeff, occ, nmax, classes[0])[0])
    block, width = _fock_block(H, wcoeff, occ, nmax, classes[1])
    odd_vals = np.linalg.eigvalsh(block)
    low = int(odd_vals[0] < even_vals[0])  # 1: the odd block came out lowest
    if not low:  # the even block again, bit for bit, once the odd one is gone
        del block
        block, width = _fock_block(H, wcoeff, occ, nmax, classes[0])
    eigvals = np.sort(np.concatenate([even_vals, odd_vals]))
    ground = _ground_vector(block, width, eigvals[0],
                            max(-eigvals[0], eigvals[-1]))
    boundary = np.any(occ[:, classes[low]] >= nmax - 1, axis=0)
    bweight = float(np.sum(np.abs(ground[boundary]) ** 2))
    if bweight > boundary_tol:
        raise FockCutoffError(
            f"ground state has boundary weight {bweight:.3e} at nmax={nmax}")
    return eigvals if k_lowest is None else eigvals[:k_lowest]
