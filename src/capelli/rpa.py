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
oracle builds and diagonalizes the even and the odd block of the Fock
matrix apart, each of about half the side, and never the full matrix.  The
ground state, the quasiparticle vacuum, comes from the even block; should a
bad truncation put the odd block lowest, its ground vector is taken instead.

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
_EIGH_ROW_ITEMS = 512  # eigh's O(side) buffers per row, with room to spare


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
                occ: np.ndarray, nmax: int, states: np.ndarray) -> np.ndarray:
    """The Fock matrix on `states`, the ascending indices of one occupation
    parity, which every term maps into itself.

    One vectorized pass per (i, j).  An entry that gets several terms gets
    them in (i, j) order, as the per-state reference build in
    tests/test_rpa.py adds them, so the block equals the matching sub-block
    of that matrix to the bit.
    """
    M = H.modes
    strides = [(nmax + 1) ** (M - 1 - i) for i in range(M)]
    n = occ[:, states]  # n[i] = n_i of every state of the block
    local = np.empty(occ.shape[1], dtype=np.intp)  # Fock index -> block index
    local[states] = np.arange(len(states))
    block = np.zeros((len(states),) * 2, dtype=np.result_type(H.V, wcoeff))
    block[np.diag_indices(len(states))] = H.E0
    for i in range(M):
        for j in range(M):
            up = int(i != j)
            if H.V[i, j]:  # b+_i b_j
                ok = np.flatnonzero((n[j] >= 1) & (n[i] + up <= nmax))
                amp = np.sqrt(n[j, ok]) * np.sqrt(n[i, ok] + up)
                tgt = local[states[ok] + strides[i] - strides[j]]
                block[tgt, ok] += H.V[i, j] * amp
            w = wcoeff[i, j]
            if w:  # b+_i b+_j, which raises n_i by 2 when i == j
                ok = np.flatnonzero((n[i] + 1 <= nmax) & (n[j] + 2 - up <= nmax))
                amp = np.sqrt((n[i, ok] + 1) * (n[j, ok] + 2 - up))
                tgt = local[states[ok] + strides[i] + strides[j]]
                block[tgt, ok] += w * amp
                block[ok, tgt] += np.conj(w) * amp  # h.c. (b_i b_j)
    return block


def _fock_bytes(modes: int, nmax: int, itemsize: int) -> int:
    """An upper bound on the bytes fock_oracle holds at once.

    With ne even and no odd states (ne = no, or no + 1 for even nmax), the
    peak is at an eigh: the even one holds its block and, as measured for
    numpy's LAPACK ?syevd/?heevd, about four more matrices of its side (the
    copy it factors, two of work arrays, the eigenvectors it returns), so
    5 ne^2 items.  Only the ground column of the even eigenvectors is kept,
    so the odd eigh, should the odd block come out lowest, holds the same
    5 no^2 <= 5 ne^2.  On top come eigh's buffers of one row each
    (_EIGH_ROW_ITEMS per row; 2.6 to 4.1 kB were measured) and the
    occupation tables and index arrays, 8 bytes each per state and mode.
    """
    side = (nmax + 1) ** modes
    ne = (side + 1 - nmax % 2) // 2
    return itemsize * (5 * ne * ne + _EIGH_ROW_ITEMS * ne) + 8 * side * (modes + 8)


def fock_oracle(H: QuadraticBosonHamiltonian, nmax: int,
                b_convention: str = "sum", k_lowest: Optional[int] = None,
                boundary_tol: float = 1e-8) -> np.ndarray:
    """Exact eigenvalues of H on the Fock space with <= nmax quanta per mode,
    in ascending order.

    The matrix is assembled from the exact boson elements b+|n> =
    sqrt(n+1)|n+1>, i.e. the unit-normalized z/d representation matrices,
    as its even- and odd-occupation blocks; the full matrix is never built.
    The even block, which holds the quasiparticle vacuum, gets
    np.linalg.eigh and the odd block np.linalg.eigvalsh, and eigh as well
    when a bad truncation puts its lowest eigenvalue lower, so the check
    below always reads the ground state (eigh on every odd block would cost
    each call about 2x an eigvalsh: 0.61 s against 0.31 s at side 1,687).
    Raises FockCutoffError when the ground state's weight on boundary
    occupations (some n_i in {nmax-1, nmax}; two shells because pair
    couplings conserve occupation parity, so a single shell can be empty
    while the truncation is still bad) exceeds boundary_tol.  Raises
    ValueError for an RPA-unstable Hamiltonian, whose spectrum is unbounded
    below, and, before allocating anything, when the blocks, eigenvectors
    and eigh workspace of the matrix of side (nmax+1)^modes would take more
    than _FOCK_MAX_BYTES (1 GiB; see _fock_bytes).  solve_rpa's RpaError
    passes through for a mode of negative norm.
    """
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    M = H.modes
    size = (nmax + 1) ** M
    complex_input = np.iscomplexobj(H.V) or np.iscomplexobj(H.W)
    if _fock_bytes(M, nmax, 16 if complex_input else 8) > _FOCK_MAX_BYTES:
        raise ValueError(f"Fock matrix of side {size} at nmax={nmax} exceeds "
                         f"the {_FOCK_MAX_BYTES >> 30} GiB limit for its "
                         "parity blocks, eigenvectors and eigh workspace; "
                         "lower nmax")
    if not solve_rpa(H, b_convention).stable:
        raise ValueError("Fock oracle needs a stable Hamiltonian")
    wcoeff = _b_matrix(H, b_convention) / 2  # coefficient of b+_i b+_j, i,j summed
    occ = np.indices((nmax + 1,) * M).reshape(M, size)  # occ[i] = n_i of every state
    parity = occ.sum(axis=0) % 2
    even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)
    even_vals, even_vecs = np.linalg.eigh(_fock_block(H, wcoeff, occ, nmax, even))
    ground, ground_states = even_vecs[:, 0].copy(), even
    del even_vecs  # a view would keep the whole matrix alive from here on
    odd_block = _fock_block(H, wcoeff, occ, nmax, odd)
    odd_vals = np.linalg.eigvalsh(odd_block)
    if odd_vals[0] < even_vals[0]:
        ground, ground_states = np.linalg.eigh(odd_block)[1][:, 0], odd
    boundary = np.any(occ[:, ground_states] >= nmax - 1, axis=0)
    bweight = float(np.sum(np.abs(ground[boundary]) ** 2))
    if bweight > boundary_tol:
        raise FockCutoffError(
            f"ground state has boundary weight {bweight:.3e} at nmax={nmax}")
    eigvals = np.sort(np.concatenate([even_vals, odd_vals]))
    return eigvals if k_lowest is None else eigvals[:k_lowest]
