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
about half the side, and never the full matrix.  Each block gets its
eigenvalues only (np.linalg.eigvalsh).  The ground vector, needed for the
truncation check, is the quasiparticle vacuum of the even block, or the
lowest odd state should a bad truncation put the odd block lowest; it comes
from one step of inverse iteration, a single linear solve with the lowest
block shifted just below its lowest eigenvalue (Wilkinson; Ipsen, SIAM
Review 39, 1997), not from a full set of eigenvectors.

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

    The bound counts 5 ne^2 items, ne the side of the even block (ne = no,
    or no + 1 for even nmax, no the side of the odd block), as if an eigh
    ran on the even block: its block and, as measured for numpy's LAPACK
    ?syevd/?heevd, about four more matrices of its side.  On top come
    _EIGH_ROW_ITEMS per row for the solvers' O(side) buffers (2.6 to 4.1 kB
    were measured for eigh) and the occupation tables and index arrays,
    8 bytes each per state and mode.  No eigh runs on a block any more, so
    the bound has headroom over the measured peak: that is at the odd
    eigvalsh, which holds both blocks and its own copy of the odd one,
    ne^2 + 2 no^2 items; the ground-vector solve after it holds the lowest
    block and its LU factors, 2 ne^2 at most.
    """
    side = (nmax + 1) ** modes
    ne = (side + 1 - nmax % 2) // 2
    return itemsize * (5 * ne * ne + _EIGH_ROW_ITEMS * ne) + 8 * side * (modes + 8)


def _ground_vector(block: np.ndarray, lowest: float,
                   radius: float) -> np.ndarray:
    """The unit eigenvector of the Hermitian `block` at its lowest
    eigenvalue, from one step of inverse iteration; `block` is left
    shifted.

    One solve of (block - sigma) x = start, sigma = lowest - _GROUND_SHIFT *
    radius (radius is the whole Fock matrix's spectral radius, nonzero even
    when the block is 0), amplifies the start vector's ground component by
    about the gap over that shift.  The start cos(0), cos(1), ... has
    distinct entries, so no permutation symmetry of the states makes it
    orthogonal to the ground vector.  Raises RpaError when the residual
    |(block - lowest) x| exceeds _GROUND_RESIDUAL * radius.
    """
    shift = _GROUND_SHIFT * radius
    block.reshape(-1)[::len(block) + 1] -= lowest - shift  # a view: in place
    x = np.linalg.solve(block, np.cos(np.arange(len(block))))
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
    Each block gets np.linalg.eigvalsh and nothing else.  The block whose
    lowest eigenvalue is lowest, the even one unless a bad truncation puts
    the odd one lower, then gives the ground vector by one linear solve
    (see _ground_vector), so the check below always reads the ground state.
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
    blocks, vals = [], []
    for states in classes:  # even, then odd
        blocks.append(_fock_block(H, wcoeff, occ, nmax, states))
        vals.append(np.linalg.eigvalsh(blocks[-1]))
    low = int(vals[1][0] < vals[0][0])  # 1: the odd block came out lowest
    block = blocks[low]
    del blocks  # the other block is dropped before the solve
    eigvals = np.sort(np.concatenate(vals))
    ground = _ground_vector(block, eigvals[0], max(-eigvals[0], eigvals[-1]))
    boundary = np.any(occ[:, classes[low]] >= nmax - 1, axis=0)
    bweight = float(np.sum(np.abs(ground[boundary]) ** 2))
    if bweight > boundary_tol:
        raise FockCutoffError(
            f"ground state has boundary weight {bweight:.3e} at nmax={nmax}")
    return eigvals if k_lowest is None else eigvals[:k_lowest]
