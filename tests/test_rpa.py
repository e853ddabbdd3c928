"""Normal-mode solver and Fock-space oracle for quadratic boson Hamiltonians."""

import numpy as np
import pytest

from capelli import rpa
from capelli.rpa import (FockCutoffError, QuadraticBosonHamiltonian, RpaError,
                         build_rpa_matrix, fock_oracle, solve_rpa)


def one_mode(a, w, e0=0.0):
    return QuadraticBosonHamiltonian(e0, [[a]], [[w]])


# ---- construction ----

def test_hamiltonian_validation():
    with pytest.raises(ValueError):
        QuadraticBosonHamiltonian(0.0, [[0, 1], [0, 0]], np.zeros((2, 2)))
    with pytest.raises(ValueError):
        QuadraticBosonHamiltonian(0.0, [[1]], np.zeros((2, 2)))
    with pytest.raises(ValueError):
        QuadraticBosonHamiltonian(0.0, [1, 2], [1, 2])


def test_w_symmetrized_on_input():
    H = QuadraticBosonHamiltonian(0.0, np.eye(2) * 3, [[0, 1], [0, 0]])
    assert np.array_equal(H.W, [[0, 0.5], [0.5, 0]])


def test_stability_matrix_layout():
    H = QuadraticBosonHamiltonian(0.0, [[2.0]], [[0.5]])
    assert np.array_equal(build_rpa_matrix(H), [[2.0, 1.0], [-1.0, -2.0]])
    assert np.array_equal(build_rpa_matrix(H, "direct"),
                          [[2.0, 0.5], [-0.5, -2.0]])
    with pytest.raises(ValueError):
        build_rpa_matrix(H, "both")


# ---- one mode, closed form ----

def test_single_mode_frequency():
    sol = solve_rpa(one_mode(2.0, 0.5))
    assert sol.stable
    assert abs(sol.frequencies[0] - np.sqrt(3.0)) < 1e-12
    assert abs(sol.delta_E - (np.sqrt(3.0) - 2.0) / 2) < 1e-12
    # the normalized mode solves the eigenproblem of the stability matrix
    S = build_rpa_matrix(one_mode(2.0, 0.5))
    vec = np.array([sol.X[0, 0], sol.Y[0, 0]])
    assert np.allclose(S @ vec, sol.frequencies[0] * vec, atol=1e-12)


def test_single_mode_instability():
    sol = solve_rpa(one_mode(1.0, 1.0))  # B = 2 > A
    assert not sol.stable
    assert sol.X is None and sol.Y is None and sol.delta_E is None
    assert np.allclose(sorted(sol.raw_eigenvalues.imag),
                       [-np.sqrt(3.0), np.sqrt(3.0)], atol=1e-12)


def test_zero_mode_flagged_unstable():
    sol = solve_rpa(one_mode(1.0, 0.5))  # A = B = 1, frequency 0
    assert not sol.stable


def test_uncoupled_reduces_to_one_boson_spectrum():
    V = np.array([[2.0, 0.4], [0.4, 3.0]])
    H = QuadraticBosonHamiltonian(0.0, V, np.zeros((2, 2)))
    sol = solve_rpa(H)
    assert sol.stable
    assert np.allclose(sol.frequencies, np.linalg.eigvalsh(V), atol=1e-12)
    assert np.allclose(sol.Y, 0.0, atol=1e-12)
    assert abs(sol.delta_E) < 1e-12


def random_stable(rng, m, coupling=0.2):
    base = rng.uniform(1.5, 3.0, size=(m, m))
    V = (base + base.T) / 2 + np.eye(m) * 2.0
    W = rng.uniform(-coupling, coupling, size=(m, m))
    return QuadraticBosonHamiltonian(0.0, V, W)


def test_spectrum_symmetry_and_normalization():
    rng = np.random.default_rng(11)
    for m in (1, 2, 3):
        for _ in range(5):
            sol = solve_rpa(random_stable(rng, m))
            assert sol.stable
            raw = sol.raw_eigenvalues.real
            assert np.allclose(np.sort(raw), np.sort(-raw[::-1]), atol=1e-10)
            gram = sol.X.conj().T @ sol.X - sol.Y.conj().T @ sol.Y
            assert np.allclose(gram, np.eye(m), atol=1e-10)


def test_phase_fix_makes_pivot_positive():
    rng = np.random.default_rng(3)
    sol = solve_rpa(random_stable(rng, 3))
    for n in range(3):
        pivot = int(np.argmax(np.abs(sol.X[:, n])))
        val = sol.X[pivot, n]
        assert abs(np.imag(val)) < 1e-12 and np.real(val) > 0


def test_scaling_covariance():
    rng = np.random.default_rng(8)
    H = random_stable(rng, 2)
    scaled = QuadraticBosonHamiltonian(0.0, 3 * H.V, 3 * H.W)
    a = solve_rpa(H)
    b = solve_rpa(scaled)
    assert np.allclose(b.frequencies, 3 * a.frequencies, atol=1e-10)
    assert np.allclose(b.delta_E, 3 * a.delta_E, atol=1e-10)


@pytest.mark.parametrize("b_convention", ["sum", "direct"])
def test_degenerate_modes_are_symplectically_orthonormal(b_convention):
    # Two of the three frequencies are equal, so eig may return any
    # non-orthogonal basis of that subspace; the whole matrix identity,
    # off-diagonal entries included, must still hold.
    H = QuadraticBosonHamiltonian(0.0, 2 * np.eye(3), 0.1 * np.ones((3, 3)))
    sol = solve_rpa(H, b_convention)
    assert sol.stable
    assert np.allclose(sol.frequencies[1:], 2.0, atol=1e-12)
    X, Y = sol.X, sol.Y
    assert np.max(np.abs(X.conj().T @ X - Y.conj().T @ Y - np.eye(3))) < 1e-12
    assert np.max(np.abs(X.T @ Y - Y.T @ X)) < 1e-12
    T = np.vstack([X, Y])
    S = build_rpa_matrix(H, b_convention)
    assert np.max(np.abs(S @ T - T * sol.frequencies)) < 1e-12


# ---- Fock oracle ----

def test_fock_matches_single_mode():
    H = one_mode(2.0, 0.5, e0=1.0)
    sol = solve_rpa(H)
    eigs = fock_oracle(H, nmax=40, k_lowest=4)
    w = sol.frequencies[0]
    assert abs(eigs[0] - (1.0 + sol.delta_E)) < 1e-10
    assert np.allclose(np.diff(eigs), w, atol=1e-10)


def test_fock_matches_two_modes():
    H = QuadraticBosonHamiltonian(
        0.0, [[2.0, 0.3], [0.3, 2.5]], [[0.1, 0.05], [0.05, 0.15]])
    sol = solve_rpa(H)
    eigs = fock_oracle(H, nmax=16, k_lowest=8)
    gaps = eigs[1:] - eigs[0]
    for w in sol.frequencies:
        assert np.min(np.abs(gaps - w)) < 1e-8, w
    assert abs(eigs[0] - sol.delta_E) < 1e-8


def test_fock_complex_hamiltonian():
    V = np.array([[2.0, 0.2 + 0.1j], [0.2 - 0.1j, 2.4]])
    W = np.array([[0.1, 0.05j], [0.05j, 0.08]])
    H = QuadraticBosonHamiltonian(0.0, V, W)
    sol = solve_rpa(H)
    assert sol.stable
    gram = sol.X.conj().T @ sol.X - sol.Y.conj().T @ sol.Y
    assert np.allclose(gram, np.eye(2), atol=1e-10)
    eigs = fock_oracle(H, nmax=14, k_lowest=6)
    gaps = eigs[1:] - eigs[0]
    for w in sol.frequencies:
        assert np.min(np.abs(gaps - w)) < 1e-6, w


def reference_fock_matrix(H, nmax, b_convention):
    """The Fock matrix built state by state, one (i, j) term at a time."""
    M = H.modes
    B = 2 * H.W if b_convention == "sum" else H.W
    size = (nmax + 1) ** M
    strides = [(nmax + 1) ** (M - 1 - i) for i in range(M)]
    occ = np.array(np.unravel_index(np.arange(size), (nmax + 1,) * M)).T
    mat = np.zeros((size, size), dtype=complex if np.iscomplexobj(B) else float)
    mat[np.diag_indices(size)] = H.E0
    for idx, n in enumerate(occ):
        for i in range(M):
            for j in range(M):
                up = int(i != j)
                if H.V[i, j] and n[j] >= 1 and n[i] + up <= nmax:
                    tgt = idx + strides[i] - strides[j]
                    mat[tgt, idx] += H.V[i, j] * (np.sqrt(n[j])
                                                  * np.sqrt(n[i] + up))
                w = B[i, j] / 2
                if w and n[i] + 1 <= nmax and n[j] + 2 - up <= nmax:
                    amp = np.sqrt((n[i] + 1) * (n[j] + 2 - up))
                    tgt = idx + strides[i] + strides[j]
                    mat[tgt, idx] += w * amp
                    mat[idx, tgt] += np.conj(w) * amp
    return mat


def parity_classes(H, nmax):
    """Fock indices of even and of odd total occupation, ascending."""
    occ = np.indices((nmax + 1,) * H.modes).reshape(H.modes, -1)
    parity = occ.sum(axis=0) % 2
    return np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)


def record_solver_inputs(monkeypatch, *names):
    """Patch each named np.linalg solver to record a copy of its matrix."""
    seen = []
    for name in names:
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda m, *rest, solver=solver:
                            seen.append(m.copy()) or solver(m, *rest))
    return seen


def record_banded_solves(monkeypatch):
    """Patch the ground vector's banded solve to record a copy of each
    matrix it gets and the solution it gives, as (matrix, x) pairs."""
    seen, real = [], rpa._banded_solve

    def banded(a, b, w):
        seen.append((a.copy(), real(a, b, w)))
        return seen[-1][1]

    monkeypatch.setattr(rpa, "_banded_solve", banded)
    return seen


REAL3 = QuadraticBosonHamiltonian(0.5, [[2.0, 0.3, 0.0], [0.3, 2.5, 0.1],
                                        [0.0, 0.1, 3.0]],
                                  [[0.1, 0.05, 0.0], [0.05, 0.15, 0.02],
                                   [0.0, 0.02, 0.0]])
CPLX2 = QuadraticBosonHamiltonian(
    0.0, np.array([[2.0, 0.2 + 0.1j], [0.2 - 0.1j, 2.4]]),
    np.array([[0.1, 0.05j], [0.05j, 0.08]]))
DEGENERATE3 = QuadraticBosonHamiltonian(0.0, 2 * np.eye(3), 0.1 * np.ones((3, 3)))


@pytest.mark.parametrize("b_convention", ["sum", "direct"])
def test_fock_matrix_matches_per_state_build(monkeypatch, b_convention):
    # The oracle hands the even block and then the odd block to eigvalsh;
    # put back at their parity indices, they must be the whole reference
    # matrix, zeros between the blocks included.
    built = record_solver_inputs(monkeypatch, "eigh", "eigvalsh")
    for H, nmax in ((REAL3, 4), (CPLX2, 6)):
        built.clear()
        fock_oracle(H, nmax, b_convention=b_convention, boundary_tol=1.0)
        *_, even_block, odd_block = built  # solve_rpa's eigh comes first
        even, odd = parity_classes(H, nmax)
        size = (nmax + 1) ** H.modes
        assembled = np.zeros((size, size), dtype=even_block.dtype)
        assembled[np.ix_(even, even)] = even_block
        assembled[np.ix_(odd, odd)] = odd_block
        assert np.array_equal(assembled, reference_fock_matrix(H, nmax,
                                                               b_convention))


@pytest.mark.parametrize("b_convention", ["sum", "direct"])
@pytest.mark.parametrize("H, nmax", [(REAL3, 4), (CPLX2, 6)])
def test_no_term_couples_the_parity_blocks(H, nmax, b_convention):
    mat = reference_fock_matrix(H, nmax, b_convention)
    even, odd = parity_classes(H, nmax)
    assert np.count_nonzero(mat[np.ix_(even, odd)]) == 0
    assert np.count_nonzero(mat[np.ix_(odd, even)]) == 0
    assert np.count_nonzero(mat[np.ix_(even, even)]) > len(even)  # not diagonal


@pytest.mark.parametrize("b_convention", ["sum", "direct"])
@pytest.mark.parametrize("H, nmax", [(REAL3, 5), (CPLX2, 8), (DEGENERATE3, 6)])
def test_split_eigenvalues_equal_the_unsplit_ones(H, nmax, b_convention):
    split = fock_oracle(H, nmax, b_convention=b_convention, boundary_tol=1.0)
    whole = np.linalg.eigvalsh(reference_fock_matrix(H, nmax, b_convention))
    assert split.shape == whole.shape
    assert np.max(np.abs(split - whole)) <= 1e-12 * max(1.0, np.max(np.abs(whole)))


def test_odd_ground_state_is_the_one_checked(monkeypatch):
    # Near the edge of stability (lowest frequency 8.5e-4) the truncation at
    # nmax 3 puts the odd block's lowest eigenvalue, -0.41897, below the even
    # block's, -0.41802.  The boundary check must then read the odd ground
    # vector, of weight 0.317, and not the even one, of weight 0.338.
    H = QuadraticBosonHamiltonian(0.0, [[4.112, -0.609], [-0.609, 0.101]],
                                  [[1.325, -0.119], [-0.119, 0.003]])
    assert solve_rpa(H).stable
    solved = record_banded_solves(monkeypatch)
    eigs = fock_oracle(H, 3, boundary_tol=0.33)
    reference = reference_fock_matrix(H, 3, "sum")
    _, odd = parity_classes(H, 3)
    # the ground vector's solve gets the odd block shifted by sigma, just
    # below the odd block's lowest eigenvalue, on the diagonal only
    sigma = reference[np.ix_(odd, odd)] - solved[-1][0]
    lowest = np.linalg.eigvalsh(reference[np.ix_(odd, odd)])[0]
    assert len(solved) == 1 and abs(lowest + 0.41897) < 1e-5
    assert np.array_equal(sigma, np.diag(np.diag(sigma)))
    assert np.all((lowest - 1e-9 < np.diag(sigma)) & (np.diag(sigma) < lowest))
    whole = np.linalg.eigvalsh(reference)
    assert np.max(np.abs(eigs - whole)) <= 1e-12 * max(1.0, np.max(np.abs(whole)))
    with pytest.raises(FockCutoffError, match="boundary weight 3.169e-01 "):
        fock_oracle(H, 3, boundary_tol=0.31)


# Near the edge of stability, where nmax 3 puts the odd block lowest (see
# test_odd_ground_state_is_the_one_checked).
EDGE2 = QuadraticBosonHamiltonian(0.0, [[4.112, -0.609], [-0.609, 0.101]],
                                  [[1.325, -0.119], [-0.119, 0.003]])


@pytest.mark.parametrize("b_convention", ["sum", "direct"])
@pytest.mark.parametrize("H, nmax", [(REAL3, 4), (CPLX2, 4), (DEGENERATE3, 4)])
def test_ground_vector_matches_eigh(monkeypatch, H, nmax, b_convention):
    # The banded solve's output, normalized, is eigh's ground column up to
    # phase, and the oracle's boundary weight is eigh's to 1e-12: it refuses
    # a tolerance 1e-12 below that weight and accepts one 1e-12 above.
    solutions = record_banded_solves(monkeypatch)
    reference = reference_fock_matrix(H, nmax, b_convention)
    even, _ = parity_classes(H, nmax)
    vecs = np.linalg.eigh(reference[np.ix_(even, even)])[1]
    occ = np.indices((nmax + 1,) * H.modes).reshape(H.modes, -1)
    boundary = np.any(occ[:, even] >= nmax - 1, axis=0)
    weight = np.sum(np.abs(vecs[boundary, 0]) ** 2)
    assert weight > 1e-8
    fock_oracle(H, nmax, b_convention=b_convention, boundary_tol=weight + 1e-12)
    with pytest.raises(FockCutoffError):
        fock_oracle(H, nmax, b_convention=b_convention,
                    boundary_tol=weight - 1e-12)
    x = solutions[0][1] / np.linalg.norm(solutions[0][1])
    phase = np.vdot(x, vecs[:, 0])
    assert np.max(np.abs(x * phase / abs(phase) - vecs[:, 0])) <= 1e-8


@pytest.mark.parametrize("H, nmax, odd_lowest", [(REAL3, 5, False),
                                                 (CPLX2, 6, False),
                                                 (EDGE2, 3, True)])
def test_no_fock_block_goes_to_eigh(monkeypatch, H, nmax, odd_lowest):
    # eigh sees only solve_rpa's M x M gram matrix; each parity block gets
    # one eigvalsh, and the lowest block, shifted on its diagonal, one
    # banded solve
    eighs = record_solver_inputs(monkeypatch, "eigh")
    blocks = record_solver_inputs(monkeypatch, "eigvalsh")
    solves = record_banded_solves(monkeypatch)
    fock_oracle(H, nmax, boundary_tol=1.0)
    assert [m.shape for m in eighs] == [(H.modes, H.modes)]
    even, odd = parity_classes(H, nmax)
    assert [len(m) for m in blocks] == [len(even), len(odd)]
    assert len(solves) == 1

    def off_diagonal(m):
        return m - np.diag(np.diag(m))

    solved = solves[0][0]
    for parity, block in enumerate(blocks):
        assert (block.shape == solved.shape and np.array_equal(
            off_diagonal(block), off_diagonal(solved))) == (parity == odd_lowest)


def banded_hpd(rng, n, w, dtype):
    """A seeded Hermitian positive definite matrix of side n whose entries
    lie at most w off the diagonal, made so by diagonal dominance."""
    a = rng.standard_normal((n, n))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((n, n))
    rows, cols = np.indices((n, n))
    a = np.where(np.abs(rows - cols) <= w, a + a.conj().T, 0)
    return a + np.eye(n) * (np.abs(a).sum(axis=1).max() + 1.0)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n, w, slab", [
    (10, 3, 3),   # the last slab shorter
    (12, 4, 4),   # whole slabs
    (7, 7, 7),    # one slab
    (5, 9, 9),    # w past the side: one slab
    (9, 1, 1),    # slabs of one row
    (6, 0, 1),    # a diagonal matrix, as _fock_block reports it
    (20, 3, 5),   # slabs wider than the band
])
def test_banded_solve_matches_the_dense_solve(n, w, slab, dtype):
    rng = np.random.default_rng(100 * n + w)
    a = banded_hpd(rng, n, w, dtype)
    b = rng.standard_normal(n)
    if dtype is complex:
        b = b + 1j * rng.standard_normal(n)
    kept = a.copy()
    x = rpa._banded_solve(a, b, slab)
    assert np.array_equal(a, kept)  # the matrix is only read
    expected = np.linalg.solve(a, b)
    assert x.shape == (n,) and x.dtype == expected.dtype
    assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("H, nmax", [(REAL3, 4), (CPLX2, 6), (DEGENERATE3, 4),
                                     (EDGE2, 3)])
@pytest.mark.parametrize("b_convention", ["sum", "direct"])
def test_fock_block_reports_its_half_bandwidth(H, nmax, b_convention):
    occ = np.indices((nmax + 1,) * H.modes).reshape(H.modes, -1)
    wcoeff = rpa._b_matrix(H, b_convention) / 2
    for states in parity_classes(H, nmax):
        block, width = rpa._fock_block(H, wcoeff, occ, nmax, states)
        rows, cols = np.nonzero(block)
        assert width == np.max(np.abs(rows - cols)) > 1


def test_a_diagonal_fock_block_reports_half_bandwidth_one():
    H = QuadraticBosonHamiltonian(0.5, np.diag([1.0, 2.0]), np.zeros((2, 2)))
    occ = np.indices((4, 4)).reshape(2, -1)
    for states in parity_classes(H, 3):
        block, width = rpa._fock_block(H, H.W, occ, 3, states)
        assert np.array_equal(block, np.diag(np.diag(block))) and width == 1
    levels = np.sort([0.5 + n1 + 2.0 * n2 for n1 in range(4) for n2 in range(4)])
    assert np.max(np.abs(fock_oracle(H, 3) - levels)) <= 1e-12


def test_a_wrong_ground_vector_is_refused(monkeypatch):
    # a solve that hands back its start vector leaves a large residual
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: b)
    with pytest.raises(RpaError, match="Fock ground vector has residual"):
        fock_oracle(REAL3, 4)


def test_the_start_vector_meets_an_antisymmetric_ground_state(monkeypatch):
    # Two equal modes, hopping 0.5, no pairing.  With the odd block lowered
    # by 10 in place, its ground state is (|1,0> - |0,1>)/sqrt(2), which a
    # start vector symmetric under the swap of the modes would miss.
    H = QuadraticBosonHamiltonian(0.0, [[2.0, 0.5], [0.5, 2.0]], np.zeros((2, 2)))
    real_eigvalsh, calls = np.linalg.eigvalsh, []

    def eigvalsh(a):  # the even block comes first, the odd one second
        calls.append(None)
        if len(calls) == 2:
            a.reshape(-1)[::len(a) + 1] -= 10.0
        return real_eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    assert abs(fock_oracle(H, 3)[0] + 8.5) < 1e-12


def test_a_zero_ground_block_gets_its_vector():
    # one mode at nmax 1: the even block is [[E0]] = [[0]], so only the
    # whole matrix's spectral radius, 2, keeps sigma off its eigenvalue
    eigs = fock_oracle(one_mode(2.0, 0.1), 1, boundary_tol=1.0)
    assert np.array_equal(eigs, [0.0, 2.0])


@pytest.mark.parametrize("H, nmax", [(REAL3, 6), (CPLX2, 8), (EDGE2, 3)])
def test_fock_eigenvalues_repeat_to_the_bit(H, nmax):
    first = fock_oracle(H, nmax, boundary_tol=1.0)
    assert np.array_equal(first, fock_oracle(H, nmax, boundary_tol=1.0))


def test_fock_cutoff_flag():
    H = one_mode(2.0, 0.9)  # stable but strongly correlated
    assert solve_rpa(H).stable
    with pytest.raises(FockCutoffError):
        fock_oracle(H, nmax=3)
    fock_oracle(H, nmax=40)  # converged cutoff passes the boundary check


def test_fock_rejects_unstable_and_bad_cutoff():
    with pytest.raises(ValueError):
        fock_oracle(one_mode(1.0, 1.0), nmax=10)
    with pytest.raises(ValueError):
        fock_oracle(one_mode(2.0, 0.1), nmax=0)


def test_direct_convention_consistency():
    Hs = one_mode(2.0, 0.5)
    Hd = one_mode(2.0, 1.0)
    a = solve_rpa(Hs, b_convention="sum")
    b = solve_rpa(Hd, b_convention="direct")
    assert np.allclose(a.frequencies, b.frequencies, atol=1e-12)
    ea = fock_oracle(Hs, 40, b_convention="sum", k_lowest=3)
    eb = fock_oracle(Hd, 40, b_convention="direct", k_lowest=3)
    assert np.allclose(ea, eb, atol=1e-10)
    with pytest.raises(ValueError):
        solve_rpa(Hs, b_convention="mixed")
