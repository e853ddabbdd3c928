"""Normal-mode solver and Fock-space oracle for quadratic boson Hamiltonians."""

import numpy as np
import pytest

from capelli.rpa import (FockCutoffError, QuadraticBosonHamiltonian,
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


@pytest.mark.parametrize("b_convention", ["sum", "direct"])
def test_fock_matrix_matches_per_state_build(monkeypatch, b_convention):
    real = QuadraticBosonHamiltonian(0.5, [[2.0, 0.3, 0.0], [0.3, 2.5, 0.1],
                                           [0.0, 0.1, 3.0]],
                                     [[0.1, 0.05, 0.0], [0.05, 0.15, 0.02],
                                      [0.0, 0.02, 0.0]])
    cplx = QuadraticBosonHamiltonian(
        0.0, np.array([[2.0, 0.2 + 0.1j], [0.2 - 0.1j, 2.4]]),
        np.array([[0.1, 0.05j], [0.05j, 0.08]]))
    built = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda m: built.append(m.copy()) or eigh(m))
    for H, nmax in ((real, 4), (cplx, 6)):
        fock_oracle(H, nmax, b_convention=b_convention, boundary_tol=1.0)
        assert np.array_equal(built[-1], reference_fock_matrix(H, nmax,
                                                               b_convention))


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
