"""Exact references that only the tests use.

* Lanczos diagonalization of short transverse-field Ising chains, the
  brute-force cross-check of the ``bondsim.tfim`` oracles;
* the unitarity and Ising-flip covariance residuals of a layout unitary;
* exact tomograms: one probability vector per measurement setting, built
  from the exact marginals and pair products of the tomography circuits,
  and the package's one estimator route from a tomogram to (rho, S);
* the infinite-shot, leak-post-selected, zero-noise-extrapolated energy of
  a point, the referee of the sampled noisy energy rows;
* the noisy engine's rules applied one native op at a time, to a dict of
  branches, with no fusion, no matrix power and no leak-register stack;
* the optimizer objective's arithmetic spelled term by term (np.kron
  transfer matrix, loop-summed generator, tensordot embedding, one matrix
  product per Kraus operator), which the package must match bit for bit;
* the tiled layout's U and gradient prefixes composed in two passes over
  the gate list, as they were before one pass built both.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import expm

from bondsim import estimation
from bondsim.ansatz import ansatz_gate_sequence, canonical_gauge
from bondsim.circuits import (build_state_prep_circuit, compile_circuit,
                              tomography_settings)
from bondsim.gates import (PAULI, X, Z, embed, kron_all, native_gate,
                           pauli_strings, rx)
from bondsim.mps import entanglement_entropy, project_fixed_point
from bondsim.noise import depolarize, fold_circuit, zne_extrapolate
from bondsim.simulator import _evolve, simulate_exact
from bondsim.sweeps import prepare_point
from bondsim.tfim import OracleResult, TFIMParams

# ---------------------------------------------------------------------------
# short-chain diagonalization


def _site_product(n: int, ops: dict) -> sp.csr_matrix:
    """Kronecker product over n sites of ops[site] (identity elsewhere)."""
    out = sp.identity(1, format="csr")
    for j in range(n):
        out = sp.kron(out, sp.csr_matrix(ops.get(j, np.eye(2))), format="csr")
    return out


def _tfim_sparse(n: int, lam: float, periodic: bool) -> sp.csr_matrix:
    h = sp.csr_matrix((2 ** n, 2 ** n))
    for j in range(n):
        h = h - lam * _site_product(n, {j: X.real})
    for j in range(n if periodic else n - 1):
        h = h - _site_product(n, {j: Z.real, (j + 1) % n: Z.real})
    return h


def _flip_operator(n: int) -> sp.csr_matrix:
    return _site_product(n, {j: X.real for j in range(n)})


def exact_diag(params: TFIMParams, n_sites: int,
               boundary: str = "periodic") -> OracleResult:
    """Ground-state energy per site (periodic) or per bond (open) and
    half-chain entropy by Lanczos diagonalization."""
    if not 2 <= n_sites <= 14:
        raise ValueError("n_sites must be in [2, 14]")
    if boundary not in ("open", "periodic"):
        raise ValueError("boundary must be 'open' or 'periodic'")
    h = _tfim_sparse(n_sites, params.lam, boundary == "periodic")

    if n_sites <= 4:
        w, v = np.linalg.eigh(h.toarray())
    else:
        w, v = spla.eigsh(h, k=2, which="SA")
        order = np.argsort(w)
        w, v = w[order], v[:, order]

    gap = w[1] - w[0]
    if gap < 1e-8:
        # Quasi-degenerate ordered phase: resolve the ground space with the
        # global spin flip and take its +1 (symmetric, cat-like) eigenstate.
        flip = _flip_operator(n_sites)
        block = v[:, :2].conj().T @ (flip @ v[:, :2])
        bw, bv = np.linalg.eigh((block + block.conj().T) / 2)
        psi = v[:, :2] @ bv[:, np.argmax(bw)]
    else:
        psi = v[:, 0]
    psi = psi / np.linalg.norm(psi)

    denom = n_sites if boundary == "periodic" else n_sites - 1
    half = n_sites // 2
    svals = np.linalg.svd(psi.reshape(2 ** half, 2 ** (n_sites - half)),
                          compute_uv=False)
    probs = svals ** 2
    ent = entanglement_entropy(np.diag(probs / probs.sum())).entropy_bits
    return OracleResult(energy_density=float(w[0]) / denom, entropy_bits=ent,
                        method="exact_diag", convergence_estimate=max(gap, 0.0))


# ---------------------------------------------------------------------------
# layout residuals


def unitarity_error(u: np.ndarray) -> float:
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))


def flip_covariance_error(u: np.ndarray, n_b: int) -> float:
    """Residual of the Ising-flip covariance condition for a layout unitary."""
    left = kron_all(X, *([X] * n_b))
    right = kron_all(Z, *([X] * n_b))
    return float(np.linalg.norm(left @ u @ right.conj().T - u))


# ---------------------------------------------------------------------------
# exact tomography


def exact_tomogram(params, j: int, restricted: bool = False):
    """The tomogram of infinitely many shots: for each setting of the gauged
    tomography circuits, p(s) = 2^-n sum_A prod_{k in A} s_k <prod_{k in A} b_k>
    over the subsets A of bond wires, from ``simulate_exact``."""
    n_b = params.n_b
    prep = prepare_point(params, 1e-6)[4]
    frame = None
    if n_b == 2:
        _, _, angles = canonical_gauge(params.tensor())
        frame = [(rx(a), (1 + k,)) for k, a in enumerate(angles)]
    # s_k = +1 for bit 0, wire 1 the most significant bit
    signs = 1 - 2 * (np.arange(2 ** n_b)[:, None]
                     >> np.arange(n_b - 1, -1, -1) & 1)
    settings = {}
    for setting in tomography_settings(n_b, restricted):
        c = build_state_prep_circuit(params, prep, j, purpose="tomography",
                                     setting=setting, bond_frame=frame)
        res = simulate_exact(c)
        labels = [f"b{1 + k}:{b}" for k, b in enumerate(setting)]
        p = np.full(2 ** n_b, 1.0)
        for size in (1, 2):
            for sub in itertools.combinations(range(n_b), size):
                value = (res.marginals[labels[sub[0]]] if size == 1 else
                         res.pair_products[tuple(labels[k] for k in sub)])
                p = p + value * signs[:, list(sub)].prod(axis=1)
        settings[tuple(setting)] = p / 2 ** n_b
    return estimation.Tomogram(settings=settings, shots_per_setting=None)


def tomography_state(tomo, restricted: bool = False) -> tuple:
    """(rho, S in bits) through the estimator route of ``entropy_with_ci``,
    looked up in ``bondsim.estimation`` at call time."""
    rho = estimation.rho_from_coefficients(
        estimation.pauli_coefficients(tomo, restricted), tomo.n_b)
    return rho, float(estimation.projected_entropy(rho))


def exact_mitigated_energy(params, noise, burn_in_tol: float = 1e-4) -> float:
    """The energy row's mitigated e at infinitely many shots: <X> and <Z Z>
    of the compiled energy circuit and of its folded copy, each from the
    exact distribution conditioned on a clean leak check, extrapolated to
    zero noise with ``zne_extrapolate``."""
    prep, j = prepare_point(params, burn_in_tol)[4:]
    base = compile_circuit(build_state_prep_circuit(params, prep, j))
    means = []
    for circuit in (base, fold_circuit(base)):
        dist = _evolve(circuit, noise)
        col = dict(zip(dist.labels, dist.outcomes.T))
        lx, lz1, lz2 = estimation._energy_labels(dist.labels)
        kept = dist.probs * (col["leak"] == 1)
        kept = kept / kept.sum()
        means.append((kept @ col[lx], kept @ (col[lz1] * col[lz2])))
    (x, zz), (x_f, zz_f) = means
    return float(-(zne_extrapolate(zz, zz_f)
                   + params.lam * zne_extrapolate(x, x_f)))


# ---------------------------------------------------------------------------
# the noisy engine, op by op


def op_by_op_distribution(circuit, noise) -> tuple:
    """({(outcomes, ever leaked): probability}, bond state at the leak check)
    of a compiled circuit.  Each branch is keyed (outcomes, ever leaked,
    bitmask of the wires leaked now); every native rotation is applied with
    its own p1 depolarizing to the branches where its wire is not leaked."""
    n = circuit.n_wires
    branches = {((), False, 0): np.zeros((2 ** n,) * 2, dtype=complex)}
    branches[(), False, 0][0, 0] = 1.0
    snapshot = None

    def add(out, key, rho):
        out[key] = out.get(key, 0) + rho

    def leaked(mask, w):
        return mask >> w & 1

    def spectator(eps):
        for (outs, ever, mask), rho in branches.items():
            for b in range(1, n):
                if not leaked(mask, b):
                    rho = depolarize(rho, (b,), eps, n)
            branches[outs, ever, mask] = rho

    def native(name, wires, angle):
        nonlocal branches
        u = embed(native_gate(name, angle), wires, n)
        out = {}
        for (outs, ever, mask), rho in branches.items():
            held = [leaked(mask, w) for w in wires]
            if not any(held):
                p = noise.p2 if name == "uzz" else noise.p1
                rho = depolarize(u @ rho @ u.conj().T, wires, p, n)
            elif name == "uzz" and sum(held) == 1:
                rho = depolarize(rho, (wires[held.index(0)],), 1.0, n)
            keys = [((outs, ever, mask), rho)]
            if name == "uzz" and noise.p_leak > 0.0:
                for w in wires:
                    keys = [kr for (o, e, m), r in keys for kr in (
                        ((o, e, m), (1 - noise.p_leak) * r),
                        ((o, True, m | 1 << w), noise.p_leak * r))]
            for key, r in keys:
                add(out, key, r)
        branches = out

    for op in circuit.ops:
        w = op.wires[0]
        if op.kind == "gate":
            for name, wires, angle in op.fragment.ops:
                native(name, tuple(wires), angle)
        elif op.kind == "reset":
            ks = [embed(k, (w,), n) for k in (np.array([[1, 0], [0, 0]]),
                                              np.array([[0, 1], [0, 0]]))]
            out = {}
            for (outs, ever, mask), rho in branches.items():
                add(out, (outs, ever, mask & ~(1 << w)),
                    sum(k @ rho @ k.conj().T for k in ks))
            branches = out
            if w == 0:
                spectator(noise.eps_reset)
        elif op.kind == "measure":
            pauli = embed(PAULI[op.basis], (w,), n)
            out = {}
            for (outs, ever, mask), rho in branches.items():
                parts = [(np.eye(2 ** n) + s * pauli) / 2 for s in (1, -1)]
                parts = [q @ rho @ q for q in parts]
                if leaked(mask, w):
                    parts = [(parts[0] + parts[1]) / 2] * 2
                for s, r in zip((1, -1), parts):
                    add(out, (outs + (s,), ever, mask), r)
            branches = out
            if w == 0:
                spectator(noise.eps_meas)
        else:
            total = sum(branches.values())
            snapshot = np.trace(total.reshape((2, 2 ** (n - 1)) * 2),
                                axis1=0, axis2=2)
            branches = {(outs + (-1 if ever else 1,), ever, mask): rho
                        for (outs, ever, mask), rho in branches.items()}
    probs: dict = {}
    for (outs, ever, _), rho in branches.items():
        probs[outs, ever] = probs.get((outs, ever), 0.0) + np.trace(rho).real
    return probs, snapshot


# ---------------------------------------------------------------------------
# the optimizer objective, term by term


def kron_transfer(k0: np.ndarray, k1: np.ndarray) -> np.ndarray:
    return np.kron(k0, k0.conj()) + np.kron(k1, k1.conj())


def loop_full_unitary(coeffs: np.ndarray, n_b: int) -> np.ndarray:
    """exp(i sum c_k P_k), the generator summed one term at a time."""
    gen = np.zeros((2 ** (1 + n_b),) * 2, dtype=complex)
    for c, p in zip(np.asarray(coeffs, dtype=float), pauli_strings(1 + n_b)[1:]):
        gen = gen + c * p
    return expm(1j * gen)


def tensordot_embed(gate: np.ndarray, wires: tuple, n_wires: int) -> np.ndarray:
    """A gate on `wires` as its tensor contraction with the register's
    identity."""
    n_g = len(wires)
    full = np.eye(2 ** n_wires, dtype=complex).reshape((2,) * (2 * n_wires))
    res = np.tensordot(gate.reshape((2,) * (2 * n_g)), full,
                       axes=(list(range(n_g, 2 * n_g)), list(wires)))
    return np.moveaxis(res, range(n_g), wires).reshape(2 ** n_wires, -1)


def tensordot_ansatz_unitary(angles: np.ndarray, n_b: int) -> np.ndarray:
    """build_ansatz_unitary's grouping, each gate placed by tensordot_embed."""
    n_wires = 1 + n_b
    u = dress = np.eye(2 ** n_wires, dtype=complex)
    for gate, wires in ansatz_gate_sequence(angles, n_b):
        if len(wires) == 1:
            dress = tensordot_embed(gate, wires, n_wires) @ dress
        else:
            u = tensordot_embed(gate, wires, n_wires) @ (dress @ u)
            dress = np.eye(2 ** n_wires, dtype=complex)
    return u


def two_pass_ansatz_products(angles: np.ndarray, n_b: int) -> tuple:
    """(U, prefixes): U in build_ansatz_unitary's grouping, each layer's Rx
    dressing multiplied out first, then the prefixes E_m ... E_1 from a
    second pass that builds and embeds every gate again."""
    n_wires = 1 + n_b
    u = dress = np.eye(2 ** n_wires, dtype=complex)
    for gate, wires in ansatz_gate_sequence(angles, n_b):
        if len(wires) == 1:
            dress = embed(gate, wires, n_wires) @ dress
        else:
            u = embed(gate, wires, n_wires) @ (dress @ u)
            dress = np.eye(2 ** n_wires, dtype=complex)
    prefix = []
    p = np.eye(2 ** n_wires, dtype=complex)
    for gate, wires in ansatz_gate_sequence(angles, n_b):
        p = embed(gate, wires, n_wires) @ p
        prefix.append(p)
    return u, np.stack(prefix)


def pairwise_ising_terms(kraus, rho: np.ndarray) -> tuple:
    """(<X>, <Z Z>) with one matrix product per Kraus operator."""
    k0, k1 = kraus
    ex = 2 * np.trace(k1 @ rho @ k0.conj().T).real
    mid = k0 @ rho @ k0.conj().T - k1 @ rho @ k1.conj().T
    ezz = (np.trace(k0 @ mid @ k0.conj().T)
           - np.trace(k1 @ mid @ k1.conj().T)).real
    return ex, ezz


def termwise_energy(tensor, lam: float) -> float:
    """tensor_energy from kron_transfer and pairwise_ising_terms."""
    v = tensor.data
    kraus = (v[0].T, v[1].T)
    w, r = np.linalg.eig(kron_transfer(*kraus))
    rho = project_fixed_point(w, r, np.eye(tensor.chi) / tensor.chi)
    ex, ezz = pairwise_ising_terms(kraus, rho)
    return -(ezz + lam * ex)
