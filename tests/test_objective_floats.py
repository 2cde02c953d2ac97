"""The optimizer objective returns the same floats as its term-by-term
reference in references.py: the transfer matrix, the generator, the tile
embedding and the <X>/<ZZ> contraction are each spelled for speed, and none
of them may change a bit of the optimizer's path."""

import itertools

import numpy as np
import pytest

from bondsim import ansatz, mps
from bondsim.ansatz import (AnsatzParams, OptimizerConfig, ansatz_num_params,
                            build_ansatz_unitary, build_full_unitary,
                            extract_isometry, full_unitary_num_params,
                            tensor_energy, variational_optimize)
from bondsim.circuits import BASIS_ROTATION
from bondsim.gates import CZ, H, UZZ, Y, embed, rx, ry, rz
from bondsim.sweeps import _bundled_table
from references import (kron_transfer, loop_full_unitary,
                        pairwise_ising_terms, tensordot_ansatz_unitary,
                        tensordot_embed, termwise_energy)

LAMS = (0.0, 0.5, 1.0, 1.7, 100.0)
LAYOUTS = {"full_unitary": (build_full_unitary, loop_full_unitary,
                            full_unitary_num_params),
           "ansatz": (build_ansatz_unitary, tensordot_ansatz_unitary,
                      ansatz_num_params)}


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal values, and equal signs on the zeros."""
    return (a.dtype == b.dtype and np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


@pytest.mark.parametrize("n_b, mode", [(1, "full_unitary"), (2, "ansatz"),
                                       (1, "ansatz"), (2, "full_unitary")])
def test_objective_matches_termwise_reference(n_b, mode):
    build, reference, num_params = LAYOUTS[mode]
    rng = np.random.default_rng(17 + n_b)
    for scale in np.repeat([0.3, 1.2, 3.0], 20):
        x = rng.normal(scale=scale, size=num_params(n_b))
        u = build(x, n_b)
        assert np.array_equal(u, reference(x, n_b))
        tensor = extract_isometry(u, n_b)
        k = tensor.data.transpose(0, 2, 1)
        assert np.array_equal(mps.transfer_matrix(k), kron_transfer(*k))
        rho = mps.steady_state(tensor)
        assert mps.ising_terms(k, rho) == pairwise_ising_terms(tuple(k), rho)
        for lam in LAMS:
            assert tensor_energy(tensor, lam) == termwise_energy(tensor, lam)


def test_bundled_energies_reproduce_bit_for_bit():
    for entry in _bundled_table().values():
        params = AnsatzParams.from_json(entry)
        if params.mode == "ansatz":
            assert np.array_equal(
                params.unitary(),
                tensordot_ansatz_unitary(np.array(params.angles), params.n_b))
        tensor = params.tensor()
        assert tensor_energy(tensor, params.lam) == params.energy \
            == termwise_energy(tensor, params.lam)


def test_embed_places_the_tensordot_floats():
    """On the registers the package uses, embed gives the floats of the
    tensor contraction with the identity, signs of zeros included."""
    rng = np.random.default_rng(3)
    singles = [Y, H, BASIS_ROTATION["Y"], rng.normal(size=(2, 2))]
    pairs = [CZ, UZZ, ansatz.gxy_gate(*rng.normal(size=2))]
    for theta in np.concatenate([rng.normal(scale=4.0, size=30),
                                 [0.0, np.pi, -np.pi]]):
        singles += [rx(theta), ry(theta), rz(theta)]
    for size, gates in ((2, singles), (4, pairs)):
        for _ in range(20):
            g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            g.real[rng.random(g.shape) < 0.3] = -0.0
            g.imag[rng.random(g.shape) < 0.3] = -0.0
            gates.append(g)
    for n_wires in (2, 3):
        for gates, k in ((singles, 1), (pairs, 2)):
            for wires in itertools.permutations(range(n_wires), k):
                for g in gates:
                    assert _bitwise_equal(embed(g, wires, n_wires),
                                          tensordot_embed(g, wires, n_wires))


@pytest.mark.parametrize("mode", ["full_unitary", "ansatz"])
def test_optimizer_path_matches_termwise_reference(monkeypatch, mode):
    cfg = OptimizerConfig(restarts=1, maxiter=2)
    params, energy = variational_optimize(1.3, 1, mode, cfg)
    build, reference, _ = LAYOUTS[mode]
    monkeypatch.setattr(ansatz, build.__name__, reference)
    monkeypatch.setattr(ansatz, "tensor_energy", termwise_energy)
    slow_params, slow_energy = variational_optimize(1.3, 1, mode, cfg)
    assert params.angles == slow_params.angles and energy == slow_energy
