"""Native-gate compilation: Cartan decomposition and the <=3 interaction
synthesis for arbitrary two-qubit unitaries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.stats import unitary_group

from bondsim.ansatz import gxy_gate
from bondsim.gates import (CZ, H, I2, UZZ, X, Y, Z, embed,
                           global_phase_distance, kron_all, rx, ry, rz)
from bondsim.kak import (NativeCircuitFragment, compile_one_qubit,
                         compile_two_qubit, decompose_to_native, euler_zyz,
                         kak_decompose)

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                dtype=complex)
ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]],
                 dtype=complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                dtype=complex)


def fragment_error(frag, target, wires=None, n_wires=None):
    if wires is None:
        return np.linalg.norm(frag.matrix() - target)
    return np.linalg.norm(frag.matrix() - embed(target, wires, n_wires))


def test_euler_zyz_generic():
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = unitary_group.rvs(2, random_state=rng)
        phase, a, b, c = euler_zyz(u)
        rebuilt = phase * (rz(a) @ ry(b) @ rz(c))
        assert np.linalg.norm(rebuilt - u) < 1e-12


def test_kak_decompose_reconstructs():
    rng = np.random.default_rng(1)
    for _ in range(25):
        u = unitary_group.rvs(4, random_state=rng)
        phase, g1, g2, (a, b, c), g3, g4 = kak_decompose(u)
        xx = kron_all(X, X)
        yy = kron_all(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))
        zz = kron_all(Z, Z)
        from scipy.linalg import expm
        core = expm(1j * (a * xx + b * yy + c * zz))
        rebuilt = phase * kron_all(g1, g2) @ core @ kron_all(g3, g4)
        assert np.linalg.norm(rebuilt - u) < 1e-9
        # whole multiples of pi/2 are folded into the local gates
        assert max(abs(a), abs(b), abs(c)) <= np.pi / 4


def test_one_qubit_compilation():
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = unitary_group.rvs(2, random_state=rng)
        frag = compile_one_qubit(u, 0, 1)
        assert fragment_error(frag, u) < 1e-12
        assert frag.uzz_count == 0


@pytest.mark.parametrize("gate,count", [
    (np.eye(4, dtype=complex), 0),
    (kron_all(rx(0.3), rz(-1.1)), 0),
    (UZZ, 1),
    (CZ, 1),
    (CNOT, 1),
    (SWAP, 3),
    (ISWAP, 3),
])
def test_structured_gates_use_minimal_interactions(gate, count):
    frag = compile_two_qubit(gate, (0, 1), 2)
    assert fragment_error(frag, gate) < 1e-10
    assert frag.uzz_count == count


def test_zz_coupling_interaction_classes():
    from scipy.linalg import expm
    zz = kron_all(Z, Z)
    # quarter turn: single native interaction up to frames
    u = expm(1j * np.pi / 4 * zz)
    assert compile_two_qubit(u, (0, 1), 2).uzz_count == 1
    # half turn: local (Z x Z is rz(pi) x rz(pi) up to phase)
    u = expm(1j * np.pi / 2 * zz)
    assert compile_two_qubit(u, (0, 1), 2).uzz_count == 0
    # generic angle: three interactions
    u = expm(1j * 0.2 * zz)
    frag = compile_two_qubit(u, (0, 1), 2)
    assert frag.uzz_count == 3
    assert fragment_error(frag, u) < 1e-10


def test_random_two_qubit_compilation():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(60):
        u = unitary_group.rvs(4, random_state=rng)
        frag = compile_two_qubit(u, (0, 1), 2)
        worst = max(worst, fragment_error(frag, u))
        assert frag.uzz_count <= 3
    assert worst < 1e-10


def test_layout_tiles_compile_cleanly():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a, b = rng.uniform(-np.pi, np.pi, 2)
        # the gxy tile, and the same tile in an Ry(pi/2) frame on wire 0
        f = np.kron(ry(np.pi / 2), np.eye(2))
        for gate in (gxy_gate(a, b), f.conj().T @ gxy_gate(a, b) @ f):
            frag = compile_two_qubit(gate, (0, 1), 2)
            assert fragment_error(frag, gate) < 1e-10
            assert frag.uzz_count <= 3


def test_compilation_on_embedded_wires():
    rng = np.random.default_rng(5)
    u = unitary_group.rvs(4, random_state=rng)
    for wires in [(0, 1), (1, 2), (0, 2), (2, 0)]:
        frag = decompose_to_native(u, wires, 3)
        assert frag.n_wires == 3
        assert fragment_error(frag, u, wires, 3) < 1e-10


def test_decompose_dispatcher():
    rng = np.random.default_rng(6)
    u2 = unitary_group.rvs(2, random_state=rng)
    frag = decompose_to_native(u2, (1,), 3)
    assert fragment_error(frag, u2, (1,), 3) < 1e-12
    with pytest.raises(ValueError):
        decompose_to_native(np.eye(8, dtype=complex), (0, 1, 2), 3)


def test_fragment_matrix_only_native_ops():
    rng = np.random.default_rng(7)
    u = unitary_group.rvs(4, random_state=rng)
    frag = compile_two_qubit(u, (0, 1), 2)
    for kind, wires, angle in frag.ops:
        assert kind in ("rx", "ry", "rz", "uzz")
        if kind == "uzz":
            assert angle is None and len(wires) == 2
        else:
            assert isinstance(angle, float) and len(wires) == 1


def dressed_interaction(a, b, c, rng):
    """exp(i (a XX + b YY + c ZZ)) between Haar-random local gates."""
    core = expm(1j * (a * kron_all(X, X) + b * kron_all(Y, Y)
                      + c * kron_all(Z, Z)))
    left, right = (kron_all(*unitary_group.rvs(2, size=2, random_state=rng))
                   for _ in range(2))
    return left @ core @ right


@pytest.mark.parametrize("coords", [
    (np.pi / 4, np.pi / 4, np.pi / 4),
    (np.pi / 8, np.pi / 8, 0.0),
    (np.pi / 4, np.pi / 8, 0.0),
    (0.3, 0.0, 0.3),
    (np.pi / 4 - 1e-9, 0.0, 0.0),  # just off the one-U_zz class
    (0.0, 0.7, -0.4),              # the class of the chi=4 GXY tiles
])
def test_three_uzz_core_at_weyl_points(coords):
    """The generic fragment reproduces the gate, global phase included
    (folding and the engine rely on it), with three U_zz."""
    rng = np.random.default_rng(8)
    for _ in range(5):
        gate = dressed_interaction(*coords, rng)
        frag = compile_two_qubit(gate, (0, 1), 2)
        assert fragment_error(frag, gate) < 1e-10
        assert frag.uzz_count == 3


QUARTER = np.pi / 4


def _off_quarter_turns(t: float) -> bool:
    return abs(t / QUARTER - round(t / QUARTER)) > 1e-6


# A coordinate is a multiple of pi/4 or at least 1e-6 * pi/4 away from one.
_coordinate = st.one_of(
    st.integers(-4, 4).map(lambda k: k * QUARTER),
    st.floats(-np.pi, np.pi).filter(_off_quarter_turns))


@settings(max_examples=60, deadline=None)
@given(st.tuples(_coordinate, _coordinate, _coordinate),
       st.integers(0, 2**32 - 1))
def test_fragment_exact_and_uzz_count_follows_the_class(coords, seed):
    """Tensor products take 0 U_zz, the controlled-phase class (one
    coordinate an odd multiple of pi/4, the others multiples of pi/2) 1, and
    everything else 3."""
    gate = dressed_interaction(*coords, np.random.default_rng(seed))
    frag = compile_two_qubit(gate, (0, 1), 2)
    assert fragment_error(frag, gate) < 1e-10
    turns = [round(t / QUARTER) for t in coords if not _off_quarter_turns(t)]
    local = sum(1 for k in turns if k % 2 == 0)
    half = sum(1 for k in turns if k % 2 == 1)
    expected = 0 if local == 3 else 1 if (local, half) == (2, 1) else 3
    assert frag.uzz_count == expected
