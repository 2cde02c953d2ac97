import numpy as np
import pytest
from hypothesis import given, strategies as st

from bondsim.gates import (CZ, H, I2, PAULI, UZZ, X, Y, Z, embed,
                           global_phase_distance, kron_all, pauli_strings,
                           rot, rx, ry, rz)
from references import unitarity_error

ANGLES = st.floats(-10.0, 10.0, allow_nan=False)


def test_pauli_algebra():
    assert np.allclose(X @ X, I2)
    assert np.allclose(Y @ Y, I2)
    assert np.allclose(Z @ Z, I2)
    assert np.allclose(X @ Y, 1j * Z)
    assert np.allclose(H @ X @ H, Z)


def test_uzz_is_zz_quarter_turn():
    zz = np.kron(Z, Z)
    w, u = np.linalg.eigh(zz)
    expected = (u * np.exp(1j * np.pi / 4 * w)) @ u.conj().T
    assert np.allclose(UZZ, expected)
    # fourth power is -identity (pi full turn of ZZ)
    assert np.allclose(np.linalg.matrix_power(UZZ, 4), -np.eye(4))


@given(ANGLES, st.sampled_from("xyz"))
def test_rotations_unitary_and_periodic(theta, axis):
    u = rot(axis, theta)
    assert unitarity_error(u) < 1e-12
    # 4pi periodic, 2pi antiperiodic (half-angle convention)
    assert np.allclose(rot(axis, theta + 4 * np.pi), u, atol=1e-9)
    assert np.allclose(rot(axis, theta + 2 * np.pi), -u, atol=1e-9)


def test_rotation_generators():
    assert np.allclose(rx(np.pi), -1j * X)
    assert np.allclose(ry(np.pi), -1j * Y)
    assert np.allclose(rz(np.pi), -1j * Z)


def test_embed_matches_kron_layout():
    g = rx(0.7)
    assert np.allclose(embed(g, (0,), 2), np.kron(g, I2))
    assert np.allclose(embed(g, (1,), 2), np.kron(I2, g))
    assert np.allclose(embed(CZ, (0, 1), 2), CZ)
    # swapped wire order transposes the gate's qubit roles
    asym = np.kron(rz(0.3), rx(1.1))
    emb = embed(asym, (1, 0), 2)
    assert np.allclose(emb, np.kron(rx(1.1), rz(0.3)))


def test_embed_three_wires():
    g = UZZ
    full = embed(g, (0, 2), 3)
    # diagonal gate: check a couple of basis phases directly
    # |000>: z0=+1, z2=+1 -> phase e^{i pi/4}
    assert np.isclose(full[0, 0], np.exp(1j * np.pi / 4))
    # |001>: z0=+1, z2=-1 -> e^{-i pi/4}
    assert np.isclose(full[1, 1], np.exp(-1j * np.pi / 4))
    assert unitarity_error(full) < 1e-12


def test_embed_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        embed(np.eye(2), (0, 1), 2)


def test_global_phase_distance():
    u = kron_all(rx(0.3), rz(-1.2))
    assert global_phase_distance(u, np.exp(0.77j) * u) < 1e-12
    assert global_phase_distance(u, np.kron(I2, I2)) > 0.1


def test_pauli_table_complete():
    assert set(PAULI) == {"I", "X", "Y", "Z"}
    for m in PAULI.values():
        assert unitarity_error(m) < 1e-15
    # the stacked strings: product("IXYZ") order, wire 0 first, cached
    strings = pauli_strings(2)
    assert strings.shape == (16, 4, 4)
    for i, a in enumerate("IXYZ"):
        for j, b in enumerate("IXYZ"):
            assert np.array_equal(strings[4 * i + j], np.kron(PAULI[a], PAULI[b]))
    assert pauli_strings(2) is strings and not strings.flags.writeable
    assert np.array_equal(pauli_strings(1), np.stack([I2, X, Y, Z]))
