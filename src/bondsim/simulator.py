"""Exact simulation of MCMR state-preparation circuits, and shots drawn from it.

One engine, `_evolve`, computes the exact joint distribution of a circuit's
labelled outcomes and its leak flag.  Its state is a stack of density
matrices indexed by the labelled outcomes recorded so far and by a classical
leak register: a current-leak flag per wire plus one "ever leaked" bit.
A gate op runs as its native fragment whenever it carries one (a noisy run
compiles the circuit first), so a compiled or folded circuit is simulated as
compiled even without noise; a bare gate op applies its unitary.
Every noise rule is a CPTP map, or an instrument on that register:

* each U_zz leaks each of its wires with probability p_leak, which sets the
  wire's flag and the ever bit;
* rotations, U_zz and their p1/p2 depolarizing skip leaked wires, and a U_zz
  with exactly one leaked wire fully depolarizes its clean partner;
* measuring a leaked wire dephases it and records +-1 with probability 1/2;
* reset clears the wire's flag but not the ever bit;
* each measurement or reset of the system qubit depolarizes every unleaked
  bond wire (eps_meas, eps_reset);
* leak_check records the ever bit (-1 = leaked).

The burn-in is one matrix power.  Just after a reset of the system wire the
state is |0><0| there times a bond density matrix in each register state
whose system flag is clear: the carrier, 16 or 80 numbers at chi=4 without
or with leakage.  The leading run of repeated [reset(0); gates] iterations
(all of a tomography circuit's; an energy circuit's up to its first
measurement) maps the carrier linearly, so after the run's first reset
_evolve applies the matrix of one iteration, raised to the count minus one,
and goes on op by op.  A circuit says "block x j": the circuit builder,
compile_circuit and fold_circuit share one set of op objects across the
iterations, so _find_run finds the run by identity.  The matrix is built
by running the carrier basis through the same steps, and the last two are
memoized by content, so every tomography setting of a point, a circuit of
its own, reuses its base and folded burn-in.

The state carries its support, the register states that can hold weight:
state 0 at the start, the filled states of a carrier push or a power step,
moved along the nonzero pattern of each leak or reset.  Steps act on each
register state on its own, so skipping the rest, exact zeros, changes no
float.  A carrier basis vector that starts leaked reaches only the states
whose leak mask contains its own: the ever bit and bond wires never reset.

Consecutive gate ops run as one list of steps (_fuse, memoized by content
in _FUSED, so a point's circuits fuse each group once): every U_zz, and for
each wire each run of k rotations up to the next U_zz on that wire, as the
product of the run followed by one depolarizing of strength 1 - (1 - p1)^k,
on the register states where the wire is not leaked.  This is the same
channel as the rotations applied one by one: single-wire depolarizing
commutes with any unitary on its wire and two of them compose to that
strength; a wire's leak flag changes only at a U_zz on it or a reset; and a
rotation commutes past a U_zz on other wires, with everything that U_zz
does.  So tile boundaries and dressings merge too.  A U_zz, being diagonal,
multiplies the state by its phases elementwise.

simulate_exact reads marginals, pair products, retention and the bond state
off that distribution; sample_shots makes one seeded draw of shots from it
and returns them as columns, a ShotTable: one int8 column of +-1 per label
and a leak flag per shot.

Post-selected shots come from the clean branch.  Weight that leaves the
never-leaked register state never returns, and in that state a U_zz only
multiplies it by (1 - p_leak)^2; no other rule there reads p_leak.  So the
never-leaked cells of a circuit's distribution are r = (1 - p_leak)^(2 U_zz)
times its cells at p_leak = 0, and sample_shots(..., postselect=True) runs
the engine at p_leak = 0, with one register state, and weights its cells by
r.  The full distribution lists the never-leaked cells first, in the order
of the p_leak = 0 one, and Generator.choice maps each shot's uniform
through the normalised cumulative sum, so one extra cell of weight 1 - r
for every leaked shot makes the draw keep the shots the full draw followed
by the leak check keeps, from the same seed.  They can differ only where a
uniform falls within rounding (about 1e-15) of a cell boundary.  The leak
register runs for the draws that are not post-selected and for
simulate_exact.
"""

from __future__ import annotations

import functools
import operator
from collections import OrderedDict
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .circuits import Circuit, CircuitOp, compile_circuit
from .gates import PAULI, embed, native_gate
from .mps import BondsimError
from .noise import NoiseModel, depolarize

__all__ = ["ShotTable", "SimResult", "sample_shots", "simulate_exact"]

# Kraus operators of a reset to |0>: |0><0| and |0><1|.
_RESET_KRAUS = (np.array([[1, 0], [0, 0]], dtype=complex),
                np.array([[0, 1], [0, 0]], dtype=complex))


@dataclass(frozen=True)
class SimResult:
    """Exact-simulation output."""

    bond_rho: np.ndarray          # bond-register density matrix (system traced)
    marginals: dict               # label -> exact <outcome>
    pair_products: dict           # (label_a, label_b) in op order -> <o_a o_b>
    retention: float              # probability that the shot never leaked


@dataclass(frozen=True)
class ShotTable:
    """Shots as columns: row i is shot i."""

    labels: tuple                 # label of each outcome column, in op order
    outcomes: np.ndarray          # (shots, labels) int8 of +1 / -1
    leaked: np.ndarray            # (shots,) bool: the shot ever leaked

    def __len__(self) -> int:
        return len(self.leaked)

    def column(self, label: str) -> np.ndarray:
        if label not in self.labels:
            raise KeyError(f"no outcome column {label!r}")
        return self.outcomes[:, self.labels.index(label)]

    def __getitem__(self, rows) -> "ShotTable":
        """The shots a boolean mask (or any row index) picks."""
        return ShotTable(self.labels, self.outcomes[rows], self.leaked[rows])


@dataclass(frozen=True)
class _Distribution:
    """Exact joint distribution of one circuit's (labelled outcomes, leaked)."""

    labels: list                  # label of each outcome column, in op order
    outcomes: np.ndarray          # (cells, labels) int8 of +1 / -1
    leaked: np.ndarray            # (cells,) bool: the shot ever leaked
    probs: np.ndarray             # (cells,) probability of each cell
    bond_rho: np.ndarray          # bond state at the leak check, or at the end


def _ptrace_wire(rho: np.ndarray, wire: int, n_wires: int) -> np.ndarray:
    t = rho.reshape((2,) * (2 * n_wires))
    t = np.trace(t, axis1=wire, axis2=n_wires + wire)
    d = rho.shape[0] // 2
    return t.reshape(d, d)


def _on(rho: np.ndarray, sel: np.ndarray, fn) -> np.ndarray:
    """Apply fn to the leak-register states that the boolean `sel` picks."""
    if sel.all():
        return fn(rho)
    if sel.any():
        rho[:, sel] = fn(rho[:, sel])
    return rho


def _branch(rho, outcomes, parts):
    """Split every branch in two by outcome +1 (parts[0]) and -1 (parts[1])."""
    rho = np.stack(parts, axis=1).reshape((-1,) + rho.shape[1:])
    signs = np.tile(np.array([1, -1], dtype=np.int8), len(outcomes))
    return rho, np.column_stack([np.repeat(outcomes, 2, axis=0), signs])


def _find_run(ops: tuple):
    """(start, length, count) of the leading run of repeated [reset(0);
    gates] iterations, from the first reset of wire 0; None if the first
    iteration does not repeat.  An iteration repeats when it is the same op
    objects (circuits share them across iterations, see the circuits
    module)."""
    resets = [i for i, op in enumerate(ops)
              if op.kind == "reset" and op.wires == (0,)]
    if len(resets) < 2 or any(op.kind != "gate"
                              for op in ops[resets[0] + 1:resets[1]]):
        return None
    start, length = resets[0], resets[1] - resets[0]

    def repeats(k: int) -> bool:
        nxt = ops[start + k * length:start + (k + 1) * length]
        return len(nxt) == length and all(
            map(operator.is_, ops[start:start + length], nxt))

    count = 1
    while repeats(count):
        count += 1
    return (start, length, count) if count > 1 else None


def _fuse(group: tuple, n: int, p1: float) -> list:
    """The steps that evolve a state as the consecutive gate ops `group` do:
    ("uzz", wires, None, None) for each entangler; ("rot", (w,), u, p) for
    each run of k rotations on wire w up to the next entangler on w, with u
    their product embedded in the register and p = 1 - (1 - p1)^k; and
    ("unitary", wires, u, 0.0) for an op without a fragment."""
    steps, pending = [], {}

    def flush(wires):
        for w in sorted(pending.keys() & set(wires)):
            u, k = pending.pop(w)
            steps.append(("rot", (w,), embed(u, (w,), n),
                          1.0 - (1.0 - p1) ** k))

    for op in group:
        if op.fragment is None:
            flush(range(n))
            u = np.asarray(op.unitary, dtype=complex)
            steps.append(("unitary", op.wires, embed(u, op.wires, n), 0.0))
            continue
        for name, wires, angle in op.fragment.ops:
            wires = tuple(wires)
            if name == "uzz":
                flush(wires)
                steps.append(("uzz", wires, None, None))
            else:
                u, k = pending.get(wires[0], (np.eye(2), 0))
                pending[wires[0]] = (native_gate(name, angle) @ u, k + 1)
    flush(range(n))
    return steps


def _op_key(op: CircuitOp) -> tuple:
    """An op's content as a hashable key: ops with equal keys evolve a
    state alike."""
    frag = op.fragment and tuple((name, tuple(wires), angle)
                                 for name, wires, angle in op.fragment.ops)
    u = None if op.unitary is None else np.asarray(op.unitary).tobytes()
    return (op.kind, op.wires, op.basis, op.label, frag, u)


# Carrier maps of repeated blocks, keyed by (n_wires, noise model, block
# content).  Two entries hold one point's base and folded blocks, which every
# tomography setting of the point shares.
_BLOCK_CHANNELS: OrderedDict = OrderedDict()
# Carrier basis operators per pass of the engine: one leak-register state's
# worth at chi=4, a stack smaller than a tomography circuit's final state.
_BASIS_CHUNK = 16
# Fused steps of the last 16 gate groups; each step holds a 2^n x 2^n matrix.
_FUSED: OrderedDict = OrderedDict()


def _build_block_channel(push, size: int) -> np.ndarray:
    """The matrix of the linear carrier map `push` (row vectors in, row
    vectors out), from the carrier basis, _BASIS_CHUNK operators at a time."""
    basis = np.eye(size, dtype=complex)
    return np.concatenate([push(basis[lo:lo + _BASIS_CHUNK])
                           for lo in range(0, size, _BASIS_CHUNK)])


def _memo(cache: OrderedDict, size: int, key: tuple, make):
    """cache[key], made on a miss; evicts least recently used at `size`."""
    if key not in cache:
        if len(cache) == size:
            cache.popitem(last=False)
        cache[key] = make()
    cache.move_to_end(key)
    return cache[key]


def _block_channel(key: tuple, push, size: int) -> np.ndarray:
    """_build_block_channel, memoized under `key` in _BLOCK_CHANNELS."""
    return _memo(_BLOCK_CHANNELS, 2, key,
                 lambda: _build_block_channel(push, size))


def _evolve(circuit: Circuit, noise: NoiseModel) -> _Distribution:
    """Exact distribution of (labelled outcomes, leaked) for one circuit."""
    if not noise.trivial:
        circuit = compile_circuit(circuit)
    n = circuit.n_wires
    dim = 2 ** n
    # Leak register: state 0 never leaked; state 1 + m leaked at some point,
    # with bitmask m of the wires leaked now.  No other state is reachable,
    # and without leakage state 0 is the only one.
    mask = np.arange(-1, 2 ** n) if noise.p_leak > 0.0 else np.array([-1])
    n_reg = len(mask)
    flagged = (mask[:, None] >= 0) & ((mask[:, None] >> np.arange(n)) & 1 > 0)

    def move(dest: np.ndarray) -> np.ndarray:
        """Register transition matrix sending state r to dest[r]."""
        t = np.zeros((n_reg, n_reg))
        t[dest, np.arange(n_reg)] = 1.0
        return t

    def leak(w: int) -> np.ndarray:
        hit = move(1 + (np.maximum(mask, 0) | (1 << w)))
        return (1.0 - noise.p_leak) * np.eye(n_reg) + noise.p_leak * hit

    def clear(w: int) -> np.ndarray:
        return move(np.where(mask < 0, 0, 1 + (mask & ~(1 << w))))

    def shift(t: np.ndarray, rho: np.ndarray, live: np.ndarray) -> tuple:
        """Register transition t; the support goes where t reaches."""
        return ((t @ rho.reshape(len(rho), n_reg, -1)).reshape(rho.shape),
                (t[:, live] != 0.0).any(axis=1))

    def spectator(rho, live, eps: float) -> np.ndarray:
        if eps > 0.0:
            for b in range(1, n):
                rho = _on(rho, live & ~flagged[:, b],
                          lambda r: depolarize(r, (b,), eps, n))
        return rho

    kraus = [[embed(k, (w,), n) for k in _RESET_KRAUS] for w in range(n)]
    zz_phase: dict = {}
    uzz_leak: dict = {}

    def uzz(state, wires):
        rho, live = state
        if wires not in zz_phase:
            d = np.diag(embed(native_gate("uzz"), wires, n))
            zz_phase[wires] = d[:, None] * d.conj()[None, :]
        held = flagged[:, list(wires)]
        rho = _on(rho, live & ~held.any(axis=1),
                  lambda r: depolarize(r * zz_phase[wires], wires, noise.p2, n))
        for a, b in ((0, 1), (1, 0)):
            rho = _on(rho, live & held[:, a] & ~held[:, b],
                      lambda r: depolarize(r, (wires[b],), 1.0, n))
        if n_reg > 1:
            if wires not in uzz_leak:
                uzz_leak[wires] = leak(wires[1]) @ leak(wires[0])
            return shift(uzz_leak[wires], rho, live)
        return rho, live

    def apply(state, step):
        """One step of a _fuse list."""
        kind, wires, u, p = step
        if kind == "uzz":
            return uzz(state, wires)
        rho, live = state
        if kind == "unitary":
            return u @ rho @ u.conj().T, live
        return _on(rho, live & ~flagged[:, wires[0]],
                   lambda r: depolarize(u @ r @ u.conj().T, wires, p, n)), live

    def gates(state, group):
        """A run of consecutive gate ops, fused once per content."""
        steps = _memo(_FUSED, 16, (n, noise.p1, tuple(map(_op_key, group))),
                      lambda: _fuse(group, n, noise.p1))
        return functools.reduce(apply, steps, state)

    def reset_op(state, w):
        rho, live = state
        rho = sum(k @ rho @ k.conj().T for k in kraus[w])
        if n_reg > 1:
            rho, live = shift(clear(w), rho, live)
        return (spectator(rho, live, noise.eps_reset) if w == 0 else rho), live

    # The carrier: the bond matrices of the register states whose wire-0
    # flag is clear, flattened (see the module docstring).
    regs, half = np.flatnonzero(~flagged[:, 0]), dim // 2

    def carrier(rho):
        return rho[:, regs, :half, :half].reshape(len(rho), -1)

    def uncarrier(vec):
        rho = np.zeros((len(vec), n_reg, dim, dim), dtype=complex)
        rho[:, regs, :half, :half] = vec.reshape(len(vec), len(regs), half,
                                                 half)
        return rho, rho.any(axis=(0, 2, 3))

    rho = np.zeros((1, n_reg, dim, dim), dtype=complex)
    rho[0, 0, 0, 0] = 1.0
    live = np.arange(n_reg) == 0
    outcomes = np.zeros((1, 0), dtype=np.int8)
    labels: list = []
    snapshot = None
    ops = circuit.ops
    run = _find_run(ops)
    i = 0
    while i < len(ops):
        op = ops[i]
        if op.kind == "gate":
            end = i + 1
            while end < len(ops) and ops[end].kind == "gate":
                end += 1
            rho, live = gates((rho, live), ops[i:end])
            i = end - 1
        elif op.kind == "reset":
            rho, live = reset_op((rho, live), op.wires[0])
        elif op.kind == "measure":
            w = op.wires[0]
            pauli = embed(PAULI[op.basis], op.wires, n)
            parts = [proj @ rho @ proj for proj in
                     ((np.eye(dim) + pauli) / 2, (np.eye(dim) - pauli) / 2)]
            gone = flagged[:, w]
            if gone.any():
                mixed = 0.5 * (parts[0][:, gone] + parts[1][:, gone])
                parts[0][:, gone] = parts[1][:, gone] = mixed
            rho, outcomes = _branch(rho, outcomes, parts)
            labels.append(op.label)
            if w == 0:
                rho = spectator(rho, live, noise.eps_meas)
        elif op.kind == "leak_check":
            if sorted(op.wires) != list(range(n)):
                raise ValueError("leak_check must list every wire")
            snapshot = _ptrace_wire(rho.sum(axis=(0, 1)), 0, n)
            clean = np.zeros_like(rho)
            clean[:, 0] = rho[:, 0]
            rho, outcomes = _branch(rho, outcomes, [clean, rho - clean])
            labels.append(op.label)
        if run is not None and i == run[0]:
            # The run's first reset is done.  The rest of the run, through
            # its last reset, is count - 1 iterations of [gates; reset]: one
            # matrix power on the carrier.
            start, length, count = run
            block = ops[start + 1:start + length]
            m = _block_channel(
                (n, noise, tuple(map(_op_key, block + (op,)))),
                lambda vec: carrier(reset_op(gates(uncarrier(vec), block),
                                             0)[0]),
                len(regs) * half * half)
            rho, live = uncarrier(
                carrier(rho) @ np.linalg.matrix_power(m, count - 1))
            i += (count - 1) * length
        i += 1
        total = np.einsum("brii->", rho).real
        if abs(total - 1.0) > 1e-10:
            raise BondsimError(f"state lost trace: {total}")
    if snapshot is None:
        snapshot = _ptrace_wire(rho.sum(axis=(0, 1)), 0, n)
    weights = np.einsum("brii->br", rho).real
    return _Distribution(
        labels=labels,
        outcomes=np.concatenate([outcomes, outcomes]),
        leaked=np.repeat([False, True], len(outcomes)),
        probs=np.concatenate([weights[:, 0], weights[:, 1:].sum(axis=1)]),
        bond_rho=snapshot)


def simulate_exact(circuit: Circuit, noise: NoiseModel | None = None) -> SimResult:
    """Exact marginals and pair products of every label, the probability of
    a leak-free shot, and the bond state at the leak check."""
    dist = _evolve(circuit, noise or NoiseModel.none())
    col = {lab: i for i, lab in enumerate(dist.labels)}
    neg = dist.outcomes < 0

    # <o> = 1 - 2 P(o = -1): exact zeros stay exact where an outcome can
    # never be -1 (a leak check without leakage).
    def mean(sel: np.ndarray) -> float:
        return float(1.0 - 2.0 * (dist.probs @ sel))

    return SimResult(
        bond_rho=dist.bond_rho,
        marginals={lab: mean(neg[:, i]) for lab, i in col.items()},
        pair_products={(a, b): mean(neg[:, col[a]] ^ neg[:, col[b]])
                       for a, b in combinations(dist.labels, 2)},
        retention=float(1.0 - dist.probs[dist.leaked].sum()))


def _clean_branch(circuit: Circuit, noise: NoiseModel) -> tuple:
    """(circuit, noise, r) for a post-selected draw: the circuit compiled
    and the model at p_leak = 0 when it leaks, and r = (1 - p_leak)^(2 U_zz),
    the probability that a shot passes the circuit's one leak check."""
    checks = [i for i, op in enumerate(circuit.ops) if op.kind == "leak_check"]
    if len(checks) != 1:
        raise ValueError("post-selection needs one leak check in the circuit")
    if noise.p_leak == 0.0:
        return circuit, noise, 1.0
    circuit = compile_circuit(circuit)
    if Circuit(circuit.n_wires, circuit.ops[checks[0] + 1:]).count_uzz():
        raise ValueError("a U_zz after the leak check would leak kept shots")
    r = (1.0 - noise.p_leak) ** (2 * circuit.count_uzz())
    return circuit, replace(noise, p_leak=0.0), r


def sample_shots(circuit: Circuit, noise: NoiseModel | None = None,
                 n_shots: int = 1000, seed: int = 0,
                 postselect: bool = False) -> ShotTable:
    """Draw n_shots from the exact distribution, as one ShotTable; with
    postselect, only the shots that pass the leak check.

    A post-selected draw runs the engine at p_leak = 0 and draws over its
    cells times r, the full distribution's never-leaked cells in its order,
    then one cell of weight 1 - r for every leaked shot, and drops the draws
    that land there.  So the same uniforms keep the same shots as the full
    draw followed by noise.leakage_postselect, up to rounding at a cell
    boundary (see the module docstring).
    """
    if n_shots < 1:
        raise ValueError("need at least one shot")
    noise = noise or NoiseModel.none()
    if postselect:
        circuit, noise, r = _clean_branch(circuit, noise)
    dist = _evolve(circuit, noise)
    probs = np.clip(dist.probs, 0.0, None)
    if postselect:
        # At p_leak = 0 the leaked cells are exact zeros.
        probs = r * probs
        probs[dist.leaked.argmax()] = 1.0 - r
    cells = np.random.default_rng(seed).choice(
        len(probs), size=n_shots, p=probs / probs.sum())
    if postselect:
        cells = cells[~dist.leaked[cells]]
    return ShotTable(labels=tuple(dist.labels), outcomes=dist.outcomes[cells],
                     leaked=dist.leaked[cells])

