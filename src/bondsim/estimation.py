"""Shot records to physics: energies, tomography, entropy, error bars.

Energy uses the X,Z,Z measurement schedule (one transverse-field sample and
one nearest-neighbor ZZ sample per shot).  Tomography reconstructs the bond
register by linear inversion, optionally restricted to the Pauli
coefficients allowed by the Ising flip symmetry, followed by projection onto
the nearest trace-one PSD matrix.  Confidence intervals come from
multinomial bootstrap resampling of the per-setting count tables.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .gates import PAULI, kron_all
from .mps import BondsimError, entanglement_entropy
from .noise import ZNEPair, zne_extrapolate

__all__ = [
    "DensityEstimate",
    "EnergyEstimate",
    "Tomogram",
    "energy_from_records",
    "entropy_from_expectations",
    "entropy_with_ci",
    "expectations_from_tomogram",
    "project_psd",
    "reconstruct_1q",
    "reconstruct_2q",
    "rho_from_expectations",
    "tomogram_from_shots",
]

RESTRICTED_PATTERN = ("II", "IX", "XI", "XX", "YZ", "ZY")


@dataclass(frozen=True)
class EnergyEstimate:
    e: float
    sigma: float
    n_shots: int
    components: dict

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


def _energy_labels(outcomes: dict) -> tuple:
    """Locate the single X label and the two consecutive Z labels."""
    xs = sorted(k for k in outcomes if k.endswith(":X") and k.startswith("m"))
    zs = sorted((int(k[1:].split(":")[0]), k) for k in outcomes
                if k.endswith(":Z") and k.startswith("m"))
    if len(xs) != 1 or len(zs) != 2:
        raise BondsimError("shots must carry one X and two Z measurement labels")
    if zs[1][0] != zs[0][0] + 1:
        raise BondsimError("the two Z measurements must be consecutive")
    return xs[0], zs[0][1], zs[1][1]


def energy_from_records(shots: list, lam: float) -> EnergyEstimate:
    """e = -(<Z Z> + lambda <X>) with an independent-shot standard error."""
    if not shots:
        raise BondsimError("no shots")
    lx, lz1, lz2 = _energy_labels(shots[0].outcomes)
    x = np.array([s.outcomes[lx] for s in shots], dtype=float)
    zz = np.array([s.outcomes[lz1] * s.outcomes[lz2] for s in shots],
                  dtype=float)
    per_shot = -(zz + lam * x)
    n = len(shots)
    sigma = float(per_shot.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return EnergyEstimate(
        e=float(per_shot.mean()), sigma=sigma, n_shots=n,
        components={"mean_X": float(x.mean()), "mean_ZZ": float(zz.mean())},
    )


# ---------------------------------------------------------------------------
# tomograms


@dataclass(frozen=True)
class Tomogram:
    """Per-setting bitstring counts from terminal bond-register measurements."""

    settings: dict            # basis tuple -> {bitstring: count}
    shots_per_setting: int    # smallest shot count over the settings
    metadata: dict = field(default_factory=dict)

    @property
    def n_b(self) -> int:
        return len(next(iter(self.settings)))

    def expectation(self, pauli: str) -> float:
        """Estimate <P> from the first setting compatible with the string."""
        if set(pauli) == {"I"}:
            return 1.0
        for setting, counts in self.settings.items():
            if all(c == "I" or c == b for c, b in zip(pauli, setting)):
                total = sum(counts.values())
                acc = 0
                for bits, cnt in counts.items():
                    sign = 1
                    for c, b in zip(pauli, bits):
                        if c != "I" and b == "1":
                            sign = -sign
                    acc += sign * cnt
                return acc / total
        raise BondsimError(f"no measurement setting covers {pauli!r}")

    def resample(self, rng: np.random.Generator) -> "Tomogram":
        """Multinomial bootstrap resample of every setting's count table."""
        new = {}
        for setting, counts in self.settings.items():
            keys = sorted(counts)
            total = sum(counts[k] for k in keys)
            probs = np.array([counts[k] for k in keys], dtype=float) / total
            draw = rng.multinomial(total, probs)
            new[setting] = {k: int(d) for k, d in zip(keys, draw)}
        return Tomogram(settings=new, shots_per_setting=self.shots_per_setting,
                        metadata=dict(self.metadata))


def tomogram_from_shots(records_by_setting: dict, n_b: int,
                        metadata: dict | None = None) -> Tomogram:
    """Bin ShotRecord lists (one list per setting) into count tables.

    Bond-measurement labels are "b{wire}:{basis}"; outcome +1 maps to bit 0.
    ``shots_per_setting`` is the smallest record count over the settings.
    """
    settings = {}
    for setting, records in records_by_setting.items():
        counts: dict[str, int] = {}
        for r in records:
            bits = ""
            for k in range(n_b):
                lab = f"b{1 + k}:{setting[k]}"
                bits += "0" if r.outcomes[lab] == 1 else "1"
            counts[bits] = counts.get(bits, 0) + 1
        settings[tuple(setting)] = counts
    per_setting = min(map(len, records_by_setting.values()), default=None)
    return Tomogram(settings=settings, shots_per_setting=per_setting,
                    metadata=metadata or {})


def expectations_from_tomogram(tomo: Tomogram,
                               restricted: bool = False) -> dict:
    """All Pauli-string expectations the tomogram determines."""
    n_b = tomo.n_b
    out = {}
    for pauli in map("".join, itertools.product("IXYZ", repeat=n_b)):
        if restricted and n_b == 2 and pauli not in RESTRICTED_PATTERN:
            out[pauli] = 0.0
            continue
        try:
            out[pauli] = tomo.expectation(pauli)
        except BondsimError:
            if restricted:
                raise
            out[pauli] = 0.0
    return out


# ---------------------------------------------------------------------------
# density-matrix assembly


@dataclass(frozen=True)
class DensityEstimate:
    rho: np.ndarray
    psd_projected: bool
    raw_min_eigenvalue: float


def project_psd(rho: np.ndarray) -> DensityEstimate:
    """Nearest trace-1 PSD matrix (eigenvalue simplex projection).

    Eigenvalues are clipped from below with the deficit spread uniformly over
    the remaining positive eigenvalues, i.e. Euclidean projection of the
    spectrum onto the probability simplex.  Idempotent.
    """
    h = (rho + rho.conj().T) / 2
    w, u = np.linalg.eigh(h)
    raw_min = float(w.min())
    if raw_min >= 0 and abs(w.sum() - 1.0) < 1e-12:
        return DensityEstimate(rho=h, psd_projected=False,
                               raw_min_eigenvalue=raw_min)
    desc = np.sort(w)[::-1]
    csum = np.cumsum(desc)
    ks = np.arange(1, len(desc) + 1)
    feasible = desc + (1.0 - csum) / ks > 0
    k = int(np.max(ks[feasible]))
    shift = (1.0 - csum[k - 1]) / k
    # Keep the k largest eigenvalues (shifted); zero the rest.
    order = np.argsort(w)[::-1]
    keep = np.zeros(len(w), dtype=bool)
    keep[order[:k]] = True
    clipped = np.where(keep, w + shift, 0.0)
    out = (u * clipped) @ u.conj().T
    return DensityEstimate(rho=out, psd_projected=True,
                           raw_min_eigenvalue=raw_min)


def rho_from_expectations(exps: dict) -> np.ndarray:
    """Linear inversion: rho = 2^{-n} sum_P <P> P."""
    n = len(next(iter(exps)))
    dim = 2 ** n
    rho = np.zeros((dim, dim), dtype=complex)
    for pauli, val in exps.items():
        rho += val * kron_all(*[PAULI[c] for c in pauli])
    return rho / dim


def reconstruct_1q(tomogram: Tomogram) -> DensityEstimate:
    """Single bond qubit: rho = (I + <X>X + <Y>Y + <Z>Z) / 2, then PSD."""
    if tomogram.n_b != 1:
        raise ValueError("reconstruct_1q needs a single-wire tomogram")
    exps = expectations_from_tomogram(tomogram)
    return project_psd(rho_from_expectations(exps))


def reconstruct_2q(tomogram: Tomogram, restricted: bool = False) -> DensityEstimate:
    """Two bond qubits, optionally using only the symmetry-allowed pattern.

    In restricted mode every coefficient outside {II, IX, XI, XX, YZ, ZY} is
    zeroed.  When the tomogram nevertheless contains the full 9 settings, the
    forbidden coefficients are checked against their shot noise and a warning
    is issued if any exceeds 3 sigma (the symmetry only holds for the ideal
    state).
    """
    if tomogram.n_b != 2:
        raise ValueError("reconstruct_2q needs a two-wire tomogram")
    if restricted and len(tomogram.settings) == 9:
        sig = 1.0 / np.sqrt(max(tomogram.shots_per_setting or 1, 1))
        for pauli in map("".join, itertools.product("IXYZ", repeat=2)):
            if pauli in RESTRICTED_PATTERN:
                continue
            if abs(tomogram.expectation(pauli)) > 3 * sig:
                warnings.warn(
                    f"coefficient {pauli} violates the flip symmetry at 3 sigma",
                    stacklevel=2)
    exps = expectations_from_tomogram(tomogram, restricted=restricted)
    return project_psd(rho_from_expectations(exps))


# ---------------------------------------------------------------------------
# entropy


def entropy_from_expectations(exps: dict, restricted: bool = False) -> float:
    """Entropy in bits of the PSD-projected linear-inversion state."""
    if restricted:
        exps = {p: (v if p in RESTRICTED_PATTERN or set(p) == {"I"} else 0.0)
                for p, v in exps.items()}
    est = project_psd(rho_from_expectations(exps))
    return entanglement_entropy(est.rho).entropy_bits


def _pipeline_entropy(tomo: Tomogram, folded: Tomogram | None,
                      restricted: bool) -> float:
    exps = expectations_from_tomogram(tomo, restricted=restricted)
    if folded is not None:
        fexps = expectations_from_tomogram(folded, restricted=restricted)
        exps = zne_extrapolate(ZNEPair(base_estimates=exps,
                                       folded_estimates=fexps))
    est = project_psd(rho_from_expectations(exps))
    return entanglement_entropy(est.rho).entropy_bits


def entropy_with_ci(tomogram: Tomogram, mitigation: Tomogram | None = None,
                    bootstrap_b: int = 1000, seed: int = 0,
                    restricted: bool = False) -> tuple:
    """(S_vN, sigma): point estimate plus bootstrap standard deviation.

    mitigation, when given, is the tomogram of the noise-folded circuit;
    expectations are extrapolated to zero noise before assembly.  Every
    bootstrap resample re-runs the full reconstruct -> project -> entropy
    pipeline on multinomially-resampled count tables.
    """
    if bootstrap_b < 100:
        raise ValueError("use at least 100 bootstrap resamples")
    if tomogram.shots_per_setting is not None and tomogram.shots_per_setting < 50:
        raise BondsimError("fewer than 50 shots per setting; refusing to "
                           "estimate an entropy")
    point = _pipeline_entropy(tomogram, mitigation, restricted)
    rng = np.random.default_rng(seed)
    draws = np.empty(bootstrap_b)
    for b in range(bootstrap_b):
        t = tomogram.resample(rng)
        f = mitigation.resample(rng) if mitigation is not None else None
        draws[b] = _pipeline_entropy(t, f, restricted)
    return float(point), float(draws.std(ddof=1))
