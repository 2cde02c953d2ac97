"""Shots to physics: energies, tomography, entropy, error bars.

Shots arrive as columns (``simulator.ShotTable``).  Energy uses the X,Z,Z
measurement schedule (one transverse-field sample and one nearest-neighbor
ZZ sample per shot) and reads three columns.  A tomogram holds one count
vector per measurement setting, indexed by the bond bits (or, for an exact
tomogram, one probability vector).  There is one route from a tomogram to a
state and an entropy: ``pauli_coefficients`` (optionally restricted to the
coefficients the Ising flip symmetry allows), ``rho_from_coefficients``
(linear inversion) and ``projected_entropy`` (the spectrum projected onto
the probability simplex, i.e. the nearest trace-one PSD matrix).  Every
function works on stacks.  Error bars come from a multinomial bootstrap of
the count vectors: every resample is drawn at once, and the stack goes
through the same route as the point estimate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .gates import pauli_strings
from .mps import BondsimError, entropy_bits
from .noise import zne_extrapolate

__all__ = [
    "EnergyEstimate",
    "Tomogram",
    "energy_from_records",
    "entropy_with_ci",
    "pauli_coefficients",
    "project_simplex",
    "projected_entropy",
    "rho_from_coefficients",
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


def _energy_labels(labels) -> tuple:
    """Locate the single X label and the two consecutive Z labels."""
    xs = sorted(k for k in labels if k.endswith(":X") and k.startswith("m"))
    zs = sorted((int(k[1:].split(":")[0]), k) for k in labels
                if k.endswith(":Z") and k.startswith("m"))
    if len(xs) != 1 or len(zs) != 2:
        raise BondsimError("shots must carry one X and two Z measurement labels")
    if zs[1][0] != zs[0][0] + 1:
        raise BondsimError("the two Z measurements must be consecutive")
    return xs[0], zs[0][1], zs[1][1]


def energy_from_records(shots, lam: float) -> EnergyEstimate:
    """e = -(<Z Z> + lambda <X>) with an independent-shot standard error,
    from the X column and the two Z columns of a ShotTable."""
    if not len(shots):
        raise BondsimError("no shots")
    lx, lz1, lz2 = _energy_labels(shots.labels)
    x = shots.column(lx).astype(float)
    zz = (shots.column(lz1) * shots.column(lz2)).astype(float)
    per_shot = -(zz + lam * x)
    n = len(shots)
    sigma = float(per_shot.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return EnergyEstimate(
        e=float(per_shot.mean()), sigma=sigma, n_shots=n,
        components={"mean_X": float(x.mean()), "mean_ZZ": float(zz.mean())},
    )


# ---------------------------------------------------------------------------
# tomograms


def _paulis(n_b: int) -> list:
    return ["".join(p) for p in itertools.product("IXYZ", repeat=n_b)]


def _signs(pauli: str) -> np.ndarray:
    """+1 / -1 per bond bit string: the parity of its bits where the Pauli
    string is not I."""
    n = len(pauli)
    bits = np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1) & 1
    return 1 - 2 * (bits[:, [c != "I" for c in pauli]].sum(axis=1) % 2)


@dataclass(frozen=True)
class Tomogram:
    """Bond-register counts: one vector of length 2^n_b per setting.

    Entry k counts the shots whose bond bits read k, wire 1 the most
    significant bit and bit 1 the outcome -1.  A resampled tomogram holds a
    stack of such vectors per setting, shape (resamples, 2^n_b).  An exact
    tomogram holds probabilities and no shot count.
    """

    settings: dict            # basis tuple -> count vector(s)
    shots_per_setting: int | None  # smallest shot count over the settings
    metadata: dict = field(default_factory=dict)

    @property
    def n_b(self) -> int:
        return len(next(iter(self.settings)))

    def expectation(self, pauli: str):
        """Estimate <P> from the first setting compatible with the string
        (one value per resample of a resampled tomogram)."""
        if set(pauli) == {"I"}:
            return 1.0
        for setting, counts in self.settings.items():
            if all(c == "I" or c == b for c, b in zip(pauli, setting)):
                return counts @ _signs(pauli) / counts.sum(axis=-1)
        raise BondsimError(f"no measurement setting covers {pauli!r}")

    def resample(self, rng: np.random.Generator, size: int) -> "Tomogram":
        """``size`` multinomial bootstrap resamples of every setting's
        counts, drawn at once."""
        new = {setting: rng.multinomial(counts.sum(), counts / counts.sum(),
                                        size=size)
               for setting, counts in self.settings.items()}
        return Tomogram(settings=new, shots_per_setting=self.shots_per_setting,
                        metadata=dict(self.metadata))


def tomogram_from_shots(shots_by_setting: dict, n_b: int,
                        metadata: dict | None = None) -> Tomogram:
    """Count each setting's ShotTable by its bond bits.

    Bond-measurement labels are "b{wire}:{basis}"; outcome +1 maps to bit 0.
    ``shots_per_setting`` is the smallest shot count over the settings.
    """
    weights = 1 << np.arange(n_b - 1, -1, -1)
    settings = {}
    for setting, shots in shots_by_setting.items():
        bits = np.column_stack([shots.column(f"b{1 + k}:{setting[k]}") < 0
                                for k in range(n_b)])
        settings[tuple(setting)] = np.bincount(bits @ weights,
                                               minlength=2 ** n_b)
    per_setting = min(map(len, shots_by_setting.values()), default=None)
    return Tomogram(settings=settings, shots_per_setting=per_setting,
                    metadata=metadata or {})


def pauli_coefficients(tomo: Tomogram, restricted: bool = False) -> np.ndarray:
    """Every Pauli-string expectation the tomogram determines, in
    product("IXYZ") order on the last axis, resamples on the leading axis.
    The restricted chi=4 mode keeps only RESTRICTED_PATTERN; the others are 0."""
    n_b = tomo.n_b
    lead = next(iter(tomo.settings.values())).shape[:-1]
    out = np.zeros(lead + (4 ** n_b,))
    for i, pauli in enumerate(_paulis(n_b)):
        if restricted and n_b == 2 and pauli not in RESTRICTED_PATTERN:
            continue
        try:
            out[..., i] = tomo.expectation(pauli)
        except BondsimError:
            if restricted:
                raise
    return out


def rho_from_coefficients(coeffs: np.ndarray, n_b: int) -> np.ndarray:
    """Linear inversion rho = 2^{-n} sum_P <P> P over the last axis."""
    return np.einsum("...p,pij->...ij", coeffs, pauli_strings(n_b)) / 2 ** n_b


def project_simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of every vector along the last axis onto the
    probability simplex: w + shift, clipped at 0, with the shift that makes
    the kept entries sum to 1."""
    desc = -np.sort(-w, axis=-1)
    csum = np.cumsum(desc, axis=-1)
    ks = np.arange(1, w.shape[-1] + 1)
    feasible = desc + (1.0 - csum) / ks > 0
    k = np.max(np.where(feasible, ks, 1), axis=-1, keepdims=True)
    shift = (1.0 - np.take_along_axis(csum, k - 1, axis=-1)) / k
    return np.maximum(w + shift, 0.0)


def projected_entropy(rho: np.ndarray) -> np.ndarray:
    """Entropy in bits of the nearest trace-one PSD matrix to each Hermitian
    rho: its spectrum projected onto the probability simplex (Smolin,
    Gambetta & Smith, PRL 108, 070502 (2012))."""
    return entropy_bits(project_simplex(np.linalg.eigvalsh(rho)))


def _tomography_entropy(tomo: Tomogram, folded: Tomogram | None,
                        restricted: bool) -> np.ndarray:
    """Pauli expectations -> zero-noise extrapolation against the folded
    tomogram (if any) -> linear inversion -> simplex-projected spectrum ->
    entropy in bits, over the resample axis of resampled tomograms."""
    coeffs = pauli_coefficients(tomo, restricted)
    if folded is not None:
        coeffs = zne_extrapolate(coeffs, pauli_coefficients(folded, restricted))
    return projected_entropy(rho_from_coefficients(coeffs, tomo.n_b))


def entropy_with_ci(tomogram: Tomogram, mitigation: Tomogram | None = None,
                    bootstrap_b: int = 1000, seed: int = 0,
                    restricted: bool = False) -> tuple:
    """(S_vN, sigma): point estimate plus bootstrap standard deviation.

    mitigation, when given, is the tomogram of the noise-folded circuit;
    expectations are extrapolated to zero noise before assembly.  All
    bootstrap_b multinomial resamples of every setting are drawn at once and
    go through the pipeline of the point estimate as one stack.  Fewer than
    50 shots in a setting of the tomogram, or none in a setting of the
    folded one, raise BondsimError; an exact tomogram has no shot count.
    """
    if bootstrap_b < 100:
        raise ValueError("use at least 100 bootstrap resamples")
    if tomogram.shots_per_setting is not None and tomogram.shots_per_setting < 50:
        raise BondsimError("fewer than 50 shots per setting; refusing to "
                           "estimate an entropy")
    if mitigation is not None and mitigation.shots_per_setting == 0:
        raise BondsimError("a folded setting kept no shots; refusing to "
                           "estimate an entropy")
    point = _tomography_entropy(tomogram, mitigation, restricted)
    rng = np.random.default_rng(seed)
    draws = _tomography_entropy(
        tomogram.resample(rng, bootstrap_b),
        mitigation.resample(rng, bootstrap_b) if mitigation is not None
        else None, restricted)
    return float(point), float(draws.std(ddof=1))
