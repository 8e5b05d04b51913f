"""Analytic dataset generators and augmentation helpers.

The 1D families produce uniaxial rod data in either pairing from closed
stress formulas (LINEAR, NEOHOOKE with incompressible kinematics, and a
YEOH variant that multiplies the Neo-Hooke stress by an invariant-based
factor).  The augmentation routines grow small homogenized-response
libraries into full datasets: in-plane rotations, linear superposition of
unit-load responses, and the cubic-symmetry permutation trick that
rebuilds all six unit responses from one elongation and one shear state.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import textio
from .phase_space import DataSet, DataTuple, PairingKind
from .tensors import rotation_2d, rotation_z, voigt_to_tensor


class Family(enum.Enum):
    LINEAR = "LINEAR"
    NEOHOOKE = "NEOHOOKE"
    YEOH = "YEOH"


@dataclass(frozen=True)
class GeneratorSpec:
    """Sampling plan for the 1D families.

    Stretches are uniform over stretch_range by default; log_spacing
    switches to geometric spacing.  c3 only matters for YEOH.
    """

    family: Family
    c1: float
    stretch_range: tuple[float, float] = (1.0, 3.2)
    n: int = 10_000
    pairing: PairingKind = PairingKind.FP
    c3: float = 0.0
    log_spacing: bool = False

    def __post_init__(self):
        for name in ("c1", "c3", "stretch_range"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        lo, hi = self.stretch_range
        if lo <= 0.0:
            raise ValueError("stretches must be positive")
        if hi < lo:
            raise ValueError("empty stretch range")
        if self.n < 2:
            raise ValueError("need at least two samples")
        if self.c1 <= 0.0:
            raise ValueError("c1 must be positive")

    def stretches(self) -> np.ndarray:
        lo, hi = self.stretch_range
        if self.log_spacing:
            return np.geomspace(lo, hi, self.n)
        return np.linspace(lo, hi, self.n)


def piola_stress_1d(family: Family, lam: np.ndarray, c1: float, c3: float = 0.0) -> np.ndarray:
    """Uniaxial first Piola-Kirchhoff stress for the three families.

    LINEAR is c1 lam and NEOHOOKE (incompressible) 2 c1 (lam - lam^-2).
    YEOH is the Neo-Hooke stress with c1 replaced by
    c1 + 3 c3 (lam^2 + 2/lam - 3)^2, so c3 = 0 gives Neo-Hooke exactly.
    """
    lam = np.asarray(lam, dtype=float)
    if family is Family.LINEAR:
        return c1 * lam
    base = 2.0 * (lam - lam ** -2)
    if family is Family.NEOHOOKE:
        return c1 * base
    if family is Family.YEOH:
        i1_shift = lam ** 2 + 2.0 / lam - 3.0
        return base * (c1 + 3.0 * c3 * i1_shift ** 2)
    raise ValueError(f"unknown family {family}")


def generate(spec: GeneratorSpec, mu0: float | None = None) -> DataSet:
    """Uniaxial rod tuples of `spec`'s family at its sampled stretches.

    FP tuples are (lam, P(lam)) with P from `piola_stress_1d`; CS tuples
    are (lam^2, P(lam) / lam), except LINEAR, whose CS pair is the
    published (lam^2, c1 lam^2).
    """
    lam = spec.stretches()
    if spec.pairing is PairingKind.FP:
        strain = lam
        stress = piola_stress_1d(spec.family, lam, spec.c1, spec.c3)
    elif spec.pairing is PairingKind.CS:
        strain = lam ** 2
        if spec.family is Family.LINEAR:
            # the published linear pair (C, S) = (lam^2, c1 lam^2) is NOT
            # the push-forward of the (F, P) pair; both are kept verbatim
            stress = spec.c1 * lam ** 2
        else:
            stress = piola_stress_1d(spec.family, lam, spec.c1, spec.c3) / lam
    else:
        raise ValueError("1D generators emit FP or CS pairings only")
    return DataSet(spec.pairing, 1, strain.reshape(-1, 1), stress.reshape(-1, 1),
                   mu0=mu0, validate=False)


# -- augmentation --------------------------------------------------------


def augment_rotations_2d(base: DataSet, n_angles: int, mu0: float | None = None) -> DataSet:
    """Grow a 2D symmetric-pairing set by n_angles in-plane rotations.

    Angles are j*pi/(n_angles+1) for j = 1..n_angles; together with the
    originals that covers [0, pi) uniformly, which is the full period of
    Q A Q^T for symmetric A.  Output size is len(base) * (n_angles + 1),
    originals first, then one block per angle.
    """
    if base.kind is PairingKind.FP:
        raise ValueError("rotation augmentation is defined for symmetric pairings only")
    if base.dim != 2:
        raise ValueError("rotation augmentation expects 2D tuples")
    if n_angles < 0:
        raise ValueError("n_angles must be non-negative")
    strains, stresses = _rotated_copies(base.strains, base.stresses, rotation_2d,
                                        n_angles)
    # rotations leave both RMS norms alone, so the scale carries over
    return DataSet(base.kind, 2, strains, stresses,
                   mu0=base.mu0 if mu0 is None else mu0, validate=False)


def _rotated_copies(strains: np.ndarray, stresses: np.ndarray, rotation,
                    n_angles: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat (n, d*d) tuples followed by n_angles rotated copies Q A Q^T.

    Copy j uses Q = rotation(j*pi/(n_angles+1)), one block per angle.
    """
    copies = [(strains, stresses)]
    for j in range(1, n_angles + 1):
        q = rotation(j * np.pi / (n_angles + 1))
        copies.append([np.einsum("ik,nkl,jl->nij", q, a.reshape(-1, *q.shape), q)
                       .reshape(a.shape) for a in (strains, stresses)])
    return tuple(np.vstack(blocks) for blocks in zip(*copies))


@dataclass(frozen=True)
class UnitLoadLibrary:
    """Six homogenized responses to canonical unit strain states.

    strains[k] and stresses[k] are Voigt vectors, order (11, 22, 33, 12,
    13, 23), with the probe amplitude alpha sitting in slot k of
    strains[k].  Voigt slots map one-to-one onto symmetric tensor
    components; no engineering-shear doubling anywhere.
    """

    alpha: float
    strains: np.ndarray  # (6, 6)
    stresses: np.ndarray  # (6, 6)

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        if self.strains.shape != (6, 6) or self.stresses.shape != (6, 6):
            raise ValueError("library needs six Voigt strain and stress vectors")


def superpose_linear(library: UnitLoadLibrary, coefficients) -> DataTuple:
    """Linear combination sum_k c_k * (strain_k, stress_k) / alpha.

    Exactly linear in the coefficients; a lone coefficient equal to alpha
    reproduces that library entry bit-for-bit.
    """
    coefficients = np.asarray(coefficients, dtype=float).reshape(6)
    if not np.all(np.isfinite(coefficients)):
        raise ValueError("coefficients must be finite")
    strain_v = np.zeros(6)
    stress_v = np.zeros(6)
    for k in range(6):
        c = coefficients[k]
        if c == 0.0:
            continue
        factor = c / library.alpha
        strain_v = strain_v + factor * library.strains[k]
        stress_v = stress_v + factor * library.stresses[k]
    return DataTuple(voigt_to_tensor(strain_v), voigt_to_tensor(stress_v))


_UNITLOAD_MAGIC = "# dd-unitloads v1"


def save_unit_loads(library: UnitLoadLibrary, path) -> None:
    """Write a unit-load file (see "File formats" in docs/config.md)."""
    textio.write(path, [_UNITLOAD_MAGIC, f"alpha={library.alpha!r} units=SI",
                        *textio.format_rows(library.strains, library.stresses)])


def load_unit_loads(path=None) -> UnitLoadLibrary:
    """Read a unit-load library; default is the packaged homogenized set."""
    if path is None:
        path = resources.files("ddfem") / "data/unitloads.txt"
    src = textio.read(path, _UNITLOAD_MAGIC)
    alpha = src.field("alpha", float)
    table = src.rows(src.header_line, None, 12)
    if len(table) != 6:
        raise ValueError(f"{src.name}: expected 6 unit-load rows, found {len(table)}")
    return UnitLoadLibrary(alpha, table[:, :6].copy(), table[:, 6:].copy())


# cyclic axis relabeling x->y->z->x expressed on Voigt slots
_CUBIC_PERM = np.array([1, 2, 0, 5, 3, 4])


def _permute_voigt(v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    out[_CUBIC_PERM] = v
    return out


def isotropic_grid_from_two_states(elong: DataTuple, shear: DataTuple,
                                   slot_values, alpha: float,
                                   n_angles: int = 0,
                                   deviation=None,
                                   mu0: float | None = None) -> DataSet:
    """Span a small-strain grid from one elongation and one shear response.

    `elong` must be the response to the slot-0 axial probe and `shear`
    the response to the slot-3 shear probe, both of amplitude alpha.
    Cubic symmetry supplies the other four unit responses by cyclic axis
    relabeling; `slot_values` gives per-slot strain amplitudes (six
    sequences) whose cartesian product forms the grid.  `deviation`
    optionally scales each reconstructed unit response to mimic the
    imperfect symmetry of real homogenized data.  n_angles > 0 appends
    rotated copies (about the z axis) of every tuple.
    """
    from .tensors import tensor_to_voigt

    e1 = tensor_to_voigt(np.asarray(elong.strain, dtype=float))
    s1 = tensor_to_voigt(np.asarray(elong.stress, dtype=float))
    e4 = tensor_to_voigt(np.asarray(shear.strain, dtype=float))
    s4 = tensor_to_voigt(np.asarray(shear.stress, dtype=float))
    if abs(e1[0] - alpha) > 1e-12 * max(1.0, abs(alpha)) or np.any(e1[1:] != 0.0):
        raise ValueError("elong must carry amplitude alpha in Voigt slot 0 only")
    if abs(e4[3] - alpha) > 1e-12 * max(1.0, abs(alpha)) or np.any(e4[:3] != 0.0) or np.any(e4[4:] != 0.0):
        raise ValueError("shear must carry amplitude alpha in Voigt slot 3 only")

    unit_stress = np.empty((6, 6))
    unit_stress[0] = s1
    unit_stress[1] = _permute_voigt(s1)
    unit_stress[2] = _permute_voigt(unit_stress[1])
    unit_stress[3] = s4
    unit_stress[5] = _permute_voigt(s4)
    unit_stress[4] = _permute_voigt(unit_stress[5])
    if deviation is not None:
        unit_stress = unit_stress * np.asarray(deviation, dtype=float).reshape(6, 1)

    slot_values = [np.atleast_1d(np.asarray(v, dtype=float)) for v in slot_values]
    if len(slot_values) != 6:
        raise ValueError("slot_values must provide six sequences")
    strains, stresses = [], []
    for combo in itertools.product(*slot_values):
        v = np.array(combo)
        sigma = (v / alpha) @ unit_stress
        strains.append(voigt_to_tensor(v).reshape(9))
        stresses.append(voigt_to_tensor(sigma).reshape(9))
    strains, stresses = _rotated_copies(np.array(strains), np.array(stresses),
                                        rotation_z, n_angles)
    return DataSet(PairingKind.EPS_SIGMA, 3, strains, stresses, mu0=mu0, validate=False)


# -- pairing conversion ----------------------------------------------------


def _raise_first(bad: np.ndarray, what: str) -> None:
    """Raise for the lowest-index tuple flagged in `bad`, if any."""
    if bad.any():
        raise ValueError(f"tuple {int(np.argmax(bad))}: {what}")


def _spd_sqrt(c: np.ndarray) -> np.ndarray:
    """Symmetric positive-definite square roots of a (n, d, d) batch."""
    w, v = np.linalg.eigh(c)
    _raise_first(np.any(w <= 0.0, axis=1), "strain tensor is not positive definite")
    return (v * np.sqrt(w)[:, None, :]) @ np.swapaxes(v, 1, 2)


def convert_pairing(dataset: DataSet, target: PairingKind,
                    mu0: float | None = None) -> DataSet:
    """Re-express a dataset in another strain/stress pairing.

    FP -> CS uses C = F^T F and S = F^{-1} P; the reverse direction takes
    the symmetric positive-definite square root of C, so any rotational
    part of the original F is irrecoverable.  The small-strain pairing is
    identified through C = 2 eps + I with the stress carried over.  The
    metric scale is recalibrated on the converted values unless given.
    """
    d = dataset.dim
    n = len(dataset)
    if target is dataset.kind:
        return DataSet(dataset.kind, d, dataset.strains, dataset.stresses,
                       mu0=dataset.mu0 if mu0 is None else mu0, validate=False)

    eye = np.eye(d)
    e = dataset.strains.reshape(n, d, d)
    s = dataset.stresses.reshape(n, d, d)
    if dataset.kind is PairingKind.FP:
        norm = np.linalg.norm(e, axis=(1, 2))
        _raise_first(np.abs(np.linalg.det(e)) < 1e-14 * np.maximum(1.0, norm ** d),
                     "deformation gradient is singular")
        c, s = np.swapaxes(e, 1, 2) @ e, np.linalg.solve(e, s)
    else:
        c = 2.0 * e + eye if dataset.kind is PairingKind.EPS_SIGMA else e
        s = s.copy()

    if target is PairingKind.CS:
        strains, stresses = c, s
    elif target is PairingKind.EPS_SIGMA:
        strains, stresses = 0.5 * (c - eye), s
    else:  # FP
        f = _spd_sqrt(0.5 * (c + np.swapaxes(c, 1, 2)))
        strains, stresses = f, f @ s
    strains, stresses = strains.reshape(n, -1), stresses.reshape(n, -1)
    return DataSet(target, d, strains, stresses, mu0=mu0, validate=False)
