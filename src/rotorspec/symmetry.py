"""Point-group and product-group machinery for a tetrahedral rotor at a
tetrahedral site.

Character tables are stored with their true complex irreps so that the
orthogonality and dimension-sum identities hold exactly; the rotation group T
therefore carries the complex conjugate pair 1E/2E rather than a real 2-dim E.
User-facing level labels combine conjugate pairs back into real clusters (see
LEVEL_LABELS).

The product group of site x molecule rotations has 16 complex irreps formed as
outer products of the T irreps.  Eigenlevels of a real Hamiltonian group these
into 10 conjugate-closed real clusters, which carry the compact level
symbols used throughout the spectrum module:

    A1 = A.A          E1 = A.1E + A.2E      L1   = F.F
    A2 = 1E.A + 2E.A  E2 = 1E.2E + 2E.1E    L2   = A.F
    A3 = F.A          E3 = 1E.1E + 2E.2E    I1I2 = 1E.F + 2E.F
                      E4 = F.1E + F.2E

The letter encodes the nuclear-spin species carried by the cluster (A/E via
the molecular factor; L and I clusters carry F spin).  E2/E3 ordering and the
I1I2 pairing are fixed by the computed level structure of the default model:
the mixed-conjugate pair E2 is the lowest E-spin level, the two components of
I1I2 are strictly degenerate (they are swapped by complex conjugation), and E3
lies above the L1(2) + I1I2 group, matching the observed band ordering.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

__all__ = [
    "GroupTable",
    "SpinSpecies",
    "GroupError",
    "character_table",
    "decompose",
    "correlate",
    "raman_active_count",
    "spin_decomposition",
    "LEVEL_LABELS",
    "SPIN_OF_MOL",
    "LevelLabel",
    "T_ROTATIONS",
]


class GroupError(ValueError):
    """Unknown group identifier or label/group mismatch."""


@dataclass(frozen=True)
class GroupTable:
    """Character table: classes as (label, size, rotation angle), irreps as
    (label, dimension, characters per class)."""

    name: str
    classes: tuple[tuple[str, int, float], ...]
    irreps: tuple[tuple[str, int, tuple[complex, ...]], ...]

    def __post_init__(self):
        order = self.order
        dimsum = sum(dim * dim for _, dim, _ in self.irreps)
        if dimsum != order:
            raise GroupError(f"{self.name}: sum of irrep dim^2 = {dimsum} != order {order}")
        sizes = np.array([s for _, s, _ in self.classes], dtype=float)
        chi = np.array([ch for _, _, ch in self.irreps], dtype=complex)
        gram = (chi * sizes) @ chi.conj().T
        if not np.allclose(gram, order * np.eye(len(self.irreps)), atol=1e-12 * order):
            raise GroupError(f"{self.name}: character rows are not orthogonal")
        for label, dim, ch in self.irreps:
            if abs(ch[0] - dim) > 1e-12:
                raise GroupError(f"{self.name}:{label}: identity character != dimension")

    @property
    def order(self) -> int:
        return sum(s for _, s, _ in self.classes)

    @property
    def class_sizes(self) -> np.ndarray:
        return np.array([s for _, s, _ in self.classes], dtype=float)

    def irrep(self, label: str) -> tuple[str, int, tuple[complex, ...]]:
        for row in self.irreps:
            if row[0] == label:
                return row
        raise GroupError(f"no irrep {label!r} in group {self.name}")

    def characters(self, label: str) -> np.ndarray:
        return np.array(self.irrep(label)[2], dtype=complex)


@dataclass(frozen=True)
class SpinSpecies:
    """Nuclear-spin symmetry species of four equivalent spin-1/2 nuclei."""

    label: str              # A, E or F
    spin_weight: int        # spin functions pairing with one rovib level
    total_count: int        # states of this species in the 2^4 spin space


# ----------------------------------------------------------------------------
# geometry of the proper rotations of a tetrahedron (cube-axes orientation)
# ----------------------------------------------------------------------------

_C3_AXES = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))

#: (axis, angle, class index) for the 12 proper rotations; classes are
#: 0 = E, 1 = 4C3(+120), 2 = 4C3(-120), 3 = 3C2.
T_ROTATIONS: tuple[tuple[tuple[int, int, int], float, int], ...] = tuple(
    [((0, 0, 1), 0.0, 0)]
    + [(ax, math.pi, 3) for ax in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    + [(ax, 2 * math.pi / 3, 1) for ax in _C3_AXES]
    + [(ax, -2 * math.pi / 3, 2) for ax in _C3_AXES]
)


def rotation_matrix(axis, angle) -> np.ndarray:
    n = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(n)
    if norm == 0:
        return np.eye(3)
    n = n / norm
    K = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


# ----------------------------------------------------------------------------
# built-in character tables
# ----------------------------------------------------------------------------

_OMEGA = cmath.exp(2j * math.pi / 3)

_T_TABLE = GroupTable(
    name="T",
    classes=(
        ("E", 1, 0.0),
        ("4C3", 4, 2 * math.pi / 3),
        ("4C3'", 4, -2 * math.pi / 3),
        ("3C2", 3, math.pi),
    ),
    irreps=(
        ("A", 1, (1, 1, 1, 1)),
        ("1E", 1, (1, _OMEGA, _OMEGA**2, 1)),
        ("2E", 1, (1, _OMEGA**2, _OMEGA, 1)),
        ("F", 3, (3, 0, 0, -1)),
    ),
)

_TD_TABLE = GroupTable(
    name="Td",
    classes=(
        ("E", 1, 0.0),
        ("8C3", 8, 2 * math.pi / 3),
        ("3C2", 3, math.pi),
        ("6S4", 6, math.pi / 2),
        ("6sd", 6, math.pi),
    ),
    irreps=(
        ("A1", 1, (1, 1, 1, 1, 1)),
        ("A2", 1, (1, 1, 1, -1, -1)),
        ("E", 2, (2, -1, 2, 0, 0)),
        ("F1", 3, (3, 0, -1, 1, -1)),
        ("F2", 3, (3, 0, -1, -1, 1)),
    ),
)

_D2D_TABLE = GroupTable(
    name="D2d",
    classes=(
        ("E", 1, 0.0),
        ("2S4", 2, math.pi / 2),
        ("C2", 1, math.pi),
        ("2C2'", 2, math.pi),
        ("2sd", 2, math.pi),
    ),
    irreps=(
        ("A1", 1, (1, 1, 1, 1, 1)),
        ("A2", 1, (1, 1, 1, -1, -1)),
        ("B1", 1, (1, -1, 1, 1, -1)),
        ("B2", 1, (1, -1, 1, -1, 1)),
        ("E", 2, (2, 0, -2, 0, 0)),
    ),
)

_C3V_TABLE = GroupTable(
    name="C3v",
    classes=(("E", 1, 0.0), ("2C3", 2, 2 * math.pi / 3), ("3sv", 3, math.pi)),
    irreps=(
        ("A1", 1, (1, 1, 1)),
        ("A2", 1, (1, 1, -1)),
        ("E", 2, (2, -1, 0)),
    ),
)


def _product_table() -> GroupTable:
    classes = []
    for (sl, ss, sa), (ml, ms, ma) in product(_T_TABLE.classes, _T_TABLE.classes):
        classes.append((f"{sl}.{ml}", ss * ms, 0.0))
    irreps = []
    for (sl, sd, sch), (ml, md, mch) in product(_T_TABLE.irreps, _T_TABLE.irreps):
        chars = tuple(cs * cm for cs, cm in product(sch, mch))
        irreps.append((f"{sl}.{ml}", sd * md, chars))
    return GroupTable(name="TxT", classes=tuple(classes), irreps=tuple(irreps))


_TXT_TABLE = _product_table()

_TABLES = {
    "T": _T_TABLE,
    "Td": _TD_TABLE,
    "D2d": _D2D_TABLE,
    "C3v": _C3V_TABLE,
    "TxT": _TXT_TABLE,
}


def character_table(group: str) -> GroupTable:
    """Return the built-in table for T, Td, D2d, C3v or the product TxT."""
    if group not in _TABLES:
        raise GroupError(f"unknown group {group!r}; expected one of {', '.join(_TABLES)}")
    return _TABLES[group]


# ----------------------------------------------------------------------------
# representation arithmetic
# ----------------------------------------------------------------------------

def decompose(rep_characters, table: GroupTable, tol: float = 1e-9) -> dict[str, int]:
    """Reduce a representation given by its class characters into irrep
    multiplicities.  Non-integer multiplicities beyond tol signal that the
    characters do not describe a genuine representation."""
    chi = np.asarray(rep_characters, dtype=complex)
    if chi.shape != (len(table.classes),):
        raise GroupError(
            f"expected {len(table.classes)} characters for {table.name}, got {chi.shape}"
        )
    sizes = table.class_sizes
    out: dict[str, int] = {}
    for label, _, ich in table.irreps:
        n = np.sum(sizes * chi * np.conj(ich)) / table.order
        if abs(n.imag) > tol or abs(n.real - round(n.real)) > tol or n.real < -tol:
            raise GroupError(
                f"characters do not reduce over {table.name}: "
                f"multiplicity of {label} = {n:.3e}"
            )
        m = int(round(n.real))
        if m:
            out[label] = m
    return out


# class restriction Td -> D2d fixing the z-axis S4:
# (E, 2S4, C2, 2C2', 2sd) pull back to Td classes (E, 6S4, 3C2, 3C2, 6sd)
_TD_TO_D2D_CLASS = (0, 3, 2, 2, 4)


def correlate(label: str) -> dict[str, int]:
    """Descent-in-symmetry correlation of the Td irrep `label` into D2d.

    Any S4 axis of Td gives a conjugate subgroup and hence the same result;
    the z axis is fixed here by convention.
    """
    chi = character_table("Td").characters(label)
    restricted = np.array([chi[i] for i in _TD_TO_D2D_CLASS])
    return decompose(restricted, character_table("D2d"))


#: irreps spanned by the symmetric polarizability tensor
RAMAN_ACTIVE = {
    "Td": frozenset({"A1", "E", "F2"}),
    "D2d": frozenset({"A1", "B1", "B2", "E"}),
}


def raman_active_count(content, group: str) -> int:
    """Number of Raman-allowed bands in a multiset of irrep labels, counting
    each occurrence once.  content: iterable of labels or {label: mult}."""
    table = character_table(group)
    if table.name not in RAMAN_ACTIVE:
        raise GroupError(f"no Raman activity table for group {table.name}")
    active = RAMAN_ACTIVE[table.name]
    items = content.items() if isinstance(content, dict) else ((c, 1) for c in content)
    count = 0
    for label, mult in items:
        table.irrep(label)  # raises on unknown label
        if label in active:
            count += mult
    return count


# ----------------------------------------------------------------------------
# nuclear spin statistics
# ----------------------------------------------------------------------------

_TETRA_VERTICES = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)], float)


def rotation_permutations() -> list[tuple[tuple[int, ...], int]]:
    """Vertex permutation and class index for each of the 12 proper rotations."""
    perms = []
    for axis, angle, cls in T_ROTATIONS:
        R = rotation_matrix(axis, angle)
        perm = []
        for v in _TETRA_VERTICES:
            image = R @ v
            hits = np.where(np.all(np.abs(_TETRA_VERTICES - image) < 1e-9, axis=1))[0]
            if len(hits) != 1:
                raise RuntimeError("rotation does not permute tetrahedron vertices")
            perm.append(int(hits[0]))
        perms.append((tuple(perm), cls))
    return perms


def _cycle_count(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for i in range(len(perm)):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


def _spin_class_sums() -> np.ndarray:
    """Class sums over T of the permutation character of the 16 product
    states of four spin-1/2 nuclei.  A product state is fixed by a
    permutation iff its labels are constant on each cycle, so the character
    is 2^(number of cycles)."""
    sums = np.zeros(4)
    for perm, cls in rotation_permutations():
        sums[cls] += 2.0 ** _cycle_count(perm)
    return sums


_SPIN_CLASS_SUMS = _spin_class_sums()

#: molecular T irrep -> the nuclear-spin species it pairs with
SPIN_OF_MOL = {"A": "A", "1E": "E", "2E": "E", "F": "F"}


def spin_decomposition() -> list[SpinSpecies]:
    """Decompose the 16-dim space of four spin-1/2 nuclei under the 12
    permutation-rotations of T by character projection."""
    table = character_table("T")
    mult = {}
    for label, dim, ich in table.irreps:
        n = sum(_SPIN_CLASS_SUMS[c] * np.conj(ich[c]) for c in range(4)) / 12.0
        ni = int(round(n.real))
        if abs(n - ni) > 1e-9:
            raise RuntimeError(f"non-integer spin multiplicity for {label}: {n}")
        mult[label] = ni
    species = [
        SpinSpecies("A", spin_weight=mult["A"], total_count=mult["A"]),
        SpinSpecies("E", spin_weight=mult["1E"] + mult["2E"],
                    total_count=mult["1E"] + mult["2E"]),
        SpinSpecies("F", spin_weight=mult["F"], total_count=3 * mult["F"]),
    ]
    assert sum(s.total_count for s in species) == 16
    return species


# ----------------------------------------------------------------------------
# real (conjugate-closed) level labels of the product group
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelLabel:
    """A conjugate-closed cluster of product-group irreps with its level
    symbol, spin species and Pauli-allowed state count."""

    name: str
    constituents: tuple[str, ...]   # complex product irrep labels "site.mol"
    dimension: int
    spin: str                       # A, E or F
    pauli_count: int = field(default=0)

    def mol_characters(self) -> np.ndarray:
        """Characters over T classes of the molecular factor (site factor
        traced)."""
        chi = np.zeros(4, dtype=complex)
        for c in self.constituents:
            s, m = c.split(".")
            chi += _T_TABLE.characters(m) * _T_TABLE.irrep(s)[1]
        return chi


def _build_level_labels() -> dict[str, LevelLabel]:
    pairs = {
        "A1": ("A.A",),
        "A2": ("1E.A", "2E.A"),
        "A3": ("F.A",),
        "E1": ("A.1E", "A.2E"),
        "E2": ("1E.2E", "2E.1E"),
        "E3": ("1E.1E", "2E.2E"),
        "E4": ("F.1E", "F.2E"),
        "L2": ("A.F",),
        "I1I2": ("1E.F", "2E.F"),
        "L1": ("F.F",),
    }
    out = {}
    for name, constituents in pairs.items():
        dim = sum(_TXT_TABLE.irrep(c)[1] for c in constituents)
        spin = SPIN_OF_MOL[constituents[0].split(".")[1]]
        # Pauli count: invariants of (molecular action on cluster) x spin space
        tmp = LevelLabel(name, constituents, dim, spin, 0)
        chi_mol = tmp.mol_characters()
        g = sum(chi_mol[c] * _SPIN_CLASS_SUMS[c] for c in range(4)) / 12.0
        gi = int(round(g.real))
        assert abs(g - gi) < 1e-9
        out[name] = LevelLabel(name, constituents, dim, spin, gi)
    return out


#: level-symbol registry keyed by symbol
LEVEL_LABELS: dict[str, LevelLabel] = _build_level_labels()

#: complex product irrep -> real cluster symbol
CONSTITUENT_TO_LABEL: dict[str, str] = {
    c: name for name, lab in LEVEL_LABELS.items() for c in lab.constituents
}
