"""Group-theory layer: tables, reduction, descent, spin statistics, selection."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import compose, selection_allowed, site_characters, trivial_label
from rotorspec import symmetry
from rotorspec.symmetry import (GroupError, LEVEL_LABELS, character_table,
                                correlate, decompose,
                                raman_active_count, rotation_matrix,
                                spin_decomposition)

GROUPS = ["T", "Td", "D2d", "C3v", "TxT"]


# ---------------------------------------------------------------- tables

@pytest.mark.parametrize("group", GROUPS)
def test_row_orthogonality(group):
    table = character_table(group)
    sizes = table.class_sizes
    chi = np.array([row[2] for row in table.irreps], dtype=complex)
    gram = (chi * sizes) @ chi.conj().T
    assert np.allclose(gram, table.order * np.eye(len(table.irreps)), atol=1e-12 * table.order)


@pytest.mark.parametrize("group", GROUPS)
def test_column_orthogonality(group):
    table = character_table(group)
    chi = np.array([row[2] for row in table.irreps], dtype=complex)
    sizes = table.class_sizes
    for a in range(chi.shape[1]):
        for b in range(chi.shape[1]):
            s = np.sum(chi[:, a] * np.conj(chi[:, b]))
            expect = table.order / sizes[a] if a == b else 0.0
            assert abs(s - expect) < 1e-12 * table.order


@pytest.mark.parametrize("group,order,dims", [
    ("Td", 24, [1, 1, 2, 3, 3]),
    ("T", 12, [1, 1, 1, 3]),
    ("D2d", 8, [1, 1, 1, 1, 2]),
    ("C3v", 6, [1, 1, 2]),
])
def test_table_shapes(group, order, dims):
    table = character_table(group)
    assert table.order == order
    assert sorted(d for _, d, _ in table.irreps) == sorted(dims)
    assert sum(d * d for _, d, _ in table.irreps) == order


def test_product_group_order_and_identity_characters():
    table = character_table("TxT")
    assert table.order == 144
    assert len(table.irreps) == 16
    t_dims = {label: d for label, d, _ in character_table("T").irreps}
    for label, dim, chars in table.irreps:
        site, mol = label.split(".")
        assert dim == t_dims[site] * t_dims[mol]
        assert chars[0] == dim


def test_unknown_group_rejected():
    with pytest.raises(GroupError, match="unknown group"):
        character_table("Oh")


# ---------------------------------------------------------------- decompose

def test_regular_representation():
    table = character_table("Td")
    chars = np.zeros(len(table.classes))
    chars[0] = table.order
    content = decompose(chars, table)
    assert content == {label: dim for label, dim, _ in table.irreps}


def test_vector_representation_td():
    # characters of (x, y, z) under (E, 8C3, 3C2, 6S4, 6sd)
    chars = [3, 0, -1, -1, 1]
    assert decompose(chars, character_table("Td")) == {"F2": 1}


def test_all_ones_is_trivial():
    for group in GROUPS:
        table = character_table(group)
        assert decompose(np.ones(len(table.classes)), table) == {trivial_label(table): 1}


def test_non_representation_rejected():
    table = character_table("Td")
    with pytest.raises(GroupError, match="do not reduce"):
        decompose([3, 1, 1, 1, 1], table)


@given(st.dictionaries(
    st.sampled_from(["A1", "A2", "E", "F1", "F2"]),
    st.integers(min_value=1, max_value=4),
    min_size=1, max_size=5,
))
def test_compose_decompose_round_trip(content):
    table = character_table("Td")
    assert decompose(compose(content, table), table) == content


@given(st.dictionaries(
    st.sampled_from([f"{s}.{m}" for s in ("A", "1E", "2E", "F")
                     for m in ("A", "1E", "2E", "F")]),
    st.integers(min_value=1, max_value=3),
    min_size=1, max_size=6,
))
def test_compose_decompose_round_trip_product_group(content):
    table = character_table("TxT")
    assert decompose(compose(content, table), table) == content


# ---------------------------------------------------------------- correlate

def _restriction_oracle(td_label):
    """Independent descent: solve the 5x5 character system of D2d directly."""
    td = character_table("Td")
    d2d = character_table("D2d")
    # D2d classes (E, 2S4, C2, 2C2', 2sd) drawn from Td classes
    pullback = [0, 3, 2, 2, 4]
    chi = np.array([td.characters(td_label)[i] for i in pullback])
    M = np.array([row[2] for row in d2d.irreps], dtype=complex).T
    mult = np.linalg.solve(M, chi)
    out = {}
    for (label, _, _), n in zip(d2d.irreps, mult):
        assert abs(n.imag) < 1e-12 and abs(n.real - round(n.real)) < 1e-9
        if round(n.real):
            out[label] = int(round(n.real))
    return out


@pytest.mark.parametrize("label,expected", [
    ("A1", {"A1": 1}),
    ("A2", {"B1": 1}),
    ("E", {"A1": 1, "B1": 1}),
    ("F1", {"A2": 1, "E": 1}),
    ("F2", {"B2": 1, "E": 1}),
])
def test_correlation_examples(label, expected):
    assert correlate(label) == expected


@pytest.mark.parametrize("label", ["A1", "A2", "E", "F1", "F2"])
def test_correlation_matches_restriction_oracle(label):
    assert correlate(label) == _restriction_oracle(label)


@pytest.mark.parametrize("label", ["A1", "A2", "E", "F1", "F2"])
def test_correlation_preserves_dimension(label):
    td_dim = character_table("Td").irrep(label)[1]
    d2d = character_table("D2d")
    image = correlate(label)
    assert sum(d2d.irrep(l)[1] * n for l, n in image.items()) == td_dim


def test_correlate_rejects_non_td():
    with pytest.raises(GroupError, match="Td"):
        correlate("B1")  # a D2d irrep


# ---------------------------------------------------------------- raman

def test_raman_counts():
    assert raman_active_count({"A1": 1, "E": 1, "F2": 2}, "Td") == 4
    assert raman_active_count(["A2", "F1"], "Td") == 0
    assert raman_active_count(["A1", "B1", "B2", "E", "A2"], "D2d") == 4


def test_raman_count_after_descent():
    # A2 -> B1 (active), F1 -> A2 + E (E active)
    total = 0
    for label in ("A2", "F1"):
        total += raman_active_count(correlate(label), "D2d")
    assert total == 2


def test_raman_unknown_label_rejected():
    with pytest.raises(GroupError):
        raman_active_count(["Q7"], "Td")
    with pytest.raises(GroupError, match="no Raman activity table"):
        raman_active_count(["A"], "T")


# ---------------------------------------------------------------- spin

def _even_permutations():
    perms = []
    for p in itertools.permutations(range(4)):
        inversions = sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j])
        if inversions % 2 == 0:
            perms.append(p)
    return perms


def test_spin_decomposition_against_brute_force():
    """Independent oracle: explicit permutation matrices on the 16 product
    spin states, projected with the T characters."""
    states = list(itertools.product([0, 1], repeat=4))
    index = {s: i for i, s in enumerate(states)}
    perms = _even_permutations()
    assert len(perms) == 12
    chi_by_class = {}
    for p in perms:
        U = np.zeros((16, 16))
        for s in states:
            t = tuple(s[p[i]] for i in range(4))
            U[index[t], index[s]] = 1.0
        ncycles = 0
        seen = [False] * 4
        for i in range(4):
            if not seen[i]:
                ncycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = p[j]
        # 3-cycles and double transpositions both have 2 cycles here;
        # the permutation order tells them apart
        order = 1
        q = p
        while tuple(q) != (0, 1, 2, 3):
            q = tuple(q[p[i]] for i in range(4))
            order += 1
        key = (ncycles, order)
        chi_by_class.setdefault(key, []).append(np.trace(U))
    # classes: identity (4 cycles), 3-cycles (order 3), double transpositions (order 2)
    traces = {k: (len(v), v[0]) for k, v in chi_by_class.items()}
    assert traces[(4, 1)] == (1, 16.0)
    assert traces[(2, 3)] == (8, 4.0)
    assert traces[(2, 2)] == (3, 4.0)
    # project: n_A over identity/3cycles/double transpositions
    n_a = (16 + 8 * 4 + 3 * 4) / 12
    n_f = (3 * 16 + 0 - 1 * (3 * 4)) / 12
    species = {s.label: s for s in spin_decomposition()}
    assert species["A"].total_count == int(n_a) == 5
    assert species["F"].total_count == 3 * int(n_f) == 9
    assert species["E"].total_count == 16 - 5 - 9 == 2


def test_spin_totals_and_weights():
    species = {s.label: s for s in spin_decomposition()}
    assert sum(s.total_count for s in species.values()) == 16
    assert species["A"].spin_weight == 5
    assert species["E"].spin_weight == 2
    assert species["F"].spin_weight == 3


def test_rotation_permutations_are_even_and_distinct():
    perms = symmetry.rotation_permutations()
    assert len({p for p, _ in perms}) == 12
    assert set(p for p, _ in perms) <= set(_even_permutations())


# ---------------------------------------------------------------- selection

def test_selection_examples():
    assert selection_allowed("Td", "A1", "F2", "F2")
    assert not selection_allowed("Td", "A1", "A1", "F2")
    assert selection_allowed("Td", "A1", "A1", "A1")


@given(st.sampled_from(["A1", "A2", "E", "F1", "F2"]),
       st.sampled_from(["A1", "A2", "E", "F1", "F2"]),
       st.sampled_from(["A1", "A2", "E", "F1", "F2"]))
def test_selection_symmetric_for_real_operator(initial, final, operator):
    forward = selection_allowed("Td", initial, final, operator)
    backward = selection_allowed("Td", final, initial, operator)
    assert forward == backward


def test_selection_on_product_group():
    # rank-1 dipole operator transforms as F on both frames
    assert selection_allowed("TxT", "A.A", "F.F", "F.F")
    assert not selection_allowed("TxT", "A.A", "A.A", "F.F")
    # the complex conjugate pair couples through F.F: F x F contains both E's
    assert selection_allowed("TxT", "1E.F", "F.F", "F.F")
    assert selection_allowed("TxT", "F.F", "F.F", "F.F")
    # a 1E.A -> A.A dipole transition is spin- and symmetry-forbidden
    assert not selection_allowed("TxT", "1E.A", "A.A", "F.F")


# ---------------------------------------------------------------- level labels

def test_level_labels_cover_every_product_irrep_once():
    seen = [c for lab in LEVEL_LABELS.values() for c in lab.constituents]
    assert sorted(seen) == sorted(l for l, _, _ in character_table("TxT").irreps)
    assert sum(lab.dimension for lab in LEVEL_LABELS.values()) == 36


def test_level_label_spins_and_pauli_counts():
    expected = {
        "A1": ("A", 5), "A2": ("A", 10), "A3": ("A", 15),
        "E1": ("E", 2), "E2": ("E", 2), "E3": ("E", 2), "E4": ("E", 6),
        "L2": ("F", 3), "I1I2": ("F", 6), "L1": ("F", 9),
    }
    for name, (spin, pauli) in expected.items():
        assert LEVEL_LABELS[name].spin == spin
        assert LEVEL_LABELS[name].pauli_count == pauli


def test_level_label_factor_characters():
    for lab in LEVEL_LABELS.values():
        # identity characters of either factor trace the full cluster
        assert site_characters(lab)[0] == pytest.approx(lab.dimension)
        assert lab.mol_characters()[0] == pytest.approx(lab.dimension)
        # conjugate-closed clusters carry real characters
        assert np.abs(site_characters(lab).imag).max() < 1e-12
        assert np.abs(lab.mol_characters().imag).max() < 1e-12


def test_rotation_matrices_are_orthogonal():
    for axis, angle, _ in symmetry.T_ROTATIONS:
        R = rotation_matrix(axis, angle)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(R) - 1) < 1e-12
