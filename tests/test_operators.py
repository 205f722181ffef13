import numpy as np
import pytest
from hypothesis import given, strategies as st

from pqst.operators import (Observable, ObservableError, PAULI_1Q, PauliString,
                            activity_of_indices, activity_support, expectation,
                            format_observable, is_x_structured, parse_observable,
                            pattern_mask, pattern_name, pattern_qubits,
                            rotate_to_x_structure)
from pqst.golden import random_density_matrix

words = st.text(alphabet="IXYZ", min_size=1, max_size=4)
coeffs = st.floats(min_value=-100, max_value=100, allow_nan=False,
                   allow_infinity=False).filter(lambda c: abs(c) > 1e-6)


def test_pauli_string_basics():
    t = PauliString("XIZ", 2.0)
    assert t.n == 3
    assert t.activity == 0b100  # qubit 1 is the most significant bit
    assert np.allclose(t.matrix(), 2.0 * np.kron(np.kron(PAULI_1Q["X"], np.eye(2)),
                                                 PAULI_1Q["Z"]))
    with pytest.raises(ObservableError):
        PauliString("XQ")
    with pytest.raises(ObservableError):
        PauliString("X", float("nan"))


@given(st.lists(st.tuples(coeffs, words), min_size=1, max_size=4))
def test_parse_format_round_trip(raw):
    n = len(raw[0][1])
    terms = [PauliString(w[:n].ljust(n, "I"), c) for c, w in raw]
    text = format_observable(Observable(terms))
    back = parse_observable(text)
    assert format_observable(back) == text


@pytest.mark.parametrize("bad", ["", "2", "2 XB", "x XX", "1 XX;; 2 YY", "1 XX; 3"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ObservableError):
        parse_observable(bad)


def test_parse_checks_register_size():
    with pytest.raises(ObservableError):
        parse_observable("1 XX; 1 XXX")


def test_activity_of_element():
    masks = activity_of_indices(2)
    assert masks[0, 2] == pattern_mask({1}, 2) == 0b10
    assert masks[1, 1] == 0
    assert masks[0, 3] == pattern_mask({1, 2}, 2) == 0b11
    assert masks.shape == (4, 4)
    assert pattern_qubits(0b101, 3) == [1, 3]
    assert pattern_name(0b101, 3) == "{1,3}"
    assert pattern_name(0, 3) == "diagonal"


def test_activity_support_and_x_structure():
    obs = parse_observable("8 ZZ; 2 XY; 3 XX; -10 IZ")
    assert activity_support(obs) == frozenset({0, 0b11})
    assert is_x_structured(obs)
    assert not is_x_structured(parse_observable("7 XZ"))


def test_rotation_single_terms_match_known_assignments():
    u, rotated, names = rotate_to_x_structure(parse_observable("1 ZX"))
    assert names == ("1", "H")
    assert rotated.terms[0].word in ("ZZ", "XX")
    u, rotated, names = rotate_to_x_structure(parse_observable("1 ZY"))
    assert names == ("1", "HSH")


def test_rotation_preserves_expectation(rng):
    rho = random_density_matrix(2, rng)
    for text in ("1 ZX", "3 XZ; 5 YZ", "7 XZ; 15 YZ; 12 ZX"):
        obs = parse_observable(text)
        found = rotate_to_x_structure(obs)
        if found is None:
            continue
        u, rotated, _ = found
        direct = expectation(obs, rho.mat)
        via = expectation(rotated, u @ rho.mat @ u.conj().T)
        assert via == pytest.approx(direct, abs=1e-10)
        assert is_x_structured(rotated)


def test_rotation_not_found_for_conflicting_terms():
    # X and Z on the same qubit with identity elsewhere cannot both be
    # mapped into a single X-structured form by per-qubit rotations
    assert rotate_to_x_structure(parse_observable("1 XI; 1 ZI")) is None


def test_expectation_imag_guard(rng):
    rho = random_density_matrix(1, rng)
    assert expectation(parse_observable("1 Z"), rho.mat) == pytest.approx(
        float(np.trace(PAULI_1Q["Z"] @ rho.mat).real))
    with pytest.raises(ObservableError):
        expectation(PAULI_1Q["Y"], np.array([[0, 1], [0, 0]], dtype=complex))
