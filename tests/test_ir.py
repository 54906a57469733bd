import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transposynth.ir import (
    Circuit,
    Gate,
    GateCounts,
    GateKind,
    QubitRole,
    circuit,
    cnot,
    count_gates,
    from_text,
    h,
    int_to_label,
    inverse,
    label_to_int,
    mcx,
    s,
    t,
    tdg,
    to_qasm2,
    to_text,
    toffoli,
    x,
)


def test_gate_arity_validation():
    with pytest.raises(ValueError):
        Gate(GateKind.H, (0,), 1)
    with pytest.raises(ValueError):
        Gate(GateKind.CNOT, (), 0)
    with pytest.raises(ValueError):
        Gate(GateKind.TOFFOLI, (0,), 1)
    with pytest.raises(ValueError):
        Gate(GateKind.MCX, (), 0)


def test_gate_rejects_duplicate_and_negative_qubits():
    with pytest.raises(ValueError):
        cnot(1, 1)
    with pytest.raises(ValueError):
        toffoli(0, 2, 2)
    with pytest.raises(ValueError):
        Gate(GateKind.X, (), -1)


@pytest.mark.parametrize("kind, controls, target", [
    (GateKind.X, (), True),             # to_text would write "X True"
    (GateKind.X, (), 1.0),
    (GateKind.CNOT, (0.0,), 1),
    (GateKind.CNOT, (False,), 1),
    (GateKind.CNOT, [0], 1),            # controls must be a tuple
    (GateKind.MCX, range(3), 4),
    ("X", (), 0),                       # kind must be a GateKind
])
def test_gate_rejects_non_int_qubits_and_non_tuple_controls(kind, controls, target):
    with pytest.raises(ValueError):
        Gate(kind, controls, target)


def test_gate_qubits():
    g = mcx((3, 1, 4), 0)
    assert g.qubits == (3, 1, 4, 0)


def test_qubit_roles_hash_by_identity():
    for role in QubitRole:
        assert hash(role) == object.__hash__(role)


def test_circuit_rejects_out_of_range_gate():
    with pytest.raises(ValueError):
        circuit(2, [toffoli(0, 1, 2)])


def test_circuit_rejects_role_mismatch():
    with pytest.raises(ValueError):
        Circuit(3, (QubitRole.DATA,), ())


_DATA2 = (QubitRole.DATA, QubitRole.DATA)


@pytest.mark.parametrize("build", [
    lambda: circuit(2.0),                          # was TypeError from (DATA,) * 2.0
    lambda: circuit(True),                         # was accepted: qreg q[True];
    lambda: Circuit(2.0, _DATA2),                  # was accepted: qubits 2.0
    lambda: Circuit(True, (QubitRole.DATA,)),
], ids=["circuit_float", "circuit_bool", "Circuit_float", "Circuit_bool"])
def test_circuit_refuses_a_width_that_is_not_an_int(build):
    with pytest.raises(ValueError, match="num_qubits must be an int"):
        build()


@pytest.mark.parametrize("build", [
    lambda: Circuit(2, ("data", "data")),          # was accepted, with no data qubit
    lambda: Circuit(2, list(_DATA2)),              # was accepted, then unhashable
    lambda: circuit(2, (), ("data", "data")),
], ids=["Circuit_strings", "Circuit_list", "circuit_strings"])
def test_circuit_refuses_roles_that_are_not_a_tuple_of_qubit_roles(build):
    with pytest.raises(ValueError, match="roles must be a tuple of QubitRole members"):
        build()


@pytest.mark.parametrize("build", [
    lambda: Circuit(2, _DATA2, [x(0)]),            # was accepted, then unhashable
    lambda: Circuit(2, _DATA2, (None,)),           # was AttributeError
    lambda: Circuit(2, _DATA2, ("X 0",)),          # was AttributeError
], ids=["list", "None_member", "str_member"])
def test_circuit_refuses_gates_that_are_not_a_tuple_of_gates(build):
    with pytest.raises(ValueError, match="gates must be a tuple of Gate values"):
        build()


def test_counts_by_kind():
    c = circuit(5, [h(0), x(1), t(2), tdg(2), s(3), cnot(0, 1),
                    toffoli(0, 1, 2), mcx((0, 1, 2), 3)])
    k = count_gates(c)
    assert (k.h, k.x, k.cnot, k.toffoli, k.mcx) == (1, 1, 1, 1, 1)
    assert k.t_type == 2  # T and Tdg pool together
    assert k.s_type == 1
    assert k.total == 8


def test_counts_total_is_field_sum():
    k = GateCounts(h=2, x=3, cnot=4, toffoli=5, mcx=1, t_type=7, s_type=2)
    assert k.total == 2 + 3 + 4 + 5 + 1 + 7 + 2


def test_inverse_reverses_and_daggers():
    c = circuit(3, [h(0), t(1), s(2), cnot(0, 1), toffoli(0, 1, 2)])
    inv = inverse(c)
    assert inv.gates[0] == toffoli(0, 1, 2)
    assert inv.gates[-1] == h(0)
    assert inv.gates[3].kind == GateKind.TDG
    assert inv.gates[2].kind == GateKind.SDG
    # aggregate counts are preserved, double inverse restores exactly
    assert count_gates(inv) == count_gates(c)
    assert inverse(inv) == c


@pytest.mark.parametrize("gates", [
    [],
    [h(0)],
    [x(0), cnot(0, 1), toffoli(0, 1, 2), mcx((0, 1, 2), 3), tdg(3), s(2)],
])
def test_text_round_trip(gates):
    c = circuit(4, gates, roles=(QubitRole.DATA, QubitRole.DATA,
                                 QubitRole.CLEAN_ANCILLA,
                                 QubitRole.BORROWED_ANCILLA))
    assert from_text(to_text(c)) == c


def test_text_format_shape():
    c = circuit(2, [cnot(0, 1)])
    text = to_text(c)
    assert text.splitlines()[0] == "qubits 2"
    assert "role 0 data" in text
    assert text.splitlines()[-1] == "CNOT 0 1"


def test_from_text_accepts_comments_and_blanks():
    c = from_text("""
qubits 2
# a comment
role 0 data
role 1 clean

X 0  # trailing comment
""")
    assert c.gates == (x(0),)
    assert c.roles[1] is QubitRole.CLEAN_ANCILLA


@pytest.mark.parametrize("text", [
    "role 0 data\nX 0",                      # no qubits line
    "qubits 2\nrole 0 data\nX 0",           # missing role
    "qubits 1\nrole 0 data\nFOO 0",         # unknown gate
    "qubits 1\nrole 0 data\nX",             # gate without qubits
    "qubits 1\nrole 0 happy\nX 0",          # bad role name
    "qubits 1\nqubits 1\nrole 0 data",      # duplicate qubits line
])
def test_from_text_rejects_malformed(text):
    with pytest.raises(ValueError):
        from_text(text)


@pytest.mark.parametrize("n", [10 ** 12, 2 ** 62])
def test_from_text_rejects_huge_qubit_count(n):
    # The role lines are counted before any per-qubit list is built.
    with pytest.raises(ValueError, match="one role line per qubit"):
        from_text(f"qubits {n}\nrole 0 data\n")


_NUMBERS = st.one_of(
    st.integers(-3, 6).map(str),
    st.integers(2 ** 62, 2 ** 70).map(str),
    st.sampled_from(["0x1", "0b1", "1e3", "1.0", "+1", "-0", "1_0", "\u0663", "nan", "9" * 5000]),
)
_WORDS = st.sampled_from(
    ["qubits", "role", "data", "clean", "borrowed", "happy", "#", "# note", *(k.value for k in GateKind)]
)
_LINES = st.lists(st.one_of(_WORDS, _NUMBERS), max_size=6).map(" ".join)


@st.composite
def _token_soup(draw):
    """Lines of keywords and numbers (negative, huge, non-decimal),
    comments and blanks; half open with a well-formed header, so gate
    lines reach the register checks too."""
    lines = draw(st.lists(st.one_of(_LINES, st.just(""), st.just("  # comment")), max_size=10))
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        roles = [f"role {q} {draw(st.sampled_from(['data', 'clean', 'borrowed']))}" for q in range(n)]
        lines = [f"qubits {n}", *roles, *lines]
    return "\n".join(lines)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_token_soup())
def test_from_text_raises_only_value_error(text):
    try:
        from_text(text)
    except ValueError:
        pass


def test_label_round_trip():
    assert int_to_label(5, 4) == "1010"  # bit i = qubit i, lowest first
    assert label_to_int("1010", 4) == 5
    assert label_to_int("011", 3) == 6
    for value in range(16):
        assert label_to_int(int_to_label(value, 4), 4) == value
    assert int_to_label(2 ** 64 - 1, 64) == "1" * 64


@pytest.mark.parametrize("bits,width", [
    ("01x", 3), ("0 1", 3), ("012", 3), ("", 0), ("", 1), ("01", 3), ("0101", 3),
])
def test_label_to_int_rejects_bad_labels(bits, width):
    with pytest.raises(ValueError):
        label_to_int(bits, width)


@pytest.mark.parametrize("value,width", [(-1, 3), (8, 3), (0, 0)])
def test_int_to_label_rejects_out_of_range(value, width):
    with pytest.raises(ValueError):
        int_to_label(value, width)


@pytest.mark.parametrize("width", [3.0, True, "3"])
def test_label_conversions_refuse_a_width_that_is_not_an_int(width):
    # int_to_label(5, 3.0) used to raise TypeError, label_to_int("01", 2.0)
    # to succeed.
    with pytest.raises(ValueError):
        int_to_label(5, width)
    with pytest.raises(ValueError):
        label_to_int("1" * 3, width)
    with pytest.raises(ValueError):
        label_to_int(5, 3)


@pytest.mark.parametrize("value", [5.0, True, "5"])
def test_int_to_label_refuses_a_value_that_is_not_an_int(value):
    # int_to_label(5.0, 3) used to raise Python's format error, which names
    # no argument.
    with pytest.raises(ValueError, match="int value"):
        int_to_label(value, 3)


def test_qasm2_output():
    c = circuit(3, [h(2), cnot(1, 2), tdg(2), toffoli(0, 1, 2), s(1), x(0)])
    q = to_qasm2(c)
    assert q.startswith('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n')
    assert "ccx q[0],q[1],q[2];" in q
    assert "tdg q[2];" in q


def test_qasm2_refuses_mcx():
    c = circuit(4, [mcx((0, 1, 2), 3)])
    with pytest.raises(ValueError):
        to_qasm2(c)
