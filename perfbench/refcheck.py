"""Reference checker for emitted transposition circuits.

An exact interpreter of the two formats the ``transposynth`` CLI writes
(OpenQASM 2 over qelib1, and the plain-text circuit format).  It shares
no code with ``transposynth``: gates are parsed here, basis keys are
Python ints (so there is no register-width ceiling), and each input is
run as a dict of live branches whose amplitudes are exact elements of
Z[w] / sqrt(2)^k, w = exp(i*pi/4).  A circuit passes an input only if it
ends in exactly one branch, on the expected key, with amplitude exactly 1.

Amplitudes are 4-tuples (c0, c1, c2, c3) meaning c0 + c1 w + c2 w^2 + c3 w^3,
with one exponent k per input: every H touches every branch, so all
branches of an input share the same sqrt(2)^k denominator.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass

# Gate codes after parsing.  Permutation gates carry a control mask.
PERM, H, T, TDG, S, SDG = range(6)
_PHASES = {"t": T, "tdg": TDG, "s": S, "sdg": SDG}
_TEXT_KINDS = {
    "H": "h", "X": "x", "T": "t", "TDG": "tdg", "S": "s", "SDG": "sdg",
    "CNOT": "cx", "TOFFOLI": "ccx", "MCX": "mcx",
}
_QASM_ARITY = {"h": 1, "x": 1, "t": 1, "tdg": 1, "s": 1, "sdg": 1, "cx": 2, "ccx": 3}
_QASM_GATE = re.compile(r"^([a-z]+)\s+(q\[\d+\](?:\s*,\s*q\[\d+\])*)\s*;$")


@dataclass(frozen=True)
class RefCircuit:
    """A parsed circuit: register width, ancilla roles and named gates.

    gates holds (name, qubits) with the target last; roles maps ancilla
    qubits to "clean" or "borrowed" (everything else is data).
    """

    num_qubits: int
    gates: tuple[tuple[str, tuple[int, ...]], ...]
    roles: dict[int, str]

    def counts(self) -> dict[str, int]:
        """Gate tally in the CLI's vocabulary (t and s fold in their daggers)."""
        fold = {"h": "h", "x": "x", "cx": "cnot", "ccx": "toffoli", "mcx": "mcx",
                "t": "t", "tdg": "t", "s": "s", "sdg": "s"}
        tally = dict.fromkeys(("h", "x", "cnot", "toffoli", "mcx", "t", "s"), 0)
        for name, _ in self.gates:
            tally[fold[name]] += 1
        tally["total"] = len(self.gates)
        return tally

    def without_gate(self, index: int) -> RefCircuit:
        return RefCircuit(self.num_qubits, self.gates[:index] + self.gates[index + 1:], self.roles)


def _check_qubits(qubits: tuple[int, ...], width: int, where: str) -> None:
    if len(set(qubits)) != len(qubits) or any(not 0 <= q < width for q in qubits):
        raise ValueError(f"{where}: bad qubits {qubits} for a register of {width}")


def parse_qasm(text: str, data_qubits: int, ancilla_role: str) -> RefCircuit:
    """Parse OpenQASM 2.  QASM carries no roles, so the caller names them:
    qubits below data_qubits are data, the rest are ancilla_role."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("//")]
    if lines[:2] != ["OPENQASM 2.0;", 'include "qelib1.inc";']:
        raise ValueError("missing OpenQASM 2 header")
    reg = re.fullmatch(r"qreg q\[(\d+)\];", lines[2])
    if reg is None:
        raise ValueError(f"expected one qreg, got {lines[2]!r}")
    width = int(reg.group(1))
    gates = []
    for lineno, line in enumerate(lines[3:], start=4):
        m = _QASM_GATE.match(line)
        if m is None or m.group(1) not in _QASM_ARITY:
            raise ValueError(f"line {lineno}: cannot parse {line!r}")
        qubits = tuple(int(q) for q in re.findall(r"q\[(\d+)\]", m.group(2)))
        if len(qubits) != _QASM_ARITY[m.group(1)]:
            raise ValueError(f"line {lineno}: wrong arity in {line!r}")
        _check_qubits(qubits, width, f"line {lineno}")
        gates.append((m.group(1), qubits))
    roles = {q: ancilla_role for q in range(data_qubits, width)}
    return RefCircuit(width, tuple(gates), roles)


def parse_text(text: str) -> RefCircuit:
    """Parse the plain-text format: a qubits line, role lines, gate lines."""
    width = None
    roles: dict[int, str] = {}
    gates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "qubits":
            width = int(parts[1])
        elif parts[0] == "role":
            roles[int(parts[1])] = parts[2]
        elif parts[0] in _TEXT_KINDS:
            name = _TEXT_KINDS[parts[0]]
            qubits = tuple(int(p) for p in parts[1:])
            if name != "mcx" and len(qubits) != _QASM_ARITY[name]:
                raise ValueError(f"line {lineno}: wrong arity in {raw!r}")
            gates.append((name, qubits))
        else:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}")
    if width is None or sorted(roles) != list(range(width)):
        raise ValueError("need a qubits line and one role line per qubit")
    for lineno, (_, qubits) in enumerate(gates):
        _check_qubits(qubits, width, f"gate {lineno}")
    return RefCircuit(width, tuple(gates), {q: r for q, r in roles.items() if r != "data"})


def _compile(circ: RefCircuit) -> list[tuple[int, int, int]]:
    ops = []
    for name, qubits in circ.gates:
        tbit = 1 << qubits[-1]
        if name == "h":
            ops.append((H, 0, tbit))
        elif name in _PHASES:
            ops.append((_PHASES[name], 0, tbit))
        else:
            cmask = 0
            for q in qubits[:-1]:
                cmask |= 1 << q
            ops.append((PERM, cmask, tbit))
    return ops


def _halve(amp: tuple[int, int, int, int]) -> tuple[int, int, int, int] | None:
    # amp / sqrt(2) = amp * (w - w^3) / 2, exact when the parities allow.
    a, b, c, d = amp
    if (a - c) % 2 or (b - d) % 2:
        return None
    return ((b - d) // 2, (a + c) // 2, (b + d) // 2, (c - a) // 2)


def run_input(ops: list[tuple[int, int, int]], key: int) -> tuple[dict[int, tuple], int]:
    """Run one basis input; returns its branches and their sqrt(2) exponent."""
    state = {key: (1, 0, 0, 0)}
    k = 0
    for code, cmask, tbit in ops:
        if code == PERM:
            state = {(x ^ tbit if x & cmask == cmask else x): amp for x, amp in state.items()}
        elif code == H:
            out: dict[int, tuple] = {}
            for x, (a, b, c, d) in state.items():
                for y, sign in ((x & ~tbit, 1), (x | tbit, -1 if x & tbit else 1)):
                    prev = out.get(y, (0, 0, 0, 0))
                    out[y] = (prev[0] + sign * a, prev[1] + sign * b,
                              prev[2] + sign * c, prev[3] + sign * d)
            state = {y: amp for y, amp in out.items() if amp != (0, 0, 0, 0)}
            k += 1
            while k:
                halved = {y: _halve(amp) for y, amp in state.items()}
                if None in halved.values():
                    break
                state, k = halved, k - 1
        elif code == T:
            state = {x: ((-d, a, b, c) if x & tbit else (a, b, c, d))
                     for x, (a, b, c, d) in state.items()}
        elif code == TDG:
            state = {x: ((b, c, d, -a) if x & tbit else (a, b, c, d))
                     for x, (a, b, c, d) in state.items()}
        elif code == S:
            state = {x: ((-c, -d, a, b) if x & tbit else (a, b, c, d))
                     for x, (a, b, c, d) in state.items()}
        else:  # SDG
            state = {x: ((c, d, -a, -b) if x & tbit else (a, b, c, d))
                     for x, (a, b, c, d) in state.items()}
    return state, k


def label_to_int(bits: str) -> int:
    """Bit i of the label is qubit i."""
    return sum(1 << i for i, ch in enumerate(bits) if ch == "1")


@dataclass(frozen=True)
class CheckResult:
    inputs: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def check_transposition(
    circ: RefCircuit, a: str, b: str, rng: random.Random, extra_inputs: int = 4
) -> CheckResult:
    """Check that circ swaps a and b on the data qubits and fixes other data
    states, on a, b and extra_inputs random data states.  Clean ancillas
    start at 0 and must end at 0; borrowed ancillas start at random values
    and must be restored."""
    n = len(a)
    data_mask = (1 << n) - 1
    if circ.num_qubits - len(circ.roles) != n or any(q < n for q in circ.roles):
        raise ValueError("data qubits must be 0..n-1 with ancillas above them")
    borrowed = [q for q, r in circ.roles.items() if r == "borrowed"]
    ai, bi = label_to_int(a), label_to_int(b)
    data_inputs = [ai, bi] + [rng.getrandbits(n) for _ in range(extra_inputs)]
    ops = _compile(circ)
    failures = []
    for d in data_inputs:
        anc = sum(rng.getrandbits(1) << q for q in borrowed)
        want = (bi if d == ai else ai if d == bi else d) | anc
        state, k = run_input(ops, d | anc)
        if k != 0 or list(state.items()) != [(want, (1, 0, 0, 0))]:
            got = sorted(state)[:4]
            failures.append(
                f"input {d | anc:#x}: want {want:#x} with amplitude 1, got "
                f"{len(state)} branch(es) {[hex(x & data_mask) for x in got]} at k={k}"
            )
    return CheckResult(len(data_inputs), tuple(failures))


def mutation_caught(circ: RefCircuit, a: str, b: str, rng: random.Random) -> tuple[bool, int]:
    """Self-test: delete one seeded T-type gate and require the check to fail.
    Returns (caught, index of the deleted gate)."""
    t_gates = [i for i, (name, _) in enumerate(circ.gates) if name in ("t", "tdg")]
    if not t_gates:
        raise ValueError("circuit has no T gate to delete")
    index = rng.choice(t_gates)
    return not check_transposition(circ.without_gate(index), a, b, rng).passed, index
