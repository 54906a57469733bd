import platform
import subprocess
import sys
from pathlib import Path

import pytest

from transposynth import cli, simulator
from transposynth.cli import _EXIT_CODES, main
from transposynth.ir import count_gates, from_text


def test_synth_writes_text_circuit(tmp_path, capsys):
    out = tmp_path / "swap.txt"
    code = main(["synth", "--n", "3", "--a", "000", "--b", "111",
                 "--strategy", "thm3_b", "--out", str(out)])
    assert code == 0
    circ = from_text(out.read_text())
    assert circ.num_qubits == 5
    assert count_gates(circ).toffoli == 6
    assert "toffoli=6" in capsys.readouterr().out


def test_synth_prints_to_stdout_by_default(capsys):
    assert main(["synth", "--n", "2", "--a", "00", "--b", "11"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("qubits 3\n")
    assert "toffoli=2" in captured.err


def test_synth_qasm_output(tmp_path):
    out = tmp_path / "swap.qasm"
    code = main(["synth", "--n", "3", "--a", "010", "--b", "101",
                 "--lower", "naive", "--format", "qasm2", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("OPENQASM 2.0;")
    assert "ccx" not in text  # everything lowered


def test_synth_gray_without_lowering_cannot_be_qasm(capsys):
    code = main(["synth", "--n", "4", "--a", "0000", "--b", "1111",
                 "--strategy", "gray", "--format", "qasm2"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_synth_gray_with_lowering_emits_qasm(capsys):
    code = main(["synth", "--n", "4", "--a", "0000", "--b", "1111",
                 "--strategy", "gray", "--lower", "naive", "--format", "qasm2"])
    assert code == 0
    assert capsys.readouterr().out.startswith("OPENQASM 2.0;")


def test_synth_optimize_flag(capsys):
    base = main(["synth", "--n", "4", "--a", "0000", "--b", "0011"])
    out_plain = capsys.readouterr().out
    opt = main(["synth", "--n", "4", "--a", "0000", "--b", "0011", "--optimize"])
    out_opt = capsys.readouterr().out
    assert base == opt == 0
    assert len(from_text(out_opt).gates) < len(from_text(out_plain).gates)


def test_synth_rejects_bad_labels(capsys):
    assert main(["synth", "--n", "3", "--a", "00", "--b", "111"]) == 2
    assert main(["synth", "--n", "3", "--a", "000", "--b", "000"]) == 2


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["synth", "--n", "3", "--a", "000", "--b", "111",
              "--strategy", "sideways"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["study"])
    assert err.value.code == 2


def test_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "c.txt"
    main(["synth", "--n", "3", "--a", "001", "--b", "110", "--out", str(out)])
    capsys.readouterr()
    code = main(["verify", "--circuit", str(out), "--a", "001", "--b", "110"])
    assert code == 0
    assert capsys.readouterr().out == "PASS: 8/8 basis states (exhaustive, tolerance 1e-09)\n"


def test_verify_fails_on_wrong_labels(tmp_path, capsys):
    out = tmp_path / "c.txt"
    main(["synth", "--n", "3", "--a", "001", "--b", "110", "--out", str(out)])
    capsys.readouterr()
    code = main(["verify", "--circuit", str(out), "--a", "001", "--b", "011"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_missing_file_exits_2(tmp_path, capsys):
    code = main(["verify", "--circuit", str(tmp_path / "nope.txt"),
                 "--a", "01", "--b", "10"])
    assert code == 2


def test_verify_unparseable_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("qubits two\n")
    assert main(["verify", "--circuit", str(bad), "--a", "01", "--b", "10"]) == 2


@pytest.mark.parametrize("text", [
    "qubits 2 7\nrole 0 data\nrole 1 data\nX 0\n",
    "qubits 2\nrole 0 data clean\nrole 1 data\nX 0\n",
], ids=["qubits", "role"])
def test_verify_a_line_with_a_field_left_over_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "extra.txt"
    bad.write_text(text)
    assert main(["verify", "--circuit", str(bad), "--a", "01", "--b", "10"]) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_verify_huge_qubits_line_exits_2(tmp_path, capsys):
    # Exit 1 means "verification failed"; an unusable file is exit 2.
    bad = tmp_path / "huge.txt"
    bad.write_text("qubits 1000000000000\nrole 0 data\n")
    assert main(["verify", "--circuit", str(bad), "--a", "01", "--b", "10"]) == 2
    assert "one role line per qubit" in capsys.readouterr().err


def _gray_n21_verify(path):
    """The verify argv of a gray circuit on 21 data wires and no ancilla:
    21 swept bits, one more than the verifiers enumerate."""
    a, b = "0" * 21, "1" * 21
    assert main(["synth", "--n", "21", "--a", a, "--b", b, "--strategy", "gray",
                 "--out", str(path)]) == 0
    return ["verify", "--circuit", str(path), "--a", a, "--b", b]


def test_verify_oversized_register_exits_2(tmp_path, capsys):
    argv = _gray_n21_verify(tmp_path / "c.txt")
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: 21 qubits to enumerate exceeds the cap of 20\n"


def test_the_environment_does_not_raise_the_cap(tmp_path, capsys, monkeypatch):
    # TRANSPOSYNTH_SIM_CAP=21 used to make this verify sweep all 2^21
    # inputs and exit 0; set far higher, the same override ran the machine
    # out of memory.  The refusal now comes before any input plane.
    argv = _gray_n21_verify(tmp_path / "c.txt")
    monkeypatch.setenv("TRANSPOSYNTH_SIM_CAP", "21")

    def no_planes(*args):
        raise AssertionError("the verifier built input planes")

    monkeypatch.setattr(simulator, "_sweep", no_planes)
    assert main(argv) == 2
    assert "exceeds the cap of 20" in capsys.readouterr().err


def _out_of_memory(*args, **kwargs):
    raise MemoryError


def test_running_out_of_memory_in_verify_exits_2(tmp_path, capsys, monkeypatch):
    # A MemoryError used to leave main with a traceback and exit 1, the
    # code of a FAIL verdict.
    path = tmp_path / "c.txt"
    assert main(["synth", "--n", "4", "--a", "0000", "--b", "1011", "--out", str(path)]) == 0
    monkeypatch.setattr(cli, "verify_transposition", _out_of_memory)
    capsys.readouterr()
    assert main(["verify", "--circuit", str(path), "--a", "0000", "--b", "1011"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: out of memory\n"
    assert "Traceback" not in captured.err


def test_running_out_of_memory_in_synth_writes_no_file(tmp_path, capsys, monkeypatch):
    out = tmp_path / "c.txt"
    monkeypatch.setattr(cli, "remove_redundancies", _out_of_memory)
    argv = ["synth", "--n", "4", "--a", "0000", "--b", "1011", "--optimize", "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    assert "Traceback" not in capsys.readouterr().err


def test_help_lists_the_exit_codes_the_readme_lists(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.endswith("\n" + _EXIT_CODES)
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    assert f"```text\n{_EXIT_CODES}```\n" in readme


def test_study_writes_csv_and_markdown(tmp_path, capsys):
    out = tmp_path / "tiny.csv"
    code = main(["study", "--n", "2..3", "--trials", "5", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    assert out.exists() and out.with_suffix(".md").exists()
    captured = capsys.readouterr()
    assert captured.out.startswith("| n |")
    assert captured.err == f"wrote {out} and {tmp_path / 'tiny.md'}\n"
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert any(line.startswith("2,thm3_b,") for line in lines)


def test_study_refuses_an_out_path_that_is_its_own_mirror(tmp_path, capsys, monkeypatch):
    def must_not_run(config):
        raise AssertionError("the study ran before --out was checked")

    monkeypatch.setattr("transposynth.cli.run_count_study", must_not_run)
    code = main(["study", "--n", "2", "--trials", "5", "--out", str(tmp_path / "t.md")])
    assert code == 2
    assert "mirror would overwrite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_study_single_n_and_hamming(tmp_path):
    out = tmp_path / "h.csv"
    code = main(["study", "--n", "4", "--hamming", "2", "--trials", "6",
                 "--strategy", "thm3_a", "--out", str(out)])
    assert code == 0
    assert "4,thm3_a,6," in out.read_text()


def test_study_with_a_bad_last_n_exits_2_before_any_trial(tmp_path, capsys, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("a trial ran before n=65 was refused")

    monkeypatch.setattr("transposynth.harness.synthesize_transposition", must_not_run)
    code = main(["study", "--n", "3..65", "--trials", "2", "--out", str(tmp_path / "bad.csv")])
    assert code == 2
    assert "n must be an int in 1..64, got 65" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_study_bad_range_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["study", "--n", "5..2"])
    assert err.value.code == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "transposynth.cli", "synth", "--n", "2",
         "--a", "01", "--b", "10"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("qubits 3")


_FAULTS_PER_VERIFY = """
import contextlib, io, resource, sys
from transposynth.cli import _EXIT_CODES, main
path, a, b = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    main(["synth", "--n", "14", "--a", a, "--b", b, "--strategy", "thm3_b",
          "--lower", "inverse_aware", "--optimize", "--out", path])
with open(path, "a") as f:
    f.write("X 0\\n")
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["verify", "--circuit", path, "--a", a, "--b", b])
    print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="page-fault counts and mallopt are glibc on Linux",
)
def test_repeated_verify_reuses_the_heap(tmp_path):
    # A failing n=14 verify runs the branch engine on 2^14 inputs with 102
    # H gates.  With glibc's moving default thresholds, every call in a
    # fresh process faulted in 26 000-36 000 pages; the CLI fixes them, so
    # later calls reuse the heap the first one grew.
    proc = subprocess.run(
        [sys.executable, "-c", _FAULTS_PER_VERIFY, str(tmp_path / "c.txt"),
         "01101011100100", "11001110100111"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    runs = [tuple(map(int, line.split())) for line in proc.stdout.splitlines()]
    assert [rc for rc, _ in runs] == [1, 1, 1]
    assert max(faults for _, faults in runs[1:]) < 2000
