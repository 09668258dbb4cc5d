import json
import os
import subprocess
import sys

import jsonschema
import pytest

from dhsim.cli import (
    EXIT_OK, EXIT_USAGE, EXIT_VERIFY, ParseError, RunConfig, main,
    parse_circuit, render_json, render_text, run_report,
)
from dhsim.engine import AddAncilla, Gate

BELL = "qubits 2\nh 1\ncnot 1 2\n"

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "src", "dhsim", "report_schema.json")
with open(SCHEMA_PATH, encoding="utf-8") as _handle:
    SCHEMA = json.load(_handle)


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.dh"
    path.write_text(BELL)
    return str(path)


class TestParseCircuit:
    def test_bell_circuit(self):
        c = parse_circuit(BELL)
        assert c.initial_qubits == 2
        assert c.steps == (Gate("H", (0,)), Gate("CNOT", (0, 1)))

    def test_case_insensitive_and_comments(self):
        c = parse_circuit("QUBITS 2 # register\n# prep\nH 1\n\nCnot 1 2\n")
        assert len(c.steps) == 2

    def test_ancilla_directive(self):
        c = parse_circuit("qubits 1\nancilla\ncnot 1 2\n")
        assert isinstance(c.steps[0], AddAncilla)
        assert c.final_qubits == 2

    def test_identity_double_hadamard(self):
        from dhsim.engine import evolve_circuit, initial_set
        c = parse_circuit("qubits 1\nh 1\nh 1\n")
        assert evolve_circuit(c).descriptors == initial_set(1).descriptors

    @pytest.mark.parametrize("text,line,col", [
        ("qubits 2\ncnot 1 1\n", 2, 6),
        ("qubits 2\nfoo 1\n", 2, 1),
        ("qubits 2\nh 3\n", 2, 3),
        ("qubits 2\nh 1 2\n", 2, 1),
        ("h 1\n", 1, 1),
        ("qubits 0\n", 1, 8),
        ("qubits 2\nh x\n", 2, 3),
    ])
    def test_located_errors(self, text, line, col):
        with pytest.raises(ParseError) as err:
            parse_circuit(text)
        assert err.value.line == line
        assert err.value.column == col

    def test_register_cap(self):
        with pytest.raises(ParseError):
            parse_circuit("qubits 12\n", max_qubits=10)
        with pytest.raises(ParseError):
            parse_circuit("qubits 10\nancilla\n", max_qubits=10)


class TestRunReport:
    def test_run_sections(self, bell_file):
        code, report = run_report(RunConfig("run", bell_file, verify=True))
        assert code == EXIT_OK
        jsonschema.validate(report, SCHEMA)
        rows = report["sections"]["descriptors"]
        assert rows[0]["x"] == "1 * Z⊗X"
        assert rows[1]["z"] == "1 * X⊗Z"
        assert report["sections"]["verified"] is True
        diag = {d["bitstring"]: d["probability"]["exact"]
                for d in report["sections"]["diagonal"]}
        assert diag == {"00": "1/2", "01": "0", "10": "0", "11": "1/2"}

    def test_validate(self, bell_file):
        code, report = run_report(RunConfig("validate", bell_file))
        assert code == EXIT_OK
        jsonschema.validate(report, SCHEMA)
        assert report["sections"]["well_formed"] is True
        assert report["sections"]["independent_count"] == 16

    def test_symmetries(self, bell_file):
        code, report = run_report(RunConfig("symmetries", bell_file, verify=True))
        assert code == EXIT_OK
        jsonschema.validate(report, SCHEMA)
        assert report["sections"]["set_count"] == 12
        assert report["sections"]["transform_count"] == 12
        assert report["sections"]["verified"] is True

    def test_construct(self, bell_file):
        code, report = run_report(RunConfig("construct", bell_file,
                                            verify=True, ancilla_budget=0))
        assert code == EXIT_OK
        jsonschema.validate(report, SCHEMA)
        assert report["sections"]["found"] is True
        assert report["sections"]["verified"] is True

    def test_trace(self, bell_file):
        code, report = run_report(RunConfig("trace", bell_file))
        assert code == EXIT_OK
        jsonschema.validate(report, SCHEMA)
        assert report["sections"]["per_qubit"] == {"1": [1, 2], "2": [1, 2]}

    @pytest.mark.parametrize("sub", ["swap-demo", "measure-demo", "chain-demo"])
    def test_demos(self, sub):
        code, report = run_report(RunConfig(sub, verify=True))
        assert code == EXIT_OK
        jsonschema.validate(report, SCHEMA)
        assert report["sections"]["verified"] is True

    def test_swap_demo_content(self):
        code, report = run_report(RunConfig("swap-demo"))
        deps = report["sections"]["dependencies"]
        assert deps["2"] == [1, 2, 3, 6]
        assert deps["3"] == [2, 3, 4, 5]
        bell = report["sections"]["relative_bell"]
        assert [o["sign_x"] for o in bell] == [1, 1, -1, -1]
        assert [o["sign_z"] for o in bell] == [1, -1, 1, -1]


class TestVerificationFailurePath:
    def test_exit_two_when_oracle_disagrees(self, bell_file, monkeypatch):
        from dhsim import cli as cli_mod

        def broken(state, p):
            return 123.0

        monkeypatch.setattr(cli_mod.oracle, "expectation_dense", broken)
        code, report = run_report(RunConfig("run", bell_file, verify=True))
        assert code == EXIT_VERIFY
        assert report["sections"]["verified"] is False


class TestDeterminism:
    def test_json_byte_stable(self, bell_file):
        reports = []
        for _ in range(2):
            _, report = run_report(RunConfig("run", bell_file, verify=True,
                                             seed=7))
            reports.append(render_json(report))
        assert reports[0] == reports[1]

    def test_text_and_json_share_numbers(self, bell_file):
        _, report = run_report(RunConfig("run", bell_file))
        text = render_text(report)
        for d in report["sections"]["diagonal"]:
            assert d["probability"]["exact"] in text


class TestMainEntry:
    def test_ok_exit(self, bell_file, capsys):
        assert main(["run", bell_file]) == EXIT_OK
        out = capsys.readouterr().out
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)

    def test_text_format(self, bell_file, capsys):
        assert main(["run", bell_file, "--format", "text"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("subcommand: run")

    def test_parse_error_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.dh"
        path.write_text("qubits 2\ncnot 1 1\n")
        assert main(["run", str(path)]) == EXIT_USAGE
        assert "col 6" in capsys.readouterr().err

    def test_missing_input_exit(self, capsys):
        assert main(["run"]) == EXIT_USAGE

    def test_out_file(self, bell_file, tmp_path):
        target = tmp_path / "report.json"
        assert main(["run", bell_file, "--out", str(target)]) == EXIT_OK
        report = json.loads(target.read_text())
        assert report["subcommand"] == "run"

    def test_env_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DH_MAX_QUBITS", "1")
        path = tmp_path / "two.dh"
        path.write_text(BELL)
        assert main(["run", str(path)]) == EXIT_USAGE
        assert "exceeds cap" in capsys.readouterr().err

    def test_verify_before_input(self, bell_file, capsys):
        assert main(["run", "--verify", bell_file]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["sections"]["verified"] is True

    @pytest.mark.parametrize("value", ["abc", "0", "-3", ""])
    def test_bad_env_cap(self, bell_file, capsys, monkeypatch, value):
        monkeypatch.setenv("DH_MAX_QUBITS", value)
        assert main(["run", bell_file]) == EXIT_USAGE
        assert "DH_MAX_QUBITS" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_bad_ancilla_budget(self, bell_file, capsys, value):
        assert main(["construct", bell_file, "--ancillas", value]) == EXIT_USAGE
        assert "--ancillas" in capsys.readouterr().err

    def test_console_script(self, bell_file):
        proc = subprocess.run(
            [sys.executable, "-m", "dhsim.cli", "run", bell_file, "--verify"],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        report = json.loads(proc.stdout)
        assert report["sections"]["verified"] is True


# Preparations of the six single-qubit stabilizer states from |0>.
_PRODUCT_PREPS = {"0": (), "1": ("x",), "+": ("h",), "-": ("x", "h"),
                  "+i": ("h", "s"), "-i": ("x", "h", "s")}


class TestProductStateSymmetries:
    @pytest.mark.parametrize("first,second", [
        (a, b) for a in _PRODUCT_PREPS for b in _PRODUCT_PREPS])
    def test_symmetries_verify(self, tmp_path, first, second):
        lines = ["qubits 2"]
        lines += [f"{g} 1" for g in _PRODUCT_PREPS[first]]
        lines += [f"{g} 2" for g in _PRODUCT_PREPS[second]]
        path = tmp_path / "product.dh"
        path.write_text("\n".join(lines) + "\n")
        code, report = run_report(RunConfig("symmetries", str(path), verify=True))
        assert code == EXIT_OK
        assert report["sections"]["verified"] is True


class TestOmittedDiagonal:
    def test_nine_qubits_note_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "nine.dh"
        path.write_text("qubits 9\nh 1\ncnot 1 9\n")
        assert main(["run", str(path)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "diagonal" not in json.loads(captured.out)["sections"]
        assert captured.err == ("note: diagonal omitted for the 9-qubit "
                                "register (computed up to 8 qubits)\n")

    def test_small_register_prints_no_note(self, bell_file, capsys):
        assert main(["run", bell_file]) == EXIT_OK
        captured = capsys.readouterr()
        assert "diagonal" in json.loads(captured.out)["sections"]
        assert captured.err == ""
