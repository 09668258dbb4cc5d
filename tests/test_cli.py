import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import typing

import jsonschema
import numpy as np
import pytest

from dhsim.cli import (
    EXIT_OK, EXIT_USAGE, EXIT_VERIFY, ParseError, RunConfig, main,
    parse_circuit, render_json, render_text, run_report,
)
from dhsim.engine import (
    GATE_ARITY, AddAncilla, Gate, evolve_circuit, gate_steps,
)
from conftest import count_calls

BELL = "qubits 2\nh 1\ncnot 1 2\n"

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "src", "dhsim", "report_schema.json")
with open(SCHEMA_PATH, encoding="utf-8") as _handle:
    SCHEMA = json.load(_handle)


def final_qubits(circuit):
    """Register size after every ancilla directive of the circuit."""
    return circuit.initial_qubits + sum(isinstance(s, AddAncilla)
                                        for s in circuit.steps)


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
        assert final_qubits(c) == 2

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


# Malformed files with the message, line and column each one reports.
_MALFORMED = [
    ('qubits\t2\nh\t3\n', 'line 2, col 3: qubit 3 out of range 1..2', 2, 3),
    ('qubits 2\n\tcnot\t1\t\t1\n', 'line 2, col 7: cnot operands must be distinct', 2, 7),
    ('\tqubits\t\t2\t3\n', 'line 1, col 2: qubits takes one count', 1, 2),
    ('qubits\xa02\nh\u20031\nh\u3000x\n', "line 3, col 3: bad qubit label 'x'", 3, 3),
    ('qubits 2\n\u2028h 1\n\xa0\xa0cnot\u20091\u20095\n', 'line 4, col 10: qubit 5 out of range 1..2', 4, 10),
    ('qubits\x852\nfoo\xa01\n', 'line 1, col 1: qubits takes one count', 1, 1),
    ('qubits 2\nh\u200b1\n', "line 2, col 1: unknown gate 'h\\u200b1'", 2, 1),
    ('qubits 2\nh 1\x1c2\n', "line 3, col 1: unknown gate '2'", 3, 1),
    ('# header\nqubits 2 # two\nh 1 # first\ncnot 1 3 # bad\n', 'line 4, col 8: qubit 3 out of range 1..2', 4, 8),
    ('qubits 2\n#h 3\n  # cnot 1 1\nh 2#x\nh #1\n', 'line 5, col 1: h takes 1 qubit label(s), got 0', 5, 1),
    ('qubits # 2\n', 'line 1, col 1: qubits takes one count', 1, 1),
    ('qubits 2\r\nh 1\r\nfoo 1\r\n', "line 3, col 1: unknown gate 'foo'", 3, 1),
    ('qubits 2\r\n\r\ncnot 2 2\r\n', 'line 3, col 6: cnot operands must be distinct', 3, 6),
    ('qubits 1\r\nancilla\r\nh 3\r\n', 'line 3, col 3: qubit 3 out of range 1..2', 3, 3),
    ('qubits 2\n qubits 3\n', 'line 2, col 2: duplicate qubits declaration', 2, 2),
    ('qubits 2\nh 1\nQUBITS 2\n', 'line 3, col 1: duplicate qubits declaration', 3, 1),
    ('qubits 2\ncnot 1 2\ncnot 1 2\ncnot 1 3\n', 'line 4, col 8: qubit 3 out of range 1..2', 4, 8),
    ('qubits 2\nh 1\nh 1\nh 1x\n', "line 4, col 3: bad qubit label '1x'", 4, 3),
    ('qubits 2\nh 2\nh 2\nh  2\nh 0\n', 'line 5, col 3: qubit 0 out of range 1..2', 5, 3),
    ('qubits 2\ncnot 1 2\nancilla\ncnot 1 2\ncnot 3 2\nh 4\n', 'line 6, col 3: qubit 4 out of range 1..3', 6, 3),
    ('qubits 1\nh 1\nancilla\nh 1\ncnot 2 1\nancilla\ncnot 2 1\ncnot 2 4\n', 'line 8, col 8: qubit 4 out of range 1..3', 8, 8),
    ('qubits 2\nH 1\nh 1\nH 3\n', 'line 4, col 3: qubit 3 out of range 1..2', 4, 3),
    ('qubits 2\nCNOT 1 2\ncnot 1 2\nCnot 2 2\n', 'line 4, col 6: cnot operands must be distinct', 4, 6),
    ('', 'line 1, col 1: missing qubits declaration', 1, 1),
    ('# only a comment\n\n', 'line 1, col 1: missing qubits declaration', 1, 1),
    ('h 1\n', 'line 1, col 1: qubits declaration must come first', 1, 1),
    ('qubits\n', 'line 1, col 1: qubits takes one count', 1, 1),
    ('qubits 2 3\n', 'line 1, col 1: qubits takes one count', 1, 1),
    ('qubits 0\n', "line 1, col 8: bad qubit count '0'", 1, 8),
    ('qubits x\n', "line 1, col 8: bad qubit count 'x'", 1, 8),
    ('qubits ²\n', "line 1, col 8: bad qubit count '²'", 1, 8),
    ('qubits ٣\n', "line 1, col 8: bad qubit count '٣'", 1, 8),
    ('qubits +2\n', "line 1, col 8: bad qubit count '+2'", 1, 8),
    ('qubits 1_0\n', "line 1, col 8: bad qubit count '1_0'", 1, 8),
    ('qubits 11\n', 'line 1, col 8: register of 11 exceeds cap 10', 1, 8),
    ('qubits 10\nancilla\n', 'line 2, col 1: register of 11 exceeds cap 10', 2, 1),
    ('qubits 2\nancilla 1\n', 'line 2, col 9: ancilla takes no arguments', 2, 9),
    ('qubits 2\nancilla\nancilla   x y\n', 'line 3, col 11: ancilla takes no arguments', 3, 11),
    ('qubits 2\nhh 1\n', "line 2, col 1: unknown gate 'hh'", 2, 1),
    ('qubits 2\nh\n', 'line 2, col 1: h takes 1 qubit label(s), got 0', 2, 1),
    ('qubits 2\nh 1 2\n', 'line 2, col 1: h takes 1 qubit label(s), got 2', 2, 1),
    ('qubits 2\ncnot 1\n', 'line 2, col 1: cnot takes 2 qubit label(s), got 1', 2, 1),
    ('qubits 2\nbell 1 2 1\n', 'line 2, col 1: bell takes 2 qubit label(s), got 3', 2, 1),
    ('qubits 2\nh -1\n', "line 2, col 3: bad qubit label '-1'", 2, 3),
    ('qubits 2\nh ١\n', "line 2, col 3: bad qubit label '١'", 2, 3),
    ('qubits 2\nh 01\nh 3\n', 'line 3, col 3: qubit 3 out of range 1..2', 3, 3),
    ('qubits 3\nbell 2 2\n', 'line 2, col 6: bell operands must be distinct', 2, 6),
    ('qubits 3\nbell 3 x\n', "line 2, col 8: bad qubit label 'x'", 2, 8),
]


def _random_circuit_file(rng):
    """A well-formed circuit file in varied spelling, its steps and its
    final register size.  Some gate lines repeat an earlier one verbatim,
    across ancillas too."""
    n = rng.randint(1, 4)
    blanks = [" ", "  ", "\t", "\u00a0", "\u2003", "\u3000"]
    lines = [f"qubits{rng.choice(blanks)}{n}"]
    gate_lines = []
    steps = []
    for _ in range(rng.randint(0, 30)):
        roll = rng.random()
        if roll < 0.1 and n < 8:
            lines.append(rng.choice(["ancilla", "ANCILLA", " ancilla # grow"]))
            steps.append(AddAncilla())
            n += 1
        elif roll < 0.2:
            lines.append(rng.choice(["", "# note", "  \t", "#h 99"]))
        elif roll < 0.4 and gate_lines:
            text, gate = rng.choice(gate_lines)
            lines.append(text)
            steps.append(gate)
        else:
            kind = rng.choice([k for k, arity in GATE_ARITY.items() if arity <= n])
            gate = Gate(kind, tuple(rng.sample(range(n), GATE_ARITY[kind])))
            word = rng.choice([kind, kind.lower(), kind.capitalize()])
            text = rng.choice(blanks).join(
                [word, *(str(q + 1) for q in gate.operands)])
            if rng.random() < 0.3:
                text = rng.choice(blanks) + text + " # gate"
            lines.append(text)
            gate_lines.append((text, gate))
            steps.append(gate)
    newline = rng.choice(["\n", "\r\n"])
    return newline.join(lines) + newline, steps, n


class TestParserTable:
    @pytest.mark.parametrize("text,message,line,col", _MALFORMED)
    def test_malformed_file(self, text, message, line, col):
        with pytest.raises(ParseError) as err:
            parse_circuit(text)
        assert (str(err.value), err.value.line, err.value.column) == \
            (message, line, col)

    def test_well_formed_files(self):
        rng = random.Random(18)
        for _ in range(300):
            text, steps, n = _random_circuit_file(rng)
            c = parse_circuit(text)
            assert c.steps == tuple(steps)
            assert c.initial_qubits + sum(isinstance(s, AddAncilla)
                                          for s in c.steps) == n

    @pytest.mark.parametrize("kind", sorted(GATE_ARITY))
    def test_every_kind_pins_its_arity(self, kind):
        """One label too few and one too many, for every kind in the table."""
        arity, word = GATE_ARITY[kind], kind.lower()
        for count in (arity - 1, arity + 1):
            line = " ".join([word, *map(str, range(1, count + 1))])
            with pytest.raises(ParseError) as err:
                parse_circuit(f"qubits 4\n{line}\n")
            assert str(err.value) == (f"line 2, col 1: {word} takes {arity} "
                                      f"qubit label(s), got {count}")

    def test_repeated_line_reuses_the_gate(self):
        c = parse_circuit("qubits 2\ncnot 1 2\nancilla\ncnot  1 2\nCNOT 1 2\n")
        assert c.steps[1] is not c.steps[0]
        assert c.steps[2] is c.steps[0]
        assert c.steps[3] == c.steps[0] and c.steps[3] is not c.steps[0]

    def test_split_and_token_regex_agree_on_whitespace(self):
        """Tokens come from str.split, columns from the \\S+ regex; both
        must take the same characters as whitespace."""
        every = "".join(map(chr, range(0x110000)))
        assert ({ch for ch in every if ch.isspace()}
                == set(re.findall(r"\s", every)))


class TestUnlocatedErrors:
    """Errors with no place in the circuit file print no line or column."""

    @pytest.mark.parametrize("sub,message", [
        ("validate", "validate needs a two-qubit circuit"),
        ("symmetries", "symmetries needs a two-qubit circuit"),
        ("construct", "construct covers 1- or 2-qubit densities"),
    ])
    def test_register_size(self, tmp_path, capsys, sub, message):
        path = tmp_path / "three.dh"
        path.write_text("qubits 3\nh 1\n")
        assert main([sub, str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_verify_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DH_MAX_QUBITS", "11")
        path = tmp_path / "wide.dh"
        path.write_text("qubits 11\n")
        assert main(["run", str(path), "--verify"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "note: diagonal omitted for the 11-qubit register (computed up to "
            "8 qubits)\n"
            "error: --verify checks registers of up to 10 qubits against the "
            "dense oracle; this one has 11\n")

    def test_missing_circuit_file(self, capsys):
        with pytest.raises(ParseError) as err:
            run_report(RunConfig("validate"))
        assert str(err.value) == "validate requires a circuit file"
        assert (err.value.line, err.value.column) == (None, None)
        assert main(["validate"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: validate requires a circuit file\n"

    def test_trace_has_no_oracle_check(self, bell_file, capsys):
        with pytest.raises(ParseError) as err:
            run_report(RunConfig("trace", str(bell_file), verify=True))
        assert (err.value.line, err.value.column) == (None, None)
        assert main(["trace", str(bell_file), "--verify"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == ("error: trace has no oracle check; "
                                "run it without --verify\n")
        assert captured.out == ""

    @pytest.mark.parametrize("sub", ["swap-demo", "measure-demo", "chain-demo"])
    def test_demo_refuses_a_circuit_file(self, bell_file, capsys, sub):
        with pytest.raises(ParseError) as err:
            run_report(RunConfig(sub, str(bell_file)))
        assert (err.value.line, err.value.column) == (None, None)
        assert main([sub, str(bell_file)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == (f"error: {sub} builds its own circuit; "
                                "run it without a circuit file\n")
        assert captured.out == ""

    @pytest.mark.parametrize("sub", ["run", "validate", "symmetries", "construct",
                                     "trace"])
    def test_missing_circuit_file_through_main(self, capsys, sub):
        assert main([sub]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: {sub} requires a circuit file\n"
        assert captured.out == ""


class TestUsageFormattedOnce:
    @staticmethod
    def _outcome(call, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                call(argv)
            except SystemExit:
                pass
        return out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("argv", [
        ["--help"], ["run", "--help"], ["bogus"], ["run", "x", "--format", "xml"],
        ["run", "x", "--seed", "z"], ["run", "x", "--ancillas", "-1"],
    ])
    def test_messages_equal_a_parser_without_the_preset(self, argv):
        from dhsim import cli
        plain = cli._parser.__wrapped__()
        plain.usage = None
        want = self._outcome(plain.parse_intermixed_args, argv)
        assert want[0] or want[1]
        assert self._outcome(main, argv) == want

    def test_usage_is_preset(self):
        from dhsim import cli
        assert cli._parser().usage.startswith("dhsim [-h]")


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


WIDE = "qubits 5\nh 1\ncnot 1 2\ns 2\nbell 2 3\nh 4\ncnot 4 5\ny 5\n"


class TestVerificationFailurePath:
    def test_exit_two_when_oracle_disagrees(self, bell_file, monkeypatch):
        from dhsim import oracle

        def broken(state, strings):
            return np.full(len(strings), 123.0, dtype=complex)

        monkeypatch.setattr(oracle, "string_averages", broken)
        code, report = run_report(RunConfig("run", bell_file, verify=True))
        assert code == EXIT_VERIFY
        assert report["sections"]["verified"] is False

    def test_construct_that_finds_nothing_fails_verify(self, bell_file, monkeypatch):
        """A circuit's own set reproduces its density, so an empty search
        under --verify is a failed check, with the `verified` key set."""
        from dhsim import uniqueness
        monkeypatch.setattr(uniqueness, "construct_from_density",
                            lambda rho, budget: None)
        code, report = run_report(RunConfig("construct", bell_file, verify=True))
        assert code == EXIT_VERIFY
        assert report["sections"] == {"found": False, "system_qubits": 2,
                                      "ancilla_budget": 1, "verified": False}
        code, report = run_report(RunConfig("construct", bell_file))
        assert code == EXIT_OK and "verified" not in report["sections"]

    def test_construct_verify_consults_the_oracle(self, bell_file, monkeypatch):
        """A density that is not the circuit's (|00> for the Bell circuit)
        yields a set the engine agrees with; only the oracle's state of the
        circuit can refuse it."""
        from dhsim import density
        from dhsim.engine import initial_set
        zeros = density.reconstruct_density(initial_set(2), [0, 1])
        monkeypatch.setattr(density, "reconstruct_density", lambda set_, qubits: zeros)
        code, report = run_report(RunConfig("construct", bell_file, verify=True))
        assert report["sections"]["found"] is True
        assert code == EXIT_VERIFY
        assert report["sections"]["verified"] is False

    def test_ten_qubit_verify_samples_distinct_strings(self, tmp_path, monkeypatch):
        """Above 4^10 > 10^6 strings the picks are still drawn without
        replacement; 200 independent draws at seed 34 repeat one string."""
        from dhsim import oracle
        path = tmp_path / "ten.dh"
        path.write_text("qubits 10\nh 1\ncnot 1 10\n")
        calls = count_calls(monkeypatch, oracle, "string_averages")
        code, report = run_report(RunConfig("run", str(path), verify=True, seed=34))
        assert code == EXIT_OK and report["sections"]["verified"] is True
        (_, rows), = calls
        # The 200 samples come first; the 30 printed singles follow them.
        rows = np.asarray(rows).tolist()
        assert len(rows) == 230
        assert len({tuple(row) for row in rows[:200]}) == 200

    def test_negated_printed_singles_fail_verify(self, tmp_path, monkeypatch):
        """Every nonzero single of a 10-qubit run negated where the report
        reads them: it prints the wrong values, and --verify, whose 200
        samples hold none of the 30 singles at seed 0, checks the printed
        ones as well."""
        from dhsim import cli as cli_mod
        path = tmp_path / "ten.dh"
        path.write_text("qubits 10\nx 1\nh 2\nh 3\ns 3\nh 4\ncnot 4 5\n")
        real = cli_mod.single_averages

        def negated_singles(set_):
            return [-v for v in real(set_)]

        cfg = RunConfig("run", str(path), verify=True)
        assert run_report(cfg)[0] == EXIT_OK
        monkeypatch.setattr(cli_mod, "single_averages", negated_singles)
        code, report = run_report(cfg)
        # Qubit 1 is |1>: its z average is -1, printed here as +1.
        assert report["sections"]["singles"][0]["z"]["exact"] == "1"
        assert code == EXIT_VERIFY
        assert report["sections"]["verified"] is False

    @pytest.mark.parametrize("qubit", [1, 2, None])
    def test_negated_measure_demo_number_fails_verify(self, monkeypatch, qubit):
        """One printed z average of measure-demo negated: a single of system
        1 or 2, or (None) system 1's Bloch vector.  --verify compares every
        one of them with the oracle."""
        from dhsim import protocols
        real = protocols.run_generalized_measurement_demo

        def negated():
            demo = real()
            if qubit is None:
                x, y, z = demo["system_bloch"]
                demo["system_bloch"] = (x, y, -z)
            else:
                x, y, z = demo["singles"][qubit]
                demo["singles"][qubit] = [x, y, -z]
            return demo

        cfg = RunConfig("measure-demo", verify=True)
        assert run_report(cfg)[0] == EXIT_OK
        monkeypatch.setattr(protocols, "run_generalized_measurement_demo", negated)
        code, report = run_report(cfg)
        sections = report["sections"]
        printed = (sections["system_bloch"] if qubit is None
                   else sections["singles"][str(qubit)])
        assert printed[2]["exact"] == "-1"
        assert code == EXIT_VERIFY
        assert sections["verified"] is False

    @staticmethod
    def _corrupt_one(monkeypatch, position):
        """Shift one oracle average by far more than ATOL; record call sizes."""
        from dhsim import oracle
        real = oracle.string_averages
        sizes = []

        def corrupted(state, strings):
            out = real(state, strings)
            out[position] += 1e-6
            sizes.append(len(strings))
            return out

        monkeypatch.setattr(oracle, "string_averages", corrupted)
        return sizes

    @pytest.mark.parametrize("position", [0, 117, 199])
    def test_one_corrupted_sample_of_200(self, tmp_path, monkeypatch, position):
        path = tmp_path / "wide.dh"
        path.write_text(WIDE)
        cfg = RunConfig("run", str(path), verify=True)
        assert run_report(cfg)[0] == EXIT_OK
        sizes = self._corrupt_one(monkeypatch, position)
        code, report = run_report(cfg)
        # The 200 samples, then the 15 printed singles, each a row of its own.
        assert sizes == [215]
        assert code == EXIT_VERIFY
        assert report["sections"]["verified"] is False

    def test_engine_value_on_a_skipped_zero_row(self, tmp_path, monkeypatch):
        """A nonzero engine value where every bra amplitude of the string is
        an exact zero, the row string_averages never gathers, still fails."""
        from dhsim import cli as cli_mod, oracle
        from dhsim.pauli import ONE
        path = tmp_path / "wide.dh"
        path.write_text(WIDE)
        cfg = RunConfig("run", str(path), verify=True)
        psi = oracle.apply_circuit(5, gate_steps(evolve_circuit(parse_circuit(WIDE))))
        support = np.flatnonzero(psi)
        real = cli_mod.expectations
        corrupted = []

        def one_on_a_skipped_row(set_, strings):
            values = real(set_, strings)
            if len(strings) == 200:
                for k, letters in enumerate(strings):
                    x = sum(1 << (4 - q) for q, l in enumerate(letters) if l in (1, 2))
                    if not np.any(psi[support ^ x]):
                        assert not values[k]
                        values[k] = ONE
                        corrupted.append(k)
                        break
            return values

        monkeypatch.setattr(cli_mod, "expectations", one_on_a_skipped_row)
        code, report = run_report(cfg)
        assert len(corrupted) == 1
        assert code == EXIT_VERIFY
        assert report["sections"]["verified"] is False

    def test_one_corrupted_symmetry_table_entry(self, bell_file, monkeypatch):
        cfg = RunConfig("symmetries", bell_file, verify=True)
        code, report = run_report(cfg)
        assert code == EXIT_OK
        # All 16 strings are sampled in pick order, and each of the 12 sets'
        # 16 table entries is compared with the row of its own string; the
        # last row, Z⊗Z, is corrupted.
        sizes = self._corrupt_one(monkeypatch, -1)
        code, report = run_report(cfg)
        assert sizes == [16]
        assert code == EXIT_VERIFY
        assert report["sections"]["verified"] is False


def test_swap_demo_verify_evolves_the_oracle_state_once(monkeypatch):
    from dhsim import oracle
    real = oracle.apply_circuit
    sizes = []

    def counting(n, steps, state=None):
        sizes.append(n)
        return real(n, steps, state)

    monkeypatch.setattr(oracle, "apply_circuit", counting)
    code, report = run_report(RunConfig("swap-demo", verify=True))
    assert code == EXIT_OK and report["sections"]["verified"] is True
    assert sizes == [6]


def test_swap_demo_verify_compares_the_reduced_pairs(monkeypatch):
    """One outcome's reduced q_4z negated in its stored set, and its q_y
    with it (q_y = i q_x q_z, so the pair stays a set), handed to the
    report after the basis and purity assertions passed on the real pairs:
    only the comparison with the conditioned oracle state can see it."""
    from dhsim import protocols
    from dhsim.engine import Descriptor, DescriptorSet
    real = protocols.run_entanglement_swap

    def negated():
        result = real()
        outcomes = list(result.relative_bell)
        d1, d4 = outcomes[2].reduced.descriptors
        outcomes[2] = outcomes[2]._replace(
            reduced=DescriptorSet(2, (d1, Descriptor(d4.qx, -d4.qy, -d4.qz))))
        return result._replace(relative_bell=tuple(outcomes))

    assert run_report(RunConfig("swap-demo", verify=True))[0] == EXIT_OK
    monkeypatch.setattr(protocols, "run_entanglement_swap", negated)
    code, report = run_report(RunConfig("swap-demo", verify=True))
    assert code == EXIT_VERIFY
    assert report["sections"]["verified"] is False


def test_two_qubit_run_computes_the_diagonal_once(bell_file, monkeypatch):
    """The pair analysis prints the diagonal the ``diagonal`` section holds,
    from the one ``diagonal_probabilities`` call that section makes."""
    from dhsim import density
    calls = count_calls(monkeypatch, density, "diagonal_probabilities")
    code, report = run_report(RunConfig("run", bell_file))
    assert code == EXIT_OK and len(calls) == 1
    sections = report["sections"]
    assert sections["pair_analysis"]["diagonal"] == [
        row["probability"]["exact"] for row in sections["diagonal"]]


def test_symmetries_searches_the_symmetries_once(bell_file, monkeypatch):
    """One sign search per report: the class takes each symmetry with the
    signs its search found."""
    from dhsim import uniqueness
    calls = count_calls(monkeypatch, uniqueness, "_transform_signs")
    code, report = run_report(RunConfig("symmetries", bell_file, verify=True))
    assert code == EXIT_OK and report["sections"]["transform_count"] == 12
    assert len(calls) == 1


@pytest.mark.parametrize("subcommand,most", [("swap-demo", 10), ("run", 1)])
def test_each_pair_table_built_once(bell_file, monkeypatch, subcommand, most):
    """The swap builds one table per analysed pair (6) and per reduced
    outcome pair (4); a two-qubit run one for its pair analysis."""
    from dhsim import density
    calls = count_calls(monkeypatch, density, "expectation_table")
    path = bell_file if subcommand == "run" else None
    code, report = run_report(RunConfig(subcommand, path, verify=True))
    assert code == EXIT_OK and report["sections"]["verified"] is True
    assert 0 < len(calls) <= most


@pytest.mark.parametrize("frame", ["", "x 1\n", "z 1\ny 2\n", "y 1\nx 2\n"])
def test_symmetries_builds_no_table_beside_13_basis_reports(tmp_path, monkeypatch,
                                                            frame):
    """No table is built apart from the basis reports: the circuit set's
    report gives the density and decides the canonical signs, every
    generated set's table comes from the products that validate it, and
    --verify compares those.  Thirteen reports: the circuit set's and one
    per set of the class."""
    from dhsim import density, uniqueness
    calls = count_calls(monkeypatch, density, "expectation_table")
    reports = count_calls(monkeypatch, uniqueness, "validate_basis")
    path = tmp_path / "bell.dh"
    path.write_text(BELL + frame)
    code, report = run_report(RunConfig("symmetries", str(path), verify=True))
    assert code == EXIT_OK and report["sections"]["set_count"] == 12
    assert report["sections"]["verified"] is True
    assert len(calls) == 0 and len(reports) == 13


def test_swap_demo_verify_builds_at_most_6_tables(monkeypatch):
    """One table per analysed pair; the four reduced outcome pairs take
    theirs from the products that validate them."""
    from dhsim import density
    calls = count_calls(monkeypatch, density, "expectation_table")
    code, report = run_report(RunConfig("swap-demo", verify=True))
    assert code == EXIT_OK and report["sections"]["verified"] is True
    assert 0 < len(calls) <= 6


def test_trace_scans_each_support_once(tmp_path, monkeypatch):
    """On a 10-qubit, 24-gate circuit each step reads the supports of the
    rows it changed, once each; an unchanged bystander's is remembered from
    the step before."""
    from dhsim import protocols
    real = protocols.row_support
    scanned = []

    def counting(row):
        scanned.append(row)
        return real(row)

    monkeypatch.setattr(protocols, "row_support", counting)
    operands = 0
    rng = random.Random(19)
    lines = ["qubits 10"]
    for _ in range(24):
        kind = rng.choice(("h", "s", "x", "cnot", "bell"))
        count = 2 if kind in ("cnot", "bell") else 1
        operands += count
        lines.append(kind + " " + " ".join(str(q + 1) for q in rng.sample(range(10), count)))
    path = tmp_path / "wide.dh"
    path.write_text("\n".join(lines) + "\n")
    code, report = run_report(RunConfig("trace", str(path)))
    assert code == EXIT_OK and len(report["sections"]["per_step"]) == 25
    assert 0 < len(scanned) <= 10 + operands


class TestSymmetriesVerifyUsesTheReturnedTables:
    @staticmethod
    def _spy(monkeypatch, corrupt=None):
        from dhsim import cli as cli_mod, uniqueness
        from dhsim.pauli import Z
        real_generate, real_verify = uniqueness.generate_equivalent_sets, cli_mod._verify_set
        returned, handed = [], []

        def generate(*args):
            transforms, out = real_generate(*args)
            if corrupt is not None:
                set_, table = out[corrupt]
                table = dict(table)
                table[Z, Z] = -table[Z, Z]
                out[corrupt] = set_, table
            returned.extend(out)
            return transforms, out

        def verify(set_, seed, checks=(), psi=None):
            checks = list(checks)
            handed.extend(checks)
            return real_verify(set_, seed, checks, psi)

        monkeypatch.setattr(uniqueness, "generate_equivalent_sets", generate)
        monkeypatch.setattr(cli_mod, "_verify_set", verify)
        return returned, handed

    def test_handed_tables_are_fresh_tables_of_the_sets(self, bell_file, monkeypatch):
        from dhsim.density import expectation_table
        returned, handed = self._spy(monkeypatch)
        code, report = run_report(RunConfig("symmetries", bell_file, verify=True))
        assert code == EXIT_OK and report["sections"]["verified"] is True
        assert len(returned) == 12
        assert handed == [entry for set_, _ in returned
                          for entry in expectation_table(set_, [0, 1]).items()]

    def test_a_corrupted_first_table_fails_verification(self, bell_file,
                                                       monkeypatch, capsys):
        """Every set's table holds the same sixteen strings: a wrong entry in
        the first is an earlier duplicate that the eleven later correct
        entries on the same position must not hide."""
        returned, handed = self._spy(monkeypatch, corrupt=0)
        assert main(["symmetries", bell_file, "--verify"]) == EXIT_VERIFY
        assert '"verified": false' in capsys.readouterr().out
        assert len(returned) == 12 and len(handed) == 12 * 16

    def test_a_corrupted_returned_table_fails_verification(self, bell_file,
                                                           monkeypatch, capsys):
        returned, handed = self._spy(monkeypatch, corrupt=5)
        assert main(["symmetries", bell_file, "--verify"]) == EXIT_VERIFY
        assert '"verified": false' in capsys.readouterr().out
        assert len(returned) == 12 and len(handed) == 12 * 16


def test_swap_demo_builds_each_context_factor_once(monkeypatch):
    from dhsim import relative
    calls = count_calls(monkeypatch, relative, "context_factor")
    code, report = run_report(RunConfig("swap-demo", verify=True))
    assert code == EXIT_OK and report["sections"]["verified"] is True
    assert len(calls) == 4


def test_chain_demo_builds_each_context_factor_once(monkeypatch):
    """Two contexts on the two-qubit set and two on the third system, each
    factor serving the chained ancilla state and the system's restriction."""
    from dhsim import relative
    calls = count_calls(monkeypatch, relative, "context_factor")
    code, report = run_report(RunConfig("chain-demo", verify=True))
    assert code == EXIT_OK and report["sections"]["verified"] is True
    assert len(calls) == 4


def test_swap_demo_restricts_each_descriptor_once(monkeypatch):
    """Qubits 1 and 4 under each of the four record contexts: one
    restriction per conditioned descriptor, not one per component."""
    from dhsim import relative
    calls = count_calls(monkeypatch, relative, "conditional_restriction")
    code, report = run_report(RunConfig("swap-demo", verify=True))
    assert code == EXIT_OK and report["sections"]["verified"] is True
    assert len(calls) == 8


def test_chain_demo_restricts_each_descriptor_once(monkeypatch):
    """The system conditioned on each of the third system's two records."""
    from dhsim import relative
    calls = count_calls(monkeypatch, relative, "conditional_restriction")
    code, report = run_report(RunConfig("chain-demo", verify=True))
    assert code == EXIT_OK and report["sections"]["verified"] is True
    assert len(calls) == 2


def test_verify_batches_every_average(tmp_path, monkeypatch):
    """A 10-qubit run --verify takes its 200 sampled and 30 printed single
    oracle averages in one call, and its 200 engine averages in one batch,
    with no single-query ``expectation`` call.  Each single is read off its
    own component, so plain run sends no batch, and measure-demo only the
    four-entry table of system 1 that its density is built from."""
    from dhsim import engine, oracle
    path = tmp_path / "ten.dh"
    path.write_text("qubits 10\n" + "".join(
        f"h {q}\ncnot {q} {q + 1}\ns {q + 1}\n" for q in range(1, 10)))
    averages = count_calls(monkeypatch, oracle, "string_averages")
    singles = count_calls(monkeypatch, engine, "expectation")
    batches = count_calls(monkeypatch, engine, "expectations")
    code, report = run_report(RunConfig("run", str(path), verify=True))
    assert code == EXIT_OK and report["sections"]["verified"] is True
    assert [len(args[1]) for args in averages] == [230]
    assert singles == []
    assert [len(args[1]) for args in batches] == [200]
    for cfg, want in ((RunConfig("run", str(path)), []),
                      (RunConfig("measure-demo"), [4])):
        del batches[:]
        assert run_report(cfg)[0] == EXIT_OK
        assert [len(args[1]) for args in batches] == want
    assert singles == []


def test_parser_dests_are_the_run_config_fields():
    """``main`` builds its ``RunConfig`` from the parsed options as they
    are, so the option list is written once."""
    from dhsim import cli
    dests = [a.dest for a in cli._parser()._actions if a.dest != "help"]
    assert dests == [name for name in RunConfig._fields
                     if name != "max_qubits"]


def test_verify_set_annotations_resolve():
    """The hints name no module cli leaves unimported (numpy loads only
    inside --verify)."""
    from dhsim import cli
    assert typing.get_type_hints(cli._verify_set)["seed"] is int


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

    def test_out_in_missing_directory(self, bell_file, tmp_path, capsys):
        target = tmp_path / "nodir" / "x.json"
        assert main(["run", bell_file, "--out", str(target)]) == EXIT_USAGE
        assert str(target) in capsys.readouterr().err

    def test_out_is_a_directory(self, bell_file, tmp_path, capsys):
        assert main(["run", bell_file, "--out", str(tmp_path)]) == EXIT_USAGE
        assert str(tmp_path) in capsys.readouterr().err

    def test_env_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DH_MAX_QUBITS", "1")
        path = tmp_path / "two.dh"
        path.write_text(BELL)
        assert main(["run", str(path)]) == EXIT_USAGE
        assert "exceeds cap" in capsys.readouterr().err

    def test_verify_before_input(self, bell_file, capsys):
        assert main(["run", "--verify", bell_file]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["sections"]["verified"] is True

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "", "1_0", "+3", " 3",
                                       "\u0663"])
    def test_bad_env_cap(self, bell_file, capsys, monkeypatch, value):
        monkeypatch.setenv("DH_MAX_QUBITS", value)
        assert main(["run", bell_file]) == EXIT_USAGE
        assert "DH_MAX_QUBITS" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_bad_ancilla_budget(self, bell_file, capsys, value):
        assert main(["construct", bell_file, "--ancillas", value]) == EXIT_USAGE
        assert "--ancillas" in capsys.readouterr().err

    def test_usage_error_then_run_in_one_process(self, bell_file, capsys):
        # The parser is built once per process; a failed parse must not
        # leave it changed for the next call.
        assert main(["run", bell_file, "--bogus"]) == EXIT_USAGE
        assert "--bogus" in capsys.readouterr().err
        assert main(["run", "--verify", bell_file]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["sections"]["verified"] is True

    def test_console_script(self, bell_file):
        proc = subprocess.run(
            [sys.executable, "-m", "dhsim.cli", "run", bell_file, "--verify"],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        report = json.loads(proc.stdout)
        assert report["sections"]["verified"] is True


# Runs the argv lists of sys.argv[1] (JSON) in one fresh interpreter, and
# prints each exit code, the dhsim modules (and numpy) loaded after it, and
# whether dataclasses is loaded after it.
_LOADED_MODULES = """
import contextlib, io, json, sys
from dhsim.cli import main

codes, loaded, dataclasses = [], [], []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(main(argv))
        loaded.append(sorted(name for name in sys.modules
                             if name == "numpy" or name.split(".")[0] == "dhsim"))
        dataclasses.append("dataclasses" in sys.modules)
print(json.dumps({"codes": codes, "loaded": loaded, "dataclasses": dataclasses}))
"""


def _fresh_runs(runs):
    """The harness's output for ``runs``, each of which must exit 0."""
    proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES, json.dumps(runs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [EXIT_OK] * len(runs)
    return result


def _loaded_after_each(runs):
    return [set(names) for names in _fresh_runs(runs)["loaded"]]


def test_no_subcommand_loads_dataclasses(bell_file):
    """In a fresh interpreter no subcommand, with or without --verify,
    loads dataclasses: every record type is a NamedTuple, and numpy loads
    inspect but not dataclasses."""
    runs = [[c, bell_file, *flag] for c in ("run", "validate", "symmetries", "construct")
            for flag in ((), ("--verify",))]
    runs += [[c, *flag] for c in ("swap-demo", "measure-demo", "chain-demo")
             for flag in ((), ("--verify",))]
    runs += [["trace", bell_file], ["run", bell_file, "--format", "text"]]
    assert _fresh_runs(runs)["dataclasses"] == [False] * len(runs)


def test_only_verify_loads_numpy_and_the_oracle(bell_file):
    """In a fresh interpreter every subcommand without --verify leaves
    numpy and dhsim.oracle unimported; one --verify run loads both."""
    runs = [[c, bell_file] for c in ("run", "trace", "validate", "symmetries",
                                     "construct")]
    runs += [["swap-demo"], ["measure-demo"], ["chain-demo"]]
    runs.append(["run", bell_file, "--verify"])
    loaded = _loaded_after_each(runs)
    before, after = loaded[-2], loaded[-1]
    assert [name in before for name in ("numpy", "dhsim.oracle")] == [False, False]
    assert [name in after for name in ("numpy", "dhsim.oracle")] == [True, True]


def test_each_subcommand_loads_only_its_modules(tmp_path, bell_file):
    """In a fresh interpreter each subcommand adds the dhsim modules its
    report uses: none beyond pauli and engine for a wide run, density for
    the diagonal and pair analysis, the oracle for --verify, uniqueness for
    validate, protocols with relative for the swap, protocols alone for a
    dependency trace, protocols with density for the measurement demo
    (whose measurements are circuit steps), and relative besides for the
    chain demo."""
    wide = tmp_path / "wide.dh"
    wide.write_text("qubits 10\nh 1\ncnot 1 10\n")
    runs = [["run", str(wide)], ["run", str(wide), "--verify"],
            ["run", bell_file], ["validate", bell_file], ["swap-demo"]]
    loaded = _loaded_after_each(runs)
    base = {"dhsim", "dhsim.cli", "dhsim.engine", "dhsim.pauli"}
    assert loaded[0] == base
    assert loaded[1] - loaded[0] == {"dhsim.oracle", "numpy"}
    assert loaded[2] - loaded[1] == {"dhsim.density"}
    assert loaded[3] - loaded[2] == {"dhsim.uniqueness"}
    assert loaded[4] - loaded[3] == {"dhsim.protocols", "dhsim.relative"}
    assert _loaded_after_each([["trace", bell_file]]) == [base | {"dhsim.protocols"}]
    demos = _loaded_after_each([["measure-demo"], ["chain-demo"]])
    assert demos[0] == base | {"dhsim.protocols", "dhsim.density"}
    assert demos[1] - demos[0] == {"dhsim.relative"}


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


class TestNonAsciiInput:
    @pytest.mark.parametrize("text,where", [
        ("qubits ²\n", "line 1, col 8: bad qubit count '²'"),
        ("qubits 1\nh ¹\n", "line 2, col 3: bad qubit label '¹'"),
    ])
    def test_superscript_digits_are_located(self, tmp_path, capsys, text, where):
        path = tmp_path / "super.dh"
        path.write_text(text, encoding="utf-8")
        assert main(["run", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {where}\n"

    @pytest.mark.parametrize("word", ["ſ", "ｈ", "ｃｎｏｔ"])
    def test_letters_that_upper_case_onto_a_gate_are_unknown(self, word):
        """"ſ".upper() is "S": the gate table is matched on ASCII words only."""
        with pytest.raises(ParseError) as err:
            parse_circuit(f"qubits 2\n{word} 1\n")
        assert str(err.value) == f"line 2, col 1: unknown gate {word!r}"

    @pytest.mark.parametrize("data,where", [
        (b"\xff\xfe", "line 1, col 1"),
        (b"qubits 1\r\nh \xff\n", "line 2, col 3"),
    ])
    def test_non_utf8_file_is_located(self, tmp_path, capsys, data, where):
        path = tmp_path / "bytes.dh"
        path.write_bytes(data)
        assert main(["run", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {where}: invalid UTF-8 byte 0xff\n")

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        plain, marked = tmp_path / "plain.dh", tmp_path / "marked.dh"
        plain.write_bytes(b"qubits 2\nh 1\ncnot 1 2\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert main(["run", str(plain)]) == EXIT_OK
        want = capsys.readouterr().out
        assert main(["run", str(marked)]) == EXIT_OK
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("data,where", [
        (b"\xef\xbb\xbf\xff", "line 1, col 1"),
        (b"\xef\xbb\xbfqubits 1\nh \xff\n", "line 2, col 3"),
        (b"\xef\xbb\xbfqubits \xff\n", "line 1, col 8"),
    ])
    def test_bad_byte_after_the_mark_is_located_from_it(self, tmp_path, capsys,
                                                        data, where):
        path = tmp_path / "marked.dh"
        path.write_bytes(data)
        assert main(["run", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {where}: invalid UTF-8 byte 0xff\n")


class TestVerifyBeyondTheOracle:
    @pytest.mark.parametrize("n", [11, 40])
    def test_exit_one_before_any_allocation(self, tmp_path, capsys, monkeypatch, n):
        from dhsim import oracle

        def refuse(width):
            raise AssertionError(f"zero_state({width}) called")

        monkeypatch.setattr(oracle, "zero_state", refuse)
        monkeypatch.setenv("DH_MAX_QUBITS", str(n))
        path = tmp_path / "wide.dh"
        path.write_text(f"qubits {n}\nh 1\ncnot 1 {n}\n")
        assert main(["run", str(path), "--verify"]) == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            f"--verify checks registers of up to {oracle.DENSE_MAX_QUBITS} "
            f"qubits against the dense oracle; this one has {n}\n")
        assert main(["run", str(path)]) == EXIT_OK


def _dumps(value):
    return json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _keys(value):
    """Every dict key anywhere in a nested report."""
    if isinstance(value, dict):
        yield from value
        for item in value.values():
            yield from _keys(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _keys(item)


_REPORT_CIRCUITS = {
    "bell": BELL,
    "three": "qubits 3\nh 1\ns 1\ncnot 1 3\nbell 2 3\nancilla\ncnot 2 4\n",
    "nine": "qubits 9\nh 1\ncnot 1 9\ny 5\n",
    "one": "qubits 1\nh 1\ns 1\n",
}
_REPORT_CASES = ([(c, name) for c in ("run", "trace") for name in _REPORT_CIRCUITS]
                 + [(c, "bell") for c in ("validate", "symmetries", "construct")]
                 + [("construct", "one")]
                 + [(c, None) for c in ("swap-demo", "measure-demo", "chain-demo")])


class TestRenderJson:
    @pytest.mark.parametrize("verify", [False, True])
    @pytest.mark.parametrize("subcommand,circuit", _REPORT_CASES)
    def test_every_subcommand_report(self, tmp_path, subcommand, circuit, verify):
        path = None
        if circuit:
            path = tmp_path / f"{circuit}.dh"
            path.write_text(_REPORT_CIRCUITS[circuit])
        cfg = RunConfig(subcommand, str(path) if path else None, verify=verify)
        if subcommand == "trace" and verify:
            # trace has no oracle check, so --verify is refused, not ignored.
            with pytest.raises(ParseError, match="^trace has no oracle check"):
                run_report(cfg)
            return
        code, report = run_report(cfg)
        assert code == EXIT_OK
        assert all(type(key) is str for key in _keys(report))
        assert render_json(report) == _dumps(report)

    EDGE = {
        "": [],
        "empty": {"list": [], "dict": {}, "nested": [[], {}, [{}], [[[]]]]},
        "text": ["", "⊗", "1 * Z⊗X", "é — ünïcode ✓ 𝔘", 'say "hi"', "back\\slash",
                 "".join(map(chr, range(32))) + "\x7f  ", "\ud800"],
        "floats": [-0.0, 0.0, 1e-07, 5e-324, 0.1, 1.5, 1e16, 1e300, -2.5e-10,
                   float("inf"), float("-inf"), float("nan")],
        "ints": [0, -1, 2 ** 64, -(10 ** 40)],
        "flags": [True, False, None],
        "tuple": (1, ("a", None)),
        "Z": {"b": 1, "B": 2, "é": 3, "a b": 4, "a": {"z": [{"y": {}}]}},
    }

    def test_writer_leaves_no_reference_cycle(self, tmp_path):
        """Rendering frees all it makes by reference counting: with the
        collector off, writing every report leaves it nothing to collect."""
        import gc
        reports = []
        for subcommand, circuit in _REPORT_CASES:
            path = None
            if circuit:
                path = tmp_path / f"{circuit}.dh"
                path.write_text(_REPORT_CIRCUITS[circuit])
            reports.append(run_report(RunConfig(subcommand, path and str(path)))[1])
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for report in reports:
                render_json(report)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_a_shared_number_at_two_depths(self):
        """One number that ``_nums`` shares, held under dict keys at two
        depths and twice in one list: the writer keeps its text per depth,
        so each use has its own indentation."""
        from fractions import Fraction
        from dhsim import cli as cli_mod
        shared, again = cli_mod._nums([Fraction(-1, 2), Fraction(-1, 2)])
        assert shared is not again and shared == {"exact": "-1/2", "float": -0.5}
        value = {"a": shared, "b": {"c": shared, "d": [shared, again]},
                 "e": [{"f": shared}, {"f": shared}], "g": shared}
        assert render_json(value) == _dumps(value)

    def test_edge_values(self):
        assert render_json(self.EDGE) == _dumps(self.EDGE)
        for value in ([], {}, "x", 1.0, None, [[{}]]):
            assert render_json(value) == _dumps(value)

    @pytest.mark.parametrize("bad", [
        {1: "a"}, {"a": {None: 1}}, {"a": [{"b": 1, 2: 3}]}, {True: 1},
        {(1, 2): "x"}])
    def test_keys_must_be_str(self, bad):
        with pytest.raises(TypeError):
            render_json(bad)

    def test_unknown_value_type(self):
        from fractions import Fraction
        with pytest.raises(TypeError, match="Fraction"):
            render_json({"a": Fraction(1, 2)})
