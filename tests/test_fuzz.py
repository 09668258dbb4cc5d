"""Seeded mutation fuzzer over the command line.

Valid circuit files, option lists and ``DH_MAX_QUBITS`` values are mutated
at random from one fixed seed, and each case runs through ``cli.main`` in
this process.  Whatever the input:

* the exit code is 0, 1 or 2: never 3 (an internal error), and no
  exception escapes ``main``;
* every exit-1 message starts with ``error:``;
* a circuit file that does not parse fails with a ``ParseError`` located
  at a line and column of the file's text;
* every exit 0 that asked for ``--verify`` reports ``verified: true``.
"""

import codecs
import json
import random

from dhsim import cli
from dhsim.cli import (
    DEFAULT_MAX_QUBITS, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, SUBCOMMANDS,
    ParseError, RunConfig,
)
from dhsim.engine import AddAncilla, Circuit, Gate

SEED = 14
CASES = 1000
CIRCUITS = [
    "qubits 2\nh 1\ncnot 1 2\n",
    "# one system, one ancilla\nqubits 1\nh 1\ns 1\n\nancilla\ncnot 1 2\n",
    "QUBITS 3\nH 1\nBell 3 2\ny 2   # trailing comment\nz 3\nx 1\n",
    "qubits 4\nh 1\ncnot 1 2\nh 3\ncnot 3 4\nbell 3 2\n"
    "ancilla\nancilla\ncnot 3 5\ncnot 2 6\n",
]
# Tokens that replace a token of a line or join it.
TOKENS = ["qubits", "ancilla", "h", "S", "cnot", "BELL", "x", "y", "z", "t",
          "#", "0", "1", "2", "3", "11", "007", "-1", "+2", "1_0", "1.0",
          "²", "٣", "ｈ", "ſ", "9" * 30, "1" * 5000]
# Characters put anywhere in the text: line breaks that str.splitlines
# knows, spaces that str.split knows, and a few others.
CHARS = ["\t", "\r", "\x00", "\x0b", "\x1c", "\x85", "\u2028", " ", "\xa0",
         "\u3000", "\u200b", "#", "\xe9", "\ufeff"]
# Bytes put anywhere in the file: bad or cut UTF-8, and a byte-order mark.
BYTES = [b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", codecs.BOM_UTF8]
OPTIONS = [["--verify"], ["--verify"], ["--format", "text"], ["--format", "xml"],
           ["--seed", "7"], ["--seed", "-3"], ["--seed", "z"], ["--ancillas", "0"],
           ["--ancillas", "2"], ["--ancillas", "-1"], ["--bogus"], ["--out"]]
CAPS = [None, None, "1", "2", "3", "10", "12", "0", "x", "", " 4", "1" * 5000]


def _mutate_lines(rng, lines):
    kind = rng.choice(["delete", "duplicate", "swap", "replace", "insert"])
    if not lines:
        return [rng.choice(TOKENS)]
    a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
    if kind == "delete":
        del lines[a]
    elif kind == "duplicate":
        lines.insert(b, lines[a])
    elif kind == "swap":
        lines[a], lines[b] = lines[b], lines[a]
    else:
        tokens = lines[a].split(" ")
        k = rng.randrange(len(tokens) + (kind == "insert"))
        tokens[k:k + (kind == "replace")] = [rng.choice(TOKENS)]
        lines[a] = " ".join(tokens)
    return lines


def _mutate(rng, text: str) -> bytes:
    """One to three mutations of a valid circuit's lines, characters or
    bytes; a quarter of the files are left valid."""
    if rng.random() < 0.25:
        return text.encode()
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.6:
            text = "\n".join(_mutate_lines(rng, text.split("\n")))
        elif kind < 0.85:
            k = rng.randrange(len(text) + 1)
            text = text[:k] + rng.choice(CHARS) + text[k:]
        else:
            text = text[:rng.randrange(len(text) + 1)]
    data = text.encode()
    if rng.random() < 0.15:
        k = rng.randrange(len(data) + 1)
        data = data[:k] + rng.choice(BYTES) + data[k:]
    return data


def _argv(rng, path: str, out_dir) -> list[str]:
    """A subcommand, the circuit file (usually), and up to three options in
    any order; ``--out`` goes to a file or into a missing directory."""
    sub = rng.choice(list(SUBCOMMANDS) + ["bogus"])
    options = []
    for option in rng.sample(OPTIONS, rng.randint(0, 3)):
        if option == ["--out"]:
            option = ["--out", str(out_dir / rng.choice(["report", "missing/report"]))]
        options += option
    argv = [sub] + options
    wants_file = not sub.endswith("-demo")
    if rng.random() < (0.9 if wants_file else 0.1):
        argv.insert(rng.randint(1, len(argv)), path)
    return argv


def _fails_located(data: bytes, cap: int, path: str) -> bool:
    """Whether the file fails to load; its error must then sit at a line
    and column inside its text (decoded with each bad byte replaced, as
    the parser counts)."""
    try:
        cli._load_circuit(RunConfig("run", path, max_qubits=cap))
    except ParseError as exc:
        lines = data.removeprefix(codecs.BOM_UTF8).decode("utf-8", "replace").splitlines()
        assert exc.line is not None and exc.column is not None, str(exc)
        assert ((exc.line, exc.column) == (1, 1)
                or 1 <= exc.column <= len(lines[exc.line - 1])), str(exc)
        return True
    return False


def _verified(argv: list[str], out: str) -> bool:
    args = cli._parser().parse_intermixed_args(argv)
    if args.out_path:
        with open(args.out_path, encoding="utf-8") as handle:
            out = handle.read()
    if args.output_format == "text":
        return "verified: True" in out.splitlines()
    return json.loads(out)["sections"]["verified"] is True


def test_mutated_command_lines(tmp_path, monkeypatch, capsys):
    rng = random.Random(SEED)
    seen = {EXIT_OK: 0, EXIT_USAGE: 0, EXIT_VERIFY: 0}
    verified = located = 0
    path = tmp_path / "case.dh"
    for case in range(CASES):
        data = _mutate(rng, rng.choice(CIRCUITS))
        path.write_bytes(data)
        argv = _argv(rng, str(path), tmp_path)
        raw_cap = rng.choice(CAPS)
        if raw_cap is None:
            monkeypatch.delenv("DH_MAX_QUBITS", raising=False)
        else:
            monkeypatch.setenv("DH_MAX_QUBITS", raw_cap)
        where = f"case {case}: argv {argv!r}, DH_MAX_QUBITS {raw_cap!r}, file {data!r}"

        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code in seen, where
        seen[code] += 1
        if code == EXIT_USAGE:
            assert err.startswith("error: "), where
        if code == EXIT_OK and "--verify" in argv:
            assert _verified(argv, out), where
            verified += 1
        cap = (int(raw_cap) if raw_cap and raw_cap.isdigit() and len(raw_cap) < 10
               else DEFAULT_MAX_QUBITS)
        located += _fails_located(data, cap, str(path))

    # The cases reach the reports, the verified ones, and the parse errors.
    assert seen[EXIT_OK] >= 50 and seen[EXIT_USAGE] >= 100, seen
    assert verified >= 10 and located >= 100, (verified, located)


def test_parsed_circuits_pass_the_checking_constructors():
    """``parse_circuit`` builds its ``Gate``s and ``Circuit`` past the
    constructors' checks.  Every circuit it accepts, from the valid
    circuits, every one- and two-label line of each kind on a register
    grown by an ancilla, and seeded mutations of the valid circuits, under
    a few register caps, equals the circuit rebuilt through ``Gate`` and
    ``Circuit``, which raise on anything their checks refuse: the
    parser's checks drop nothing."""
    rng = random.Random(SEED + 1)
    accepted = gates = 0
    corpus = [text.encode() for text in CIRCUITS]
    corpus += [f"qubits 2\nh 1\nancilla\n{kind} {labels}\n".encode()
               for kind in ("h", "S", "cnot", "Bell")
               for labels in ["1", "3", "4", "0"] + [f"{a} {b}" for a in range(5)
                                                      for b in range(5)]]
    corpus += [_mutate(rng, rng.choice(CIRCUITS)) for _ in range(CASES)]
    for data in corpus:
        try:
            text = data.removeprefix(codecs.BOM_UTF8).decode("utf-8")
            circuit = cli.parse_circuit(text, rng.choice((2, 4, DEFAULT_MAX_QUBITS)))
        except (ParseError, UnicodeDecodeError):
            continue
        rebuilt = Circuit(circuit.initial_qubits,
                          [AddAncilla() if isinstance(step, AddAncilla)
                           else Gate(step.kind, step.operands) for step in circuit.steps])
        assert type(circuit) is Circuit and rebuilt == circuit, text
        assert [type(step) for step in rebuilt.steps] == [type(step) for step in circuit.steps]
        accepted += 1
        gates += sum(isinstance(step, Gate) for step in circuit.steps)
    assert accepted >= 200 and gates >= 1000, (accepted, gates)
