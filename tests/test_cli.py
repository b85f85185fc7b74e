import argparse
import csv
import hashlib
import importlib
import io
import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coversieve import density
from coversieve.cli import COMMANDS, _dumps, build_parser, load_system, run
from coversieve.core import ResidueClass, ResidueSystem

from conftest import divisor_system, indented_json

OPENING = [[2, 0], [3, 0], [4, 1], [6, 1], [12, 11]]


@pytest.fixture
def opening_file(tmp_path):
    path = tmp_path / "opening.json"
    path.write_text(json.dumps({"classes": OPENING, "name": "opening"}))
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


class TestDensityCommand:
    def test_opening_system(self, capsys, opening_file):
        report = invoke_json(capsys, "density", "--input", opening_file)
        assert report["command"] == "density"
        assert report["result"]["delta"] == "0/1"
        assert report["result"]["period"] == 12
        assert report["result"]["witness"] is None

    def test_witness_included_when_positive(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"classes": [[2, 0], [4, 1], [3, 0]]}))
        report = invoke_json(capsys, "density", "--input", str(path))
        assert report["result"]["delta"] == "1/6"
        assert report["result"]["witness"] == 7

    def test_paints_each_segment_once(self, capsys, monkeypatch, tmp_path):
        # the count and the least uncovered integer, 31, come from one pass
        # over the period 32 in segments of 7 cells
        monkeypatch.setattr(density, "SEGMENT_SIZE", 7)
        painted = []
        segments = density._covered_segments

        def spy(pairs, L, *width):
            for lo, cov in segments(pairs, L, *width):
                painted.append(lo)
                yield lo, cov

        monkeypatch.setattr(density, "_covered_segments", spy)
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"classes": [[2, 0], [4, 1], [8, 3], [16, 7], [32, 15]]}))
        result = invoke_json(capsys, "density", "--input", str(path))["result"]
        assert (result["delta"], result["witness"]) == ("1/32", 31)
        assert painted == [0, 7, 14, 21, 28]

    def test_planner_route(self, capsys, tmp_path):
        # (40,80]: a period of 115 bits, past any scan
        rnd = random.Random(0)
        classes = [[n, rnd.randrange(n)] for n in range(41, 81)]
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"classes": classes}))
        result = invoke_json(capsys, "density", "--input", str(path))["result"]
        assert result["method"] == "planner"
        assert result["witness"] is None
        assert result["period"] == math.lcm(*range(41, 81))
        p, q = map(int, result["delta"].split("/"))
        assert Fraction(p, q) == Fraction(result["uncovered_count"], result["period"])

    def test_text_input(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# two classes\n0 mod 2\n1 mod 4\n0 mod 3\n")
        report = invoke_json(capsys, "density", "--input", str(path), "--format", "text")
        assert report["result"]["delta"] == "1/6"

    def test_guard_exit_code(self, capsys, opening_file):
        code, out = invoke(capsys, "density", "--input", opening_file, "--guard", "5")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "guard-exceeded"

    def test_missing_file_is_input_error(self, capsys):
        assert run(["density", "--input", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize("doc, named", [
        ({"classes": [[4.7, 1]]}, "[4.7, 1]"),
        ({"classes": [[2, 0], [True, 0]]}, "[true, 0]"),
        ({"classes": [[2, 1.9]]}, "[2, 1.9]"),
        ({"name": "no classes"}, "'classes'"),
        ([[2, 0, 5]], "[2, 0, 5]"),
        ([[2]], "[2]"),
        ("", "bad.json: Expecting value"),
        ('{"classes": [[2,', "bad.json: Expecting value"),
    ])
    def test_malformed_json_is_input_error(self, capsys, tmp_path, doc, named):
        path = tmp_path / "bad.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))  # str: raw text
        assert run(["density", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err

    @pytest.mark.parametrize("entry", [
        [True, 1], [2.0, 1], [2, 1, 0], ["2", 1], {"n": 2}, [[2], 1],
    ])
    def test_bad_class_entry_is_input_error(self, capsys, tmp_path, entry):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"classes": [[3, 1], entry]}))
        assert run(["density", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"{path}: bad class {json.dumps(entry)} (expected [n, r] with integers n, r)\n")


class TestBoundsCommand:
    def test_worked_values(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"classes": [[2, 0], [4, 1], [3, 0]]}))
        report = invoke_json(capsys, "bounds", "--input", str(path))
        assert report["result"]["alpha"] == "1/4"
        assert report["result"]["beta"] == "1/8"
        assert report["result"]["plain_bound"] == "1/8"
        assert report["result"]["refined_bound"] == "1/6"


class TestCertifyAndDecompose:
    def test_certify(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"classes": [[2, 0], [3, 1], [6, 5]]}))
        report = invoke_json(capsys, "certify", "--input", str(path), "--Q", "2")
        assert report["result"]["lower_bound"] == "1/6"
        assert report["result"]["conclusion"] == "positive"
        assert report["result"]["M"] == 2

    def test_decompose_with_identity(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"classes": [[2, 0], [3, 1], [6, 5]]}))
        report = invoke_json(
            capsys, "decompose", "--input", str(path), "--Q", "2", "--check-identity"
        )
        assert report["result"]["M"] == 2
        assert report["result"]["identity"]["equal"] is True

    def test_certify_refusal_names_the_m_guard(self, capsys, tmp_path):
        # the 5-smooth parts of 20..24 already have lcm 120
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"classes": [[n, 0] for n in range(20, 60)]}))
        code, out = invoke(capsys, "certify", "--input", str(path), "--Q", "5", "--guard", "100")
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "guard-exceeded",
            "detail": "decomposition modulus M exceeds guard of 100",
            "estimate": 120,
        }

    @pytest.mark.parametrize("command, Q", [
        ("certify", "nan"), ("certify", "inf"), ("certify", "-inf"),
        ("decompose", "nan"), ("decompose", "inf"), ("decompose", "-inf"),
    ])
    def test_non_finite_q_is_input_error(self, capsys, tmp_path, command, Q):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"classes": [[2, 0], [3, 1], [6, 5]]}))
        assert run([command, "--input", str(path), f"--Q={Q}"]) == 1
        assert capsys.readouterr().out == ""


class TestModuliCommands:
    def test_delta_minus(self, capsys):
        report = invoke_json(capsys, "delta-minus", "--moduli", "2,3,4,6,12")
        assert report["result"]["value"] == "0/1"
        assert report["result"]["optimal"] is True

    def test_delta_minus_many_ones(self, capsys):
        # one recursion level per modulus 1 once ended in RecursionError
        report = invoke_json(capsys, "delta-minus", "--moduli", ",".join(["1"] * 1500))
        assert report["result"]["value"] == "0/1"
        assert report["result"]["witness"]["classes"] == [[1, 0]] * 1500

    def test_delta_plus(self, capsys):
        report = invoke_json(capsys, "delta-plus", "--moduli", "4,6")
        assert report["result"]["value"] == "2/3"

    def test_delta_minus_refusal_names_the_mask_guard(self, capsys):
        code, out = invoke(capsys, "delta-minus", "--moduli", "3,4,5,7,11,13", "--guard", "100")
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "guard-exceeded",
            "detail": "class-mask period exceeds guard of 100 bits",
            "estimate": 420,
        }

    def test_bad_moduli_is_input_error(self, capsys):
        assert run(["delta-plus", "--moduli", "4,x"]) == 1


class TestStatsCommand:
    def test_enumerate(self, capsys):
        report = invoke_json(capsys, "stats", "--moduli", "2,4", "--mode", "enumerate")
        assert report["result"]["mean"] == "3/8"
        assert report["result"]["variance"] == "1/64"

    def test_pair(self, capsys):
        report = invoke_json(capsys, "stats", "--moduli", "3,9", "--mode", "pair")
        assert report["result"]["second_moment"] == "86/243"

    def test_sample_echoes_seed(self, capsys):
        report = invoke_json(
            capsys, "stats", "--moduli", "2,4", "--mode", "sample",
            "--trials", "100", "--seed", "42",
        )
        assert report["seed"] == 42
        assert report["result"]["sample_count"] == 100

    @pytest.mark.parametrize("big", [2**63 + 1, 2**64])
    def test_sample_refuses_moduli_past_2_63(self, capsys, big):
        code = run(["stats", "--moduli", f"3,{big}", "--mode", "sample", "--trials", "3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: sample mode draws residues of moduli up to 2^63, not {big}\n"

    @pytest.mark.parametrize("argv", [
        ("stats", "--moduli", "2,4", "--mode", "sample", "--trials", "3", "--seed", "-1"),
        ("greedy", "--N", "2", "--K", "3", "--window", "100", "--seed", "-1"),
    ], ids=["stats", "greedy"])
    def test_negative_seed_refused(self, capsys, argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: seed must be >= 0\n"

    def test_sample_accepts_modulus_2_63(self, capsys):
        report = invoke_json(capsys, "stats", "--moduli", f"3,{2**63}", "--mode", "sample",
                             "--trials", "3")
        assert report["result"]["sample_count"] == 3

    @pytest.mark.parametrize("mode", ["pair", "sample"])
    def test_guard_bounds_every_mode(self, capsys, mode):
        code, out = invoke(capsys, "stats", "--moduli", "3,4,5", "--mode", mode,
                           "--trials", "3", "--guard", "1")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "guard-exceeded"


class TestConstructCommands:
    def test_construct_exact_j2(self, capsys):
        report = invoke_json(capsys, "construct-exact", "--J", "2")
        assert report["result"]["class_count"] == 10
        assert report["result"]["verified"] is True
        assert report["result"]["min_modulus"] == 10

    def test_roundtrip_through_density(self, capsys, tmp_path):
        report = invoke_json(capsys, "construct-exact", "--J", "2")
        emitted = report["result"]["system"]
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(emitted))
        reparsed = load_system(str(path))
        assert reparsed.pairs() == [tuple(x) for x in emitted["classes"]]
        verify = invoke_json(capsys, "verify-exact-cover", "--input", str(path))
        assert verify["result"]["exact"] is True

    def test_greedy_reproducible_bytes(self, capsys):
        argv = ["greedy", "--N", "2", "--K", "4", "--seed", "7", "--window", "500"]
        code1, out1 = invoke(capsys, *argv)
        code2, out2 = invoke(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        report = json.loads(out1)
        assert report["seed"] == 7
        assert report["result"]["step_invariant"] is True

    def test_greedy_window_guard(self, capsys):
        code, out = invoke(capsys, "greedy", "--N", "4", "--K", "50",
                           "--window", str(10**9 + 1))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "guard-exceeded"
        assert error["estimate"] == 10**9 + 1

    def test_haight(self, capsys):
        report = invoke_json(capsys, "haight", "--N", "100")
        assert report["result"]["prime_count"] == 13
        assert report["result"]["sigma_ratio"].startswith("382640460931616735232000/")

    def test_witness(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"classes": [[7, 3], [5, 2], [6, 1]]}))
        report = invoke_json(capsys, "witness", "--input", str(path), "--B", "10", "--s", "1")
        assert report["result"]["witness"] == 0

    def test_witness_smooth_cover_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"classes": [[2, 0], [2, 1], [7, 3]]}))
        assert run(["witness", "--input", str(path), "--B", "8", "--s", "2"]) == 1

    def test_xineq(self, capsys):
        report = invoke_json(capsys, "xineq", "--j", "2")
        assert report["result"] == {"holds": True, "j": 2, "lhs": 15, "rhs": 4}


class TestFormatsAndErrors:
    def test_csv_scalar(self, capsys):
        code, out = invoke(capsys, "xineq", "--j", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j,lhs,rhs,holds"
        assert lines[1] == "1,3,1,True"

    def test_csv_rows_for_greedy(self, capsys):
        code, out = invoke(
            capsys, "greedy", "--N", "2", "--K", "3", "--seed", "1",
            "--window", "100", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j,divisors,f,residue,uncovered_after"
        assert len(lines) == 3  # header + steps j=5, j=6

    def test_every_argument_has_help(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(COMMANDS)
        for name, subparser in sub.choices.items():
            for action in subparser._actions:
                if not isinstance(action, argparse._HelpAction):
                    assert action.help, (name, action.option_strings)

    def test_usage_error_exit_one(self):
        assert run([]) == 1
        assert run(["density"]) == 1  # missing --input

    def test_one_parser_per_process_keeps_no_state(self, capsys, opening_file):
        assert build_parser() is build_parser()
        argv = ["certify", "--input", opening_file, "--Q", "2", "--audit"]
        first = invoke(capsys, *argv)
        assert first[0] == 0
        # a usage error and --version between two runs leave nothing behind
        assert run(["density"]) == 1
        assert run(["--version"]) == 0
        capsys.readouterr()
        assert invoke(capsys, *argv) == first

    def test_module_entrypoint(self, opening_file):
        proc = subprocess.run(
            [sys.executable, "-m", "coversieve", "density", "--input", opening_file],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["delta"] == "0/1"

    def test_rationals_never_floats(self, capsys, opening_file):
        report = invoke_json(capsys, "density", "--input", opening_file)
        assert isinstance(report["result"]["delta"], str)


# one or more argvs per subcommand, with input paths relative to tmp_path
CSV_ARGVS = [
    ("density", "--input", "opening.json"),
    ("density", "--input", "positive.json"),
    ("bounds", "--input", "positive.json"),
    ("certify", "--input", "opening.json", "--Q", "2", "--audit"),
    ("decompose", "--input", "opening.json", "--Q", "2", "--check-identity"),
    ("delta-minus", "--moduli", "2,3,4,6,12"),
    ("delta-plus", "--moduli", "4,6"),
    ("greedy", "--N", "2", "--K", "3", "--seed", "1", "--window", "100"),
    ("greedy", "--N", "2", "--K", "2"),  # no greedy step: the header alone
    ("construct-exact", "--J", "2"),
    ("haight", "--N", "100"),
    ("haight", "--N", "100", "--full-divisors"),
    ("witness", "--input", "positive.json", "--B", "4", "--s", "1"),
    ("stats", "--moduli", "2,4"),
    ("stats", "--moduli", "2,4", "--mode", "sample", "--trials", "5"),
    ("verify-exact-cover", "--input", "exact.json"),
    ("verify-exact-cover", "--input", "intersect.json"),
    ("verify-exact-cover", "--input", "opening.json"),
    ("xineq", "--j", "2"),
]


class TestCsvColumns:
    """A CSV report has the declared columns that its result holds, in the
    declared order, and one line per row (or one line) of the JSON values."""

    @pytest.fixture
    def inputs(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        for name, classes in [("opening.json", OPENING), ("positive.json", [[2, 0], [4, 1], [3, 0]]),
                              ("exact.json", [[2, 0], [4, 1], [4, 3]]),
                              ("intersect.json", [[2, 0], [4, 1], [4, 2]])]:
            (tmp_path / name).write_text(json.dumps({"classes": classes}))

    def test_every_subcommand_is_covered(self):
        assert {argv[0] for argv in CSV_ARGVS} == set(COMMANDS)

    @pytest.mark.parametrize("argv", CSV_ARGVS, ids=" ".join)
    def test_header_is_the_declared_columns_present(self, capsys, inputs, argv):
        result = invoke_json(capsys, *argv)["result"]
        code, out = invoke(capsys, *argv, "--format", "csv")
        assert code == 0
        header, *lines = csv.reader(io.StringIO(out))
        columns = COMMANDS[argv[0]].columns
        rows = result.get("rows", [result])
        assert header == [c for c in columns if "rows" in result or c in result]
        assert lines == [["" if row[c] is None else str(row[c]) for c in header] for row in rows]

    def test_verify_exact_cover_header_does_not_depend_on_the_answer(self, capsys, inputs):
        headers = set()
        for path in ("exact.json", "intersect.json", "opening.json"):
            code, out = invoke(capsys, "verify-exact-cover", "--input", path, "--format", "csv")
            assert code == 0
            headers.add(out.splitlines()[0])
        assert headers == {"exact,reciprocal_sum,reason"}


class TestReportBytes:
    """sha256 of the full stdout, recorded before greedy_cover,
    is_exact_cover and the report writer were rewritten; the reports must
    stay byte for byte.  A guard-exceeded report exits 2, any other 0."""

    @pytest.mark.parametrize("argv, digest", [
        (("greedy", "--N", "4", "--K", "20", "--window", "4000000", "--seed", "1"),
         "4b7694bfae3a080625dd05b2f497e1b128000728b6d9b90354c026f2ea641122"),
        (("construct-exact", "--J", "3"),
         "3a5a15ae62cef4c1accbbb7400593b3dc82ed4563758568b724f3544c97566db"),
        (("verify-exact-cover", "--input", "intersect.json"),
         "0654dd0389a433a7c07a5f3787f333bdc7c62bee0adf002c60af3925a7dd5ace"),
        (("construct-exact", "--J", "4"),
         "3303faac138d1a1db505b68014e7e0dff13ed583c468d002aef1d5c2f2ed0515"),
        (("decompose", "--input", "opening.json", "--Q", "2", "--check-identity"),
         "be115649e2951bb20f74b058f9a716240c2cf92d4b236738dd09abc3b42d6db3"),
        (("stats", "--moduli", "2,3,4", "--mode", "sample", "--trials", "50", "--seed", "5"),
         "ec2d4bcef9df474def611abb51353e0c3abfc5f6c1a703189c5927809e69e2ff"),
        (("density", "--input", "opening.json", "--guard", "10"),
         "8bed6442ed945b21b958ee79e0e5ed2bfac5fd5ea03991e5cbd3ddf25ccd1eaf"),
        # every per-pattern alpha, beta and term of the certificate
        (("certify", "--input", "r150.json", "--Q", "3", "--audit"),
         "b1f706b00824bf59d2c28fb9d91d7d8cf31900bb12a2ab6e2f227dd492057c04"),
        (("certify", "--input", "r50.json", "--Q", "5", "--audit"),
         "3ea13e06ebf68a35b49fb9faa72674298f91482dfc27b26be7f4f8968f7b8e24"),
        # the exhaustive witness and the enumerated moments
        (("delta-minus", "--moduli", "3,4,6,8,9,10,12,15", "--guard", "100000000"),
         "44142c36e59fb7f14f3c8144724549ff0c7567e158d4a298efe98b3dbecaa599"),
        (("delta-minus", "--moduli", "4,6,9,10,15"),
         "03aa7599c755c33037fd2a2c8932fd51541820e223a9b750f02de55e87676b1c"),
        (("stats", "--moduli", "2,3,4,5,6,7,8,9", "--mode", "enumerate"),
         "1794a7599295f025c0204bc0892d0b5e274f24cf44e26b880766df78c19029b7"),
        # a 73,513,440-cell period sieved in one pass: count and least witness
        (("density", "--input", "divisors.json"),
         "99932c6e24b16d285f27e44babbf55a2dfe5261c2884820d6609b0119a157dc1"),
        # sampled moments, recorded before the masks were built per
        # shares-a-prime component: the bench job's shape, a repeated
        # modulus with coprime singletons, and a modulus 1
        (("stats", "--moduli", "3,4,5,6,7,8,9,10,11,12", "--mode", "sample",
          "--trials", "3000", "--seed", "1"),
         "b4d322d022769cd8ffe811bf3f584cc59128358dda00442eb6d145e9c7539ff8"),
        (("stats", "--moduli", "4,4,6,7,9,11", "--mode", "sample", "--trials", "500",
          "--seed", "3"),
         "41e9768f5c28c4fa2e0a66df495ca34ecbeaef0f27939fece383a4f042310b0b"),
        (("stats", "--moduli", "1,3,4,4,6,9", "--mode", "sample", "--trials", "20"),
         "6760970eb3b47b85bd32331595dbe650aa5f679e25cc0c947c5d93a0936c3d4f"),
        # the minimal block schedule, recorded before ResidueSystem went columnar
        (("construct-exact", "--J", "3", "--minimal-schedule"),
         "7fe4749f3a4fc6babe05d66b4322ca8c1ac0ad749bf24683b4994ceee10d3554"),
        (("construct-exact", "--J", "4", "--minimal-schedule"),
         "1c34df4c7c7b41fd968e09c34e68614bd584ce3a7ed92b9b746008f522687529"),
        # greedy delta-minus, recorded before the greedy peel held the window
        # as residues modulo the lcm of the moduli peeled so far
        (("delta-minus", "--moduli", "2,3,4,5,6,7,8,9,10,11,12,13,14,15,16",
          "--mode", "greedy"),
         "fbd5ec5628df7c6feaf395c23c7ad7d14867d8b0494df64ced390cf0c9c651d9"),
        (("delta-minus", "--moduli", "4,6,9,10,15", "--mode", "greedy"),
         "aee3dc6a0e940ecf2d0c31560414f7090ec03cdd502f5061e7ee8b3155a74e34"),
        # sampled moments, recorded before the draws were computed for all
        # trials at once: Lemire rejections and moduli past 2^32, and a seed
        # of 2^128 + 1, five entropy words
        (("stats", "--moduli", "3,2147483653,4294967296,4294967297,8589934591",
          "--mode", "sample", "--trials", "200", "--seed", "7"),
         "ea0fbe4cd03b9899e64455d6eb1a5ad70b958b0bcdab3ffc54ffc6cfa59252c6"),
        (("stats", "--moduli", "3,4,5,6,7,8,9,10,11,12", "--mode", "sample",
          "--trials", "3000", "--seed", "340282366920938463463374607431768211457"),
         "9e831c1ab6bb785ebd64234b48eacfd1ad5eb3476fe2f37ea8b6998ebca51dfa"),
    ])
    def test_stdout_digest(self, capsys, monkeypatch, tmp_path, argv, digest):
        # the report echoes the input path, so it is given relative to tmp_path
        monkeypatch.chdir(tmp_path)
        (tmp_path / "intersect.json").write_text(json.dumps({"classes": [[2, 0], [4, 1], [4, 2]]}))
        (tmp_path / "opening.json").write_text(json.dumps({"classes": OPENING}))
        for lo in (150, 50):
            # every modulus in (lo, 2 lo], residues seeded by lo
            rnd = random.Random(lo)
            classes = [[n, rnd.randrange(n)] for n in range(lo + 1, 2 * lo + 1)]
            (tmp_path / f"r{lo}.json").write_text(json.dumps({"classes": classes}))
        classes = divisor_system(73_513_440, 200, 20_000, 0)
        (tmp_path / "divisors.json").write_text(json.dumps({"classes": classes}))
        code, out = invoke(capsys, *argv)
        assert code == (2 if "error" in json.loads(out) else 0)
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestConstructExactColumnar:
    """construct-exact keeps its system in columns from construction to
    report: no ResidueClass is built and the classes tuple stays unread."""

    def test_builds_no_residue_class(self, capsys, monkeypatch):
        built = []
        post_init = ResidueClass.__post_init__

        def counted(self):
            built.append(1)
            post_init(self)

        monkeypatch.setattr(ResidueClass, "__post_init__", counted)
        cli = importlib.import_module("coversieve.cli")
        plans = []
        construct = cli.exact_cover_construct
        monkeypatch.setattr(cli, "exact_cover_construct",
                            lambda *a, **k: plans.append(construct(*a, **k)) or plans[-1])
        result = invoke_json(capsys, "construct-exact", "--J", "4")["result"]
        (plan,) = plans
        assert result["class_count"] == len(plan.system) == 91_344 and result["verified"]
        assert built == [] and plan.system._classes is None
        # a consumer that reads the classes is seen
        assert len(plan.system.classes) == 91_344 and len(built) == 91_344


_NUMBERS = (
    st.integers(-1000, 1000) | st.integers(-(2**200), 2**200)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.booleans() | st.none()
)
_SCALARS = _NUMBERS | st.text(alphabet='[]{},:"\\ab\u00e9\u2014 \n', max_size=6)
# string-free arrays are the writer's fast path, so they are drawn on their own too
_TREES = st.recursive(
    _SCALARS | st.recursive(_NUMBERS, lambda kids: st.lists(kids, max_size=4), max_leaves=12),
    lambda kids: st.lists(kids, max_size=5) | st.dictionaries(st.text(max_size=4), kids, max_size=5),
    max_leaves=40,
)


# runs of classes sharing a modulus, with small moduli, modulus 1 and
# 2^200-sized moduli and residues; a residue is reduced when the system is built
_SYSTEMS = st.lists(
    st.tuples(st.integers(1, 12) | st.integers(1, 2**200),
              st.lists(st.integers(-(2**200), 2**200), min_size=1, max_size=6)),
    max_size=6,
).map(lambda runs: ResidueSystem.from_pairs((n, r) for n, rs in runs for r in rs))


class TestReportWriter:
    """cli._dumps against the stdlib's indented dump it replaces."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_SYSTEMS, st.sampled_from(["bare", "dict", "list", "deep"]))
    def test_systems_match_their_pairs_form(self, system, nesting):
        # a system is written from its columns; the reference dumps its pairs
        plain = {"classes": [[n, r] for n, r in system.pairs()]}
        wrap = {"bare": lambda x: x, "dict": lambda x: {"system": x, "J": 4},
                "list": lambda x: [x, 7], "deep": lambda x: {"r": [{"s": x}]}}[nesting]
        assert _dumps(wrap(system)) == indented_json(wrap(plain))

    @pytest.mark.parametrize("obj", [
        [], [[]], [[1]], [[[65]], None], [[1, 2], 3], [[1], []], [{}], {},
        [1.5, float("inf"), float("-inf"), float("nan"), True, None, 10**30],
        [[1, 2], [3, 4, 5]], {"b": [[2, 0]], "a": {"c": '"[1,2]"'}},
        ("tuple", [1]), "caf\u00e9", {"": None, "\u00e9": {"k": []}},
    ])
    def test_explicit_cases(self, obj):
        assert _dumps(obj) == indented_json(obj)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_TREES)
    def test_matches_indented_json(self, obj):
        assert _dumps(obj) == indented_json(obj)

    @pytest.mark.parametrize("obj, plain", [
        (Fraction(-3, 4), "-3/4"),
        ([Fraction(1, 3), 2, Fraction(5)], ["1/3", 2, "5/1"]),
        (ResidueSystem.from_pairs([(2, 0), (3, 1)]), {"classes": [[2, 0], [3, 1]]}),
        ([ResidueSystem(()), 7], [{"classes": []}, 7]),
        ({"groups": [{"count": 2, "subsystem": ResidueSystem.from_pairs([(5, 4)]),
                      "term": Fraction(1, 5)}]},
         {"groups": [{"count": 2, "subsystem": {"classes": [[5, 4]]}, "term": "1/5"}]}),
    ])
    def test_fractions_and_systems(self, obj, plain):
        # a Fraction is written as "p/q", a system as {"classes": [[n, r], ...]}
        assert _dumps(obj) == indented_json(plain)

    def test_unencodable_raises_like_the_stdlib(self):
        for obj in ({(1, 2): 0}, [object()], {"a": {3j: 1}}, {"a": object()}, {"a": {1, 2}}):
            with pytest.raises(TypeError):
                indented_json(obj)
            with pytest.raises(TypeError):
                _dumps(obj)

    def test_non_string_keys_raise(self):
        # reports only have string keys; the stdlib would quietly write "1"
        with pytest.raises(TypeError):
            _dumps({1: "x"})
