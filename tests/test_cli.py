import json
import re
import shlex
from pathlib import Path

import pytest

from decrement.cli import build_parser, main

PSI1 = "states/psi1.json"
CONFLICT = "states/conflict.json"
FLAT = "states/flat2.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class TestShow:
    def test_table_and_json(self, capsys):
        code, out, err = run(capsys, "show", PSI1)
        assert code == 0
        lines = out.splitlines()
        assert "layer 2 | 10 00" in lines[1]
        assert "layer 0 | 11" in lines[3]
        assert last_json(out)["layers"] == [["11"], ["01"], ["10", "00"]]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "show", "states/nope.json")
        assert code == 2
        assert "error:" in err

    def test_bad_json_file(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        code, _, err = run(capsys, "show", str(p))
        assert code == 2


class TestApply:
    def test_type1_single_step(self, capsys):
        code, out, _ = run(capsys, "apply", PSI1, "--formula", "a", "--op", "type1", "--steps", "1")
        assert code == 0
        doc = last_json(out)
        assert doc["after"]["layers"] == [["11", "01"], ["00"], ["10"]]
        assert doc["steps"] == 1
        # highest layer prints first, layer 0 last
        body = out[: out.rindex("{")]
        assert body.index("layer 2") < body.index("layer 0")

    def test_type2_default_one_step(self, capsys):
        code, out, _ = run(capsys, "apply", PSI1, "--formula", "a", "--op", "type2")
        assert code == 0
        assert last_json(out)["after"]["layers"] == [["11", "01"], ["10", "00"]]

    def test_achieve_flag_tautology(self, capsys):
        code, out, _ = run(capsys, "apply", PSI1, "--formula", "true", "--op", "type2", "--achieve")
        assert code == 0
        doc = last_json(out)
        assert doc["n"] == 0
        assert doc["after"] == doc["before"]

    def test_syntax_error_exits_2(self, capsys):
        code, _, err = run(capsys, "apply", PSI1, "--formula", "a &", "--op", "type1")
        assert code == 2
        assert "error:" in err

    def test_atom_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, "apply", PSI1, "--formula", "c", "--op", "type1")
        assert code == 2
        assert "unknown atom" in err

    @pytest.mark.parametrize(
        "formula",
        ["!" * 3000 + "a", "(" * 3000 + "a" + ")" * 3000, " & ".join(["a"] * 3000), " -> ".join(["a"] * 3000)],
        ids=["negations", "parentheses", "conjunction", "implication"],
    )
    def test_too_deep_formula_exits_2(self, capsys, formula):
        code, _, err = run(capsys, "apply", FLAT, "--formula", formula, "--op", "type1")
        assert code == 2
        assert err.startswith("error: bad formula: formula nested more than 300 levels deep")

    def test_steps_and_achieve_conflict(self, capsys):
        code, _, err = run(
            capsys, "apply", PSI1, "--formula", "a", "--op", "type1", "--steps", "2", "--achieve"
        )
        assert code == 2

    def test_unknown_operator(self, capsys):
        code, _, err = run(capsys, "apply", PSI1, "--formula", "a", "--op", "type9")
        assert code == 2

    def test_out_file_roundtrips(self, capsys, tmp_path):
        from decrement.state import state_from_doc

        out_path = tmp_path / "result.json"
        code, _, _ = run(
            capsys, "apply", PSI1, "--formula", "a", "--op", "type1", "--out", str(out_path)
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        state_from_doc(doc["after"])  # parses back through the state schema


class TestAchieveCommand:
    def test_counts_steps(self, capsys):
        code, out, _ = run(capsys, "achieve", PSI1, "--formula", "b", "--op", "type1")
        assert code == 0
        doc = last_json(out)
        assert doc["n"] == 2
        assert doc["after"]["layers"][0] == ["11", "10", "00"]


class TestCheck:
    def test_weak_decrement_postulates_pass(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--op", "type2",
            "--postulates", "D1,D2,D3,D4,D5,D6,D7",
            "--atoms", "2",
            "--expect-pass",
        )
        assert code == 0
        doc = json.loads(out)
        assert [r["outcome"] for r in doc["reports"]] == ["pass"] * 7

    def test_expect_pass_violated_exits_1(self, capsys):
        code, out, err = run(
            capsys, "check", "--op", "instant", "--postulates", "DR12", "--atoms", "2", "--expect-pass"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["reports"][0]["outcome"] == "fail"
        assert doc["reports"][0]["counterexamples"]
        assert "instant/DR12" in err

    def test_domain_too_large_exits_2(self, capsys):
        code, _, err = run(
            capsys, "check", "--op", "type1", "--postulates", "all", "--atoms", "4"
        )
        assert code == 2

    def test_pair_postulate_four_atoms_exits_2(self, capsys):
        code, _, err = run(capsys, "check", "--op", "type1", "--postulates", "D12", "--atoms", "4")
        assert code == 2
        assert err == "error: checker limited to |Σ| <= 3, got 4\n"

    def test_unknown_postulate_exits_2(self, capsys):
        code, _, _ = run(capsys, "check", "--op", "type1", "--postulates", "D99", "--atoms", "2")
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--mode", "sample"], ["--mode", "exhaustive"], ["--seed", "5"], ["--count", "50"]],
        ids=" ".join,
    )
    def test_sample_mode_flags_exit_2(self, capsys, flags):
        # every case is decided exhaustively; there is no sample mode to select
        with pytest.raises(SystemExit) as exc:
            main(["check", "--op", "type1", "--postulates", "D1", "--atoms", "2", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_out_file(self, capsys, tmp_path):
        p = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "check", "--op", "type2", "--postulates", "D1", "--atoms", "2", "--out", str(p)
        )
        assert code == 0
        assert out == ""
        assert json.loads(p.read_text())["reports"][0]["outcome"] == "pass"


class TestMatrix:
    def test_all_ops_single_postulate(self, capsys):
        code, out, _ = run(capsys, "matrix", "--ops", "all", "--postulates", "D1", "--atoms", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["operators"] == ["type1", "type2", "instant"]
        assert len(doc["reports"]) == 3

    def test_explicit_op_list(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "--ops", "type1,type2", "--postulates", "DR14,DR15", "--atoms", "2"
        )
        assert code == 0
        doc = json.loads(out)
        outcomes = {(r["operator"], r["postulate"]): r["outcome"] for r in doc["reports"]}
        assert outcomes[("type1", "DR14")] == "pass"
        assert outcomes[("type2", "DR15")] == "pass"
        assert outcomes[("type1", "DR15")] == "fail"
        assert outcomes[("type2", "DR14")] == "fail"


class TestSat:
    def test_psi1_full_dr_constraints(self, capsys):
        code, out, _ = run(
            capsys, "sat", PSI1, "--formula", "a",
            "--constraints", "DR8,DR9,DR10,DR11,DR12,DR13",
        )
        assert code == 0
        doc = last_json(out)
        assert doc["count"] >= 2
        assert [["11", "01"], ["00"], ["10"]] in doc["successors"]
        assert [["11", "01"], ["10", "00"]] in doc["successors"]
        assert out.splitlines()[0] == f"count: {doc['count']}"

    def test_conflict_returns_zero(self, capsys):
        code, out, _ = run(
            capsys, "sat", CONFLICT, "--formula", "a", "--constraints", "DR9,DR12,DR13"
        )
        assert code == 0
        assert last_json(out) == {"count": 0, "successors": []}

    def test_flat_dr8_count_matches_direct_enumeration(self, capsys):
        # independent oracle: successors preserving the internal order of
        # the alpha-worlds (all tied in the flat state)
        from decrement.logic import Signature, parse_formula, models
        from decrement.preorder import enumerate_preorders

        sig = Signature(("a", "b"))
        amask = models(parse_formula("a", sig), sig)
        expected = 0
        for tpo in enumerate_preorders(4):
            ok = all(
                (tpo.ranks[w1] <= tpo.ranks[w2]) == True  # flat: all pairs tied before
                for w1 in range(4)
                if (amask >> w1) & 1
                for w2 in range(4)
                if (amask >> w2) & 1
            )
            if ok:
                expected += 1
        code, out, _ = run(capsys, "sat", FLAT, "--formula", "a", "--constraints", "DR8")
        assert code == 0
        assert last_json(out)["count"] == expected

    def test_bad_constraint_exits_2(self, capsys):
        code, _, err = run(capsys, "sat", PSI1, "--formula", "a", "--constraints", "D1")
        assert code == 2

    def test_limit(self, capsys):
        code, out, _ = run(
            capsys, "sat", FLAT, "--formula", "a", "--constraints", "DR8", "--limit", "1"
        )
        assert code == 0
        assert len(last_json(out)["successors"]) == 1

    # sha256 of the --out document (count and every successor, in order)
    # for a four-layer three-atom state with the believed alpha a; pinned
    # from the brute-force filter over all 545,835 candidate orders.
    THREE_ATOM_STATE = {
        "atoms": ["a", "b", "c"],
        "layers": [["110"], ["011", "101"], ["000", "111"], ["001", "010", "100"]],
    }

    @pytest.mark.parametrize(
        "constraints, count, sha256",
        [
            ("DR8,DR9,DR10,DR11,DR12,DR13", 6,
             "05f35fc54d0c246c8e20ad15adb7327d9a773ae3eeb55cd01cd7ccf8f07d4773"),
            ("DR9,DR12,DR13", 92,
             "bb52304742277456901e3a597186d15cfe767bca0fa02c6ffc1c9e60c141b6e3"),
            ("DR14", 268,
             "d85e89a88306a14a29d5b3a4fdddc5251a2b1e16afeaed348b18bf096bcf9c27"),
        ],
    )
    def test_three_atom_output_pinned(self, capsys, tmp_path, constraints, count, sha256):
        import hashlib

        state = tmp_path / "state3.json"
        state.write_text(json.dumps(self.THREE_ATOM_STATE))
        out_path = tmp_path / "sat.json"
        code, out, _ = run(
            capsys, "sat", str(state), "--formula", "a", "--constraints", constraints,
            "--limit", "300", "--out", str(out_path),
        )
        assert code == 0
        assert out.splitlines()[0] == f"count: {count}"
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == sha256


class TestEnumerate:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--atoms", "2", "--count")
        assert code == 0
        assert out.strip() == "75"

    def test_stream_limit(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--atoms", "2", "--limit", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0]) == [["11", "10", "01", "00"]]

    def test_too_many_atoms_exits_2(self, capsys):
        code, _, err = run(capsys, "enumerate", "--atoms", "4", "--count")
        assert code == 2


class TestVersion:
    def test_prints_version_and_backend(self, capsys):
        import decrement

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == (
            f"decrement {decrement.__version__} (kernel backend: {decrement.kernel_backend})"
        )

    def test_pyproject_version_is_package_version(self):
        # pyproject.toml is the one copy of the package metadata
        tomllib = pytest.importorskip("tomllib")
        import decrement

        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
            project = tomllib.load(f)["project"]
        assert project["version"] == decrement.__version__


NEGATIVE = "must be nonnegative, got -1"


class TestExitCodeContract:
    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["apply"])  # missing required flags
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["apply", PSI1, "--formula", "a", "--op", "type1", "--steps", "-1"], NEGATIVE),
            (["enumerate", "--atoms", "2", "--limit", "-1"], NEGATIVE),
            (["sat", PSI1, "--formula", "a", "--constraints", "DR8", "--limit", "-1"], NEGATIVE),
            (["matrix", "--atoms", "1", "--workers", "0"], "must be at least 1, got 0"),
            (["check", "--op", "type1", "--atoms", "1", "--workers", "-3"], "must be at least 1, got -3"),
        ],
        ids=["apply-steps", "enumerate-limit", "sat-limit", "matrix-workers", "check-workers"],
    )
    def test_count_below_bound_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_state_file_not_utf8_exits_2(self, capsys, tmp_path):
        p = tmp_path / "latin1.json"
        p.write_bytes('{"atoms": ["\u00e4"], "layers": [["1", "0"]]}'.encode("latin-1"))
        code, _, err = run(capsys, "show", str(p))
        assert code == 2
        assert err.startswith("error: state file is not UTF-8")

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["show", PSI1],
            ["apply", PSI1, "--formula", "a", "--op", "type1"],
            ["achieve", PSI1, "--formula", "a", "--op", "type1"],
            ["sat", PSI1, "--formula", "a", "--constraints", "DR8"],
            ["check", "--op", "type1", "--postulates", "C1", "--atoms", "1"],
            ["matrix", "--ops", "type1", "--postulates", "C1", "--atoms", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_out_exits_2(self, capsys, tmp_path, argv, where):
        out = tmp_path if where == "directory" else tmp_path / "missing" / "out.json"
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert err.startswith("error: cannot write --out file")
        assert "Traceback" not in err


def readme_commands():
    """Every ``decrement ...`` command in README.md's fenced code blocks,
    backslash continuations joined, as an argv without the program name."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("decrement "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


class TestReadmeCommands:
    def test_readme_has_commands(self):
        assert len(readme_commands()) >= 10

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_command_parses(self, capsys, argv):
        # a documented flag that the parser no longer knows exits 2
        try:
            build_parser().parse_args(argv)
        except SystemExit as exc:  # --version prints and exits 0
            assert exc.code == 0, capsys.readouterr().err
