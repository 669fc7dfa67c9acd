"""End-to-end checks of the command-line surface.

Everything runs in-process through cli.main so exit codes and printed
output are asserted directly, with files routed through tmp_path.
"""

import json

import pytest

from xorcert import cli
from xorcert.bdd import BddCapacityError
from xorcert.tbdd import ProofEngineError

# Three parity constraints on x1..x3, grouped so recovery order is fixed:
# x1+x2=1, x1+x3=0, x1+x2+x3=1.
THREE_XOR_CNF = """p cnf 3 8
1 2 0
-1 -2 0
1 -3 0
-1 3 0
1 2 3 0
1 -2 -3 0
-1 2 -3 0
-1 -2 3 0
"""


# (x1 or x2), (x1 or -x2), (-x1 or x2), (-x1 or -x2): refuted by
# "5 1 0 1 2 0" then "6 0 5 3 4 0"
PAIRS_CNF = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"


def write(path, text):
    path.write_text(text)
    return str(path)


# every command that reads a DIMACS file
CNF_COMMANDS = ["solve", "check", "bdd-dump", "gj-trace"]


def cnf_argv(command, cnf, tmp_path):
    """`command` run on `cnf`; check also gets an empty proof file."""
    if command == "check":
        return [command, cnf, write(tmp_path / "empty.lrat", "")]
    return [command, cnf]


class TestSolveExitCodes:
    def test_sat_is_10(self, tmp_path, capsys):
        cnf = write(tmp_path / "a.cnf", "p cnf 2 1\n1 -2 0\n")
        assert cli.main(["solve", cnf]) == 10
        out = capsys.readouterr().out
        assert "s SATISFIABLE" in out
        assert "v " in out

    def test_model_line_in_variable_order(self, tmp_path, capsys):
        cnf = write(tmp_path / "a.cnf", "p cnf 3 2\n-3 0\n2 0\n")
        assert cli.main(["solve", cnf]) == 10
        vline = [l for l in capsys.readouterr().out.splitlines() if l.startswith("v ")][0]
        lits = [int(t) for t in vline[2:].split()]
        assert lits[-1] == 0
        assert [abs(l) for l in lits[:-1]] == [1, 2, 3]

    def test_unsat_is_20(self, tmp_path, capsys):
        cnf = write(tmp_path / "a.cnf", "p cnf 1 2\n1 0\n-1 0\n")
        assert cli.main(["solve", cnf]) == 20
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_limit_is_30(self, tmp_path, capsys):
        gen = cli.main(["gen", "urquhart", "-m", "3", "--seed", "1",
                        "-o", str(tmp_path / "u.cnf")])
        assert gen == 0
        rc = cli.main(["solve", str(tmp_path / "u.cnf"), "--no-xor", "--timeout", "0.05"])
        assert rc == 30
        assert "s UNKNOWN" in capsys.readouterr().out

    def test_missing_file_is_1(self, tmp_path, capsys):
        for command in CNF_COMMANDS:
            rc = cli.main(cnf_argv(command, str(tmp_path / "missing.cnf"), tmp_path))
            assert rc == 1, command
            assert "error:" in capsys.readouterr().err, command

    def test_bad_dimacs_is_1(self, tmp_path, capsys):
        cnf = write(tmp_path / "bad.cnf", "p cnf 1 1\n1 2 0\n")
        for command in CNF_COMMANDS:
            rc = cli.main(cnf_argv(command, cnf, tmp_path))
            assert rc == 1, command
            assert "error: line 2:" in capsys.readouterr().err, command


class TestPipelines:
    def test_urquhart_gen_solve_check(self, tmp_path, capsys):
        cnf = str(tmp_path / "u.cnf")
        man = str(tmp_path / "u.manifest")
        proof = str(tmp_path / "u.lrat")
        assert cli.main(["gen", "urquhart", "-m", "3", "--seed", "7",
                         "-o", cnf, "--manifest", man]) == 0
        header = open(cnf).readline().split()
        assert header == ["p", "cnf", "153", "408"]
        assert len(open(man).read().splitlines()) == 102
        assert cli.main(["solve", cnf, "--proof", proof]) == 20
        assert cli.main(["check", cnf, proof]) == 0
        assert "Verified" in capsys.readouterr().out

    def test_lpn_gen_solve_both_bounds(self, tmp_path, capsys):
        sat_cnf = str(tmp_path / "s.cnf")
        order = str(tmp_path / "s.order")
        assert cli.main(["gen", "lpn", "-n", "8", "--seed", "42",
                         "-o", sat_cnf, "--var-order-out", order]) == 0
        assert cli.main(["solve", sat_cnf, "--var-order", order]) == 10
        unsat_cnf = str(tmp_path / "u.cnf")
        proof = str(tmp_path / "u.lrat")
        assert cli.main(["gen", "lpn", "-n", "8", "--seed", "42", "--unsat",
                         "-o", unsat_cnf]) == 0
        assert cli.main(["solve", unsat_cnf, "--proof", proof]) == 20
        assert cli.main(["check", unsat_cnf, proof]) == 0

    def test_gen_to_stdout(self, capsys):
        assert cli.main(["gen", "lpn", "-n", "8", "--seed", "3"]) == 0
        assert capsys.readouterr().out.startswith("p cnf ")

    def test_gen_validation_error(self, tmp_path, capsys):
        rc = cli.main(["gen", "urquhart", "-m", "2", "-o", str(tmp_path / "x.cnf")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestBadOptionValues:
    """Each bad value exits 1 with one `error:` line and writes nothing."""

    def one_error(self, capsys, argv):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        return err

    def test_lpn_without_rows_in_degenerate_branch(self, capsys):
        err = self.one_error(capsys, ["gen", "lpn", "-n", "4", "--m", "0", "--unsat"])
        assert "m must be at least 1" in err

    def test_lpn_negative_rows(self, capsys):
        self.one_error(capsys, ["gen", "lpn", "-n", "8", "--m", "-3"])

    def test_range_without_colon(self, capsys):
        err = self.one_error(capsys, ["bench", "urq", "--m-range", "3"])
        assert "'3'" in err

    def test_range_with_bad_ends(self, capsys):
        err = self.one_error(capsys, ["bench", "lpn", "--n-range", "x:y"])
        assert "'x:y'" in err

    def test_non_integer_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("XORCERT_SEED", "abc")
        err = self.one_error(capsys, ["gen", "urquhart", "-m", "3"])
        assert "XORCERT_SEED" in err and "'abc'" in err


class TestSolveInputErrors:
    def test_short_var_order_file(self, tmp_path, capsys):
        cnf = str(tmp_path / "u3.cnf")
        cli.main(["gen", "urquhart", "-m", "3", "--seed", "7", "-o", cnf])
        order = write(tmp_path / "short.order", "1 2 3\n")
        capsys.readouterr()
        assert cli.main(["solve", cnf, "--var-order", order]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad variable order file: ")
        assert len(err.splitlines()) == 1

    def test_rejected_var_order_leaves_no_proof(self, tmp_path, capsys):
        cnf = write(tmp_path / "a.cnf", "p cnf 3 1\n1 -2 0\n")
        order = write(tmp_path / "short.order", "1 2\n")
        proof = tmp_path / "a.lrat"
        assert cli.main(["solve", cnf, "--var-order", order, "--proof", str(proof)]) == 1
        assert capsys.readouterr().err.startswith("error: bad variable order file: ")
        assert not proof.exists()

    def test_unwritable_proof_path(self, tmp_path, capsys):
        cnf = write(tmp_path / "a.cnf", "p cnf 1 2\n1 0\n-1 0\n")
        proof = tmp_path / "missing" / "x.lrat"
        assert cli.main(["solve", cnf, "--proof", str(proof)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: cannot write proof: ")
        assert len(err.splitlines()) == 1
        assert out == ""
        assert not proof.parent.exists()


ENGINE_FAILURES = [
    RecursionError("maximum recursion depth exceeded"),
    ProofEngineError("implication failure: 7 -> 9"),
    BddCapacityError("node id space exhausted"),
]


def fail_solves(monkeypatch, exc):
    def boom(self):
        raise exc

    monkeypatch.setattr(cli.Solver, "solve", boom)


class TestEngineFailures:
    @pytest.mark.parametrize("exc", ENGINE_FAILURES, ids=lambda e: type(e).__name__)
    def test_solve_reports_error(self, tmp_path, capsys, monkeypatch, exc):
        cnf = write(tmp_path / "a.cnf", "p cnf 2 1\n1 -2 0\n")
        rep = tmp_path / "rep.jsonl"
        fail_solves(monkeypatch, exc)
        assert cli.main(["solve", cnf, "--report", str(rep), "--timeout", "5"]) == 1
        out, err = capsys.readouterr()
        assert err == f"error: {type(exc).__name__}: {exc}\n"
        assert "s " not in out
        row = json.loads(rep.read_text())
        assert row["status"] == "ERROR"
        assert row["stop_reason"] == type(exc).__name__
        assert row["par2"] == pytest.approx(10.0)

    @pytest.mark.parametrize("exc", ENGINE_FAILURES, ids=lambda e: type(e).__name__)
    def test_bench_row_is_error(self, tmp_path, capsys, monkeypatch, exc):
        rep = tmp_path / "bench.jsonl"
        fail_solves(monkeypatch, exc)
        rc = cli.main(["bench", "urq", "--m-range", "3:3", "--seed", "5",
                       "--report", str(rep)])
        assert rc == 1
        out, err = capsys.readouterr()
        assert " ERROR " in out
        assert err == f"error: {type(exc).__name__}: {exc}\n"
        row = json.loads(rep.read_text())
        assert row["status"] == "ERROR"
        assert row["stop_reason"] == type(exc).__name__
        assert row["verified"] is None


class TestCheckCommand:
    def test_mutated_proof_rejected(self, tmp_path, capsys):
        cnf = str(tmp_path / "u.cnf")
        proof = tmp_path / "u.lrat"
        cli.main(["gen", "urquhart", "-m", "3", "--seed", "7", "-o", cnf])
        cli.main(["solve", cnf, "--proof", str(proof)])
        lines = proof.read_text().splitlines()
        del lines[len(lines) // 2]
        bad = write(tmp_path / "bad.lrat", "\n".join(lines) + "\n")
        assert cli.main(["check", cnf, bad]) == 2
        assert "Rejected" in capsys.readouterr().out

    def test_derivation_flag_for_sat_runs(self, tmp_path, capsys):
        # a satisfiable parity instance still emits justification steps;
        # they form a valid derivation but not a refutation
        cnf = str(tmp_path / "s.cnf")
        proof = str(tmp_path / "s.lrat")
        cli.main(["gen", "lpn", "-n", "8", "--seed", "42", "-o", cnf])
        assert cli.main(["solve", cnf, "--proof", proof]) == 10
        assert cli.main(["check", cnf, proof]) == 2
        capsys.readouterr()
        assert cli.main(["check", cnf, proof, "--derivation"]) == 0
        assert "Verified" in capsys.readouterr().out

    def test_garbage_proof_is_error(self, tmp_path, capsys):
        cnf = write(tmp_path / "a.cnf", "p cnf 1 2\n1 0\n-1 0\n")
        bad = write(tmp_path / "p.lrat", "not a proof line\n")
        assert cli.main(["check", cnf, bad]) == 1
        assert "error:" in capsys.readouterr().err

    # the proof streams through the checker, which stops at the first
    # failing line, be it malformed or a rejected step
    def test_garbage_after_valid_prefix_is_error(self, tmp_path, capsys):
        cnf = write(tmp_path / "a.cnf", PAIRS_CNF)
        proof = write(tmp_path / "p.lrat", "5 1 0 1 2 0\nzebra 0\n6 0 5 3 4 0\n")
        assert cli.main(["check", cnf, proof]) == 1
        out, err = capsys.readouterr()
        assert err == "error: line 2: bad step id 'zebra'\n"
        assert out == ""

    def test_rejected_step_before_garbage_is_rejected(self, tmp_path, capsys):
        cnf = write(tmp_path / "a.cnf", PAIRS_CNF)
        proof = write(tmp_path / "p.lrat", "5 1 0 1 0\nzebra 0\n")
        assert cli.main(["check", cnf, proof]) == 2
        out, err = capsys.readouterr()
        assert out == "Rejected at step 5: no conflict after final hint\n"
        assert err == ""

    def test_undecodable_line_is_error(self, tmp_path, capsys):
        cnf = write(tmp_path / "a.cnf", PAIRS_CNF)
        proof = tmp_path / "p.lrat"
        proof.write_bytes(b"5 1 0 1 2 0\n\xff\xfe 0\n6 0 5 3 4 0\n")
        assert cli.main(["check", cnf, str(proof)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: 'utf-8' codec can't decode")
        assert len(err.splitlines()) == 1

    def test_valid_refutation_verified(self, tmp_path, capsys):
        cnf = write(tmp_path / "a.cnf", PAIRS_CNF)
        proof = write(tmp_path / "p.lrat", "5 1 0 1 2 0\n6 d 1 2 0\n7 0 5 3 4 0\n")
        assert cli.main(["check", cnf, proof]) == 0
        assert capsys.readouterr().out == (
            "Verified: 4 steps (adds=2, deletes=2, hint_literal_visits=9)\n"
        )


class TestRunReport:
    FIELDS = {
        "instance", "mode", "status", "wall_time", "conflicts", "decisions",
        "propagations", "parity_propagations", "restarts", "num_xors",
        "proof_adds", "proof_deletes", "ext_vars", "peak_bdd_nodes",
        "gc_collections", "stop_reason", "par2",
    }

    def test_report_fields_present(self, tmp_path):
        cnf = str(tmp_path / "u.cnf")
        rep = tmp_path / "rep.jsonl"
        cli.main(["gen", "urquhart", "-m", "3", "--seed", "7", "-o", cnf])
        assert cli.main(["solve", cnf, "--report", str(rep)]) == 20
        row = json.loads(rep.read_text().splitlines()[0])
        assert self.FIELDS <= set(row)
        assert row["status"] == "UNSAT"
        assert row["mode"] == "xor"
        assert row["par2"] is None  # no timeout configured

    def test_par2_doubles_on_limit(self, tmp_path):
        cnf = str(tmp_path / "u.cnf")
        rep = tmp_path / "rep.jsonl"
        cli.main(["gen", "urquhart", "-m", "3", "--seed", "7", "-o", cnf])
        cli.main(["solve", cnf, "--no-xor", "--timeout", "0.05",
                  "--report", str(rep)])
        cli.main(["solve", cnf, "--timeout", "60", "--report", str(rep)])
        limited, finished = [json.loads(l) for l in rep.read_text().splitlines()]
        assert limited["status"] == "LIMIT"
        assert limited["par2"] == pytest.approx(0.1)
        assert finished["par2"] == pytest.approx(finished["wall_time"])


class TestBench:
    def test_table_and_report(self, tmp_path, capsys):
        rep = tmp_path / "bench.jsonl"
        rc = cli.main(["bench", "urq", "--m-range", "3:3", "--seed", "5",
                       "--timeout", "30", "--report", str(rep)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "instance" in out and "verified" in out
        assert "PAR-2[xor]" in out
        rows = [json.loads(l) for l in rep.read_text().splitlines()]
        assert len(rows) == 1
        assert rows[0]["verified"] is True
        assert rows[0]["par2"] is not None

    def test_empty_suite_is_ok(self, capsys):
        assert cli.main(["bench", "urq", "--m-range", "5:4"]) == 0
        assert "no instances" in capsys.readouterr().out

    def test_lpn_suite_covers_both_bounds(self, capsys):
        rc = cli.main(["bench", "lpn", "--n-range", "8:8", "--seed", "2",
                       "--timeout", "30"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lpn-n8-sat-s10" in out
        assert "lpn-n8-unsat-s10" in out


class TestDebugDumps:
    def test_gj_trace_layout(self, tmp_path, capsys):
        cnf = write(tmp_path / "x.cnf", THREE_XOR_CNF)
        assert cli.main(["gj-trace", cnf]) == 0
        assert capsys.readouterr().out == (
            "cols: x1 x2 x3\n"
            "M          S\n"
            "110 | 1    100\n"
            "101 | 0    010\n"
            "111 | 1    001\n"
        )

    def test_gj_trace_reduced(self, tmp_path, capsys):
        # hand-reduced echelon form of the same system; the solution it
        # exposes is x1=0, x2=1, x3=0
        cnf = write(tmp_path / "x.cnf", THREE_XOR_CNF)
        assert cli.main(["gj-trace", cnf, "--reduce"]) == 0
        assert capsys.readouterr().out == (
            "cols: x1 x2 x3\n"
            "M          S\n"
            "100 | 0    111\n"
            "010 | 1    011\n"
            "001 | 0    101\n"
        )

    def test_gj_trace_no_constraints(self, tmp_path, capsys):
        cnf = write(tmp_path / "p.cnf", "p cnf 2 1\n1 2 0\n")
        assert cli.main(["gj-trace", cnf]) == 1
        assert "no parity constraints" in capsys.readouterr().err

    def test_bdd_dump_dot(self, tmp_path, capsys):
        cnf = write(tmp_path / "x.cnf", THREE_XOR_CNF)
        assert cli.main(["bdd-dump", cnf, "-i", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph xor2 {")
        assert "T1" in out and "T0" in out
        # ternary parity cone: 2*3-1 branch nodes
        assert sum(1 for l in out.splitlines() if 'label="x' in l) == 5

    def test_bdd_dump_bad_index(self, tmp_path, capsys):
        cnf = write(tmp_path / "x.cnf", THREE_XOR_CNF)
        assert cli.main(["bdd-dump", cnf, "-i", "9"]) == 1
        assert "out of range" in capsys.readouterr().err


class TestSeedEnv:
    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.cnf", tmp_path / "b.cnf"
        monkeypatch.setenv("XORCERT_SEED", "9")
        cli.main(["gen", "urquhart", "-m", "3", "-o", str(a)])
        monkeypatch.delenv("XORCERT_SEED")
        cli.main(["gen", "urquhart", "-m", "3", "--seed", "9", "-o", str(b)])
        assert a.read_text() == b.read_text()

    def test_explicit_seed_beats_env(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.cnf", tmp_path / "b.cnf"
        monkeypatch.setenv("XORCERT_SEED", "9")
        cli.main(["gen", "urquhart", "-m", "3", "--seed", "4", "-o", str(a)])
        monkeypatch.delenv("XORCERT_SEED")
        cli.main(["gen", "urquhart", "-m", "3", "--seed", "4", "-o", str(b)])
        assert a.read_text() == b.read_text()
