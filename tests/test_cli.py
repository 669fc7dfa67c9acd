"""End-to-end checks of the command-line surface.

Everything runs in-process through cli.main so exit codes and printed
output are asserted directly, with files routed through tmp_path; only the
`python -O` checks, the memory-capped runs and the per-command module sets
need processes of their own.
"""

import json
import os
import re
import shlex
import subprocess
import sys
import time

import pytest

import xorcert
from xorcert import cli
from xorcert.formula import parse_dimacs
from xorcert.lrat import check, parse_proof
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

    def test_empty_model_line(self, tmp_path, capsys):
        cnf = write(tmp_path / "a.cnf", "p cnf 0 0\n")
        assert cli.main(["solve", cnf]) == 10
        assert capsys.readouterr().out == "s SATISFIABLE\nv 0\n"

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

    def test_timeout_bounds_parity_preparation(self, tmp_path, capsys):
        # urq m=24 spends its whole refutation, several times the timeout,
        # in parity preparation, XOR builds and parity sums before any
        # search; it would answer UNSAT if only the search loop looked at
        # the deadline
        cnf = str(tmp_path / "u24.cnf")
        proof = tmp_path / "u24.lrat"
        assert cli.main(["gen", "urquhart", "-m", "24", "--seed", "24", "-o", cnf]) == 0
        t0 = time.monotonic()
        rc = cli.main(["solve", cnf, "--timeout", "1", "--proof", str(proof)])
        dt = time.monotonic() - t0
        assert rc == 30 and "s UNKNOWN" in capsys.readouterr().out
        assert dt < 5.0
        with open(cnf) as fh:
            f = parse_dimacs(fh.read())
        assert check(f, parse_proof(proof.read_text()), refutation=False).ok

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

    def test_undecodable_dimacs_is_1(self, tmp_path, capsys):
        cnf = tmp_path / "bad.cnf"
        cnf.write_bytes(b"p cnf 1 1\n\xff 0\n")
        for command in CNF_COMMANDS:
            rc = cli.main(cnf_argv(command, str(cnf), tmp_path))
            assert rc == 1, command
            err = capsys.readouterr().err
            assert err.startswith("error: 'utf-8' codec can't decode"), command
            assert len(err.splitlines()) == 1, command


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

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_solve_timeout_not_positive_finite(self, tmp_path, capsys, value):
        cnf = write(tmp_path / "a.cnf", "p cnf 2 2\n1 2 0\n-1 0\n")
        err = self.one_error(capsys, ["solve", cnf, "--timeout", value])
        assert "--timeout" in err

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_max_proof_clauses_below_one(self, tmp_path, capsys, value):
        cnf = write(tmp_path / "a.cnf", "p cnf 2 2\n1 2 0\n-1 0\n")
        err = self.one_error(capsys, ["solve", cnf, "--max-proof-clauses", value])
        assert "--max-proof-clauses" in err

    @pytest.mark.parametrize("argv, message", [
        (["urquhart", "-m", "3", "-p", "10"], "p must lie in [25, 75]"),
        (["urquhart", "-m", "2"], "m must be at least 3"),
        (["lpn", "-n", "2"], "n must be at least 4"),
        (["lpn", "-n", "8", "--corrupt-prob", "1.0"], "corrupt_prob must lie in [0, 1)"),
    ], ids=["urq-p", "urq-m", "lpn-n", "lpn-corrupt-prob"])
    def test_gen_generator_limits(self, tmp_path, capsys, argv, message):
        # the instance is built before any output is opened
        out = tmp_path / "x.cnf"
        err = self.one_error(capsys, ["gen", *argv, "-o", str(out)])
        assert err == f"error: {message}\n"
        assert not out.exists()


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


# argv writing one output to the unwritable path `bad`; inputs and any
# other output go under `tmp`
UNWRITABLE_OUTPUTS = {
    "gen-output": lambda tmp, bad: ["gen", "urquhart", "-m", "3", "-o", bad],
    "gen-manifest": lambda tmp, bad: ["gen", "urquhart", "-m", "3", "-o", str(tmp / "u.cnf"),
                                      "--manifest", bad],
    "gen-var-order-out": lambda tmp, bad: ["gen", "lpn", "-n", "6", "-o", str(tmp / "l.cnf"),
                                           "--var-order-out", bad],
    "bdd-dump-output": lambda tmp, bad: ["bdd-dump", write(tmp / "x.cnf", THREE_XOR_CNF),
                                         "-o", bad],
    "gj-trace-output": lambda tmp, bad: ["gj-trace", write(tmp / "x.cnf", THREE_XOR_CNF),
                                         "-o", bad],
    "solve-report": lambda tmp, bad: ["solve", write(tmp / "x.cnf", THREE_XOR_CNF),
                                      "--report", bad],
}


class TestUnwritableOutputs:
    @pytest.mark.parametrize("case", sorted(UNWRITABLE_OUTPUTS))
    def test_one_error_line(self, tmp_path, capsys, case):
        bad = tmp_path / "missing" / "out"
        assert cli.main(UNWRITABLE_OUTPUTS[case](tmp_path, str(bad))) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and str(bad) in err
        assert len(err.splitlines()) == 1
        # solve opens its report before any work
        assert out == ""


def diagnostic(message):
    """The pattern of an internal failure's line: its class and message, then
    where it was raised."""
    return re.escape(f"error: {message}") + r" \(at \w+\.py:\d+\)\n"


ENGINE_FAILURES = [
    RecursionError("maximum recursion depth exceeded"),
    ProofEngineError("implication failure: 7 -> 9"),
    BddCapacityError("node id space exhausted"),
    AssertionError("model misses clause 1"),
    # any other Exception is an internal failure too
    KeyError("x"),
]


def fail_solves(monkeypatch, exc):
    def boom(self):
        raise exc

    monkeypatch.setattr("xorcert.solver.Solver.solve", boom)


def fail_reads(monkeypatch, exc):
    def boom(text):
        raise exc

    monkeypatch.setattr("xorcert.cli.parse_dimacs", boom)


class TestEngineFailures:
    # one handler turns a failure anywhere from reading the inputs to the
    # end of the solve into the ERROR row: each failure is raised in the
    # solve, and again while reading the CNF
    @pytest.mark.parametrize("fail, exc", [
        pytest.param(fail, e, id=prefix + type(e).__name__)
        for fail, prefix in [(fail_solves, ""), (fail_reads, "read-")] for e in ENGINE_FAILURES
    ])
    def test_solve_reports_error(self, tmp_path, capsys, monkeypatch, fail, exc):
        cnf = write(tmp_path / "a.cnf", "p cnf 2 1\n1 -2 0\n")
        rep = tmp_path / "rep.jsonl"
        fail(monkeypatch, exc)
        assert cli.main(["solve", cnf, "--report", str(rep), "--timeout", "5"]) == 1
        out, err = capsys.readouterr()
        assert re.fullmatch(diagnostic(f"{type(exc).__name__}: {exc}"), err)
        assert "s " not in out
        row = json.loads(rep.read_text())
        assert row["status"] == "ERROR"
        assert row["stop_reason"] == type(exc).__name__
        assert row["par2"] == pytest.approx(10.0)


# argv of each command but solve, and the name in `xorcert` that it calls to
# do its work; inputs go under `tmp`
OTHER_COMMANDS = {
    "check": (lambda tmp: ["check", write(tmp / "p.cnf", PAIRS_CNF),
                           write(tmp / "p.lrat", "5 1 0 1 2 0\n6 0 5 3 4 0\n")],
              "xorcert.cli.check"),
    "gen": (lambda tmp: ["gen", "urquhart", "-m", "3", "-o", str(tmp / "u.cnf")],
            "xorcert.benchgen.gen_urquhart"),
    "bdd-dump": (lambda tmp: ["bdd-dump", write(tmp / "x.cnf", THREE_XOR_CNF)],
                 "xorcert.bdd.Bdd.parity_bdd"),
    "gj-trace": (lambda tmp: ["gj-trace", write(tmp / "x.cnf", THREE_XOR_CNF)],
                 "xorcert.gauss.ParityEngine.dump"),
}


class TestInternalFailures:
    # every command ends an internal failure in one diagnostic line and
    # exit 1, not a traceback
    @pytest.mark.parametrize("command", sorted(OTHER_COMMANDS))
    def test_one_error_line(self, tmp_path, capsys, monkeypatch, command):
        argv, target = OTHER_COMMANDS[command]

        def boom(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(target, boom)
        assert cli.main(argv(tmp_path)) == 1
        out, err = capsys.readouterr()
        assert re.fullmatch(diagnostic("RecursionError: maximum recursion depth exceeded"), err)
        assert out == ""


# Run under `python -O`, which strips assert statements: a search that ends
# on an assignment missing clause 1, a double drop, an XOR proved from
# clauses that lack one of its encoding, and a step written after the empty
# clause, must still fail.  Each case is a program and the pattern that ends
# its stderr.
OPTIMIZED_FAILURES = {
    "bad-model": (
        "from xorcert import cli\n"
        "from xorcert.solver import SAT, Solver\n"
        "def search(self):\n"
        "    self._enqueue(-1, None)\n"
        "    self._enqueue(-2, None)\n"
        "    return SAT\n"
        "Solver._search = search\n"
        "sys.exit(cli.main(sys.argv[1:]))\n",
        diagnostic("AssertionError: model misses clause 1"),
    ),
    "double-drop": (
        "from xorcert import cli\n"
        "from xorcert.solver import SAT, Solver\n"
        "from xorcert.tbdd import T1, Tbdd, TbddEngine\n"
        "def search(self):\n"
        "    tb = TbddEngine(self.order, self.writer, self.f.num_vars, self.f.clause)\n"
        "    t = Tbdd(T1, 0)\n"
        "    tb.drop(t)\n"
        "    tb.drop(t)\n"
        "    self._enqueue(1, None)\n"
        "    self._enqueue(2, None)\n"
        "    return SAT\n"
        "Solver._search = search\n"
        "sys.exit(cli.main(sys.argv[1:]))\n",
        diagnostic("ProofEngineError: double drop of the Tbdd rooted at 1000000000"),
    ),
    "missing-encoding-clause": (
        "import io\n"
        "from xorcert import cli\n"
        "from xorcert.formula import ParityConstraint\n"
        "from xorcert.lrat import ProofWriter\n"
        "from xorcert.solver import Solver\n"
        "from xorcert.tbdd import TbddEngine\n"
        "def search(self):\n"
        "    w = ProofWriter(io.StringIO(), self.f.num_clauses)\n"
        "    tb = TbddEngine(self.order, w, self.f.num_vars, self.f.clause)\n"
        "    tb.tbdd_from_xor(ParityConstraint((1, 2), 1, (1,)))\n"
        "Solver._search = search\n"
        "sys.exit(cli.main(sys.argv[1:]))\n",
        diagnostic("ProofEngineError: ParityConstraint(vars=(1, 2), phase=1, "
                   "source_clauses=(1,)) has no encoding clause blocking [1, 2]"),
    ),
    "step-after-empty": (
        "import io\n"
        "from xorcert.lrat import ProofWriter\n"
        "w = ProofWriter(io.StringIO(), 1)\n"
        "w.add((), [1])\n"
        "w.add((1,), [1])\n",
        re.escape("AssertionError: no steps may follow the empty clause\n"),
    ),
}


def src_env():
    """The environment of a child process that imports this xorcert."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(xorcert.__file__)))


class TestOptimizedInterpreter:
    @pytest.mark.parametrize("case", sorted(OPTIMIZED_FAILURES))
    def test_checks_survive_dash_O(self, tmp_path, case):
        code, err_tail = OPTIMIZED_FAILURES[case]
        cnf = write(tmp_path / "a.cnf", "p cnf 2 1\n1 2 0\n")
        prelude = "import sys\nif not sys.flags.optimize: sys.exit(99)\n"
        run = subprocess.run(
            [sys.executable, "-O", "-c", prelude + code, "solve", cnf],
            env=src_env(), capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 1, (run.returncode, run.stdout, run.stderr)
        assert re.search(err_tail + r"\Z", run.stderr), run.stderr
        assert "s SATISFIABLE" not in run.stdout


# A header that declares 5,000,000 variables: per-literal solver state
# alone then needs hundreds of MB.  The child caps its address space at
# what it has mapped after loading the commands plus HEADROOM_MB, and
# imports both commands' modules first, so only the command's own work
# meets the cap.
HUGE_CNF = "p cnf 5000000 1\n1 0\n"
HEADROOM_MB = 64
CAPPED = (
    "import json, resource, sys\n"
    "from xorcert import cli, lrat, solver\n"
    "with open('/proc/self/statm') as fh:\n"
    "    mapped = int(fh.read().split()[0]) * resource.getpagesize()\n"
    "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
    f"resource.setrlimit(resource.RLIMIT_AS, (mapped + ({HEADROOM_MB} << 20), hard))\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs Linux /proc")
class TestMemoryLimit:
    def run_capped(self, argv):
        return subprocess.run([sys.executable, "-c", CAPPED, *argv], env=src_env(),
                              capture_output=True, text=True, timeout=120)

    def test_solve_reports_memory_error(self, tmp_path):
        cnf = write(tmp_path / "huge.cnf", HUGE_CNF)
        rep = tmp_path / "rep.jsonl"
        run = self.run_capped(["solve", cnf, "--report", str(rep)])
        assert (run.returncode, run.stdout) == (1, ""), run.stderr
        assert run.stderr.startswith("error: MemoryError") and run.stderr.count("\n") == 1
        row = json.loads(rep.read_text())
        assert (row["status"], row["stop_reason"]) == ("ERROR", "MemoryError")

    def test_solve_reports_memory_error_while_reading_inputs(self, tmp_path):
        # checking a one-entry order against 300,000,000 declared variables
        # needs more than the headroom, before any solver exists
        cnf = write(tmp_path / "huge.cnf", "p cnf 300000000 1\n1 0\n")
        order = write(tmp_path / "one.order", "1\n")
        rep = tmp_path / "rep.jsonl"
        run = self.run_capped(["solve", cnf, "--var-order", order, "--report", str(rep)])
        assert (run.returncode, run.stdout) == (1, ""), run.stderr
        assert run.stderr.startswith("error: MemoryError") and run.stderr.count("\n") == 1
        (line,) = rep.read_text().splitlines()
        row = json.loads(line)
        assert (row["status"], row["stop_reason"]) == ("ERROR", "MemoryError")

    def test_check_reports_memory_error(self, tmp_path):
        # one add step with 2,000,000 two-digit hints: splitting the line
        # alone needs more than the headroom (one-byte tokens would all be
        # one cached object)
        cnf = write(tmp_path / "huge.cnf", HUGE_CNF)
        proof = write(tmp_path / "p.lrat", "2 1 0 " + "10 " * 2_000_000 + "0\n")
        run = self.run_capped(["check", cnf, proof])
        assert (run.returncode, run.stdout) == (1, ""), run.stderr
        assert run.stderr.startswith("error: MemoryError") and run.stderr.count("\n") == 1


# Modules a command must leave unloaded: `check` runs the DIMACS reader and
# the checker alone, neither a clausal solve nor an xor-mode solve that
# justifies no parity reason builds a BDD, and a solve that does justify one
# still loads no `dataclasses` (nor the `inspect`, `ast` and `dis` it pulls in).
UNLOADED = {
    "check": ["xorcert.solver", "xorcert.gauss", "xorcert.tbdd", "xorcert.bdd",
              "xorcert.benchgen", "dataclasses", "json"],
    "solve": ["xorcert.gauss", "xorcert.tbdd", "xorcert.bdd", "dataclasses"],
    "solve-xor": ["xorcert.tbdd", "xorcert.bdd", "dataclasses"],
    "solve-urq": ["dataclasses", "inspect", "ast", "dis", "xorcert.benchgen"],
}

# runs `xorcert` on its arguments, then prints every loaded module's name
PRINT_MODULES = (
    "import sys\n"
    "from xorcert import cli\n"
    "rc = cli.main(sys.argv[1:])\n"
    "print(' '.join(sorted(sys.modules)))\n"
    "sys.exit(rc)\n"
)


class TestImportSets:
    @pytest.mark.parametrize("command", sorted(UNLOADED))
    def test_command_loads_only_what_it_runs(self, tmp_path, command):
        # PAIRS_CNF holds two recoverable XORs, which --no-xor must ignore
        cnf = write(tmp_path / "p.cnf", PAIRS_CNF)
        proof = str(tmp_path / "out.lrat")
        if command == "check":
            argv = ["check", cnf, write(tmp_path / "p.lrat", "5 1 0 1 2 0\n6 0 5 3 4 0\n")]
        elif command == "solve":
            argv = ["solve", cnf, "--no-xor", "--proof", proof]
        elif command == "solve-urq":
            # refuted by one greedy parity sum, which justifies its reason
            cnf = str(tmp_path / "u3.cnf")
            cli.main(["gen", "urquhart", "-m", "3", "--seed", "3", "-o", cnf])
            argv = ["solve", cnf, "--proof", proof, "--report", str(tmp_path / "report.jsonl")]
        else:
            # an lpn-xor workload instance: clauses set every literal first,
            # so the parity engine hands over only the two unit rows of the
            # scan before search, whose literals are input unit clauses, and
            # nothing is justified
            cnf, order = str(tmp_path / "lpn.cnf"), str(tmp_path / "lpn.order")
            cli.main(["gen", "lpn", "-n", "12", "--unsat", "--seed", "32013",
                      "-o", cnf, "--var-order-out", order])
            argv = ["solve", cnf, "--var-order", order, "--proof", proof,
                    "--report", str(tmp_path / "report.jsonl")]
        run = subprocess.run([sys.executable, "-c", PRINT_MODULES, *argv], env=src_env(),
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == (0 if command == "check" else 20), run.stderr
        loaded = set(run.stdout.splitlines()[-1].split())
        assert "xorcert.lrat" in loaded
        assert loaded.isdisjoint(UNLOADED[command]), loaded & set(UNLOADED[command])
        if command == "solve-xor":
            rep = json.loads((tmp_path / "report.jsonl").read_text())
            assert rep["num_xors"] > 0
            assert rep["parity_propagations"] == 2 and rep["justifications"] == 0
        if command == "solve-urq":
            assert "xorcert.tbdd" in loaded
            assert json.loads((tmp_path / "report.jsonl").read_text())["justifications"] == 1

    def test_rejected_var_order_loads_no_bdd_module(self, tmp_path):
        cnf = write(tmp_path / "p.cnf", PAIRS_CNF)
        order = write(tmp_path / "bad.order", "x\n")
        argv = ["solve", cnf, "--var-order", order]
        run = subprocess.run([sys.executable, "-c", PRINT_MODULES, *argv], env=src_env(),
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 1
        assert run.stderr.startswith("error: bad variable order file: ")
        loaded = set(run.stdout.split())
        assert "xorcert.solver" in loaded
        assert loaded.isdisjoint(["xorcert.bdd", "xorcert.tbdd"]), loaded

    def test_moved_names_keep_their_import_paths(self):
        from xorcert import bdd, lrat, tbdd

        assert tbdd.DeadlineExceeded is lrat.DeadlineExceeded
        assert bdd.BddCapacityError is BddCapacityError
        assert tbdd.ProofEngineError is ProofEngineError


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


@pytest.fixture(scope="module")
def large_check(tmp_path_factory):
    """urq m=6 seed 6 and its 1.5 MB proof: above FORK_MIN_BYTES."""
    tmp = tmp_path_factory.mktemp("large")
    cnf, proof = str(tmp / "u6.cnf"), tmp / "u6.lrat"
    cli.main(["gen", "urquhart", "-m", "6", "--seed", "6", "-o", cnf])
    assert cli.main(["solve", cnf, "--proof", str(proof)]) == 20
    assert proof.stat().st_size >= cli.FORK_MIN_BYTES
    return cnf, proof


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedCheck:
    """`check` parses a proof of at least FORK_MIN_BYTES in a forked reader
    when two CPUs are usable; its output and exit code are the inline
    path's, and it leaves no process behind."""

    def run_both(self, monkeypatch, capsys, argv):
        """(exit code, stdout, stderr) of `argv` forked, then inline."""
        runs = []
        for fork in (True, False):
            monkeypatch.setattr(cli, "_forks_reader", lambda fh, fork=fork: fork)
            code = cli.main(argv)
            runs.append((code, *capsys.readouterr()))
            assert_no_child_left()
        return runs

    def test_verified_as_inline(self, large_check, monkeypatch, capsys):
        cnf, proof = large_check
        with open(proof, "rb") as fh:
            assert cli._forks_reader(fh)
        forked, inline = self.run_both(monkeypatch, capsys, ["check", cnf, str(proof)])
        assert forked == inline and forked[0] == 0 and forked[1].startswith("Verified: ")

    def test_late_bad_token_is_the_same_error(self, large_check, tmp_path, monkeypatch,
                                              capsys):
        cnf, proof = large_check
        lines = proof.read_text().splitlines(keepends=True)
        k = len(lines) - 10
        lines[k] = "zebra" + lines[k]
        bad = write(tmp_path / "bad.lrat", "".join(lines))
        forked, inline = self.run_both(monkeypatch, capsys, ["check", cnf, bad])
        assert forked == inline == (1, "", f"error: line {k + 1}: bad step id "
                                           f"{lines[k].split()[0]!r}\n")

    def test_early_rejection_and_malformed_cnf(self, large_check, tmp_path, monkeypatch,
                                               capsys):
        cnf, proof = large_check
        lines = proof.read_text().splitlines(keepends=True)
        del lines[2]
        bad = write(tmp_path / "bad.lrat", "".join(lines))
        forked, inline = self.run_both(monkeypatch, capsys, ["check", cnf, bad])
        assert forked == inline and forked[0] == 2 and forked[1].startswith("Rejected at step")
        broken = write(tmp_path / "broken.cnf", "p cnf 2 1\n1 x 0\n")
        forked, inline = self.run_both(monkeypatch, capsys, ["check", broken, str(proof)])
        assert forked == inline and forked[0] == 1 and forked[2].startswith("error: ")

    def test_dead_reader_is_an_error(self, large_check, monkeypatch, capsys):
        # the fork inherits the patched parser, which dies after 5,000 steps
        from xorcert import lrat

        cnf, proof = large_check
        parse = lrat.iter_proof

        def dying(lines):
            for n, st in enumerate(parse(lines)):
                if n == 5000:
                    os._exit(3)
                yield st

        monkeypatch.setattr(lrat, "iter_proof", dying)
        assert cli.main(["check", cnf, str(proof)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: proof reader ended before the end of the proof "
                       "(exit status 3)\n")
        assert_no_child_left()

    def test_inline_below_the_size_on_a_pipe_on_one_cpu_and_without_fork(
            self, large_check, tmp_path, monkeypatch):
        _, proof = large_check
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        small = write(tmp_path / "small.lrat", "x" * (cli.FORK_MIN_BYTES - 1))
        with open(small, "rb") as fh:
            assert not cli._forks_reader(fh)
        with open(proof, "rb") as fh:
            assert cli._forks_reader(fh)
        r, w = os.pipe()
        with os.fdopen(r, "rb") as fh, os.fdopen(w, "wb"):
            assert not cli._forks_reader(fh)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        with open(proof, "rb") as fh:
            assert not cli._forks_reader(fh)
        monkeypatch.delattr(os, "sched_getaffinity")  # then os.cpu_count decides
        for cpus, forks in ((1, False), (None, False), (2, True)):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            with open(proof, "rb") as fh:
                assert cli._forks_reader(fh) is forks
        monkeypatch.delattr(os, "fork")
        with open(proof, "rb") as fh:
            assert not cli._forks_reader(fh)

    def test_inline_path_forks_nothing(self, tmp_path, monkeypatch, capsys):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        cnf = write(tmp_path / "a.cnf", PAIRS_CNF)
        proof = write(tmp_path / "p.lrat", "5 1 0 1 2 0\n6 0 5 3 4 0\n")
        assert cli.main(["check", cnf, proof]) == 0
        assert capsys.readouterr().out.startswith("Verified: 2 steps")


class TestRunReport:
    FIELDS = {
        "instance", "mode", "status", "wall_time", "conflicts", "decisions",
        "propagations", "parity_propagations", "restarts", "learned", "num_xors",
        "proof_adds", "proof_deletes", "ext_vars", "peak_bdd_nodes",
        "gc_collections", "justifications", "stop_reason", "par2",
    }

    def test_report_keys_are_the_solve_result_fields(self, tmp_path):
        from xorcert.solver import SolveResult

        # every field but the model, `elapsed` written as `wall_time`
        want = {"wall_time" if f == "elapsed" else f
                for f in SolveResult._fields if f != "model"}
        want |= {"instance", "mode", "par2"}
        cnf = str(tmp_path / "u.cnf")
        rep = tmp_path / "rep.jsonl"
        cli.main(["gen", "urquhart", "-m", "3", "--seed", "7", "-o", cnf])
        assert cli.main(["solve", cnf, "--timeout", "60", "--report", str(rep)]) == 20
        row = json.loads(rep.read_text())
        assert set(row) == want
        assert row["learned"] == 0 and row["par2"] == row["wall_time"]

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
        # ternary parity cone: one node per variable; the lo edges of the
        # upper two are complemented
        assert sum(1 for l in out.splitlines() if 'label="x' in l) == 3
        assert out.count("arrowhead=odot") == 2
        # x1 ^ x2 == 1 is the complement of the even parity node over x1
        assert cli.main(["bdd-dump", cnf, "-i", "0"]) == 0
        out = capsys.readouterr().out
        assert sum(1 for l in out.splitlines() if 'label="x' in l) == 2
        assert "  root -> n2 [style=solid,arrowhead=odot];" in out.splitlines()

    def test_bdd_dump_bad_index(self, tmp_path, capsys):
        cnf = write(tmp_path / "x.cnf", THREE_XOR_CNF)
        assert cli.main(["bdd-dump", cnf, "-i", "9"]) == 1
        assert "out of range" in capsys.readouterr().err


class TestSeedEnv:
    @pytest.mark.parametrize("value", ["9", "abc"])
    def test_env_seed_is_ignored(self, tmp_path, monkeypatch, value):
        # --seed, default 0, is the only seed: the environment sets none
        a, b = tmp_path / "a.cnf", tmp_path / "b.cnf"
        monkeypatch.setenv("XORCERT_SEED", value)
        assert cli.main(["gen", "urquhart", "-m", "3", "-o", str(a)]) == 0
        monkeypatch.delenv("XORCERT_SEED")
        cli.main(["gen", "urquhart", "-m", "3", "--seed", "0", "-o", str(b)])
        assert a.read_text() == b.read_text()

    def test_explicit_seed_beats_env(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.cnf", tmp_path / "b.cnf"
        monkeypatch.setenv("XORCERT_SEED", "9")
        cli.main(["gen", "urquhart", "-m", "3", "--seed", "4", "-o", str(a)])
        monkeypatch.delenv("XORCERT_SEED")
        cli.main(["gen", "urquhart", "-m", "3", "--seed", "4", "-o", str(b)])
        assert a.read_text() == b.read_text()


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_commands():
    """Every `xorcert …` line of README's `sh` blocks, comments stripped."""
    out, in_sh = [], False
    with open(README) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("```"):
                in_sh = line == "```sh"
                continue
            argv = shlex.split(line, comments=True) if in_sh else []
            if argv[:1] == ["xorcert"]:
                out.append(argv[1:])
    return out


class TestReadme:
    def test_commands_parse(self, capsys):
        commands = readme_commands()
        assert len(commands) >= 6
        parser = cli.build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: xorcert {' '.join(argv)}\n"
                            f"{capsys.readouterr().err}")
