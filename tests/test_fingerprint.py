"""Smoke test of tools/fingerprint.py on three tiny instances and on one
workload's lines.  It pins no hash or count: the full set is for diffing
two versions of the solver, and stays out of the test suite."""

import importlib.util
import os
import re
from io import StringIO

import pytest

from xorcert import lrat
from xorcert.benchgen import UrqConfig, gen_urquhart
from xorcert.solver import UNSAT, Solver

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "fingerprint.py")
_spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)
workloads = fingerprint.workloads

LINE = re.compile(
    r"(?P<label>[a-z-]+)/(?P<name>\S+) status=(?P<status>SAT|UNSAT) conflicts=\d+ decisions=\d+ "
    r"propagations=\d+ parity_propagations=\d+ proof_adds=(?P<adds>\d+) proof_deletes=\d+ "
    r"justifications=\d+ ext_vars=\d+ peak_bdd_nodes=\d+ gc_collections=\d+ "
    r"check=(?P<check>verified|-) proof_bytes=(?P<bytes>\d+) proof_sha256=[0-9a-f]{64} "
    r"add_digest=[0-9a-f]{64}(?P<model> model_sha256=[0-9a-f]{64})?"
)


def test_one_line_per_instance(capsys):
    argv = ["--instance", "urq:3:1", "--instance", "lpn:6:8:unsat", "--instance", "lpn:6:8"]
    assert fingerprint.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    matches = [LINE.fullmatch(line) for line in lines]
    assert all(matches), lines
    assert [m["name"] for m in matches] == ["urq-m3-s1", "lpn-n6-unsat-s8", "lpn-n6-sat-s8"]
    assert {m["label"] for m in matches} == {"default-order"}
    # a refutation is checked and has steps, and a SAT answer carries its
    # model's digest
    assert [(m["status"], m["check"], bool(m["model"])) for m in matches] == [
        ("UNSAT", "verified", False), ("UNSAT", "verified", False), ("SAT", "-", True)]
    assert all(int(m["adds"]) > 0 and int(m["bytes"]) > 0
               for m in matches if m["status"] == "UNSAT")


def test_workload_keeps_only_its_lines(capsys):
    assert fingerprint.main(["--workload", "urq-refute"]) == 0
    matches = [LINE.fullmatch(line) for line in capsys.readouterr().out.splitlines()]
    assert all(matches)
    assert [(m["label"], m["name"]) for m in matches] == [
        ("urq-refute", f"urq-m{m}-s{workloads.instance_seed(fingerprint.SEED, m, 0)}")
        for m in workloads.URQ_SIZES]
    assert {(m["status"], m["check"]) for m in matches} == {("UNSAT", "verified")}


def test_unknown_workload_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        fingerprint.main(["--workload", "no-such-workload"])
    assert exc.value.code == 2
    assert "no-such-workload" in capsys.readouterr().err


def test_add_digest_ignores_deletions(monkeypatch):
    f = gen_urquhart(UrqConfig(m=3, seed=1)).formula
    proofs = []
    for keep_deletes in (True, False):
        with monkeypatch.context() as m:
            if not keep_deletes:
                m.setattr(lrat.ProofWriter, "delete", lambda self, ids: None)
            sink = StringIO()
            assert Solver(f, proof_sink=sink).solve().status == UNSAT
        proofs.append(sink.getvalue().encode())
    full, bare = proofs
    assert b" d " in full and b" d " not in bare and full != bare
    digest = fingerprint.add_digest(full, f.num_clauses)
    # delete lines take ids, so the adds of `bare` are numbered differently
    assert fingerprint.add_digest(bare, f.num_clauses) == digest
    stripped = b"".join(l for l in full.splitlines(True) if l.split()[1] != b"d")
    assert fingerprint.add_digest(stripped, f.num_clauses) == digest
    # but an add step that changes changes the digest
    first = bare.index(b"\n") + 1
    flipped = bare[:first] + bare[first:].replace(b" ", b" -", 1)
    assert fingerprint.add_digest(flipped, f.num_clauses) != digest


def test_add_digest_skips_comment_lines():
    f = gen_urquhart(UrqConfig(m=3, seed=1)).formula
    sink = StringIO()
    assert Solver(f, proof_sink=sink).solve().status == UNSAT
    proof = sink.getvalue().encode()
    first = proof.index(b"\n") + 1
    commented = proof[:first] + b"c a comment between two steps\n" + proof[first:]
    assert (fingerprint.add_digest(commented, f.num_clauses)
            == fingerprint.add_digest(proof, f.num_clauses))


def test_instances_run_through_the_harness_runner(monkeypatch, capsys):
    # the line comes from the benchmark's own child runner, under LIMITS
    calls = []
    run = fingerprint.harness.Runner.run

    def counting_run(self, inst, *args, **kwargs):
        calls.append((inst.name, self.limits))
        return run(self, inst, *args, **kwargs)

    monkeypatch.setattr(fingerprint.harness.Runner, "run", counting_run)
    assert fingerprint.main(["--instance", "urq:3:1"]) == 0
    assert calls == [("urq-m3-s1", fingerprint.LIMITS)]
    assert LINE.fullmatch(capsys.readouterr().out.strip())["check"] == "verified"
