"""Child processes, failure classification and the failure penalty.

Each instance is solved by `xorcert solve` in a child process that writes
its proof to a file, and each UNSAT verdict is checked by `xorcert check`
in a second child.  Children run one at a time, under a wall-clock limit,
a proof-clause budget and an address-space cap set on the child only.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import threading
import time
from dataclasses import dataclass, field

EXPECTED_EXIT = {"SAT": 10, "UNSAT": 20}
KILL_GRACE_S = 5.0


@dataclass(frozen=True)
class Limits:
    timeout_s: float = 30.0  # T, per child
    max_proof_clauses: int = 2_000_000  # B
    mem_mb: int = 1024  # M, address-space cap of each child


@dataclass
class ChildExit:
    code: int  # exit code, or minus the signal number
    wall_s: float
    rss_mb: float
    stdout: str = ""
    stderr: str = ""
    killed: bool = False


@dataclass
class Outcome:
    """One instance in one round."""

    name: str
    expected: str
    solve: ChildExit | None = None
    check: ChildExit | None = None
    report: dict = field(default_factory=dict)
    failure: tuple[str, str] | None = None  # (kind, detail)
    proof_sha: str | None = None


def run_child(argv, limits: Limits, env, out_path, err_path) -> ChildExit:
    """Run argv to completion; wall time spans spawn to reap, peak RSS comes
    from the child's own rusage."""
    cap = limits.mem_mb * 2**20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env,
            preexec_fn=cap_memory,
        )
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(limits.timeout_s + KILL_GRACE_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    return ChildExit(
        proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr, killed.is_set()
    )


def last_line(text: str) -> str:
    lines = [l for l in text.strip().splitlines() if l.strip()]
    return lines[-1].strip() if lines else ""


def model_satisfies(stdout: str, clauses) -> bool:
    """Re-check the printed `v` lines against every clause."""
    true_lits = set()
    for line in stdout.splitlines():
        if line.startswith("v "):
            true_lits.update(int(t) for t in line.split()[1:] if t != "0")
    if any(-l in true_lits for l in true_lits):
        return False
    return all(any(l in true_lits for l in cl) for cl in clauses)


def classify(expected: str, solve: ChildExit, check: ChildExit | None, model_ok: bool | None):
    """(kind, detail) of a failed instance, or None when it succeeded."""
    if solve.killed:
        return "limit", f"solve killed after {solve.wall_s:.1f} s"
    if solve.code == 30:
        return "limit", last_line(solve.stdout) or "exit 30"
    if solve.code not in (10, 20) or "Traceback" in solve.stderr:
        return "crash", last_line(solve.stderr) or f"solve exit {solve.code}"
    if solve.code != EXPECTED_EXIT[expected]:
        return "wrong", f"solve exit {solve.code}, oracle says {expected}"
    if solve.code == 20:
        if check is None:
            return "rejected", "proof not checked"
        if check.killed:
            return "limit", f"check killed after {check.wall_s:.1f} s"
        if check.code < 0 or "Traceback" in check.stderr:
            return "crash", last_line(check.stderr) or f"check exit {check.code}"
        if check.code != 0:
            detail = last_line(check.stdout) or last_line(check.stderr)
            return "rejected", f"check exit {check.code}: {detail}"
        return None
    if not model_ok:
        return "bad-model", "printed model falsifies a clause"
    return None


# -- cost of one instance, with the failure penalty ---------------------------

COST_METRICS = ("par2_s", "solve_s", "check_s", "proof_adds", "peak_rss_mb")


def cost(o: Outcome, limits: Limits) -> dict:
    """A failed instance is charged twice its limit on every cost metric."""
    if o.failure is not None:
        t2 = 2.0 * limits.timeout_s
        return {
            "par2_s": t2,
            "solve_s": t2,
            "check_s": t2,
            "proof_adds": 2 * limits.max_proof_clauses,
            "peak_rss_mb": 2.0 * limits.mem_mb,
        }
    check = o.check.wall_s if o.check is not None else 0.0
    rss = max(o.solve.rss_mb, o.check.rss_mb if o.check is not None else 0.0)
    return {
        "par2_s": o.solve.wall_s + check,
        "solve_s": o.solve.wall_s,
        "check_s": check,
        "proof_adds": o.report.get("proof_adds", 0),
        "peak_rss_mb": rss,
    }


def round_cost(outcomes, limits: Limits) -> dict:
    """Sums over the round's instances, except peak RSS, which is the mean of
    the instances' peaks: the maximum over instances is set by the single
    hardest instance and spreads too far from seed to seed."""
    costs = [cost(o, limits) for o in outcomes]
    out = {k: sum(c[k] for c in costs) for k in COST_METRICS}
    out["peak_rss_mb"] /= len(costs)
    return out


# -- running instances ---------------------------------------------------------


class Runner:
    """Runs instances through the xorcert command line, one child at a time."""

    def __init__(self, python, src_dir, workdir, limits: Limits, use_xor: bool,
                 after_child=lambda: None):
        self.workdir = workdir
        self.limits = limits
        self.use_xor = use_xor
        self.after_child = after_child  # called once each child has ended
        self.cli = [python, "-m", "xorcert.cli"]
        self.env = {k: v for k, v in os.environ.items() if k != "XORCERT_SEED"}
        self.env["PYTHONPATH"] = src_dir

    def _path(self, inst, ext):
        return os.path.join(self.workdir, f"{inst.name}.{ext}")

    def proof_path(self, inst):
        return self._path(inst, "lrat")

    def run(self, inst, hash_proof=False) -> Outcome:
        o = Outcome(inst.name, inst.expected)
        proof, report = self.proof_path(inst), self._path(inst, "report")
        if os.path.exists(report):
            os.remove(report)
        argv = self.cli + [
            "solve", inst.cnf_path, "--proof", proof, "--report", report,
            "--timeout", str(self.limits.timeout_s),
            "--max-proof-clauses", str(self.limits.max_proof_clauses),
        ]
        if inst.order_path:
            argv += ["--var-order", inst.order_path]
        if not self.use_xor:
            argv.append("--no-xor")
        o.solve = run_child(argv, self.limits, self.env, self._path(inst, "out"),
                            self._path(inst, "err"))
        self.after_child()
        if os.path.exists(report):
            with open(report) as fh:
                o.report = json.loads(fh.readline())
        model_ok = None
        if o.solve.code == 20 and not o.solve.killed:
            o.check = run_child(
                self.cli + ["check", inst.cnf_path, proof], self.limits, self.env,
                self._path(inst, "check.out"), self._path(inst, "check.err"),
            )
            self.after_child()
        elif o.solve.code == 10:
            model_ok = model_satisfies(o.solve.stdout, inst.formula.clauses)
        o.failure = classify(inst.expected, o.solve, o.check, model_ok)
        if o.failure and o.solve.code == 30 and o.report.get("stop_reason"):
            o.failure = ("limit", o.report["stop_reason"])
        if hash_proof and os.path.exists(proof):
            o.proof_sha = file_sha256(proof)
        return o

    def skipped(self, inst, why) -> Outcome:
        return Outcome(inst.name, inst.expected, failure=("limit", why))


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
