"""Command-line surface: solve, check, gen, bench, and debug dumps.

Exit codes follow SAT-competition convention for solve (10 satisfiable,
20 unsatisfiable, 30 resource limit, 1 error); check exits 0 on Verified
and 2 on Rejected.  Reports are JSON-lines so harnesses can consume them
without scraping the human-readable table.

Each command imports the engines it runs inside its own body, so a process
loads only what its command needs: `check` loads the DIMACS reader and the
checker, and neither a clausal `solve` nor an xor-mode `solve` that
justifies no parity reason loads a BDD module.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import stat
import sys
import time

from .formula import extract_xors, parse_dimacs, write_dimacs
from .lrat import DEFAULT_MAX_PROOF_CLAUSES, check, forked_steps, iter_proof

BENCH_TIMEOUT = 10.0
ERROR = "ERROR"


class _InputError(ValueError):
    """Unusable input: `main` prints `error: <message>` and exits 1, as it
    does for every ValueError (a malformed or undecodable DIMACS file or
    proof, out-of-range generator settings) and every OSError (an
    unreadable input or an unwritable output path)."""


def _check_timeout(timeout):
    if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
        raise _InputError(f"--timeout must be a positive number of seconds, not {timeout}")


def _read_cnf(path: str):
    with open(path) as fh:
        return parse_dimacs(fh.read())


def _read_xors(args):
    """The formula in args.cnf and the parity constraints recovered from it."""
    f = _read_cnf(args.cnf)
    cons = extract_xors(f)
    if not cons:
        raise _InputError("no parity constraints recovered")
    return f, cons


def _read_var_order(path: str):
    with open(path) as fh:
        return [int(tok) for tok in fh.read().split()]


def _out(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def run_report(name: str, res, timeout, mode: str) -> dict:
    """Every SolveResult field but the model, `elapsed` as `wall_time`."""
    from .solver import SAT, UNSAT

    rep = {"instance": name, "mode": mode, **res._asdict()}
    del rep["model"]
    rep["wall_time"] = round(rep.pop("elapsed"), 6)
    rep["par2"] = None
    if timeout is not None:
        rep["par2"] = round(res.elapsed if res.status in (SAT, UNSAT) else 2.0 * timeout, 6)
    return rep


# -- solve ------------------------------------------------------------------


def _engine_errors():
    """Internal failures of a solve: reported as status ERROR with the
    exception class as stop_reason, a one-line diagnostic and exit 1, never
    a traceback.  An except clause evaluates this only while an exception
    propagates, so catching the BDD engines' errors loads no BDD module."""
    from .bdd import BddCapacityError
    from .tbdd import ProofEngineError

    return (RecursionError, ProofEngineError, BddCapacityError, AssertionError, MemoryError)


def _diagnostic(e: BaseException) -> str:
    """`error: <class>: <message>`, or `error: <class>` when the message is
    empty, as a MemoryError's usually is."""
    return f"error: {type(e).__name__}" + (f": {e}" if str(e) else "")


def _error_result(e: BaseException, t0: float):
    """An ERROR result for failure `e` of a solve started at t0, after its
    one-line diagnostic on stderr."""
    from .solver import SolveResult

    print(_diagnostic(e), file=sys.stderr)
    return SolveResult(ERROR, elapsed=time.monotonic() - t0, stop_reason=type(e).__name__)


def _run_solver(formula, **kw):
    """Solver(formula, **kw).solve(), with an engine failure, running out of
    memory while building the solver included, turned into an ERROR result
    and a one-line diagnostic on stderr."""
    from .solver import Solver

    t0 = time.monotonic()
    try:
        return Solver(formula, **kw).solve()
    except _engine_errors() as e:
        return _error_result(e, t0)


def cmd_solve(args) -> int:
    import json

    from .solver import LIMIT, SAT, UNSAT, checked_order

    _check_timeout(args.timeout)
    if args.max_proof_clauses < 1:
        raise _InputError(f"--max-proof-clauses must be at least 1, not {args.max_proof_clauses}")
    # the report opens first, so running out of memory while reading the
    # inputs still writes its line; the proof opens once they are read, so a
    # rejected input leaves no proof file, and before the solve, so a bad
    # path costs no solve
    with contextlib.ExitStack() as stack:
        report = stack.enter_context(open(args.report, "a")) if args.report else None
        t0 = time.monotonic()
        try:
            f = _read_cnf(args.cnf)
            var_order = None
            if args.var_order:
                try:
                    var_order = checked_order(_read_var_order(args.var_order), f.num_vars)
                except (OSError, ValueError) as e:
                    raise _InputError(f"bad variable order file: {e}") from None
        except MemoryError as e:
            res = _error_result(e, t0)
        else:
            try:
                sink = stack.enter_context(open(args.proof, "w")) if args.proof else None
            except OSError as e:
                raise _InputError(f"cannot write proof: {e}") from None
            res = _run_solver(
                f,
                use_xor=not args.no_xor,
                proof_sink=sink,
                max_proof_clauses=args.max_proof_clauses,
                var_order=var_order,
                timeout=args.timeout,
            )
        if report is not None:
            rep = run_report(args.cnf, res, args.timeout, "no-xor" if args.no_xor else "xor")
            report.write(json.dumps(rep) + "\n")
    if res.status == ERROR:
        return 1
    line, code = {
        SAT: ("s SATISFIABLE", 10),
        UNSAT: ("s UNSATISFIABLE", 20),
        LIMIT: ("s UNKNOWN", 30),
    }[res.status]
    print(line)
    if res.status == SAT:
        print(" ".join(["v", *map(str, sorted(res.model, key=abs)), "0"]))
    return code


# -- check ------------------------------------------------------------------


# A fork costs a few milliseconds: long-hint lpn proofs of 53 and 164 KB
# checked in 14 and 38 ms inline against 18 and 42 ms forked, and urq
# proofs of 0.9 MB and up about a third faster forked.  Every lpn workload
# proof (61-213 KB) stays well below the cut.
FORK_MIN_BYTES = 1 << 20


def _forks_reader(fh) -> bool:
    """Whether `check` parses proof file `fh` in a forked reader."""
    st = os.fstat(fh.fileno())
    if not (stat.S_ISREG(st.st_mode) and st.st_size >= FORK_MIN_BYTES and hasattr(os, "fork")):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def cmd_check(args) -> int:
    # the proof streams through the checker line by line, as bytes: only a
    # line that is not all integers is decoded, so a decoding error names
    # its line.  A large proof is parsed in a forked reader while this
    # process checks; the fork comes first, so the reader's first batches
    # overlap reading the CNF.
    with open(args.proof, "rb") as fh, (
        forked_steps(fh) if _forks_reader(fh) else contextlib.nullcontext(iter_proof(fh))
    ) as steps:
        f = _read_cnf(args.cnf)
        res = check(f, steps, refutation=not args.derivation)
    if res.ok:
        print(
            f"Verified: {res.steps} steps "
            f"(adds={res.adds}, deletes={res.deletes}, "
            f"hint_literal_visits={res.hint_literal_visits})"
        )
        return 0
    print(f"Rejected at step {res.step_id}: {res.reason}")
    return 2


# -- gen --------------------------------------------------------------------


def cmd_gen(args) -> int:
    from .benchgen import LpnConfig, UrqConfig, gen_lpn, gen_urquhart

    if args.family == "urquhart":
        inst = gen_urquhart(UrqConfig(m=args.m, p=args.p, seed=args.seed, parity=args.parity))
    else:
        inst = gen_lpn(
            LpnConfig(
                n=args.n,
                m=args.m,
                corrupt_prob=args.corrupt_prob,
                bound_offset=args.unsat,
                seed=args.seed,
            )
        )
    _out(args.output, write_dimacs(inst.formula))
    if args.manifest:
        _out(args.manifest, "\n".join(inst.manifest_lines()) + "\n")
    if args.family == "lpn" and args.var_order_out:
        _out(args.var_order_out, " ".join(str(v) for v in inst.var_order) + "\n")
    return 0


# -- bench ------------------------------------------------------------------


def _bench_task(task):
    """Generate, solve, and (for refutations) check one instance in one
    mode.  Shaped for a worker pool: a frozen config and plain values."""
    import tempfile

    from .benchgen import UrqConfig, gen_lpn, gen_urquhart
    from .solver import UNSAT

    cfg, use_xor, timeout, check_proofs = task
    if isinstance(cfg, UrqConfig):
        inst = gen_urquhart(cfg)
        name = f"urq-m{cfg.m}-s{cfg.seed}"
        var_order = None
    else:
        inst = gen_lpn(cfg)
        kind = "unsat" if cfg.bound_offset else "sat"
        name = f"lpn-n{cfg.n}-{kind}-s{cfg.seed}"
        var_order = inst.var_order
    # the proof goes to a file and is checked from it as bytes, as `check`
    # reads it, so no whole proof is held in memory
    with tempfile.TemporaryDirectory(prefix="xorcert-bench-") as tmp:
        path = os.path.join(tmp, "proof.lrat")
        with open(path, "w") as sink:
            res = _run_solver(
                inst.formula,
                use_xor=use_xor,
                proof_sink=sink,
                var_order=var_order,
                timeout=timeout,
            )
        rep = run_report(name, res, timeout, "xor" if use_xor else "no-xor")
        rep["verified"] = None
        if check_proofs and res.status == UNSAT:
            t0 = time.monotonic()
            with open(path, "rb") as fh:
                v = check(inst.formula, iter_proof(fh))
            rep["verified"] = bool(v.ok)
            rep["check_time"] = round(time.monotonic() - t0, 6)
    return rep


def _parse_range(text):
    lo, _, hi = text.partition(":")
    try:
        return range(int(lo), int(hi) + 1)
    except ValueError:
        raise _InputError(f"range must be LO:HI with integer ends, not {text!r}") from None


def cmd_bench(args) -> int:
    import json

    from .benchgen import LpnConfig, UrqConfig

    _check_timeout(args.timeout)
    if args.jobs < 1:
        raise _InputError(f"--jobs must be at least 1, not {args.jobs}")
    if args.both_modes and args.no_xor:
        raise _InputError("--both-modes runs each instance in both modes; drop --no-xor")
    # every config is built, and so checked, before any task runs
    if args.family == "urq":
        cfgs = [UrqConfig(m=m, p=args.p, seed=args.seed + m) for m in _parse_range(args.m_range)]
    else:
        cfgs = [
            LpnConfig(n=n, bound_offset=unsat, seed=args.seed + n)
            for n in _parse_range(args.n_range)
            for unsat in (False, True)
        ]
    modes = (True, False) if args.both_modes else (not args.no_xor,)
    tasks = [(cfg, mode, args.timeout, args.check) for cfg in cfgs for mode in modes]
    if not tasks:
        print("no instances")
        return 0
    # opened before any work, so a bad path costs no run
    with (open(args.report, "a") if args.report else contextlib.nullcontext()) as report:
        jobs = min(args.jobs, len(tasks))
        if jobs > 1:
            from multiprocessing import Pool

            with Pool(jobs) as pool:
                reports = pool.map(_bench_task, tasks)
        else:
            reports = [_bench_task(t) for t in tasks]
        if report is not None:
            for rep in reports:
                report.write(json.dumps(rep) + "\n")
    widths = (26, 7, 6)
    print(f"{'instance':<{widths[0]}} {'mode':<{widths[1]}} {'status':<{widths[2]}} "
          f"{'time':>8} {'steps':>9} {'verified':>8}")
    for rep in reports:
        ver = {None: "-", True: "yes", False: "NO"}[rep["verified"]]
        print(
            f"{rep['instance']:<{widths[0]}} {rep['mode']:<{widths[1]}} "
            f"{rep['status']:<{widths[2]}} {rep['wall_time']:>8.3f} "
            f"{rep['proof_adds']:>9} {ver:>8}"
        )
    for mode in sorted({r["mode"] for r in reports}):
        vals = [r["par2"] for r in reports if r["mode"] == mode and r["par2"] is not None]
        if vals:
            print(f"PAR-2[{mode}] = {sum(vals) / len(vals):.3f} over {len(vals)} runs")
    if any(r["verified"] is False for r in reports):
        return 2
    return 1 if any(r["status"] == ERROR for r in reports) else 0


# -- debug dumps ------------------------------------------------------------


def cmd_bdd_dump(args) -> int:
    from .bdd import Bdd

    f, cons = _read_xors(args)
    if not 0 <= args.index < len(cons):
        raise _InputError(f"constraint index out of range (0..{len(cons) - 1})")
    con = cons[args.index]
    b = Bdd(list(range(1, f.num_vars + 1)))
    root = b.parity_bdd(con.vars, con.phase)
    _out(args.output, b.to_dot(root, name=f"xor{args.index}"))
    return 0


def cmd_gj_trace(args) -> int:
    from .gauss import ParityEngine

    _, cons = _read_xors(args)
    eng = ParityEngine(cons)
    if args.reduce:
        eng.full_reduce()
    _out(args.output, eng.dump())
    return 0


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="xorcert")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve a DIMACS CNF file")
    sp.add_argument("cnf")
    sp.add_argument("--proof", help="write an LRAT proof here")
    sp.add_argument("--no-xor", action="store_true", help="disable parity reasoning")
    sp.add_argument("--max-proof-clauses", type=int, default=DEFAULT_MAX_PROOF_CLAUSES)
    sp.add_argument("--timeout", type=float, default=None)
    sp.add_argument(
        "--var-order",
        help="file with a variable permutation: the BDD variable order and the "
        "Gauss-Jordan column order (decisions still go by activity)",
    )
    sp.add_argument("--report", help="append a JSON-lines run report here")
    sp.set_defaults(fn=cmd_solve)

    cp = sub.add_parser("check", help="check an LRAT proof against a CNF")
    cp.add_argument("cnf")
    cp.add_argument("proof")
    cp.add_argument(
        "--derivation",
        action="store_true",
        help="accept proofs that do not end in the empty clause",
    )
    cp.set_defaults(fn=cmd_check)

    gp = sub.add_parser("gen", help="generate benchmark instances")
    gsub = gp.add_subparsers(dest="family", required=True)
    gu = gsub.add_parser("urquhart")
    gu.add_argument("-m", type=int, required=True)
    gu.add_argument("-p", type=int, default=50)
    gu.add_argument("--seed", type=int, default=0)
    gu.add_argument("--parity", choices=["odd", "even"], default="odd")
    gu.add_argument("-o", "--output", default=None)
    gu.add_argument("--manifest", default=None)
    gu.set_defaults(fn=cmd_gen)
    gl = gsub.add_parser("lpn")
    gl.add_argument("-n", type=int, required=True)
    gl.add_argument("--m", type=int, default=None)
    gl.add_argument("--corrupt-prob", type=float, default=0.125)
    gl.add_argument("--unsat", action="store_true", help="use the at-most-(k-1) bound")
    gl.add_argument("--seed", type=int, default=0)
    gl.add_argument("-o", "--output", default=None)
    gl.add_argument("--manifest", default=None)
    gl.add_argument("--var-order-out", default=None)
    gl.set_defaults(fn=cmd_gen)

    bp = sub.add_parser("bench", help="generate, solve, and check a suite")
    bsub = bp.add_subparsers(dest="family", required=True)
    bu = bsub.add_parser("urq")
    bu.add_argument("--m-range", default="3:6")
    bu.add_argument("-p", type=int, default=50)
    bl = bsub.add_parser("lpn")
    bl.add_argument("--n-range", default="8:12")
    for b in (bu, bl):
        b.add_argument("--seed", type=int, default=0)
        b.add_argument("--timeout", type=float, default=BENCH_TIMEOUT)
        b.add_argument("--no-xor", action="store_true")
        b.add_argument(
            "--both-modes",
            action="store_true",
            help="run each instance with and without parity reasoning",
        )
        b.add_argument("--no-check", dest="check", action="store_false")
        b.add_argument("--jobs", type=int, default=1)
        b.add_argument("--report")
        b.set_defaults(fn=cmd_bench)

    dp = sub.add_parser("bdd-dump", help="DOT dump of a recovered constraint's BDD")
    dp.add_argument("cnf")
    dp.add_argument("-i", "--index", type=int, default=0)
    dp.add_argument("-o", "--output", default=None)
    dp.set_defaults(fn=cmd_bdd_dump)

    tp = sub.add_parser("gj-trace", help="dump the parity matrix and its shadow")
    tp.add_argument("cnf")
    tp.add_argument("--reduce", action="store_true", help="dump after full reduction")
    tp.add_argument("-o", "--output", default=None)
    tp.set_defaults(fn=cmd_gj_trace)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # outside a solve, e.g. in `check`
        print(_diagnostic(e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
