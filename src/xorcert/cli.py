"""Command-line surface: solve, check, gen, and debug dumps.

Exit codes follow SAT-competition convention for solve (10 satisfiable,
20 unsatisfiable, 30 resource limit, 1 error); check exits 0 on Verified
and 2 on Rejected.  Reports are JSON-lines so harnesses can consume them
without scraping the human-readable table.

An unusable input (a ValueError or OSError) and an internal failure (any
other Exception) both exit 1 with one `error:` line; see `main`.

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

ERROR = "ERROR"


def _diagnostic(e: BaseException) -> str:
    """`error: <class>: <message> (at <file>:<line>)`, without the `: <message>`
    when it is empty, as a MemoryError's usually is; the place is the
    innermost frame of the traceback."""
    tb = e.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    where = f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}"
    return f"error: {type(e).__name__}" + (f": {e}" if str(e) else "") + f" (at {where})"


def _check_timeout(timeout):
    if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
        raise ValueError(f"--timeout must be a positive number of seconds, not {timeout}")


def _read_cnf(path: str):
    with open(path) as fh:
        return parse_dimacs(fh.read())


def _read_xors(args):
    """The formula in args.cnf and the parity constraints recovered from it."""
    f = _read_cnf(args.cnf)
    cons = extract_xors(f)
    if not cons:
        raise ValueError("no parity constraints recovered")
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


def cmd_solve(args) -> int:
    import json

    from .solver import LIMIT, SAT, UNSAT, Solver, SolveResult, checked_order

    _check_timeout(args.timeout)
    if args.max_proof_clauses < 1:
        raise ValueError(f"--max-proof-clauses must be at least 1, not {args.max_proof_clauses}")
    # the report opens first, so a failure while reading the inputs still
    # writes its line; the proof opens once they are read, so a rejected
    # input leaves no proof file, and before the solve, so a bad path costs
    # no solve.  An input error goes on to `main`; any other failure from
    # the read to the end of the solve becomes an ERROR result timed from
    # the start of the read, after its one-line diagnostic on stderr.
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
                    raise ValueError(f"bad variable order file: {e}") from None
            try:
                sink = stack.enter_context(open(args.proof, "w")) if args.proof else None
            except OSError as e:
                raise ValueError(f"cannot write proof: {e}") from None
            res = Solver(
                f,
                use_xor=not args.no_xor,
                proof_sink=sink,
                max_proof_clauses=args.max_proof_clauses,
                var_order=var_order,
                timeout=args.timeout,
            ).solve()
        except (ValueError, OSError):
            raise
        except Exception as e:
            print(_diagnostic(e), file=sys.stderr)
            res = SolveResult(ERROR, elapsed=time.monotonic() - t0, stop_reason=type(e).__name__)
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


# -- debug dumps ------------------------------------------------------------


def cmd_bdd_dump(args) -> int:
    from .bdd import Bdd

    f, cons = _read_xors(args)
    if not 0 <= args.index < len(cons):
        raise ValueError(f"constraint index out of range (0..{len(cons) - 1})")
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
    """One failure rule for every command: a ValueError or OSError is an
    input error, `error: <message>`; any other Exception is an internal
    failure, `error: <class>: <message> (at <file>:<line>)`.  Both exit 1
    without a traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(_diagnostic(e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
