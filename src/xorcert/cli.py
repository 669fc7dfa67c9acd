"""Command-line surface: solve, check, gen, bench, and debug dumps.

Exit codes follow SAT-competition convention for solve (10 satisfiable,
20 unsatisfiable, 30 resource limit, 1 error); check exits 0 on Verified
and 2 on Rejected.  Reports are JSON-lines so harnesses can consume them
without scraping the human-readable table.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from .bdd import Bdd, BddCapacityError
from .formula import DimacsError, extract_xors, parse_dimacs, write_dimacs
from .gauss import ParityEngine
from .lrat import DEFAULT_MAX_PROOF_CLAUSES, check, iter_proof
from .solver import LIMIT, SAT, UNSAT, SolveResult, Solver, checked_order
from .tbdd import ProofEngineError

EXIT_CODES = {SAT: 10, UNSAT: 20, LIMIT: 30}
BENCH_TIMEOUT = 10.0
# Internal failures of a solve: reported as status ERROR with the exception
# class as stop_reason, a one-line diagnostic and exit 1, never a traceback.
ERROR = "ERROR"
ENGINE_ERRORS = (RecursionError, ProofEngineError, BddCapacityError)


class _InputError(Exception):
    """Unusable input: `main` prints `error: <message>` and exits 1."""


def _env_seed() -> int:
    text = os.environ.get("XORCERT_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise _InputError(f"XORCERT_SEED must be an integer, not {text!r}") from None


def _read_cnf(path: str):
    try:
        with open(path) as fh:
            return parse_dimacs(fh.read())
    except (OSError, DimacsError) as e:
        raise _InputError(e) from None


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
    par2 = None
    if timeout is not None:
        par2 = round(res.elapsed if res.status in (SAT, UNSAT) else 2.0 * timeout, 6)
    return {
        "instance": name,
        "mode": mode,
        "status": res.status,
        "wall_time": round(res.elapsed, 6),
        "conflicts": res.conflicts,
        "decisions": res.decisions,
        "propagations": res.propagations,
        "parity_propagations": res.parity_propagations,
        "restarts": res.restarts,
        "num_xors": res.num_xors,
        "proof_adds": res.proof_adds,
        "proof_deletes": res.proof_deletes,
        "ext_vars": res.ext_vars,
        "peak_bdd_nodes": res.peak_bdd_nodes,
        "gc_collections": res.gc_collections,
        "stop_reason": res.stop_reason,
        "par2": par2,
    }


# -- solve ------------------------------------------------------------------


def _run_solver(solver) -> SolveResult:
    """solver.solve(), with an engine failure turned into an ERROR result
    and a one-line diagnostic on stderr."""
    t0 = time.monotonic()
    try:
        return solver.solve()
    except ENGINE_ERRORS as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return SolveResult(ERROR, elapsed=time.monotonic() - t0, stop_reason=type(e).__name__)


def cmd_solve(args) -> int:
    f = _read_cnf(args.cnf)
    var_order = None
    if args.var_order:
        try:
            var_order = checked_order(_read_var_order(args.var_order), f.num_vars)
        except (OSError, ValueError) as e:
            print(f"error: bad variable order file: {e}", file=sys.stderr)
            return 1
    try:
        proof = open(args.proof, "w") if args.proof else contextlib.nullcontext()
    except OSError as e:
        print(f"error: cannot write proof: {e}", file=sys.stderr)
        return 1
    with proof as sink:
        s = Solver(
            f,
            use_xor=not args.no_xor,
            proof_sink=sink,
            max_proof_clauses=args.max_proof_clauses,
            var_order=var_order,
            timeout=args.timeout,
        )
        try:
            res = _run_solver(s)
        except AssertionError as e:
            print(f"error: internal invariant violated: {e}", file=sys.stderr)
            return 1
    if args.report:
        rep = run_report(args.cnf, res, args.timeout, "no-xor" if args.no_xor else "xor")
        with open(args.report, "a") as fh:
            fh.write(json.dumps(rep) + "\n")
    if res.status == ERROR:
        return 1
    print(
        {
            SAT: "s SATISFIABLE",
            UNSAT: "s UNSATISFIABLE",
            LIMIT: "s UNKNOWN",
        }[res.status]
    )
    if res.status == SAT:
        lits = sorted(res.model, key=abs)
        print("v " + " ".join(str(l) for l in lits) + " 0")
    return EXIT_CODES[res.status]


# -- check ------------------------------------------------------------------


def cmd_check(args) -> int:
    # the proof streams through the checker line by line; lines are decoded
    # one at a time so a decoding error names its line
    f = _read_cnf(args.cnf)
    try:
        with open(args.proof, "rb") as fh:
            res = check(f, iter_proof(map(bytes.decode, fh)), refutation=not args.derivation)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
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

    seed = args.seed if args.seed is not None else _env_seed()
    try:
        if args.family == "urquhart":
            inst = gen_urquhart(UrqConfig(m=args.m, p=args.p, seed=seed, parity=args.parity))
        else:
            inst = gen_lpn(
                LpnConfig(
                    n=args.n,
                    m=args.m,
                    corrupt_prob=args.corrupt_prob,
                    bound_offset=args.unsat,
                    seed=seed,
                )
            )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    _out(args.output, write_dimacs(inst.formula))
    if args.manifest:
        _out(args.manifest, "\n".join(inst.manifest_lines()) + "\n")
    if args.family == "lpn" and args.var_order_out:
        _out(args.var_order_out, " ".join(str(v) for v in inst.var_order) + "\n")
    return 0


# -- bench ------------------------------------------------------------------


def _bench_task(task):
    """Generate, solve, and (for refutations) check one instance in one
    mode.  Shaped for a worker pool, so everything crosses as plain data."""
    from .benchgen import LpnConfig, UrqConfig, gen_lpn, gen_urquhart

    family, params, seed, use_xor, timeout, check_proofs = task
    if family == "urq":
        inst = gen_urquhart(UrqConfig(m=params["m"], p=params["p"], seed=seed))
        name = f"urq-m{params['m']}-s{seed}"
        var_order = None
    else:
        inst = gen_lpn(
            LpnConfig(
                n=params["n"],
                bound_offset=params["unsat"],
                seed=seed,
            )
        )
        kind = "unsat" if params["unsat"] else "sat"
        name = f"lpn-n{params['n']}-{kind}-s{seed}"
        var_order = inst.var_order
    from io import StringIO

    sink = StringIO()
    res = _run_solver(
        Solver(
            inst.formula,
            use_xor=use_xor,
            proof_sink=sink,
            var_order=var_order,
            timeout=timeout,
        )
    )
    rep = run_report(name, res, timeout, "xor" if use_xor else "no-xor")
    rep["verified"] = None
    if check_proofs and res.status == UNSAT:
        t0 = time.monotonic()
        sink.seek(0)
        v = check(inst.formula, iter_proof(sink))
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
    tasks = []
    seed = args.seed if args.seed is not None else _env_seed()
    if args.family == "urq":
        for m in _parse_range(args.m_range):
            for mode in (True, False) if args.both_modes else (not args.no_xor,):
                tasks.append(
                    ("urq", {"m": m, "p": args.p}, seed + m, mode, args.timeout, args.check)
                )
    else:
        for n in _parse_range(args.n_range):
            for unsat in (False, True):
                for mode in (True, False) if args.both_modes else (not args.no_xor,):
                    tasks.append(
                        (
                            "lpn",
                            {"n": n, "unsat": unsat},
                            seed + n,
                            mode,
                            args.timeout,
                            args.check,
                        )
                    )
    if not tasks:
        print("no instances")
        return 0
    if args.jobs > 1:
        from multiprocessing import Pool

        with Pool(args.jobs) as pool:
            reports = pool.map(_bench_task, tasks)
    else:
        reports = [_bench_task(t) for t in tasks]
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
    if args.report:
        with open(args.report, "a") as fh:
            for rep in reports:
                fh.write(json.dumps(rep) + "\n")
    if any(r["verified"] is False for r in reports):
        return 2
    return 1 if any(r["status"] == ERROR for r in reports) else 0


# -- debug dumps ------------------------------------------------------------


def cmd_bdd_dump(args) -> int:
    f, cons = _read_xors(args)
    if not 0 <= args.index < len(cons):
        print(f"error: constraint index out of range (0..{len(cons) - 1})", file=sys.stderr)
        return 1
    con = cons[args.index]
    b = Bdd(list(range(1, f.num_vars + 1)))
    root = b.parity_bdd(con.vars, con.phase)
    _out(args.output, b.to_dot(root, name=f"xor{args.index}"))
    return 0


def cmd_gj_trace(args) -> int:
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
    sp.add_argument("--var-order", help="file with a variable permutation")
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
    gu.add_argument("--seed", type=int, default=None)
    gu.add_argument("--parity", choices=["odd", "even"], default="odd")
    gu.add_argument("-o", "--output", default=None)
    gu.add_argument("--manifest", default=None)
    gu.set_defaults(fn=cmd_gen)
    gl = gsub.add_parser("lpn")
    gl.add_argument("-n", type=int, required=True)
    gl.add_argument("--m", type=int, default=None)
    gl.add_argument("--corrupt-prob", type=float, default=0.125)
    gl.add_argument("--unsat", action="store_true", help="use the at-most-(k-1) bound")
    gl.add_argument("--seed", type=int, default=None)
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
        b.add_argument("--seed", type=int, default=None)
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
    except _InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
