"""Command-line surface: enumeration, polynomials, ideals, lattice queries,
and the verification harness, with text or JSON output.

Exit codes: 0 success, 1 at least one verification case failed, 2 bad input
or out of memory.

``main`` builds the argument parser once per process and reuses it on
every call; a call changes neither the parser nor the environment.  The
basis cache directory is read from ``BUMPLESS_CACHE_DIR`` by the library.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor

from . import asm as asm_mod
from . import bpd as bpd_mod
from . import perms
from . import transition as tr
from .groebner import asm_generators, buchberger, initial_ideal
from .monomial import MonomialIdeal, grading_images, prime_names
from .rings import _READING_KEYS, _cell_ring, matrix_ring, parse_cell, parse_poly
from .schubert import (
    double_ring,
    grothendieck_poly,
    grothendieck_ring,
    schubert_poly,
    set_beta,
    single_schubert_poly,
    x_ring,
)

SCHEMA = "bumpless-report/1"


def _perm_or_asm(text: str):
    """Permutations are digit words; ASM rows carry separators or signs."""
    try:
        return asm_mod.from_permutation(perms.perm_from_text(text))
    except ValueError:
        return asm_mod.asm_from_text(text.replace(";", "\n"))


def _monomial_ideal(text: str):
    """The ideal over just the cells the text names, in the antidiagonal
    order; an index 0 names no cell, so it reads as an unknown variable."""
    found = re.findall(r"z\[(\d+),(\d+)\]", text)
    if not found:
        raise ValueError("no z[i,j] variables found in the ideal text")
    cells = {(int(i), int(j)) for i, j in found if int(i) and int(j)}
    ring = _cell_ring(cells, _READING_KEYS["antidiag"])
    pieces = re.split(r",(?![^\[]*\])", text)
    return MonomialIdeal.from_polys(
        [parse_poly(ring, p) for p in pieces if p.strip()]
    )


def _emit(args, lines, payload) -> None:
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, **payload}, indent=1, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_bpd(args) -> int:
    w = perms.perm_from_text(args.word)
    grids = bpd_mod.enumerate_bpds(w)
    if args.action == "count":
        _emit(args, [str(len(grids))], {"count": len(grids)})
    else:
        grids = sorted(grids)
        blocks = [bpd_mod.bpd_to_text(B) for B in grids]
        _emit(args, ["\n\n".join(blocks)], {"bpds": [bpd_mod.bpd_to_json(B) for B in grids]})
    return 0


def cmd_poly(args) -> int:
    if args.beta is not None and args.kind != "groth":
        raise ValueError(f"poly {args.kind} takes no --beta")
    w = perms.perm_from_text(args.word)
    n = len(w)
    if args.kind == "schubert":
        f = single_schubert_poly(w, x_ring(n))
    elif args.kind == "dschubert":
        f = schubert_poly(w, double_ring(n))
    else:
        f = grothendieck_poly(w, grothendieck_ring(n))
        if args.beta is not None:
            f = set_beta(f, args.beta)
    _emit(args, [f.to_text()], {"poly": f.term_map()})
    return 0


def cmd_ideal(args) -> int:
    A = _perm_or_asm(args.input)
    ring = matrix_ring(len(A), args.order)
    gens = asm_generators(A, ring)
    if args.kind == "gb":
        gens = buchberger(gens)
    elif args.kind == "init":
        ms = initial_ideal(gens)
        texts = [ring.monomial_text(m) for m in ms]
        _emit(args, texts, {"generators": texts})
        return 0
    texts = [g.to_text() for g in gens]
    _emit(args, texts, {"generators": texts})
    return 0


def cmd_mono(args) -> int:
    if args.grading is not None and args.action in ("decompose", "ass"):
        raise ValueError(f"mono {args.action} takes no --grading")
    J = _monomial_ideal(args.ideal)
    ring = J.ring
    if args.action == "decompose":
        comps = [
            [ring.monomial_text(m) for m in Q.gens]
            for Q in J.irreducible_components()
        ]
        lines = [" , ".join(c) for c in comps]
        _emit(args, lines, {"components": comps})
    elif args.action == "ass":
        names = [list(prime_names(ring, P)) for P in J.associated_primes()]
        _emit(args, [" , ".join(p) for p in names], {"primes": names})
    else:
        grade = J.multidegree if args.action == "multidegree" else J.k_polynomial
        f = grade(*grading_images(ring, args.grading or "rows-columns"))
        _emit(args, [f.to_text()], {"poly": f.term_map()})
    return 0


def cmd_lattice(args) -> int:
    if args.action in ("join", "meet"):
        asms = [_perm_or_asm(t) for t in args.inputs]
        out = asm_mod.join(asms) if args.action == "join" else asm_mod.meet(asms)
        _emit(args, [asm_mod.asm_to_text(out)], {"asm": [list(r) for r in out]})
        return 0
    A = _perm_or_asm(args.inputs[0])
    if args.action == "perm":
        words = sorted(perms.perm_to_text(w) for w in asm_mod.perm_set(A))
    else:
        words = sorted(
            perms.perm_to_text(w)
            for w in asm_mod.bigrassmannian_join_decomposition(A)
        )
    _emit(args, words, {"permutations": words})
    return 0


VERIFIERS = {
    "main": "verify_main_theorem",
    "transition": "verify_schubert_transition",
    "groth-transition": "verify_grothendieck_transition",
    "theoremB": "verify_theorem_B",
    "linkdecomp": "verify_link_decomposition",
    "asm": "verify_asm_lattice",
    "ycompat": "verify_ycompat",
    "hilbert": "verify_hilbert_transition",
}
# The targets that read --order or --corner; the flag on any other target
# is invalid input rather than silently ignored.
_TAKES_ORDER = {"main", "ycompat", "hilbert"}
_TAKES_CORNER = {"transition", "groth-transition", "linkdecomp", "ycompat", "hilbert"}


def _verify_cases(args) -> list[tuple]:
    """Cases for the explicit inputs as one family, or for each member of
    the swept group as a family of its own."""
    kind = args.target
    for flag, takers in (("order", _TAKES_ORDER), ("corner", _TAKES_CORNER)):
        if getattr(args, flag) is not None and kind not in takers:
            raise ValueError(f"verify {kind} takes no --{flag}")
    order = args.order or "diag"
    corner = parse_cell(args.corner) if args.corner else None
    if args.all_sn is not None:
        if args.inputs:
            raise ValueError("give case inputs or --all-sn N, not both")
        sweep = asm_mod.all_asms if kind == "asm" else perms.all_perms
        families = [[x] for x in sweep(args.all_sn)]
    elif args.inputs:
        parse = _perm_or_asm if kind == "asm" else perms.perm_from_text
        families = [[parse(t) for t in args.inputs]]
    else:
        raise ValueError("give case inputs or --all-sn N")
    cases = []
    for ws in families:
        if kind == "main":
            cases.append((kind, ws, order))
        elif kind in ("theoremB", "asm"):
            cases.extend((kind, x) for x in ws)
        elif kind == "ycompat":
            # A bad family is reported as such, not as a missing cell.
            ws, _ = tr._family(ws)
            cell = corner or tr.maximal_accessible_cell(ws)
            if cell is not None:
                cases.append((kind, ws, cell, order))
            elif args.all_sn is None:
                raise ValueError("no accessible cell; pass --corner")
        else:
            extra = (order,) if kind in _TAKES_ORDER else ()
            for w in ws:
                for c in [corner] if corner else sorted(perms.lower_outside_corners(w)):
                    cases.append((kind, w, c, *extra))
    return cases


def run_verify_case(case: tuple) -> dict:
    # Looked up by name at call time, so a verifier rebound on the
    # transition module (perfbench's tracer does this) is the one called.
    return getattr(tr, VERIFIERS[case[0]])(*case[1:])


def cmd_verify(args) -> int:
    cases = _verify_cases(args)
    cores = os.cpu_count() or 1
    workers = min(args.workers or cores, len(cases), cores)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run_verify_case, cases))
    else:
        reports = [run_verify_case(c) for c in cases]
    failed = [r for r in reports if r["status"] != "pass"]
    lines = [
        f"{r['status'].upper():4} {r['case']}  {r['statement']}" for r in reports
    ]
    lines.append(f"{len(reports) - len(failed)} passed, {len(failed)} failed")
    _emit(args, lines, {"reports": reports, "failed": len(failed)})
    return 1 if failed else 0


def _at_least_one(need: str):
    """An argparse type for an int of at least 1; ``need`` words the
    complaint about a smaller one."""

    def convert(text: str) -> int:
        try:
            n = int(text)
        except ValueError:  # word it as argparse does for type=int
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < 1:
            raise argparse.ArgumentTypeError(f"{need}, got {n}")
        return n

    return convert


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="bumpless",
        description="Pipe tilings, determinantal ideals, and their degenerations.",
    )
    top.add_argument("--format", choices=("text", "json"), default="text")
    top.add_argument(
        "--workers",
        type=_at_least_one("need at least 1 worker"),
        default=None,
        help="parallel verification cases (default: available cores)",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bpd", help="enumerate or count pipe tilings")
    p.add_argument("action", choices=("enum", "count"))
    p.add_argument("word")

    p = sub.add_parser("poly", help="Schubert and Grothendieck polynomials")
    p.add_argument("kind", choices=("schubert", "dschubert", "groth"))
    p.add_argument("word")
    p.add_argument("--beta", type=int, default=None, help="substitute beta (groth only)")

    p = sub.add_parser("ideal", help="determinantal generators and bases")
    p.add_argument("kind", choices=("asm", "gb", "init"))
    p.add_argument("input", help="permutation word, or ASM rows split by ;")
    p.add_argument("--order", default="antidiag", help="diag | antidiag | col-lex | yref:a,b:BASE")

    p = sub.add_parser("mono", help="monomial-ideal decompositions and gradings")
    p.add_argument("action", choices=("decompose", "ass", "kpoly", "multidegree"))
    p.add_argument("ideal", help="comma-separated monomials in z[i,j]")
    p.add_argument(
        "--grading",
        choices=("standard", "rows", "rows-columns"),
        default=None,
        help="default rows-columns; kpoly and multidegree only",
    )

    p = sub.add_parser("lattice", help="ASM lattice operations")
    p.add_argument("action", choices=("join", "meet", "perm", "decompose"))
    p.add_argument("inputs", nargs="+", help="permutations or ASMs")

    p = sub.add_parser("verify", help="run verification cases")
    p.add_argument("target", choices=VERIFIERS)
    p.add_argument("inputs", nargs="*", help="permutations (or ASMs for asm)")
    p.add_argument("--all-sn", type=_at_least_one("need a matrix size of at least 1"),
                   default=None, metavar="N",
                   help="sweep every case at matrix size N")
    p.add_argument("--corner", default=None, help="cell a,b (not main, theoremB, asm)")
    p.add_argument("--order", default=None, help="default diag; main, hilbert, ycompat")
    return top


_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        # By name at call time, like the verifiers: a rebound handler is used.
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
